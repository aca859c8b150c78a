// End-to-end IPv6 router tests: the Sec. 6 claim as a working system. Same
// invariants as the IPv4 router — every packet resolves exactly once with
// the full-table-correct next hop — over 128-bit destinations.
#include "core/router_sim6.h"

#include <gtest/gtest.h>

#include "core/router_sim.h"
#include "net/table_gen.h"

namespace {

using namespace spal;

net::RouteTable6 v6_table(std::size_t size = 4'000) {
  net::TableGen6Config config;
  config.size = size;
  config.seed = 601;
  return net::generate_table6(config);
}

core::RouterConfig v6_config(int num_lcs) {
  core::RouterConfig config = core::spal_default_config(num_lcs);
  config.packets_per_lc = 3'000;
  config.cache.blocks = 512;
  return config;
}

trace::WorkloadProfile v6_profile() {
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 2'000;
  return profile;
}

class Router6ConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(Router6ConfigTest, AllPacketsResolveCorrectly) {
  const int psi = GetParam();
  core::RouterSim6 router(v6_table(), v6_config(psi));
  const auto result = router.run_workload(v6_profile(), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets, static_cast<std::uint64_t>(psi) * 3'000u);
  EXPECT_EQ(result.verify_mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(PsiSweep, Router6ConfigTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "psi_" + std::to_string(info.param);
                         });

TEST(RouterSim6, Deterministic) {
  core::RouterSim6 router(v6_table(), v6_config(4));
  const auto a = router.run_workload(v6_profile());
  const auto b = router.run_workload(v6_profile());
  EXPECT_EQ(a.latency.total_cycles(), b.latency.total_cycles());
  EXPECT_EQ(a.fe_lookups, b.fe_lookups);
}

TEST(RouterSim6, PerLcCountersDecomposeRouterTotals) {
  // Same decomposition invariants as the IPv4 router: the per-LC
  // observability layer is shared, so both address families must satisfy
  // them.
  constexpr int kPsi = 4;
  core::RouterSim6 router(v6_table(), v6_config(kPsi));
  const auto result = router.run_workload(v6_profile());

  ASSERT_EQ(result.per_lc.size(), static_cast<std::size_t>(kPsi));
  ASSERT_EQ(result.remote_fanout.size(),
            static_cast<std::size_t>(kPsi) * kPsi);

  std::uint64_t latency_count = 0;
  for (const auto& stats : result.per_lc_latency) latency_count += stats.count();
  EXPECT_EQ(latency_count, result.latency.count());
  EXPECT_EQ(latency_count, result.resolved_packets);

  cache::LrCacheStats sum;
  std::uint64_t fe_lookups = 0;
  for (const auto& lc : result.per_lc) {
    sum.accumulate(lc.cache);
    fe_lookups += lc.fe_lookups;
  }
  EXPECT_EQ(sum.probes, result.cache_total.probes);
  EXPECT_EQ(sum.hits, result.cache_total.hits);
  EXPECT_EQ(sum.misses, result.cache_total.misses);
  EXPECT_EQ(sum.waiting_hits, result.cache_total.waiting_hits);
  EXPECT_EQ(fe_lookups, result.fe_lookups);
  EXPECT_EQ(result.cache_total.hits,
            result.cache_total.loc_hits + result.cache_total.rem_hits);

  EXPECT_EQ(result.fabric.messages,
            result.remote_requests + result.remote_replies);
  std::uint64_t fanout = 0;
  for (const std::uint64_t cell : result.remote_fanout) fanout += cell;
  EXPECT_EQ(fanout, result.remote_requests);
}

TEST(RouterSim6, CachingCutsFeLoad) {
  core::RouterSim6 router(v6_table(), v6_config(4));
  const auto result = router.run_workload(v6_profile());
  EXPECT_LT(static_cast<double>(result.fe_lookups),
            0.5 * static_cast<double>(result.resolved_packets));
  EXPECT_GT(result.cache_total.hit_rate(), 0.5);
}

TEST(RouterSim6, PartitioningImprovesMeanOverPsi) {
  const net::RouteTable6 table = v6_table(20'000);
  trace::WorkloadProfile profile = v6_profile();
  profile.flows = 20'000;
  core::RouterConfig one = v6_config(1);
  one.packets_per_lc = 10'000;
  one.cache.blocks = 4096;
  core::RouterConfig sixteen = v6_config(16);
  sixteen.packets_per_lc = 10'000;
  sixteen.cache.blocks = 4096;
  core::RouterSim6 router_one(table, one);
  core::RouterSim6 router_sixteen(table, sixteen);
  EXPECT_LT(router_sixteen.run_workload(profile).mean_lookup_cycles(),
            router_one.run_workload(profile).mean_lookup_cycles());
}

TEST(RouterSim6, PerLcStorageShrinks) {
  const net::RouteTable6 table = v6_table(20'000);
  core::RouterConfig partitioned = v6_config(8);
  core::RouterConfig replicated = v6_config(8);
  replicated.partition = false;
  core::RouterSim6 a(table, partitioned);
  core::RouterSim6 b(table, replicated);
  const auto part = a.trie_storage_bytes();
  const auto full = b.trie_storage_bytes();
  for (std::size_t i = 0; i < part.size(); ++i) {
    EXPECT_LT(static_cast<double>(part[i]), 0.45 * static_cast<double>(full[i]));
  }
}

TEST(RouterSim6, FlushAndSelectiveInvalidationWork) {
  for (const auto policy :
       {core::RouterConfig::UpdatePolicy::kFlushAll,
        core::RouterConfig::UpdatePolicy::kSelectiveInvalidate}) {
    core::RouterConfig config = v6_config(2);
    config.update.interval_cycles = 2'000;
    config.update_policy = policy;
    core::RouterSim6 router(v6_table(), config);
    const auto result = router.run_workload(v6_profile(), true);
    EXPECT_EQ(result.verify_mismatches, 0u);
    EXPECT_EQ(result.resolved_packets, 2u * 3'000u);
    EXPECT_GT(result.update.applied, 0u);
  }
}

TEST(TraceGen6, DeterministicSharedPopulation) {
  const net::RouteTable6 table = v6_table();
  const trace::TraceGenerator6 gen(v6_profile(), table);
  EXPECT_EQ(gen.generate(1, 200), gen.generate(1, 200));
  EXPECT_NE(gen.generate(0, 200), gen.generate(1, 200));
  EXPECT_EQ(gen.flow_count(), 2'000u);
}

TEST(TraceGen6, DestinationsMatchTheTable) {
  const net::RouteTable6 table = v6_table();
  const trie::BinaryTrie6 oracle(table);
  const trace::TraceGenerator6 gen(v6_profile(), table);
  for (const auto& addr : gen.generate(0, 500)) {
    EXPECT_NE(oracle.lookup(addr), net::kNoRoute);
  }
}

}  // namespace
