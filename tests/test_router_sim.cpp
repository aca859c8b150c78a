// End-to-end router-simulation tests: the SPAL lookup flow must resolve
// every packet exactly once with full-table-correct next hops, across the
// whole configuration space.
#include "core/router_sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "net/table_gen.h"

namespace {

using namespace spal;
using core::RouterConfig;
using core::RouterResult;
using core::RouterSim;

net::RouteTable small_table(std::uint64_t seed = 201) {
  net::TableGenConfig config;
  config.size = 3'000;
  config.seed = seed;
  return net::generate_table(config);
}

RouterConfig small_config(int num_lcs) {
  RouterConfig config = core::spal_default_config(num_lcs);
  config.packets_per_lc = 3'000;
  config.cache.blocks = 512;
  return config;
}

trace::WorkloadProfile small_profile() {
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 2'000;
  return profile;
}

struct ConfigCase {
  const char* label;
  int num_lcs;
  bool partition;
  bool use_cache;
  bool early_reservation;
  trie::TrieKind trie;
};

const ConfigCase kConfigs[] = {
    {"spal_psi4", 4, true, true, true, trie::TrieKind::kLulea},
    {"spal_psi16", 16, true, true, true, trie::TrieKind::kLulea},
    {"spal_psi3_nonpow2", 3, true, true, true, trie::TrieKind::kLulea},
    {"spal_psi1", 1, true, true, true, trie::TrieKind::kLulea},
    {"spal_dp_trie", 4, true, true, true, trie::TrieKind::kDp},
    {"spal_lc_trie", 4, true, true, true, trie::TrieKind::kLc},
    {"no_early_reservation", 4, true, true, false, trie::TrieKind::kLulea},
    {"cache_only", 4, false, true, true, trie::TrieKind::kLulea},
    {"partition_only", 4, true, false, true, trie::TrieKind::kLulea},
    {"conventional", 4, false, false, true, trie::TrieKind::kLulea},
};

class RouterConfigSpaceTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(RouterConfigSpaceTest, AllPacketsResolveCorrectly) {
  const ConfigCase& c = GetParam();
  RouterConfig config = small_config(c.num_lcs);
  config.partition = c.partition;
  config.use_lr_cache = c.use_cache;
  config.early_reservation = c.early_reservation;
  config.trie = c.trie;
  // Low line rate keeps the conventional (no-cache) cases from queueing
  // unboundedly while still exercising the whole flow.
  config.line_rate_gbps = 10.0;
  RouterSim router(small_table(), config);
  const RouterResult result = router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets,
            static_cast<std::uint64_t>(c.num_lcs) * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.latency.count(), result.resolved_packets);
  EXPECT_GT(result.makespan_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(ConfigSpace, RouterConfigSpaceTest,
                         ::testing::ValuesIn(kConfigs),
                         [](const ::testing::TestParamInfo<ConfigCase>& info) {
                           return info.param.label;
                         });

TEST(RouterSim, DeterministicAcrossRuns) {
  RouterSim router(small_table(), small_config(4));
  const RouterResult a = router.run_workload(small_profile());
  const RouterResult b = router.run_workload(small_profile());
  EXPECT_EQ(a.latency.total_cycles(), b.latency.total_cycles());
  EXPECT_EQ(a.cache_total.hits, b.cache_total.hits);
  EXPECT_EQ(a.fe_lookups, b.fe_lookups);
  EXPECT_EQ(a.remote_requests, b.remote_requests);
}

TEST(RouterSim, PerLcCountersDecomposeRouterTotals) {
  constexpr int kPsi = 4;
  RouterSim router(small_table(), small_config(kPsi));
  const RouterResult result = router.run_workload(small_profile());

  ASSERT_EQ(result.per_lc.size(), static_cast<std::size_t>(kPsi));
  ASSERT_EQ(result.per_lc_latency.size(), static_cast<std::size_t>(kPsi));
  ASSERT_EQ(result.remote_fanout.size(),
            static_cast<std::size_t>(kPsi) * kPsi);

  // Per-LC latency counts partition the resolved packets.
  std::uint64_t latency_count = 0;
  for (const auto& stats : result.per_lc_latency) latency_count += stats.count();
  EXPECT_EQ(latency_count, result.latency.count());
  EXPECT_EQ(latency_count, result.resolved_packets);

  // Per-LC cache counters sum to the router-wide totals, and the hit
  // breakdown is internally consistent.
  cache::LrCacheStats sum;
  std::uint64_t fe_lookups = 0;
  for (const auto& lc : result.per_lc) {
    sum.accumulate(lc.cache);
    fe_lookups += lc.fe_lookups;
    EXPECT_LE(lc.fe_utilization, 1.0);
    EXPECT_GE(lc.fe_utilization, 0.0);
  }
  EXPECT_EQ(sum.probes, result.cache_total.probes);
  EXPECT_EQ(sum.hits, result.cache_total.hits);
  EXPECT_EQ(sum.misses, result.cache_total.misses);
  EXPECT_EQ(sum.waiting_hits, result.cache_total.waiting_hits);
  EXPECT_EQ(sum.victim_hits, result.cache_total.victim_hits);
  EXPECT_EQ(sum.loc_hits, result.cache_total.loc_hits);
  EXPECT_EQ(sum.rem_hits, result.cache_total.rem_hits);
  EXPECT_EQ(fe_lookups, result.fe_lookups);
  EXPECT_EQ(result.cache_total.hits,
            result.cache_total.loc_hits + result.cache_total.rem_hits);
  EXPECT_EQ(result.cache_total.probes,
            result.cache_total.hits + result.cache_total.misses +
                result.cache_total.waiting_hits);

  // Fabric: one reply per remote request, and every message leaves one
  // port and arrives at another.
  EXPECT_EQ(result.fabric.messages,
            result.remote_requests + result.remote_replies);
  EXPECT_GT(result.remote_requests, 0u);  // ψ = 4 must produce fan-out
  ASSERT_EQ(result.fabric.ports.size(), static_cast<std::size_t>(kPsi));
  std::uint64_t sent = 0, received = 0;
  for (const auto& port : result.fabric.ports) {
    sent += port.sent;
    received += port.received;
  }
  EXPECT_EQ(sent, result.fabric.messages);
  EXPECT_EQ(received, result.fabric.messages);

  // The fan-out matrix counts each remote request once, never diagonally
  // (an LC does not send itself a fabric request).
  std::uint64_t fanout = 0;
  for (int src = 0; src < kPsi; ++src) {
    for (int home = 0; home < kPsi; ++home) {
      const std::uint64_t cell = result.remote_fanout[src * kPsi + home];
      fanout += cell;
      if (src == home) {
        EXPECT_EQ(cell, 0u) << "src=" << src;
      }
    }
  }
  EXPECT_EQ(fanout, result.remote_requests);
}

TEST(RouterSim, JsonReportRoundTripsKeyCounters) {
  RouterSim router(small_table(), small_config(2));
  const RouterResult result = router.run_workload(small_profile());
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"resolved_packets\":" +
                      std::to_string(result.resolved_packets)),
            std::string::npos);
  EXPECT_NE(json.find("\"per_lc\":["), std::string::npos);
  EXPECT_NE(json.find("\"remote_fanout\":["), std::string::npos);
  EXPECT_NE(json.find("\"waiting_highwater\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(RouterSim, RejectsBadArguments) {
  EXPECT_THROW(RouterSim(small_table(), core::spal_default_config(0)),
               std::invalid_argument);
  RouterSim router(small_table(), small_config(4));
  EXPECT_THROW(router.run({{}, {}}, false), std::invalid_argument);  // 2 != 4
}

TEST(RouterSim, RejectsLineRatesWithoutArrivalBounds) {
  // Rejected at construction, beside the other config checks, rather than
  // at the first run's arrival generation.
  for (const double rate : {std::nan(""), 0.0, 1e-12}) {
    RouterConfig config = small_config(4);
    config.line_rate_gbps = rate;
    EXPECT_THROW(RouterSim(small_table(), config), std::invalid_argument)
        << rate;
  }
}

TEST(RouterSim, ConventionalMeanIsAtLeastServiceTime) {
  RouterConfig config = small_config(2);
  config.partition = false;
  config.use_lr_cache = false;
  config.line_rate_gbps = 10.0;
  config.fe_service_cycles = 40;
  RouterSim router(small_table(), config);
  const RouterResult result = router.run_workload(small_profile());
  EXPECT_GE(result.mean_lookup_cycles(), 40.0);
  // All lookups run at the local FE: no fabric traffic, no cache.
  EXPECT_EQ(result.remote_requests, 0u);
  EXPECT_EQ(result.fe_lookups, result.resolved_packets);
}

TEST(RouterSim, SpalCutsFeLoadViaCaching) {
  RouterConfig config = small_config(4);
  RouterSim router(small_table(), config);
  const RouterResult result = router.run_workload(small_profile());
  // With working LR-caches most packets never reach an FE.
  EXPECT_LT(static_cast<double>(result.fe_lookups),
            0.5 * static_cast<double>(result.resolved_packets));
}

TEST(RouterSim, RemoteShareMatchesPartitionFanout) {
  // With ψ=4 partitions, ~3/4 of destinations are homed remotely; remote
  // requests happen only on arrival-LC misses.
  RouterConfig config = small_config(4);
  RouterSim router(small_table(), config);
  const RouterResult result = router.run_workload(small_profile());
  EXPECT_GT(result.remote_requests, 0u);
  EXPECT_LT(result.remote_requests, result.resolved_packets);
}

TEST(RouterSim, Psi1HasNoFabricTraffic) {
  RouterSim router(small_table(), small_config(1));
  const RouterResult result = router.run_workload(small_profile());
  EXPECT_EQ(result.remote_requests, 0u);
  EXPECT_EQ(result.fabric.messages, 0u);
}

TEST(RouterSim, BiggerCacheNeverHurtsHitRate) {
  RouterConfig small = small_config(4);
  small.cache.blocks = 128;
  RouterConfig large = small_config(4);
  large.cache.blocks = 4096;
  const net::RouteTable table = small_table();
  RouterSim small_router(table, small);
  RouterSim large_router(table, large);
  const double small_rate =
      small_router.run_workload(small_profile()).cache_total.hit_rate();
  const double large_rate =
      large_router.run_workload(small_profile()).cache_total.hit_rate();
  EXPECT_GE(large_rate + 0.01, small_rate);  // tolerance for set-mapping noise
}

TEST(RouterSim, EarlyReservationSuppressesDuplicateFeWork) {
  RouterConfig with = small_config(4);
  RouterConfig without = small_config(4);
  without.early_reservation = false;
  const net::RouteTable table = small_table();
  trace::WorkloadProfile bursty = small_profile();
  bursty.burst_mean = 8.0;  // long packet trains stress the W-bit path
  RouterSim router_with(table, with);
  RouterSim router_without(table, without);
  const auto result_with = router_with.run_workload(bursty, true);
  const auto result_without = router_without.run_workload(bursty, true);
  EXPECT_EQ(result_with.verify_mismatches, 0u);
  EXPECT_EQ(result_without.verify_mismatches, 0u);
  EXPECT_LE(result_with.fe_lookups, result_without.fe_lookups);
}

TEST(RouterSim, FlushIntervalForcesColdRestarts) {
  // One live update every 2,000 cycles, each flushing every LR-cache (the
  // default flush-all policy). The DP trie applies each in place.
  RouterConfig config = small_config(2);
  config.trie = trie::TrieKind::kDp;
  config.update.interval_cycles = 2'000;
  RouterSim router(small_table(), config);
  const RouterResult result = router.run_workload(small_profile(), true);
  EXPECT_GT(result.cache_total.flushes, 0u);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.resolved_packets, 2u * 3'000u);
}

TEST(RouterSim, FlushingLowersHitRate) {
  RouterConfig steady = small_config(2);
  steady.trie = trie::TrieKind::kDp;
  RouterConfig flushy = steady;
  flushy.update.interval_cycles = 1'000;
  const net::RouteTable table = small_table();
  RouterSim steady_router(table, steady);
  RouterSim flushy_router(table, flushy);
  EXPECT_GT(steady_router.run_workload(small_profile()).cache_total.hit_rate(),
            flushy_router.run_workload(small_profile()).cache_total.hit_rate());
}

TEST(RouterSim, TrieStorageShrinksWithPartitioning) {
  const net::RouteTable table = small_table();
  RouterConfig partitioned = small_config(4);
  RouterConfig replicated = small_config(4);
  replicated.partition = false;
  RouterSim a(table, partitioned);
  RouterSim b(table, replicated);
  const auto part_sizes = a.trie_storage_bytes();
  const auto full_sizes = b.trie_storage_bytes();
  ASSERT_EQ(part_sizes.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(part_sizes[i], full_sizes[i]);
  }
}

TEST(RouterSim, WorstCaseIsBoundedInUnderload) {
  RouterConfig config = small_config(4);
  config.line_rate_gbps = 10.0;
  RouterSim router(small_table(), config);
  const RouterResult result = router.run_workload(small_profile());
  // Underloaded: worst case stays within a small multiple of FE service
  // plus fabric round trips.
  EXPECT_LT(result.worst_lookup_cycles(), 2'000u);
  EXPECT_GE(result.worst_lookup_cycles(),
            static_cast<std::uint64_t>(config.fe_service_cycles));
}

TEST(RouterSim, TenGigIsGentlerThanFortyGig) {
  RouterConfig slow = small_config(4);
  slow.line_rate_gbps = 10.0;
  RouterConfig fast = small_config(4);
  fast.line_rate_gbps = 40.0;
  const net::RouteTable table = small_table();
  RouterSim slow_router(table, slow);
  RouterSim fast_router(table, fast);
  const auto slow_result = slow_router.run_workload(small_profile());
  const auto fast_result = fast_router.run_workload(small_profile());
  // Same packet count at 4x the rate => makespan shrinks, congestion grows.
  EXPECT_LT(fast_result.makespan_cycles, slow_result.makespan_cycles);
  EXPECT_GE(fast_result.mean_lookup_cycles(), slow_result.mean_lookup_cycles() - 0.5);
}

TEST(RouterSim, PerLcBreakdownSumsToTotal) {
  RouterSim router(small_table(), small_config(4));
  const RouterResult result = router.run_workload(small_profile());
  ASSERT_EQ(result.per_lc_latency.size(), 4u);
  std::uint64_t count = 0, total = 0;
  for (const auto& stats : result.per_lc_latency) {
    count += stats.count();
    total += stats.total_cycles();
    EXPECT_GT(stats.count(), 0u);
  }
  EXPECT_EQ(count, result.latency.count());
  EXPECT_EQ(total, result.latency.total_cycles());
}

TEST(RouterSim, NonPowerOfTwoPsiHasHotterLcs) {
  // With 4 control-bit groups on 3 LCs, one LC homes twice the remote
  // request load; its arrival stream still resolves, but the per-LC means
  // reveal the imbalance (the ψ=3 effect documented in EXPERIMENTS.md).
  RouterConfig config = small_config(3);
  trace::WorkloadProfile scattered = small_profile();
  scattered.flows = 20'000;  // weaker locality -> visible FE pressure
  RouterSim router(small_table(), config);
  const RouterResult result = router.run_workload(scattered, true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  ASSERT_EQ(result.per_lc_latency.size(), 3u);
  double lo = 1e18, hi = 0;
  for (const auto& stats : result.per_lc_latency) {
    lo = std::min(lo, stats.mean_cycles());
    hi = std::max(hi, stats.mean_cycles());
  }
  EXPECT_GE(hi, lo);  // breakdown exists and is ordered sanely
}

TEST(RouterSim, MaxFeUtilizationIsSane) {
  RouterSim router(small_table(), small_config(4));
  const RouterResult result = router.run_workload(small_profile());
  EXPECT_GE(result.max_fe_utilization, 0.0);
  EXPECT_LE(result.max_fe_utilization, 1.0);
}

TEST(RouterSim, ExplicitStreamsRunVerified) {
  const net::RouteTable table = small_table();
  RouterConfig config = small_config(2);
  config.packets_per_lc = 100;  // unused by run(); streams decide
  RouterSim router(table, config);
  std::vector<std::vector<net::Ipv4Addr>> streams(2);
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (auto& stream : streams) {
    for (int i = 0; i < 500; ++i) {
      stream.push_back(net::random_address_in(table.entries()[pick(rng)].prefix, rng));
    }
  }
  const RouterResult result = router.run(streams, true);
  EXPECT_EQ(result.resolved_packets, 1'000u);
  EXPECT_EQ(result.verify_mismatches, 0u);
}

}  // namespace
