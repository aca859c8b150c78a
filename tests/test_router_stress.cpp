// Stress and failure-injection tests for the router simulation: tiny
// saturated caches, quota extremes, flush storms mid-flight, overload
// rates. The invariant under every distortion: each packet resolves exactly
// once with the full-table-correct next hop.
#include "core/router_sim.h"

#include <gtest/gtest.h>

#include "net/table_gen.h"

namespace {

using namespace spal;

net::RouteTable stress_table() {
  net::TableGenConfig config;
  config.size = 2'000;
  config.seed = 401;
  return net::generate_table(config);
}

trace::WorkloadProfile bursty_profile() {
  trace::WorkloadProfile profile = trace::profile_d75();
  profile.flows = 500;     // tiny population -> constant cache churn
  profile.burst_mean = 10; // long trains -> W-bit pressure
  return profile;
}

core::RouterConfig base_config(int num_lcs) {
  core::RouterConfig config = core::spal_default_config(num_lcs);
  config.packets_per_lc = 5'000;
  return config;
}

void expect_all_correct(core::RouterSim& router, const trace::WorkloadProfile& p,
                        std::uint64_t expected_packets) {
  const auto result = router.run_workload(p, /*verify=*/true);
  EXPECT_EQ(result.resolved_packets, expected_packets);
  EXPECT_EQ(result.verify_mismatches, 0u);
}

TEST(RouterStress, TinyCacheFullySaturated) {
  // 8 blocks / 2 sets: reservations constantly fail, waiting quotas pin,
  // late inserts race replies. Correctness must survive.
  core::RouterConfig config = base_config(4);
  config.cache.blocks = 8;
  core::RouterSim router(stress_table(), config);
  expect_all_correct(router, bursty_profile(), 4u * 5'000u);
}

TEST(RouterStress, TinyCacheRecordsFailedReservations) {
  core::RouterConfig config = base_config(4);
  config.cache.blocks = 8;
  core::RouterSim router(stress_table(), config);
  trace::WorkloadProfile scattered = trace::profile_l92_0();
  scattered.flows = 50'000;  // way beyond 8 blocks
  scattered.burst_mean = 1.0;
  const auto result = router.run_workload(scattered, true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_GT(result.cache_total.failed_reservations +
                result.cache_total.quota_bypasses,
            0u);
}

TEST(RouterStress, GammaZeroNeverCachesRemote) {
  core::RouterConfig config = base_config(4);
  config.cache.remote_fraction = 0.0;
  core::RouterSim router(stress_table(), config);
  const auto result = router.run_workload(bursty_profile(), true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_GT(result.cache_total.quota_bypasses, 0u);
}

TEST(RouterStress, GammaOneNeverCachesLocal) {
  core::RouterConfig config = base_config(4);
  config.cache.remote_fraction = 1.0;
  core::RouterSim router(stress_table(), config);
  expect_all_correct(router, bursty_profile(), 4u * 5'000u);
}

TEST(RouterStress, FlushStormOrphansInFlightFills) {
  // A live update every 200 cycles under flush-all invalidation guarantees
  // some replies come back to a flushed cache (orphan fills) and some
  // waiting lists outlive the block.
  core::RouterConfig config = base_config(8);
  config.trie = trie::TrieKind::kDp;
  config.update.interval_cycles = 200;
  core::RouterSim router(stress_table(), config);
  const auto result = router.run_workload(bursty_profile(), true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.resolved_packets, 8u * 5'000u);
  EXPECT_GT(result.cache_total.orphan_fills, 0u);
  EXPECT_GT(result.cache_total.flushes, 100u);
}

TEST(RouterStress, OverloadRateStillCorrect) {
  // ~160 Gbps per LC: packets arrive faster than the FE can serve misses,
  // cache-port contention kicks in, queues balloon — but not correctness.
  core::RouterConfig config = base_config(4);
  config.line_rate_gbps = 160.0;
  config.packets_per_lc = 3'000;
  core::RouterSim router(stress_table(), config);
  const auto result = router.run_workload(bursty_profile(), true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.resolved_packets, 4u * 3'000u);
  // The same streams at 40 Gbps: the 160 Gbps run must really be the
  // heavier load, with a higher mean lookup latency.
  config.line_rate_gbps = 40.0;
  core::RouterSim nominal(stress_table(), config);
  const auto baseline = nominal.run_workload(bursty_profile(), true);
  EXPECT_EQ(baseline.verify_mismatches, 0u);
  EXPECT_GT(result.latency.mean_cycles(), baseline.latency.mean_cycles());
}

TEST(RouterStress, EmptyStreamsAreFine) {
  core::RouterConfig config = base_config(2);
  core::RouterSim router(stress_table(), config);
  const auto result = router.run({{}, {}}, true);
  EXPECT_EQ(result.resolved_packets, 0u);
  EXPECT_EQ(result.latency.count(), 0u);
}

TEST(RouterStress, OneEmptyStreamAmongBusyOnes) {
  // LC 2 receives no packets but still homes a fragment: the others' misses
  // reach it over the fabric while no arrival of its own ever fires.
  core::RouterConfig config = base_config(4);
  const net::RouteTable table = stress_table();
  core::RouterSim router(table, config);
  const trace::TraceGenerator generator(bursty_profile(), table);
  std::vector<std::vector<net::Ipv4Addr>> streams(4);
  for (const int lc : {0, 1, 3}) {
    streams[static_cast<std::size_t>(lc)] = generator.generate(lc, 3'000);
  }
  const auto result = router.run(streams, true);
  EXPECT_EQ(result.resolved_packets, 3u * 3'000u);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.per_lc_latency[2].count(), 0u);
  EXPECT_GT(result.per_lc[2].fe_lookups, 0u);
}

TEST(RouterStress, SinglePacketPerLc) {
  core::RouterConfig config = base_config(2);
  core::RouterSim router(stress_table(), config);
  const net::RouteTable table = stress_table();
  std::vector<std::vector<net::Ipv4Addr>> streams(2);
  streams[0].push_back(table.entries()[0].prefix.range_first());
  streams[1].push_back(table.entries()[1].prefix.range_first());
  const auto result = router.run(streams, true);
  EXPECT_EQ(result.resolved_packets, 2u);
  EXPECT_EQ(result.verify_mismatches, 0u);
}

TEST(RouterStress, IdenticalDestinationEverywhere) {
  // Every packet at every LC targets one address: maximal W-bit waiting
  // lists and cross-LC sharing; exactly correct resolution throughout.
  core::RouterConfig config = base_config(4);
  config.packets_per_lc = 1'000;
  const net::RouteTable table = stress_table();
  core::RouterSim router(table, config);
  const net::Ipv4Addr target = table.entries()[42].prefix.range_first();
  std::vector<std::vector<net::Ipv4Addr>> streams(
      4, std::vector<net::Ipv4Addr>(1'000, target));
  const auto result = router.run(streams, true);
  EXPECT_EQ(result.resolved_packets, 4'000u);
  EXPECT_EQ(result.verify_mismatches, 0u);
  // One FE lookup serves (nearly) everyone; allow a couple for races
  // between the first packets at distinct LCs.
  EXPECT_LE(result.fe_lookups, 8u);
}

TEST(RouterStress, UnroutableDestinationsResolveToNoRoute) {
  // Addresses outside every prefix: SPAL must return kNoRoute consistently
  // (verify mode compares against the oracle, which also says kNoRoute).
  core::RouterConfig config = base_config(2);
  net::RouteTable table;
  table.add(*net::Prefix::parse("10.0.0.0/8"), 1);
  core::RouterSim router(table, config);
  std::vector<std::vector<net::Ipv4Addr>> streams(
      2, std::vector<net::Ipv4Addr>(100, net::Ipv4Addr{0xC0000001u}));
  const auto result = router.run(streams, true);
  EXPECT_EQ(result.resolved_packets, 200u);
  EXPECT_EQ(result.verify_mismatches, 0u);
}

TEST(RouterStress, ManyLcsSmallTable) {
  // ψ = 16 over a table with barely more prefixes than LCs.
  net::TableGenConfig tiny;
  tiny.size = 64;
  tiny.seed = 11;
  core::RouterConfig config = base_config(16);
  config.packets_per_lc = 500;
  core::RouterSim router(net::generate_table(tiny), config);
  trace::WorkloadProfile profile = bursty_profile();
  profile.flows = 100;
  expect_all_correct(router, profile, 16u * 500u);
}

}  // namespace
