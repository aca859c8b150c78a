// Tests for the beyond-the-paper extensions: the Gupta 24/8 hardware table,
// selective cache invalidation, FE parallelism, and update-policy modelling.
#include <gtest/gtest.h>

#include "core/spal.h"

namespace {

using namespace spal;
using cache::LrCache;
using cache::LrCacheConfig;
using cache::Origin;
using cache::ProbeState;

net::RouteTable ext_table() {
  net::TableGenConfig config;
  config.size = 2'000;
  config.seed = 501;
  return net::generate_table(config);
}

// --- Gupta 24/8 hardware table ---

TEST(GuptaTrie, AtMostTwoAccessesPerLookup) {
  const net::RouteTable table = ext_table();
  const trie::GuptaTrie trie(table);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 2'000; ++i) {
    trie::MemAccessCounter counter;
    (void)trie.lookup_counted(net::Ipv4Addr{static_cast<std::uint32_t>(rng())},
                              counter);
    EXPECT_GE(counter.total(), 1u);
    EXPECT_LE(counter.total(), 2u);
  }
}

TEST(GuptaTrie, LevelOneTableIsThirtyTwoMegabytes) {
  net::RouteTable table;
  table.add(*net::Prefix::parse("10.0.0.0/8"), 1);
  const trie::GuptaTrie trie(table);
  EXPECT_GE(trie.storage_bytes(), std::size_t{32} * 1024 * 1024);
  EXPECT_EQ(trie.chunk_count(), 0u);
}

TEST(GuptaTrie, LongPrefixesCreateChunks) {
  net::RouteTable table;
  table.add(*net::Prefix::parse("10.1.2.0/25"), 1);
  table.add(*net::Prefix::parse("10.1.2.128/25"), 2);
  table.add(*net::Prefix::parse("10.1.3.0/26"), 3);
  const trie::GuptaTrie trie(table);
  EXPECT_EQ(trie.chunk_count(), 2u);  // distinct /24 slots: 10.1.2, 10.1.3
  EXPECT_EQ(trie.lookup(net::Ipv4Addr{0x0A010281u}), 2u);
  EXPECT_EQ(trie.lookup(net::Ipv4Addr{0x0A010301u}), 3u);
  EXPECT_EQ(trie.lookup(net::Ipv4Addr{0x0A010341u}), net::kNoRoute);
}

TEST(GuptaTrie, LeafPushingIntoChunks) {
  net::RouteTable table;
  table.add(*net::Prefix::parse("10.1.2.0/24"), 7);
  table.add(*net::Prefix::parse("10.1.2.128/26"), 8);
  const trie::GuptaTrie trie(table);
  EXPECT_EQ(trie.lookup(net::Ipv4Addr{0x0A010281u}), 8u);
  EXPECT_EQ(trie.lookup(net::Ipv4Addr{0x0A010201u}), 7u);  // /24 default
}

// --- Selective invalidation ---

TEST(LrCacheInvalidate, DropsOnlyCoveredBlocks) {
  LrCacheConfig config;
  config.blocks = 64;
  config.remote_fraction = 0.0;
  LrCache cache(config);
  cache.insert(net::Ipv4Addr{0x0A010101u}, 1, Origin::kLocal, 0);
  cache.insert(net::Ipv4Addr{0x0A010201u}, 2, Origin::kLocal, 1);
  cache.insert(net::Ipv4Addr{0x0B000001u}, 3, Origin::kLocal, 2);
  const std::size_t dropped =
      cache.invalidate_matching(*net::Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(cache.probe(net::Ipv4Addr{0x0A010101u}, 3).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(net::Ipv4Addr{0x0A010201u}, 4).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(net::Ipv4Addr{0x0B000001u}, 5).state, ProbeState::kHit);
}

TEST(LrCacheInvalidate, ReachesVictimCache) {
  LrCacheConfig config;
  config.blocks = 4;  // one set
  config.remote_fraction = 0.0;
  config.victim_blocks = 8;
  LrCache cache(config);
  for (std::uint32_t tag = 0; tag < 6; ++tag) {
    cache.insert(net::Ipv4Addr{0x0A000000u + tag * 4}, tag, Origin::kLocal, tag);
  }
  // Some of the six live in the victim cache now; all are covered.
  const std::size_t dropped =
      cache.invalidate_matching(*net::Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(dropped, 6u);
}

TEST(LrCacheInvalidate, LeavesWaitingBlocks) {
  LrCacheConfig config;
  config.blocks = 16;
  LrCache cache(config);
  ASSERT_TRUE(cache.reserve(net::Ipv4Addr{0x0A000001u}, Origin::kLocal, 0));
  EXPECT_EQ(cache.invalidate_matching(*net::Prefix::parse("10.0.0.0/8")), 0u);
  EXPECT_EQ(cache.probe(net::Ipv4Addr{0x0A000001u}, 1).state, ProbeState::kWaiting);
  EXPECT_TRUE(cache.fill(net::Ipv4Addr{0x0A000001u}, 9, 2));
}

// --- Update policy in the router ---

TEST(UpdatePolicy, SelectiveKeepsHitRateUnderFrequentUpdates) {
  trace::WorkloadProfile profile = trace::profile_d75();
  profile.flows = 2'000;
  core::RouterConfig flush_config = core::spal_default_config(2);
  flush_config.packets_per_lc = 10'000;
  flush_config.trie = trie::TrieKind::kDp;
  flush_config.update.interval_cycles = 2'000;
  core::RouterConfig selective_config = flush_config;
  selective_config.update_policy =
      core::RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  const net::RouteTable table = ext_table();
  core::RouterSim flush_router(table, flush_config);
  core::RouterSim selective_router(table, selective_config);
  const auto flush_result = flush_router.run_workload(profile, true);
  const auto selective_result = selective_router.run_workload(profile, true);
  EXPECT_EQ(flush_result.verify_mismatches, 0u);
  EXPECT_EQ(selective_result.verify_mismatches, 0u);
  EXPECT_GT(selective_result.cache_total.hit_rate(),
            flush_result.cache_total.hit_rate());
  EXPECT_GT(selective_result.update.applied, 0u);
  EXPECT_EQ(selective_result.update.applied, flush_result.update.applied);
}

// --- FE parallelism ---

TEST(FeParallelism, MoreEnginesCutQueueingUnderLoad) {
  core::RouterConfig one = core::conventional_config(2);
  one.packets_per_lc = 5'000;
  one.line_rate_gbps = 40.0;  // 40-cycle service, ~10-cycle arrivals: overload
  core::RouterConfig four = one;
  four.fe_parallelism = 4;
  const net::RouteTable table = ext_table();
  trace::WorkloadProfile profile = trace::profile_d75();
  profile.flows = 2'000;
  core::RouterSim router_one(table, one);
  core::RouterSim router_four(table, four);
  const auto result_one = router_one.run_workload(profile, true);
  const auto result_four = router_four.run_workload(profile, true);
  EXPECT_EQ(result_four.verify_mismatches, 0u);
  // 4 engines cover the 4x oversubscription; 1 engine queues unboundedly.
  EXPECT_LT(result_four.mean_lookup_cycles() * 5.0,
            result_one.mean_lookup_cycles());
  EXPECT_LE(result_four.max_fe_utilization, 1.0);
}

TEST(FeParallelism, NoEffectWhenUnderloaded) {
  core::RouterConfig one = core::spal_default_config(2);
  one.packets_per_lc = 5'000;
  core::RouterConfig four = one;
  four.fe_parallelism = 4;
  const net::RouteTable table = ext_table();
  trace::WorkloadProfile profile = trace::profile_d75();
  profile.flows = 2'000;
  core::RouterSim router_one(table, one);
  core::RouterSim router_four(table, four);
  const double mean_one = router_one.run_workload(profile).mean_lookup_cycles();
  const double mean_four = router_four.run_workload(profile).mean_lookup_cycles();
  EXPECT_NEAR(mean_one, mean_four, 0.5 + 0.1 * mean_one);
}

}  // namespace
