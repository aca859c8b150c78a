// Live route-update pipeline tests: the staleness invariant (no lookup may
// resolve a withdrawn/changed hop after that update has settled), quota and
// waiting-list conservation across invalidations, the update-ledger
// identities the JSON report check relies on, and rerunnability of a router
// whose FEs were mutated in place by a previous run.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/router_sim.h"
#include "core/router_sim6.h"
#include "net/table_gen.h"

namespace {

using namespace spal;
using core::RouterConfig;
using core::RouterResult;
using core::RouterSim;
using core::RouterSim6;

net::RouteTable v4_table() {
  net::TableGenConfig config;
  config.size = 3'000;
  config.seed = 201;
  return net::generate_table(config);
}

net::RouteTable6 v6_table() {
  net::TableGen6Config config;
  config.size = 3'000;
  config.seed = 601;
  return net::generate_table6(config);
}

trace::WorkloadProfile small_profile() {
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 2'000;
  return profile;
}

/// Heavy churn: an update every 400 cycles, withdraw-heavy mix (withdrawals
/// are the staleness-prone kind — a stale cached hop for a withdrawn prefix
/// is exactly the bug the invalidation protocol must prevent).
RouterConfig churn_config(int psi, RouterConfig::UpdatePolicy policy,
                          trie::TrieKind trie) {
  RouterConfig config = core::spal_default_config(psi);
  config.packets_per_lc = 3'000;
  config.cache.blocks = 512;
  config.trie = trie;
  config.update_policy = policy;
  config.update.interval_cycles = 400;
  config.update.seed = 11;
  config.update.announce_fraction = 0.2;
  config.update.withdraw_fraction = 0.5;
  return config;
}

struct ChurnCase {
  const char* label;
  RouterConfig::UpdatePolicy policy;
  trie::TrieKind trie;
  int psi;
};

const ChurnCase kChurnCases[] = {
    {"selective_dp_psi4", RouterConfig::UpdatePolicy::kSelectiveInvalidate,
     trie::TrieKind::kDp, 4},
    {"selective_lulea_psi4", RouterConfig::UpdatePolicy::kSelectiveInvalidate,
     trie::TrieKind::kLulea, 4},
    {"selective_dp_psi8", RouterConfig::UpdatePolicy::kSelectiveInvalidate,
     trie::TrieKind::kDp, 8},
    {"flush_dp_psi4", RouterConfig::UpdatePolicy::kFlushAll,
     trie::TrieKind::kDp, 4},
    {"flush_lulea_psi4", RouterConfig::UpdatePolicy::kFlushAll,
     trie::TrieKind::kLulea, 4},
};

class StalenessTest : public ::testing::TestWithParam<ChurnCase> {};

// The staleness invariant, end to end: with verification on, every resolved
// packet is checked against the churning oracle, and a mismatch is excused
// only while an update covering the destination is still in flight. Zero
// mismatches means no lookup ever returned a hop after its update settled.
TEST_P(StalenessTest, NoStaleHopResolvesAfterUpdateSettles) {
  const ChurnCase& c = GetParam();
  RouterSim router(v4_table(), churn_config(c.psi, c.policy, c.trie));
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets,
            static_cast<std::uint64_t>(c.psi) * 3'000u);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_GT(result.update.applied, 0u);
}

INSTANTIATE_TEST_SUITE_P(Churn, StalenessTest,
                         ::testing::ValuesIn(kChurnCases),
                         [](const ::testing::TestParamInfo<ChurnCase>& info) {
                           return info.param.label;
                         });

TEST(RouterUpdates, V6StalenessUnderChurn) {
  for (const auto policy : {RouterConfig::UpdatePolicy::kSelectiveInvalidate,
                            RouterConfig::UpdatePolicy::kFlushAll}) {
    RouterSim6 router(v6_table(),
                      churn_config(4, policy, trie::TrieKind::kDp));
    const RouterResult result =
        router.run_workload(small_profile(), /*verify=*/true);
    EXPECT_EQ(result.resolved_packets, 4u * 3'000u);
    EXPECT_EQ(result.verify_mismatches, 0u);
    EXPECT_GT(result.update.applied, 0u);
  }
}

// Quota / waiting-list conservation. fill() is only ever called for a
// reservation that succeeded, so in a fault-free run every reservation is
// resolved exactly once: by its fill (selective invalidation never touches
// W=1 blocks) or — under flush — by an orphan fill after the flush
// destroyed the waiting block. Any imbalance means an invalidation leaked a
// γ-quota slot or a waiting-list node.
TEST(RouterUpdates, SelectiveInvalidationPreservesWaitingBlocks) {
  RouterSim router(
      v4_table(),
      churn_config(4, RouterConfig::UpdatePolicy::kSelectiveInvalidate,
                   trie::TrieKind::kDp));
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.cache_total.fills, result.cache_total.reservations);
  EXPECT_EQ(result.cache_total.orphan_fills, 0u);
  EXPECT_EQ(result.cache_total.cancelled_reservations, 0u);
  EXPECT_EQ(result.update.cache_flushes, 0u);
}

TEST(RouterUpdates, FlushAccountsForEveryDestroyedWaitingBlock) {
  RouterSim router(v4_table(),
                   churn_config(4, RouterConfig::UpdatePolicy::kFlushAll,
                                trie::TrieKind::kDp));
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.cache_total.fills + result.cache_total.orphan_fills,
            result.cache_total.reservations);
  EXPECT_EQ(result.cache_total.cancelled_reservations, 0u);
  EXPECT_GT(result.update.cache_flushes, 0u);
}

// The ledger identities spal_report --check enforces, asserted directly on
// the result struct (psi = 4 here, so each application broadcasts to 3
// other LCs).
TEST(RouterUpdates, UpdateLedgerBalances) {
  const int psi = 4;
  RouterSim router(
      v4_table(),
      churn_config(psi, RouterConfig::UpdatePolicy::kSelectiveInvalidate,
                   trie::TrieKind::kDp));
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  const core::UpdateStats& u = result.update;
  EXPECT_GT(u.applied, 0u);
  EXPECT_EQ(u.applied, u.announces + u.withdraws + u.hop_changes);
  EXPECT_EQ(u.applications, u.fe_incremental + u.fe_rebuilds);
  EXPECT_LE(u.applied, u.applications);
  EXPECT_EQ(u.update_messages, u.applications);
  EXPECT_EQ(u.invalidation_messages,
            u.applications * static_cast<std::uint64_t>(psi - 1));
  // The DP trie takes the incremental path; nothing should epoch-rebuild.
  EXPECT_EQ(u.fe_rebuilds, 0u);
  EXPECT_GT(u.fe_incremental, 0u);
  EXPECT_GT(u.update_cost_cycles, 0u);
  // Control messages ride the same fabric as lookups.
  EXPECT_EQ(result.fabric.messages,
            result.remote_requests + result.remote_replies +
                u.update_messages + u.invalidation_messages);
}

// Immutable FEs (Lulea) must take the epoch-rebuild path instead.
TEST(RouterUpdates, ImmutableTrieRebuildsPerApplication) {
  RouterSim router(
      v4_table(),
      churn_config(4, RouterConfig::UpdatePolicy::kSelectiveInvalidate,
                   trie::TrieKind::kLulea));
  const RouterResult result = router.run_workload(small_profile());
  EXPECT_EQ(result.update.fe_incremental, 0u);
  EXPECT_GT(result.update.fe_rebuilds, 0u);
  EXPECT_EQ(result.update.fe_rebuilds, result.update.applications);
}

// With the pipeline off (interval_cycles == 0) every update counter stays
// zero and the run is indistinguishable from a build without the pipeline.
TEST(RouterUpdates, ZeroUpdateRunKeepsLedgerEmpty) {
  RouterConfig config = core::spal_default_config(4);
  config.packets_per_lc = 3'000;
  config.cache.blocks = 512;
  RouterSim router(v4_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  const core::UpdateStats& u = result.update;
  EXPECT_EQ(u.applied, 0u);
  EXPECT_EQ(u.applications, 0u);
  EXPECT_EQ(u.update_messages, 0u);
  EXPECT_EQ(u.invalidation_messages, 0u);
  EXPECT_EQ(u.blocks_invalidated, 0u);
  EXPECT_EQ(u.cache_flushes, 0u);
  EXPECT_EQ(u.update_cost_cycles, 0u);
}

// A router whose FE fragments a run mutated (in place on DP, by epoch
// rebuild on Lulea and LC) must restore them for the next run: two runs of
// the same churning router produce the same report.
TEST(RouterUpdates, ChurnedRouterIsRerunnable) {
  for (const auto trie :
       {trie::TrieKind::kDp, trie::TrieKind::kLulea, trie::TrieKind::kLc}) {
    SCOPED_TRACE(trie::to_string(trie));
    RouterSim router(
        v4_table(),
        churn_config(4, RouterConfig::UpdatePolicy::kSelectiveInvalidate,
                     trie));
    const RouterResult a =
        router.run_workload(small_profile(), /*verify=*/true);
    const RouterResult b =
        router.run_workload(small_profile(), /*verify=*/true);
    EXPECT_EQ(a.verify_mismatches, 0u);
    EXPECT_GT(a.update.applied, 0u);
    EXPECT_EQ(a.to_json(), b.to_json());
  }
}

// Most of these updates land after the last packet, so no lookup reads the
// Lulea FEs they rebuild. After the run each LC's own FE must still answer
// from its final fragment table, exactly as the DP FE updated in place does.
TEST(RouterUpdates, EpochRebuiltFesHoldTheFinalTableAfterTheRun) {
  const net::RouteTable table = v4_table();
  RouterConfig config = churn_config(
      4, RouterConfig::UpdatePolicy::kSelectiveInvalidate, trie::TrieKind::kDp);
  config.packets_per_lc = 500;  // the trace ends near cycle 5,000
  config.update.count = 200;    // one every 400 cycles, up to cycle 80,000
  RouterSim dp(table, config);
  config.trie = trie::TrieKind::kLulea;
  RouterSim lulea(table, config);
  for (RouterSim* router : {&dp, &lulea}) {
    const RouterResult result =
        router->run_workload(small_profile(), /*verify=*/true);
    EXPECT_EQ(result.verify_mismatches, 0u);
    EXPECT_EQ(result.update.applied, 200u);
  }
  // Destinations inside every updated prefix, each looked up at the LC
  // whose own fragment is its home.
  net::UpdateStreamConfig stream;
  stream.count = config.update.count;
  stream.seed = config.update.seed;
  stream.announce_fraction = config.update.announce_fraction;
  stream.withdraw_fraction = config.update.withdraw_fraction;
  stream.next_hops = config.update.next_hops;
  std::vector<std::vector<net::Ipv4Addr>> keys(4);
  std::mt19937_64 rng(17);
  for (const net::TableUpdate& update :
       net::generate_update_stream(table, stream)) {
    for (int i = 0; i < 4; ++i) {
      const net::Ipv4Addr addr = net::random_address_in(update.prefix, rng);
      keys[static_cast<std::size_t>(dp.rot().home_of(addr))].push_back(addr);
    }
  }
  for (int lc = 0; lc < 4; ++lc) {
    SCOPED_TRACE(lc);
    const auto& lc_keys = keys[static_cast<std::size_t>(lc)];
    ASSERT_FALSE(lc_keys.empty());
    std::vector<net::NextHop> want(lc_keys.size()), got(lc_keys.size());
    dp.host_fe_lookup(lc, lc_keys.data(), lc_keys.size(), want.data(), 1);
    lulea.host_fe_lookup(lc, lc_keys.data(), lc_keys.size(), got.data(), 1);
    EXPECT_EQ(got, want);
  }
}

// A mix the stream generator cannot draw as given fails at construction,
// beside the router's other config checks. With the pipeline off the mix is
// never read and is not checked.
TEST(RouterUpdates, RejectsAnUpdateMixItCannotDraw) {
  const net::RouteTable table = v4_table();
  for (const auto& [announce, withdraw] :
       {std::pair{0.8, 0.5}, std::pair{-0.1, 0.2}, std::pair{std::nan(""), 0.0}}) {
    RouterConfig config =
        churn_config(4, RouterConfig::UpdatePolicy::kSelectiveInvalidate,
                     trie::TrieKind::kDp);
    config.update.announce_fraction = announce;
    config.update.withdraw_fraction = withdraw;
    EXPECT_THROW(RouterSim(table, config), std::invalid_argument)
        << announce << "/" << withdraw;
    config.update.interval_cycles = 0;
    EXPECT_NO_THROW(RouterSim(table, config)) << announce << "/" << withdraw;
  }
}

// Same pipeline, unpartitioned table: every LC holds the full table, so
// every update is applied at all ψ LCs.
TEST(RouterUpdates, UnpartitionedUpdatesApplyAtEveryLc) {
  RouterConfig config =
      churn_config(4, RouterConfig::UpdatePolicy::kSelectiveInvalidate,
                   trie::TrieKind::kDp);
  config.partition = false;
  RouterSim router(v4_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_GT(result.update.applied, 0u);
  EXPECT_EQ(result.update.applications, result.update.applied * 4u);
}

}  // namespace
