// Differential and ledger tests for the online load rebalancer
// (RouterConfig::rebalancer). The load-bearing properties:
//   * a disabled rebalancer (even with every knob armed) is byte-identical
//     to the baseline, as is a uniform-weight partition;
//   * with the rebalancer migrating fragments mid-trace, every resolved
//     next hop still agrees with the full-table binary-trie oracle (verify
//     mode), across Zipf and flash-crowd workloads, fuzzed seeds, and live
//     route churn landing mid-copy;
//   * the rebalancer ledger balances: every skew detection is acted on or
//     accounted to exactly one skipped_* counter, and completed migrations
//     match the failover ledger's cutover count — the same conservation
//     rules `spal_report --check` enforces;
//   * the inject_stale test hook genuinely breaks the staged structure, and
//     verify mode catches it (the WILL_FAIL CI leg's in-process mirror).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/router_sim.h"
#include "core/router_sim6.h"
#include "net/table_gen.h"

namespace {

using namespace spal;
using core::RouterConfig;
using core::RouterResult;
using core::RouterSim;
using core::RouterSim6;

net::RouteTable small_table() {
  net::TableGenConfig config;
  config.size = 3'000;
  config.seed = 907;
  return net::generate_table(config);
}

trace::WorkloadProfile zipf_profile() {
  trace::WorkloadProfile profile = trace::profile_zipf1();
  profile.flows = 2'000;
  return profile;
}

trace::WorkloadProfile flash_profile() {
  trace::WorkloadProfile profile = trace::profile_flash_crowd();
  profile.flows = 2'000;
  return profile;
}

/// Uncongested fabric + a short trace, rebalancer sampling every 10k
/// cycles with the threshold floored so every non-empty window detects
/// skew (max/mean >= 1 always holds).
RouterConfig rebalancer_config(int num_lcs) {
  RouterConfig config = core::spal_default_config(num_lcs);
  config.packets_per_lc = 2'000;
  config.cache.blocks = 512;
  config.line_rate_gbps = 10.0;
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 10'000;
  config.rebalancer.skew_threshold = 1.0;
  config.rebalancer.max_migrations = 4;
  return config;
}

/// The conservation rules every rebalancer run must satisfy (the
/// in-process mirror of spal_report --check's rebalancer block).
void expect_rebalancer_ledger(const RouterResult& result,
                              std::uint64_t injected) {
  EXPECT_EQ(result.resolved_packets, injected);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.latency.count(), injected);
  const auto& rb = result.rebalancer;
  EXPECT_TRUE(rb.enabled);
  EXPECT_GT(rb.windows, 0u);
  EXPECT_LE(rb.skew_detections, rb.windows);
  EXPECT_EQ(rb.skew_detections,
            rb.migrations_triggered + rb.skipped_in_flight +
                rb.skipped_no_target + rb.skipped_budget);
  EXPECT_LE(rb.completed_migrations + rb.aborted_migrations,
            rb.migrations_triggered);
  EXPECT_EQ(result.failover.migrations, rb.completed_migrations);
}

// ----- Disabled-rebalancer byte-identity -----------------------------------

TEST(RebalancerOracle, DisabledIsByteIdentical) {
  // Arming every rebalancer knob while leaving `enabled` off must not
  // perturb a run in any way.
  RouterConfig plain = core::spal_default_config(4);
  plain.packets_per_lc = 1'500;
  RouterConfig armed = plain;
  armed.rebalancer.window_cycles = 1'000;
  armed.rebalancer.skew_threshold = 1.0;
  armed.rebalancer.max_migrations = 64;
  armed.rebalancer.inject_stale = true;  // dormant without `enabled`

  RouterSim ra(small_table(), plain);
  RouterSim rb(small_table(), armed);
  EXPECT_EQ(ra.run_workload(zipf_profile(), true).to_json(),
            rb.run_workload(zipf_profile(), true).to_json());
}

TEST(RebalancerOracle, UniformPartitionWeightsAreByteIdentical) {
  // A uniform traffic-weight vector is the count-balanced degenerate case
  // end to end: the full run report must not move by a byte.
  RouterConfig plain = core::spal_default_config(4);
  plain.packets_per_lc = 1'500;
  RouterConfig weighted = plain;
  weighted.partition_config.weights =
      std::vector<double>(small_table().size(), 0.25);
  RouterSim a(small_table(), plain);
  RouterSim b(small_table(), weighted);
  EXPECT_EQ(a.run_workload(zipf_profile(), true).to_json(),
            b.run_workload(zipf_profile(), true).to_json());
}

// ----- Skew detection drives ledgered migrations ---------------------------

TEST(RebalancerOracle, ZipfSkewTriggersLedgeredMigrations) {
  RouterConfig config = rebalancer_config(4);
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(zipf_profile(), /*verify=*/true);
  expect_rebalancer_ledger(result, 4 * config.packets_per_lc);
  const auto& rb = result.rebalancer;
  // The Zipf head concentrates load, so the floored threshold detects skew
  // and at least one migration runs copy-to-cutover within the trace.
  EXPECT_GT(rb.skew_detections, 0u);
  EXPECT_GT(rb.migrations_triggered, 0u);
  EXPECT_GT(rb.completed_migrations, 0u);
  EXPECT_EQ(rb.aborted_migrations, 0u);  // nothing died mid-copy
  EXPECT_LE(rb.migrations_triggered,
            static_cast<std::uint64_t>(config.rebalancer.max_migrations));
  EXPECT_GT(result.failover.migration_chunks, 0u);
}

// ----- Differential fuzz: rebalancer on vs off, oracle-checked -------------

TEST(RebalancerOracle, WorkloadAndSeedFuzzStaysOracleClean) {
  // Across workload shapes and seeds: the run with migrations enabled must
  // resolve every packet to the same next hop the full-table binary-trie
  // oracle computes (verify mode byte-compares each resolution), exactly
  // like the run without.
  for (trace::WorkloadProfile profile : {zipf_profile(), flash_profile()}) {
    for (const std::uint64_t salt : {0ull, 0x5eedull, 0xbeefull}) {
      profile.seed ^= salt;
      SCOPED_TRACE(profile.name + " salt=" + std::to_string(salt));
      RouterConfig off = rebalancer_config(4);
      off.rebalancer.enabled = false;
      RouterConfig on = rebalancer_config(4);
      RouterSim base(small_table(), off);
      RouterSim rebalanced(small_table(), on);
      const RouterResult r_off = base.run_workload(profile, /*verify=*/true);
      const RouterResult r_on =
          rebalanced.run_workload(profile, /*verify=*/true);
      EXPECT_EQ(r_off.verify_mismatches, 0u);
      expect_rebalancer_ledger(r_on, 4 * on.packets_per_lc);
      EXPECT_EQ(r_on.resolved_packets, r_off.resolved_packets);
    }
  }
}

TEST(RebalancerOracle, LiveChurnAcrossMigrationsStaysOracleClean) {
  // Route updates land while fragments are mid-copy: deltas must be
  // double-delivered into the staged structure and replayed at the final
  // chunk, so post-cutover resolutions track the churning oracle exactly.
  RouterConfig config = rebalancer_config(4);
  config.migration.chunk_prefixes = 64;     // stretch the copy window
  config.migration.chunk_interval_cycles = 64;
  config.update.interval_cycles = 500;
  config.update.count = 120;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(zipf_profile(), /*verify=*/true);
  expect_rebalancer_ledger(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.rebalancer.completed_migrations, 0u);
  EXPECT_GT(result.update.applications, 0u);
}

// ----- The staleness injection hook must be caught by verify ---------------

TEST(RebalancerOracle, InjectedStalenessIsCaughtByVerify) {
  // inject_stale drops the deltas buffered during the copy instead of
  // replaying them, making the cut-over structure genuinely stale. The
  // differential harness has to catch that — otherwise the harness itself
  // is vacuous. Same config with the hook off must stay clean.
  RouterConfig config = rebalancer_config(4);
  config.rebalancer.max_migrations = 1;
  config.migration.chunk_prefixes = 32;     // long copy window
  config.migration.chunk_interval_cycles = 128;
  config.update.interval_cycles = 100;
  config.update.count = 500;

  RouterConfig stale = config;
  stale.rebalancer.inject_stale = true;
  RouterSim honest(small_table(), config);
  RouterSim broken(small_table(), stale);
  const RouterResult good = honest.run_workload(zipf_profile(), true);
  const RouterResult bad = broken.run_workload(zipf_profile(), true);
  ASSERT_GT(good.rebalancer.completed_migrations, 0u);
  ASSERT_GT(bad.rebalancer.completed_migrations, 0u);
  EXPECT_EQ(good.verify_mismatches, 0u);
  EXPECT_GT(bad.verify_mismatches, 0u);
}

// ----- Config validation ---------------------------------------------------

// A misconfigured migration or rebalancer is rejected by the constructor,
// before any FE is built — never first discovered inside run().
TEST(RebalancerOracle, RejectsUnpartitionedAndConflictingConfigs) {
  const net::RouteTable table = small_table();
  const auto expect_rejected = [&](const RouterConfig& config) {
    EXPECT_THROW(RouterSim(table, config), std::invalid_argument);
  };
  {
    // Rebalancing a single-LC router is meaningless.
    RouterConfig config = rebalancer_config(4);
    config.num_lcs = 1;
    expect_rejected(config);
  }
  {
    // ... as is rebalancing an unpartitioned one: every LC holds it all.
    RouterConfig config = rebalancer_config(4);
    config.partition = false;
    expect_rejected(config);
  }
  {
    // Operator migration and the rebalancer both own the migration state
    // machine; running both must be rejected loudly.
    RouterConfig config = rebalancer_config(4);
    config.migration.enabled = true;
    config.migration.from = 1;
    config.migration.to = 3;
    expect_rejected(config);
  }
  {
    RouterConfig config = rebalancer_config(4);
    config.rebalancer.window_cycles = 0;
    expect_rejected(config);
  }
}

TEST(RebalancerOracle, RejectsMisconfiguredMigrationAtConstruction) {
  const net::RouteTable table = small_table();
  RouterConfig valid = core::spal_default_config(4);
  valid.migration.enabled = true;
  valid.migration.from = 1;
  valid.migration.to = 3;
  EXPECT_NO_THROW(RouterSim(table, valid));
  const auto expect_rejected = [&](const RouterConfig& config) {
    EXPECT_THROW(RouterSim(table, config), std::invalid_argument);
  };
  {
    RouterConfig config = valid;
    config.partition = false;  // no fragments to move
    expect_rejected(config);
  }
  {
    RouterConfig config = valid;
    config.num_lcs = 1;  // nowhere to move to
    config.migration.from = 0;
    config.migration.to = 0;
    expect_rejected(config);
  }
  for (const auto& [from, to] : {std::pair{-1, 3}, std::pair{1, 4},
                                 std::pair{4, 1}, std::pair{1, -1},
                                 std::pair{2, 2}}) {
    SCOPED_TRACE("from=" + std::to_string(from) + " to=" + std::to_string(to));
    RouterConfig config = valid;
    config.migration.from = from;
    config.migration.to = to;
    expect_rejected(config);
  }
}

// ----- IPv6 family ---------------------------------------------------------

TEST(RebalancerOracle, Ipv6FamilyRebalancesOracleClean) {
  net::TableGen6Config table_config;
  table_config.size = 2'000;
  table_config.seed = 911;
  RouterConfig config = rebalancer_config(4);
  RouterSim6 router(net::generate_table6(table_config), config);
  const RouterResult result =
      router.run_workload(zipf_profile(), /*verify=*/true);
  expect_rebalancer_ledger(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.rebalancer.skew_detections, 0u);
}

}  // namespace
