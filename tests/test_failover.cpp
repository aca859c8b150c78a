// Failover tests: fragment replication, per-LC health tracking, rejoin
// resync, and lossless live fragment migration (DESIGN.md, "Failure
// model"). The load-bearing properties: packet conservation and oracle
// agreement survive a mid-run primary-LC outage and an operator migration;
// R = 0 keeps every run byte-identical to the pre-failover machinery; and
// the failover ledger balances the same conservation rules spal_report
// --check enforces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/health_tracker.h"
#include "core/router_sim.h"
#include "core/router_sim6.h"
#include "net/table_gen.h"
#include "partition/rot_partition.h"

namespace {

using namespace spal;
using core::HealthTracker;
using core::PeerState;
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

trace::WorkloadProfile small_profile() {
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 2'000;
  return profile;
}

/// 10 Gbps keeps the fabric uncongested so health evidence comes from the
/// injected outage, not queueing timeouts. The trace spans roughly
/// 40 cycles/packet × packets_per_lc ≈ 80k cycles.
RouterConfig failover_config(int num_lcs) {
  RouterConfig config = core::spal_default_config(num_lcs);
  config.packets_per_lc = 2'000;
  config.cache.blocks = 512;
  config.line_rate_gbps = 10.0;
  config.fault.enabled = true;
  config.recovery.max_retries = 3;
  return config;
}

constexpr std::uint64_t kOutageStart = 20'000;
constexpr std::uint64_t kOutageEnd = 50'000;

void add_outage(RouterConfig& config, int port) {
  config.fault.outages.push_back(
      fabric::OutageWindow{port, kOutageStart, kOutageEnd});
}

/// The conservation rules every failover run must satisfy (the in-process
/// mirror of spal_report --check's failover block).
void expect_failover_ledger(const RouterResult& result,
                            std::uint64_t injected) {
  EXPECT_EQ(result.resolved_packets, injected);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.latency.count(), injected);
  const auto& fo = result.failover;
  EXPECT_TRUE(fo.enabled);
  EXPECT_LE(fo.local_replica_serves, fo.replica_lookups);
  EXPECT_LE(fo.probe_replies, fo.probe_replies_sent);
  EXPECT_LE(fo.probe_replies_sent, fo.probes_sent);
  EXPECT_LE(fo.rejoins, fo.probe_replies);
  EXPECT_LE(fo.rejoins, fo.recoveries);
  EXPECT_LE(fo.down_transitions, fo.suspect_transitions);
  EXPECT_LE(fo.rerouted_requests, result.remote_requests);
  EXPECT_LE(fo.resync_entries, fo.missed_updates);
  EXPECT_LE(fo.resync_fetches, fo.resync_chunks);
  EXPECT_LE(fo.acting_primary_applications, fo.replica_update_applications);
  EXPECT_EQ(fo.cutovers, fo.migrations + fo.resync_cutovers);
  EXPECT_EQ(fo.control_messages,
            fo.probes_sent + fo.probe_replies_sent + fo.resync_fetches +
                fo.resync_chunks + fo.migration_chunks +
                fo.double_delivered_updates + fo.cutover_messages);
  EXPECT_EQ(result.update.update_messages,
            result.update.applications - fo.resync_entries);
}

// ----- Replica placement (partition layer) ---------------------------------

TEST(ReplicaPlan, RingPlacementShape) {
  const auto plan = partition::assign_replicas(/*num_lcs=*/5, /*replicas=*/2);
  ASSERT_EQ(plan.size(), 5u);
  for (int frag = 0; frag < 5; ++frag) {
    const auto& holders = plan[static_cast<std::size_t>(frag)];
    ASSERT_EQ(holders.size(), 2u);
    EXPECT_EQ(holders[0], (frag + 1) % 5);
    EXPECT_EQ(holders[1], (frag + 2) % 5);
  }
}

TEST(ReplicaPlan, ClampsAndDegenerateCases) {
  // R is clamped to psi - 1: more copies than other LCs is meaningless.
  const auto clamped = partition::assign_replicas(3, 7);
  ASSERT_EQ(clamped.size(), 3u);
  for (const auto& holders : clamped) EXPECT_EQ(holders.size(), 2u);
  // R = 0, a single LC, and nonsense inputs all yield empty plans.
  for (const auto& holders : partition::assign_replicas(4, 0)) {
    EXPECT_TRUE(holders.empty());
  }
  for (const auto& holders : partition::assign_replicas(1, 3)) {
    EXPECT_TRUE(holders.empty());
  }
  EXPECT_TRUE(partition::assign_replicas(0, 3).empty());
  EXPECT_TRUE(partition::assign_replicas(-2, 3).empty());
}

TEST(ReplicaPlan, EveryLcHostsExactlyRForeignCopies) {
  const int psi = 8, replicas = 3;
  const auto plan = partition::assign_replicas(psi, replicas);
  std::vector<int> hosted(static_cast<std::size_t>(psi), 0);
  for (int frag = 0; frag < psi; ++frag) {
    for (const int lc : plan[static_cast<std::size_t>(frag)]) {
      EXPECT_NE(lc, frag);  // primaries are excluded from their own plan
      ++hosted[static_cast<std::size_t>(lc)];
    }
  }
  for (const int count : hosted) EXPECT_EQ(count, replicas);
}

TEST(ReplicaPlan, FragmentSizingPricesReplicaResidency) {
  const net::RouteTable table = small_table();
  const partition::RotPartition partition(table, 4, {});
  const auto plain = partition::fragment_sizing(partition, table.size());
  const auto priced =
      partition::fragment_sizing(partition, table.size(), /*replicas=*/2);
  EXPECT_EQ(plain.replicas, 0);
  EXPECT_EQ(plain.replica_prefixes, 0u);
  EXPECT_EQ(priced.replicas, 2);
  // Each fragment is copied twice, so the copy footprint is exactly twice
  // the primary footprint and the worst per-LC residency grows.
  EXPECT_EQ(priced.replica_prefixes, 2 * priced.total_prefixes);
  EXPECT_GT(priced.max_prefixes_with_replicas, priced.max_prefixes);
  // The primary sizing fields must not shift when pricing copies.
  EXPECT_EQ(priced.total_prefixes, plain.total_prefixes);
  EXPECT_EQ(priced.max_prefixes, plain.max_prefixes);
}

// ----- Health state machine ------------------------------------------------

TEST(HealthTrackerTest, TimeoutStreaksDriveSuspectThenDown) {
  HealthTracker health(/*num_lcs=*/3, /*suspect_after=*/2, /*down_after=*/4);
  EXPECT_TRUE(health.alive(0, 1));
  EXPECT_EQ(health.note_timeout(0, 1), HealthTracker::Transition::kNone);
  EXPECT_EQ(health.note_timeout(0, 1), HealthTracker::Transition::kSuspect);
  EXPECT_EQ(health.state(0, 1), PeerState::kSuspect);
  EXPECT_EQ(health.note_timeout(0, 1), HealthTracker::Transition::kNone);
  EXPECT_EQ(health.note_timeout(0, 1), HealthTracker::Transition::kDown);
  EXPECT_EQ(health.state(0, 1), PeerState::kDown);
  // Views are per-observer: LC 2 never saw any evidence against LC 1.
  EXPECT_TRUE(health.alive(2, 1));
}

TEST(HealthTrackerTest, AnyEvidenceOfLifeRevives) {
  HealthTracker health(2, 1, 2);
  EXPECT_FALSE(health.note_alive(0, 1));  // already alive: not a recovery
  health.note_timeout(0, 1);
  health.note_timeout(0, 1);
  EXPECT_EQ(health.state(0, 1), PeerState::kDown);
  EXPECT_TRUE(health.note_alive(0, 1));
  EXPECT_TRUE(health.alive(0, 1));
  // The streak reset means the suspect threshold must be re-earned.
  EXPECT_EQ(health.note_timeout(0, 1), HealthTracker::Transition::kSuspect);
}

TEST(HealthTrackerTest, ProbePacingPerPair) {
  HealthTracker health(2, 1, 2);
  EXPECT_TRUE(health.probe_due(0, 1, 100));
  health.probe_sent(0, 1, 100, 50);
  EXPECT_FALSE(health.probe_due(0, 1, 149));
  EXPECT_TRUE(health.probe_due(0, 1, 150));
  EXPECT_TRUE(health.probe_due(1, 0, 0));  // independent pair
}

// ----- R = 0 byte-identity -------------------------------------------------

TEST(Failover, ZeroReplicasIsByteIdenticalToPlainFaultRun) {
  // With R = 0 the replication knobs are dormant: arming them must not
  // perturb a fault run in any way (no probes, no steering, no RNG skew).
  RouterConfig plain = failover_config(4);
  plain.fault.drop_probability = 0.02;
  add_outage(plain, 1);
  RouterConfig armed = plain;
  armed.replication.replicas = 0;
  armed.replication.suspect_after = 1;
  armed.replication.down_after = 2;
  armed.replication.probe_interval_cycles = 64;

  RouterSim a(small_table(), plain);
  RouterSim b(small_table(), armed);
  const std::string ja = a.run_workload(small_profile(), true).to_json();
  const std::string jb = b.run_workload(small_profile(), true).to_json();
  EXPECT_EQ(ja, jb);
}

// ----- Outage failover -----------------------------------------------------

TEST(Failover, OutageReroutesToReplicaAndBoundsLatency) {
  RouterConfig config = failover_config(4);
  config.track_outage_latency = true;
  config.replication.replicas = 1;
  RouterSim baseline(small_table(), config);
  const RouterResult no_fault =
      baseline.run_workload(small_profile(), /*verify=*/true);
  expect_failover_ledger(no_fault, 4 * config.packets_per_lc);
  EXPECT_FALSE(no_fault.outage_latency_tracked);

  add_outage(config, 1);
  RouterConfig unreplicated = config;
  unreplicated.replication.replicas = 0;
  RouterSim without(small_table(), unreplicated);
  const RouterResult r0 =
      without.run_workload(small_profile(), /*verify=*/true);
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_failover_ledger(result, 4 * config.packets_per_lc);
  // The outage produced health evidence and the evidence produced steering.
  EXPECT_GT(result.failover.suspect_transitions, 0u);
  EXPECT_GT(result.failover.probes_sent, 0u);
  EXPECT_GT(result.failover.rerouted_requests, 0u);
  EXPECT_GT(result.failover.replica_lookups, 0u);
  // The LC recovers once the window closes (probe replies revive it).
  EXPECT_GT(result.failover.rejoins, 0u);
  // The robustness claim at test scale: the replica absorbs the dead
  // primary's share, so packets arriving at surviving LCs mid-outage
  // resolve far faster than the retry/degraded path R = 0 funnels them
  // into (measured ~35x here; assert a conservative 2x). Both runs track
  // the same arrival population, so the means are comparable.
  ASSERT_TRUE(result.outage_latency_tracked);
  ASSERT_GT(result.outage_latency.count(), 0u);
  EXPECT_EQ(result.outage_latency.count(), r0.outage_latency.count());
  EXPECT_LE(result.outage_latency.count(), result.latency.count());
  EXPECT_LE(result.outage_latency.mean_cycles(),
            0.5 * r0.outage_latency.mean_cycles());
  EXPECT_LT(result.fault.degraded_lookups, r0.fault.degraded_lookups);
}

TEST(Failover, ChurnDuringOutageResyncsWithoutStaleResolutions) {
  // Updates land while the primary is down: acting holders apply them, the
  // primary's applications are deferred, and the rejoin streams them back
  // before the LC answers probes again. Verify mode holds the bar: no
  // resolution may disagree with the churning full-table oracle.
  RouterConfig config = failover_config(4);
  config.replication.replicas = 1;
  add_outage(config, 1);
  config.update.interval_cycles = 1'000;
  config.update.count = 60;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_failover_ledger(result, 4 * config.packets_per_lc);
  const auto& fo = result.failover;
  // ~30 update ticks fall inside the outage; LC 1's share is deferred.
  EXPECT_GT(fo.missed_updates, 0u);
  EXPECT_GT(fo.replica_update_applications, 0u);
  // The rejoin drained the deferral queue through the resync stream.
  EXPECT_EQ(fo.resync_entries, fo.missed_updates);
  EXPECT_GT(fo.resync_cutovers, 0u);
  EXPECT_EQ(fo.cutovers, fo.resync_cutovers);
}

TEST(Failover, ResyncReappliesDeferredUpdatesWhereTheFragmentIsServed) {
  // Fragment 1 migrates to LC 3 early; LC 3's port then goes dark under
  // churn. Updates for fragment 1 are deferred at LC 3, its serving LC,
  // and re-applied at the rejoin. They must land in the migrated structure
  // LC 3 answers fragment 1 from — applied to LC 3's own fragment instead,
  // LC 3 serves stale hops once those updates settle.
  RouterConfig config = failover_config(4);
  config.packets_per_lc = 4'000;
  config.replication.replicas = 1;
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 3;
  config.migration.start_cycle = 2'000;
  add_outage(config, 3);
  config.update.interval_cycles = 200;
  config.update.count = 400;
  config.update.seed = 11;
  config.update_policy = RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_failover_ledger(result, 4 * config.packets_per_lc);
  EXPECT_EQ(result.failover.migrations, 1u);
  EXPECT_GT(result.failover.resync_entries, 0u);
}

// ----- Live migration ------------------------------------------------------

TEST(Migration, CopyThenCutoverIsLossless) {
  // Operator migration of fragment 1 to LC 3 mid-trace, faults off: pure
  // copy-then-cutover. Every packet resolves correctly, before and after
  // the cutover, and the ledger records exactly one migration.
  RouterConfig config = failover_config(4);
  config.fault.enabled = false;
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 3;
  config.migration.start_cycle = kOutageStart;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets, 4 * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  const auto& fo = result.failover;
  EXPECT_TRUE(fo.enabled);
  EXPECT_EQ(fo.migrations, 1u);
  EXPECT_EQ(fo.cutovers, 1u);
  EXPECT_GT(fo.migration_chunks, 0u);
  EXPECT_GT(fo.snapshot_prefixes, 0u);
  // ready + broadcast to the other psi - 1 LCs
  EXPECT_EQ(fo.cutover_messages, 1u + 3u);
}

TEST(Migration, ChurnDuringCopyIsDoubleDeliveredNotLost) {
  // Updates to the migrating fragment during the transfer must reach both
  // the live source and the staged structure; the cutover then serves a
  // structure that saw every update, so verify mode stays clean.
  RouterConfig config = failover_config(4);
  config.fault.enabled = false;
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 3;
  config.migration.start_cycle = kOutageStart;
  // Slow the copy down so churn lands mid-transfer.
  config.migration.chunk_prefixes = 64;
  config.migration.chunk_interval_cycles = 256;
  config.update.interval_cycles = 1'000;
  config.update.count = 60;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets, 4 * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.failover.migrations, 1u);
  EXPECT_GT(result.failover.double_delivered_updates, 0u);
  EXPECT_EQ(result.update.update_messages, result.update.applications);
}

TEST(Migration, FullStackOutageChurnAndMigrationConserve) {
  // Everything at once: replica steering around a mid-run outage, deferred
  // updates resyncing at the rejoin, and an operator migration cutting over
  // under live churn. Conservation and the ledger must still balance.
  RouterConfig config = failover_config(4);
  config.replication.replicas = 1;
  add_outage(config, 1);
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 3;
  config.migration.start_cycle = kOutageStart;
  config.update.interval_cycles = 1'000;
  config.update.count = 60;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_failover_ledger(result, 4 * config.packets_per_lc);
  EXPECT_EQ(result.failover.migrations, 1u);
  EXPECT_GT(result.failover.rerouted_requests, 0u);
}

// ----- Rebalancer × health: never migrate toward a dead LC -----------------

/// Rebalancer sampling every 10k cycles with the skew threshold floored,
/// on the standard failover fabric (faults armed, uncongested).
RouterConfig rebalancer_failover_config(int num_lcs) {
  RouterConfig config = failover_config(num_lcs);
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 10'000;
  config.rebalancer.skew_threshold = 1.0;
  config.rebalancer.max_migrations = 4;
  return config;
}

TEST(Failover, RebalancerNeverMigratesToDownLc) {
  // Every candidate target port is in outage at every sampling instant, so
  // each skew detection must be ledgered as skipped_no_target — the
  // rebalancer must never hand a fragment to an LC it can see is down.
  RouterConfig config = rebalancer_failover_config(4);
  for (std::uint64_t tick = 10'000; tick <= 200'000; tick += 10'000) {
    for (int port = 0; port < 4; ++port) {
      config.fault.outages.push_back(
          fabric::OutageWindow{port, tick - 2, tick + 3});
    }
  }
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets, 4 * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  const auto& rb = result.rebalancer;
  EXPECT_GT(rb.skew_detections, 0u);
  EXPECT_EQ(rb.migrations_triggered, 0u);
  EXPECT_EQ(rb.skipped_no_target, rb.skew_detections);
  EXPECT_EQ(result.failover.migrations, 0u);
}

TEST(Failover, RebalancerAbortsWhenTargetDiesMidCopy) {
  // The target is healthy when chosen (tick at 10'000) but every port goes
  // dark just before the first copy chunk would be sent: the in-flight
  // migration must roll back cleanly — ledgered as aborted, with the
  // source still serving the fragment and every resolution oracle-exact.
  RouterConfig config = rebalancer_failover_config(4);
  for (int port = 0; port < 4; ++port) {
    config.fault.outages.push_back(
        fabric::OutageWindow{port, 10'002, 13'000});
  }
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets, 4 * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  const auto& rb = result.rebalancer;
  EXPECT_GE(rb.migrations_triggered, 1u);
  EXPECT_GE(rb.aborted_migrations, 1u);
  EXPECT_LE(rb.completed_migrations + rb.aborted_migrations,
            rb.migrations_triggered);
  EXPECT_EQ(rb.skew_detections,
            rb.migrations_triggered + rb.skipped_in_flight +
                rb.skipped_no_target + rb.skipped_budget);
  // Only completed migrations reach the failover cutover ledger.
  EXPECT_EQ(result.failover.migrations, rb.completed_migrations);
}

// ----- Cutover races (whole-config fuzz regressions) ------------------------

/// A fault-free partitioned router on a tiny fabric, as the config fuzz
/// draws it.
RouterConfig race_config(int num_lcs) {
  RouterConfig config;
  config.num_lcs = num_lcs;
  config.line_rate_gbps = 10.0;
  config.packets_per_lc = 1'500;
  config.cache.victim_blocks = 0;
  return config;
}

trace::WorkloadProfile race_profile(std::size_t flows, double zipf_alpha,
                                    double burst_mean, std::uint64_t seed) {
  trace::WorkloadProfile profile;
  profile.name = "fuzz";
  profile.flows = flows;
  profile.zipf_alpha = zipf_alpha;
  profile.burst_mean = burst_mean;
  profile.seed = seed;
  return profile;
}

TEST(CutoverRace, RequestRelayedBackToItsRequesterIsServedThere) {
  // A remote request is in flight to a fragment's old home when the
  // rebalancer re-homes that fragment onto the requester's own LC; the old
  // home relays it back. The requester must answer it from the re-homed
  // structure and fill its own W=1 block — parking the request behind that
  // block strands it and every later packet for the address.
  net::TableGenConfig table_config;
  table_config.size = 2'515;
  table_config.seed = 0xef1ed117482f0875ULL;
  table_config.nested_fraction = 0.8;
  RouterConfig config = race_config(2);
  config.cache.blocks = 256;
  config.cache.associativity = 4;
  config.cache.remote_fraction = 0.5;
  config.cache.replacement = cache::Replacement::kFifo;
  config.fe_service_cycles = 55;
  config.fe_parallelism = 2;
  config.trie = trie::TrieKind::kLc;
  config.seed = 0x214d4e9949b1f8cdULL;
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 4'677;
  config.rebalancer.skew_threshold = 1.3;
  config.rebalancer.max_migrations = 2;
  RouterSim router(net::generate_table(table_config), config);
  const RouterResult result = router.run_workload(
      race_profile(14'268, 1.021, 5.77, 0x29a022b0137c1dbeULL),
      /*verify=*/true);
  EXPECT_EQ(result.resolved_packets, 2 * config.packets_per_lc);
  EXPECT_EQ(result.latency.count(), result.resolved_packets);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_GT(result.rebalancer.completed_migrations, 0u);
}

TEST(CutoverRace, UpdateLandingAfterItsFragmentMovedOnIsForwarded) {
  // An update apply injected while LC x serves a re-homed fragment reaches
  // x after the next cutover moved the fragment on. x neither serves the
  // fragment nor holds a copy of it (R = 0), so the apply must follow the
  // fragment to its current home instead of failing or landing in a
  // structure nobody serves.
  net::TableGen6Config table_config;
  table_config.size = 2'500;
  table_config.seed = 0xa0fd1f1c0974c614ULL;
  RouterConfig config = race_config(8);
  config.cache.blocks = 4'096;
  config.cache.associativity = 8;
  config.cache.remote_fraction = 0.0;
  config.cache.replacement = cache::Replacement::kRandom;
  config.fe_service_cycles = 29;
  config.fe_parallelism = 3;
  config.trie = trie::TrieKind::kStride;
  config.early_reservation = false;
  config.seed = 0x6cc23d551d247db4ULL;
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 4'761;
  config.rebalancer.skew_threshold = 1.3;
  config.rebalancer.max_migrations = 5;
  config.update.interval_cycles = 1'830;
  config.update.count = 77;
  config.update.seed = 0x560e4a34d51da804ULL;
  config.update_policy = RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  RouterSim6 router(net::generate_table6(table_config), config);
  RouterResult result;
  ASSERT_NO_THROW(result = router.run_workload(
                      race_profile(6'499, 0.921, 6.93, 0x5bcf713f70997c5fULL),
                      /*verify=*/true));
  EXPECT_EQ(result.resolved_packets, 8 * config.packets_per_lc);
  EXPECT_EQ(result.latency.count(), result.resolved_packets);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.update.update_messages, result.update.applications);
}

TEST(Migration, Ipv6FamilySupportsTheFullStackToo) {
  // The failover machinery lives in the family-generic core; exercise the
  // 128-bit instantiation end to end.
  net::TableGen6Config table_config;
  table_config.size = 2'000;
  table_config.seed = 911;
  RouterConfig config = failover_config(4);
  config.replication.replicas = 1;
  add_outage(config, 1);
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 3;
  config.migration.start_cycle = kOutageStart;
  RouterSim6 router(net::generate_table6(table_config), config);
  trace::WorkloadProfile profile = small_profile();
  const RouterResult result = router.run_workload(profile, /*verify=*/true);
  expect_failover_ledger(result, 4 * config.packets_per_lc);
  EXPECT_EQ(result.failover.migrations, 1u);
}

}  // namespace
