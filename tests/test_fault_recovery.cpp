// Fault-tolerance tests for the router core: fabric fault injection plus
// the remote-lookup timeout/retry/degraded protocol (DESIGN.md, "Fault
// model"). The load-bearing property in every scenario is packet
// conservation — no matter what the fabric loses, every injected packet
// resolves exactly once with the full-table-correct next hop.
#include <gtest/gtest.h>

#include <cstdint>

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
  config.seed = 201;
  return net::generate_table(config);
}

RouterConfig small_config(int num_lcs) {
  RouterConfig config = core::spal_default_config(num_lcs);
  config.packets_per_lc = 2'000;
  config.cache.blocks = 512;
  config.line_rate_gbps = 10.0;
  return config;
}

trace::WorkloadProfile small_profile() {
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 2'000;
  return profile;
}

/// Every-scenario invariants: full conservation plus a balanced recovery
/// ledger (see FaultStats in router_config.h for the derivations).
void expect_conserved(const RouterResult& result, std::uint64_t injected) {
  EXPECT_EQ(result.resolved_packets, injected);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.latency.count(), injected);
  EXPECT_EQ(result.fault.timeouts,
            result.fault.retransmits + result.fault.degraded_fallbacks);
  EXPECT_LE(result.fabric.dropped,
            result.fault.retransmits + result.fault.degraded_fallbacks);
  EXPECT_LE(result.fabric.outage_dropped, result.fabric.dropped);
  EXPECT_GE(result.fault.degraded_lookups, result.fault.degraded_fallbacks);
  EXPECT_EQ(result.fault.reclaimed_waiting_blocks,
            result.cache_total.cancelled_reservations);
  // Attempt accounting: every request/reply transmission either traversed
  // the fabric or was dropped at injection.
  EXPECT_EQ(result.remote_requests + result.remote_replies,
            result.fabric.messages + result.fabric.dropped);
}

TEST(FaultRecovery, EnabledZeroFaultLayerIsByteIdentical) {
  // Arming the fault layer with zero probabilities and no outages must not
  // perturb the simulation at all: the timers it schedules are all stale by
  // the time they fire, no RNG is consumed, and every metric — latencies,
  // cache counters, makespan — matches the disabled run exactly.
  RouterConfig plain = small_config(4);
  RouterConfig armed = plain;
  armed.fault.enabled = true;

  RouterSim a(small_table(), plain);
  RouterSim b(small_table(), armed);
  const RouterResult ra = a.run_workload(small_profile(), /*verify=*/true);
  const RouterResult rb = b.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(ra.to_json(), rb.to_json());
  EXPECT_EQ(rb.fault.timeouts, 0u);
  EXPECT_EQ(rb.fault.duplicate_replies, 0u);
}

TEST(FaultRecovery, ModerateDropsRecoverByRetransmission) {
  RouterConfig config = small_config(4);
  config.fault.enabled = true;
  config.fault.drop_probability = 0.05;
  config.recovery.max_retries = 5;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_conserved(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.fabric.dropped, 0u);
  EXPECT_GT(result.fault.retransmits, 0u);
}

TEST(FaultRecovery, TotalLossDegradesEveryRemoteLookup) {
  // drop_probability = 1: no request ever reaches its home LC, so every
  // remote lookup must burn its full retry budget and fall back to the
  // degraded local slow path — and still resolve correctly.
  RouterConfig config = small_config(4);
  config.fault.enabled = true;
  config.fault.drop_probability = 1.0;
  config.recovery.max_retries = 2;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_conserved(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.fault.degraded_fallbacks, 0u);
  EXPECT_EQ(result.remote_replies, 0u);  // nothing ever got through
  // Every attempt was dropped, so the ledger balances exactly.
  EXPECT_EQ(result.fabric.dropped, result.remote_requests);
  EXPECT_EQ(result.fabric.dropped,
            result.fault.retransmits + result.fault.degraded_fallbacks);
  EXPECT_EQ(result.fabric.messages, 0u);
}

TEST(FaultRecovery, DeadLineCardIsSurvivedInDegradedMode) {
  // LC 1's fabric port is down for the whole run: every lookup homed there
  // (and every reply LC 1 owes others) is lost. Packets that arrive at LC 1
  // itself still resolve locally; everyone else reaches LC 1's share of the
  // table through the degraded fallback.
  RouterConfig config = small_config(4);
  config.fault.enabled = true;
  config.fault.outages.push_back(
      fabric::OutageWindow{/*port=*/1, /*start=*/0,
                           /*end=*/std::uint64_t{1} << 40});
  config.recovery.max_retries = 1;  // keep the retry tax small
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_conserved(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.fabric.outage_dropped, 0u);
  EXPECT_GT(result.fault.degraded_lookups, 0u);
  EXPECT_GT(result.fault.per_lc_outage_cycles[1], 0u);
  EXPECT_EQ(result.fault.per_lc_outage_cycles[0], 0u);
}

TEST(FaultRecovery, SpuriousTimeoutsAreAbsorbedAsDuplicates) {
  // An absurdly aggressive timer fires long before any reply can arrive, so
  // every remote lookup retransmits and the home LC answers multiple
  // attempts of the same sequence number. Exactly one reply settles each
  // request; the rest must be counted and suppressed without touching the
  // cache or double-resolving.
  RouterConfig config = small_config(4);
  config.fault.enabled = true;
  config.recovery.timeout_cycles = 1;
  config.recovery.max_retries = 12;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_conserved(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.fault.retransmits, 0u);
  EXPECT_GT(result.fault.duplicate_replies, 0u);
}

TEST(FaultRecovery, SeededFaultRunsAreReproducible) {
  RouterConfig config = small_config(4);
  config.fault.enabled = true;
  config.fault.drop_probability = 0.1;
  config.fault.jitter_probability = 0.2;
  config.fault.max_jitter_cycles = 7;
  config.fault.outages.push_back(fabric::OutageWindow{2, 1'000, 30'000});
  RouterSim router(small_table(), config);
  const RouterResult a = router.run_workload(small_profile(), /*verify=*/true);
  const RouterResult b = router.run_workload(small_profile(), /*verify=*/true);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_GT(a.fabric.dropped, 0u);
  EXPECT_GT(a.fabric.jitter_events, 0u);
}

TEST(FaultRecovery, JitterAloneNeverLosesPackets) {
  RouterConfig config = small_config(4);
  config.fault.enabled = true;
  config.fault.jitter_probability = 0.5;
  config.fault.max_jitter_cycles = 9;
  RouterSim router(small_table(), config);
  const RouterResult result =
      router.run_workload(small_profile(), /*verify=*/true);
  expect_conserved(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.fabric.jitter_events, 0u);
  EXPECT_EQ(result.fabric.dropped, 0u);
  EXPECT_EQ(result.fault.degraded_fallbacks, 0u);
}

TEST(FaultRecovery, InvalidFaultConfigIsRejectedAtConstruction) {
  RouterConfig config = small_config(4);
  config.fault.enabled = true;
  config.fault.drop_probability = 1.5;
  EXPECT_THROW(RouterSim(small_table(), config), std::invalid_argument);
  config = small_config(4);
  config.fault.enabled = true;
  config.fault.outages.push_back(fabric::OutageWindow{/*port=*/7, 0, 100});
  EXPECT_THROW(RouterSim(small_table(), config), std::invalid_argument);
}

TEST(FaultRecovery, BackoffCyclesDoublesClampsAndSaturates) {
  // Property sweep for the retry backoff: bit-identical to the historical
  // `base << min(attempt, 20)` wherever that did not overflow, monotone
  // non-decreasing in the attempt, and saturated at the ceiling so
  // `now + 1 + backoff` can never wrap the 64-bit clock.
  using core::backoff_cycles;
  using core::kBackoffCeilingCycles;
  using core::kBackoffMaxShift;
  for (const std::uint64_t base :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{640},
        std::uint64_t{1} << 40, kBackoffCeilingCycles - 1,
        kBackoffCeilingCycles, ~std::uint64_t{0}}) {
    std::uint64_t previous = 0;
    for (int attempt = 0; attempt <= 128; ++attempt) {
      const std::uint64_t backoff = backoff_cycles(base, attempt);
      const int shift = attempt < kBackoffMaxShift ? attempt : kBackoffMaxShift;
      if (base < (kBackoffCeilingCycles >> shift)) {
        EXPECT_EQ(backoff, base << shift) << "base=" << base
                                          << " attempt=" << attempt;
      } else {
        EXPECT_EQ(backoff, kBackoffCeilingCycles);
      }
      EXPECT_GE(backoff, previous);
      EXPECT_LE(backoff, kBackoffCeilingCycles);  // now + 1 + backoff is safe
      previous = backoff;
    }
  }
  // Degenerate inputs: a zero base never backs off; a negative attempt is
  // treated as the first.
  EXPECT_EQ(backoff_cycles(0, 5), 0u);
  EXPECT_EQ(backoff_cycles(640, -3), 640u);
  // Beyond the clamp the doubling stops dead.
  EXPECT_EQ(backoff_cycles(1, kBackoffMaxShift),
            backoff_cycles(1, kBackoffMaxShift + 17));
}

TEST(FaultRecovery6, Ipv6RouterSurvivesDropsAndOutage) {
  // The recovery protocol lives in the shared core: the IPv6 router must
  // show the same conservation under combined loss and a dead LC.
  net::TableGen6Config table_config;
  table_config.size = 3'000;
  table_config.seed = 601;
  const net::RouteTable6 table = net::generate_table6(table_config);
  RouterConfig config = core::spal_default_config(4);
  config.packets_per_lc = 1'500;
  config.cache.blocks = 512;
  config.line_rate_gbps = 10.0;
  config.fault.enabled = true;
  config.fault.drop_probability = 0.05;
  config.fault.outages.push_back(
      fabric::OutageWindow{/*port=*/2, /*start=*/0,
                           /*end=*/std::uint64_t{1} << 40});
  config.recovery.max_retries = 2;
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 2'000;
  RouterSim6 router(table, config);
  const RouterResult result = router.run_workload(profile, /*verify=*/true);
  expect_conserved(result, 4 * config.packets_per_lc);
  EXPECT_GT(result.fabric.outage_dropped, 0u);
  EXPECT_GT(result.fault.degraded_lookups, 0u);
  EXPECT_GT(result.fault.retransmits, 0u);
}

}  // namespace
