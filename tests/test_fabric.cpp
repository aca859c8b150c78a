#include "fabric/fabric.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace {

using namespace spal;
using fabric::Delivery;
using fabric::Egress;
using fabric::Fabric;
using fabric::FabricConfig;

TEST(FabricStages, SingleStageUpToRadix) {
  EXPECT_EQ(fabric::fabric_stages(1, 16), 1);
  EXPECT_EQ(fabric::fabric_stages(16, 16), 1);
  EXPECT_EQ(fabric::fabric_stages(2, 16), 1);
}

TEST(FabricStages, MultistageGrowth) {
  EXPECT_EQ(fabric::fabric_stages(17, 16), 2);
  EXPECT_EQ(fabric::fabric_stages(256, 16), 2);
  EXPECT_EQ(fabric::fabric_stages(257, 16), 3);
  EXPECT_EQ(fabric::fabric_stages(64, 8), 2);
}

TEST(FabricStages, RejectsBadArguments) {
  EXPECT_THROW(fabric::fabric_stages(0, 16), std::invalid_argument);
  EXPECT_THROW(fabric::fabric_stages(4, 1), std::invalid_argument);
}

TEST(FabricLatency, PaperSizedRouterIsTwoCycles) {
  // ψ <= 16 with a 16-port crossbar: one stage, ~10 ns = 2 cycles of 5 ns.
  FabricConfig config;
  config.ports = 16;
  EXPECT_DOUBLE_EQ(fabric::fabric_latency_cycles(config), 2.0);
}

TEST(FabricLatency, GrowsWithStages) {
  FabricConfig small;
  small.ports = 8;
  FabricConfig large;
  large.ports = 64;
  EXPECT_LT(fabric::fabric_latency_cycles(small), fabric::fabric_latency_cycles(large));
}

TEST(Fabric, UncontendedDeliveryTakesLatency) {
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  EXPECT_EQ(fabric.deliver(0, 1, 100), 102u);
}

TEST(Fabric, EgressSerializesBackToBackMessages) {
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  EXPECT_EQ(fabric.deliver(0, 1, 100), 102u);
  EXPECT_EQ(fabric.deliver(0, 2, 100), 103u);  // same source, next cycle
  EXPECT_EQ(fabric.deliver(0, 3, 100), 104u);
}

TEST(Fabric, IngressSerializesConvergingMessages) {
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  EXPECT_EQ(fabric.deliver(0, 3, 100), 102u);
  EXPECT_EQ(fabric.deliver(1, 3, 100), 103u);  // same destination port
  EXPECT_EQ(fabric.deliver(2, 3, 100), 104u);
}

TEST(Fabric, DistinctPortPairsDoNotInterfere) {
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  EXPECT_EQ(fabric.deliver(0, 1, 100), 102u);
  EXPECT_EQ(fabric.deliver(2, 3, 100), 102u);
}

TEST(Fabric, StatsTrackMessagesAndQueueing) {
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  (void)fabric.deliver(0, 1, 100);
  (void)fabric.deliver(0, 1, 100);  // blocked one cycle on egress + ingress
  EXPECT_EQ(fabric.stats().messages, 2u);
  EXPECT_GT(fabric.stats().total_queueing_cycles, 0u);
}

TEST(Fabric, ResetClearsOccupancy) {
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  (void)fabric.deliver(0, 1, 100);
  fabric.reset();
  EXPECT_EQ(fabric.stats().messages, 0u);
  EXPECT_EQ(fabric.deliver(0, 1, 100), 102u);  // no residual blocking
}

TEST(Fabric, InjectionTimeMaySlipBackOneCycle) {
  // The router's reply path injects at `now` while the request path injects
  // at `now + 1`, so at one event time injections may arrive one cycle out
  // of order. That single-cycle slack is legal — per source port.
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  (void)fabric.deliver(0, 1, 100);
  EXPECT_NO_THROW(fabric.deliver(0, 3, 99));
}

TEST(Fabric, InjectionTimeRegressionBeyondSlackThrows) {
  // The guard is per source port: only a same-port regression is an
  // ordering bug.
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  (void)fabric.deliver(0, 1, 100);
  EXPECT_THROW(fabric.deliver(0, 3, 98), std::logic_error);
  // A different source port has its own clock, so cross-port regression is
  // legal by design.
  EXPECT_NO_THROW(fabric.deliver(2, 3, 0));
  // reset() restarts the clocks, so earlier times are legal again.
  fabric.reset();
  EXPECT_NO_THROW(fabric.deliver(0, 3, 0));
}

TEST(Fabric, ReconfigureResizesPortState) {
  // Regression: reusing one Fabric across runs whose `ports` differ must
  // resize the occupancy and statistics vectors, not carry stale entries.
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  (void)fabric.deliver(0, 3, 100);
  ASSERT_EQ(fabric.stats().ports.size(), 4u);

  FabricConfig larger;
  larger.ports = 8;
  fabric.reconfigure(larger);
  EXPECT_EQ(fabric.stats().ports.size(), 8u);
  EXPECT_EQ(fabric.stats().messages, 0u);
  (void)fabric.deliver(7, 0, 10);  // the new ports exist and start idle
  EXPECT_EQ(fabric.stats().ports[7].sent, 1u);

  FabricConfig smaller;
  smaller.ports = 2;
  fabric.reconfigure(smaller);
  EXPECT_EQ(fabric.stats().ports.size(), 2u);
  EXPECT_EQ(fabric.deliver(0, 1, 100), 102u);  // no residual occupancy
}

TEST(Fabric, FailedReconfigureLeavesStateIntact) {
  FabricConfig config;
  config.ports = 4;
  Fabric fabric(config);
  (void)fabric.deliver(0, 1, 100);

  FabricConfig bad;
  bad.ports = 0;
  EXPECT_THROW(fabric.reconfigure(bad), std::invalid_argument);
  fabric::FaultConfig bad_faults;
  bad_faults.drop_probability = 2.0;
  EXPECT_THROW(fabric.reconfigure(config, bad_faults), std::invalid_argument);

  // The old configuration and statistics survive a rejected reconfigure.
  EXPECT_EQ(fabric.config().ports, 4);
  EXPECT_EQ(fabric.stats().messages, 1u);
  EXPECT_NO_THROW(fabric.deliver(2, 3, 100));
}

TEST(FabricFaults, ValidateRejectsBadConfigs) {
  fabric::FaultConfig faults;
  faults.drop_probability = 1.5;
  EXPECT_THROW(faults.validate(4), std::invalid_argument);
  faults = {};
  faults.jitter_probability = -0.1;
  EXPECT_THROW(faults.validate(4), std::invalid_argument);
  faults = {};
  faults.jitter_probability = 0.5;  // jitter enabled without a magnitude
  EXPECT_THROW(faults.validate(4), std::invalid_argument);
  faults = {};
  faults.outages.push_back({/*port=*/4, 0, 10});  // out of range for 4 ports
  EXPECT_THROW(faults.validate(4), std::invalid_argument);
  faults = {};
  faults.outages.push_back({/*port=*/1, 10, 10});  // empty window
  EXPECT_THROW(faults.validate(4), std::invalid_argument);
  // The fabric constructor applies the same validation.
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig bad;
  bad.drop_probability = -1.0;
  EXPECT_THROW(Fabric(config, bad), std::invalid_argument);
}

TEST(FabricFaults, DisabledLayerMatchesDeliverExactly) {
  // With enabled == false the configured probabilities are inert: no RNG
  // draw happens and try_deliver is bit-identical to deliver.
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig faults;
  faults.drop_probability = 1.0;  // would drop everything if armed
  Fabric faulty(config, faults);
  Fabric plain(config);
  for (std::uint64_t now = 0; now < 50; ++now) {
    const auto delivery = faulty.try_deliver(0, 1, now);
    ASSERT_TRUE(delivery.delivered);
    EXPECT_EQ(delivery.arrival, plain.deliver(0, 1, now));
  }
  EXPECT_EQ(faulty.stats().dropped, 0u);
}

TEST(FabricFaults, DropProbabilityOneLosesEveryMessage) {
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig faults;
  faults.enabled = true;
  faults.drop_probability = 1.0;
  Fabric fabric(config, faults);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(fabric.try_deliver(0, 1, 100).delivered);
  }
  EXPECT_EQ(fabric.stats().dropped, 10u);
  EXPECT_EQ(fabric.stats().outage_dropped, 0u);
  EXPECT_EQ(fabric.stats().messages, 0u);  // drops never occupy a port
  EXPECT_EQ(fabric.stats().ports[0].dropped, 10u);  // charged to the source
  EXPECT_EQ(fabric.stats().ports[0].sent, 0u);
}

TEST(FabricFaults, OutageWindowDropsBothDirectionsWhileActive) {
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig faults;
  faults.enabled = true;
  faults.outages.push_back({/*port=*/1, /*start=*/100, /*end=*/200});
  Fabric fabric(config, faults);
  EXPECT_TRUE(fabric.try_deliver(0, 1, 99).delivered);   // before the window
  EXPECT_FALSE(fabric.try_deliver(1, 2, 150).delivered); // down as source
  EXPECT_FALSE(fabric.try_deliver(0, 1, 150).delivered); // down as destination
  EXPECT_TRUE(fabric.try_deliver(0, 2, 150).delivered);  // unaffected pair
  EXPECT_TRUE(fabric.try_deliver(0, 1, 200).delivered);  // end is exclusive
  EXPECT_EQ(fabric.stats().dropped, 2u);
  EXPECT_EQ(fabric.stats().outage_dropped, 2u);
}

TEST(FabricFaults, OutageCyclesSumsPerPort) {
  fabric::FaultConfig faults;
  faults.outages.push_back({/*port=*/1, 100, 200});
  faults.outages.push_back({/*port=*/1, 500, 550});
  faults.outages.push_back({/*port=*/2, 0, 10});
  EXPECT_EQ(faults.outage_cycles(1), 150u);
  EXPECT_EQ(faults.outage_cycles(2), 10u);
  EXPECT_EQ(faults.outage_cycles(0), 0u);
}

TEST(FabricFaults, JitterDelaysButNeverDrops) {
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig faults;
  faults.enabled = true;
  faults.jitter_probability = 1.0;
  faults.max_jitter_cycles = 5;
  Fabric fabric(config, faults);
  Fabric plain(config);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t now = i * 100;  // spaced out: no port contention
    const auto delivery = fabric.try_deliver(0, 1, now);
    const std::uint64_t base = plain.deliver(0, 1, now);
    ASSERT_TRUE(delivery.delivered);
    EXPECT_GE(delivery.arrival, base + 1);
    EXPECT_LE(delivery.arrival, base + 5);
  }
  EXPECT_EQ(fabric.stats().jitter_events, 20u);
  EXPECT_GE(fabric.stats().jitter_cycles, 20u);
  EXPECT_LE(fabric.stats().jitter_cycles, 100u);
  EXPECT_EQ(fabric.stats().dropped, 0u);
}

TEST(FabricFaults, SeededDropsAreReproducibleAcrossReset) {
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig faults;
  faults.enabled = true;
  faults.drop_probability = 0.5;
  Fabric fabric(config, faults);
  std::vector<bool> first;
  for (std::uint64_t now = 0; now < 200; ++now) {
    first.push_back(fabric.try_deliver(0, 1, now).delivered);
  }
  EXPECT_GT(fabric.stats().dropped, 0u);
  EXPECT_GT(fabric.stats().messages, 0u);
  fabric.reset();  // reseeds the fault RNG
  EXPECT_EQ(fabric.stats().dropped, 0u);
  for (std::uint64_t now = 0; now < 200; ++now) {
    EXPECT_EQ(fabric.try_deliver(0, 1, now).delivered, first[now]);
  }
}

TEST(Fabric, SplitPhasesComposeToDeliver) {
  // The router core runs egress when a handler sends and ingress_commit when
  // the message leaves its in-flight heap; run back-to-back they must be
  // deliver() exactly.
  FabricConfig config;
  config.ports = 4;
  Fabric split(config);
  Fabric whole(config);
  const std::uint64_t times[] = {5, 5, 6, 9, 9, 9, 40};
  for (const std::uint64_t now : times) {
    const Egress out = split.egress(0, now);
    ASSERT_TRUE(out.delivered);
    const std::uint64_t arrival = split.ingress_commit(1, out.raw_arrival);
    EXPECT_EQ(arrival, whole.deliver(0, 1, now));
  }
  EXPECT_EQ(split.stats().messages, whole.stats().messages);
  EXPECT_EQ(split.stats().total_queueing_cycles,
            whole.stats().total_queueing_cycles);
}

TEST(FabricFaults, SplitLossyPhasesComposeToTryDeliver) {
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig faults;
  faults.enabled = true;
  faults.drop_probability = 0.3;
  faults.jitter_probability = 0.2;
  faults.max_jitter_cycles = 4;
  Fabric split(config, faults);
  Fabric whole(config, faults);
  for (std::uint64_t now = 0; now < 300; ++now) {
    const Egress out = split.egress_lossy(0, 1, now);
    const Delivery expected = whole.try_deliver(0, 1, now);
    ASSERT_EQ(out.delivered, expected.delivered);
    if (out.delivered) {
      EXPECT_EQ(split.ingress_commit(1, out.raw_arrival), expected.arrival);
    }
  }
  EXPECT_EQ(split.stats().dropped, whole.stats().dropped);
  EXPECT_EQ(split.stats().jitter_events, whole.stats().jitter_events);
  EXPECT_EQ(split.stats().jitter_cycles, whole.stats().jitter_cycles);
}

TEST(FabricFaults, PerSourcePortRngStreamsAreIndependent) {
  // Each egress port owns its fault RNG, so interleaving traffic from a
  // second source must not perturb the first source's drop sequence.
  FabricConfig config;
  config.ports = 4;
  fabric::FaultConfig faults;
  faults.enabled = true;
  faults.drop_probability = 0.5;
  Fabric alone(config, faults);
  Fabric mixed(config, faults);
  for (std::uint64_t now = 0; now < 200; ++now) {
    const bool expected = alone.try_deliver(0, 1, now).delivered;
    (void)mixed.try_deliver(2, 3, now);  // interleaved second source
    EXPECT_EQ(mixed.try_deliver(0, 1, now).delivered, expected);
  }
}

TEST(FaultConfigOutage, OutageCyclesMergesOverlappingWindows) {
  // Regression: outage_cycles must report the measure of the UNION of a
  // port's windows. Overlapping, nested, and abutting spans collapse first;
  // a cycle covered twice is counted once, and other ports don't leak in.
  fabric::FaultConfig faults;
  faults.outages.push_back(fabric::OutageWindow{0, 100, 200});
  faults.outages.push_back(fabric::OutageWindow{0, 150, 250});  // overlaps
  faults.outages.push_back(fabric::OutageWindow{0, 160, 180});  // nested
  faults.outages.push_back(fabric::OutageWindow{0, 250, 300});  // abuts
  faults.outages.push_back(fabric::OutageWindow{0, 400, 450});  // disjoint
  faults.outages.push_back(fabric::OutageWindow{1, 0, 1'000});  // other port
  EXPECT_EQ(faults.outage_cycles(0), (300u - 100u) + (450u - 400u));
  EXPECT_EQ(faults.outage_cycles(1), 1'000u);
  EXPECT_EQ(faults.outage_cycles(2), 0u);
}

TEST(FaultConfigOutage, PortDownTracksEveryWindowHalfOpen) {
  fabric::FaultConfig faults;
  faults.outages.push_back(fabric::OutageWindow{0, 100, 200});
  faults.outages.push_back(fabric::OutageWindow{0, 400, 450});
  EXPECT_FALSE(faults.port_down(0, 99));
  EXPECT_TRUE(faults.port_down(0, 100));   // start inclusive
  EXPECT_TRUE(faults.port_down(0, 199));
  EXPECT_FALSE(faults.port_down(0, 200));  // end exclusive
  EXPECT_TRUE(faults.port_down(0, 425));
  EXPECT_FALSE(faults.port_down(1, 150));
}

}  // namespace
