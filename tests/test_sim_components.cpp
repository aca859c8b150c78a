#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/packet_source.h"

namespace {

using namespace spal;
using sim::EventQueue;
using sim::LatencyStats;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> queue;
  queue.schedule(30, 3);
  queue.schedule(10, 1);
  queue.schedule(20, 2);
  EXPECT_EQ(queue.pop().second, 1);
  EXPECT_EQ(queue.pop().second, 2);
  EXPECT_EQ(queue.pop().second, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EqualTimesPopInInsertionOrder) {
  EventQueue<int> queue;
  for (int i = 0; i < 50; ++i) queue.schedule(7, i);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(queue.pop().second, i);
}

TEST(EventQueue, ReturnsTimestamps) {
  EventQueue<char> queue;
  queue.schedule(42, 'a');
  EXPECT_EQ(queue.next_time(), 42u);
  const auto [time, event] = queue.pop();
  EXPECT_EQ(time, 42u);
  EXPECT_EQ(event, 'a');
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue<int> queue;
  EXPECT_EQ(queue.size(), 0u);
  queue.schedule(1, 1);
  queue.schedule(2, 2);
  EXPECT_EQ(queue.size(), 2u);
  (void)queue.pop();
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, InterleavedScheduleAndPop) {
  EventQueue<int> queue;
  queue.schedule(10, 1);
  queue.schedule(30, 3);
  EXPECT_EQ(queue.pop().second, 1);
  queue.schedule(20, 2);  // earlier than the remaining event
  EXPECT_EQ(queue.pop().second, 2);
  EXPECT_EQ(queue.pop().second, 3);
}

TEST(LatencyStats, MeanAndWorst) {
  LatencyStats stats;
  stats.record(10);
  stats.record(20);
  stats.record(30);
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.mean_cycles(), 20.0);
  EXPECT_EQ(stats.worst_cycles(), 30u);
}

TEST(LatencyStats, EmptyIsZero) {
  const LatencyStats stats;
  EXPECT_DOUBLE_EQ(stats.mean_cycles(), 0.0);
  EXPECT_EQ(stats.worst_cycles(), 0u);
  EXPECT_DOUBLE_EQ(stats.lookups_per_second(5.0), 0.0);
}

TEST(LatencyStats, Percentiles) {
  LatencyStats stats;
  for (std::uint64_t i = 1; i <= 100; ++i) stats.record(i);
  EXPECT_EQ(stats.percentile(0.5), 50u);
  EXPECT_EQ(stats.percentile(0.99), 99u);
  EXPECT_EQ(stats.percentile(1.0), 100u);
}

TEST(LatencyStats, OutliersKeepTheirValue) {
  // Regression: values beyond the linear tier used to be clamped into its
  // last bucket, so percentile(1.0) reported the histogram range instead of
  // the recorded worst case. The geometric overflow tier keeps them.
  LatencyStats stats(16);
  stats.record(1'000'000);  // far beyond the linear tier
  EXPECT_EQ(stats.worst_cycles(), 1'000'000u);
  EXPECT_EQ(stats.percentile(1.0), 1'000'000u);
}

TEST(LatencyStats, LookupsPerSecondMatchesPaperArithmetic) {
  // The paper: mean < 9.2 cycles of 5 ns -> >21 Mpps per LC.
  LatencyStats stats;
  for (int i = 0; i < 10; ++i) stats.record(9);
  EXPECT_GT(stats.lookups_per_second(5.0), 21e6);
}

TEST(LatencyStats, MergeCombines) {
  LatencyStats a, b;
  a.record(10);
  b.record(30);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_cycles(), 20.0);
  EXPECT_EQ(a.worst_cycles(), 30u);
}

TEST(PacketSource, PaperBoundsAt40G) {
  const auto bounds = sim::arrival_bounds(40.0);
  EXPECT_EQ(bounds.min_cycles, 2);
  EXPECT_EQ(bounds.max_cycles, 18);
}

TEST(PacketSource, PaperBoundsAt10G) {
  const auto bounds = sim::arrival_bounds(10.0);
  EXPECT_EQ(bounds.min_cycles, 6);
  EXPECT_EQ(bounds.max_cycles, 74);
}

TEST(PacketSource, ScalesEveryOtherRate) {
  // Only exactly 10 Gbps keeps the paper's pair; every other rate takes
  // uniform[0.2, 1.8] x the mean gap, so a rate above 40 Gbps or inside
  // (10, 11) is honoured rather than clamped to a paper pair.
  struct Case {
    double gbps;
    int min_cycles;
    int max_cycles;
  };
  const Case cases[] = {{39.9, 2, 18}, {40.5, 2, 18}, {45.0, 1, 16},
                        {160.0, 1, 4}, {1e6, 1, 2},   {10.5, 7, 70}};
  for (const Case& c : cases) {
    const auto bounds = sim::arrival_bounds(c.gbps);
    EXPECT_EQ(bounds.min_cycles, c.min_cycles) << c.gbps;
    EXPECT_EQ(bounds.max_cycles, c.max_cycles) << c.gbps;
  }
}

TEST(PacketSource, RejectsNonPositiveRate) {
  EXPECT_THROW(sim::arrival_bounds(0.0), std::invalid_argument);
  EXPECT_THROW(sim::arrival_bounds(-1.0), std::invalid_argument);
}

TEST(PacketSource, RejectsRatesWhoseGapsDoNotFitAnInt) {
  // A non-finite rate, or one so low that 1.8x its mean gap exceeds
  // INT_MAX, has no int bounds (the casts would overflow).
  EXPECT_THROW(sim::arrival_bounds(std::nan("")), std::invalid_argument);
  EXPECT_THROW(sim::arrival_bounds(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(sim::arrival_bounds(1e-12), std::invalid_argument);
  EXPECT_THROW(sim::arrival_bounds(1e-7), std::invalid_argument);
  // 1e-6 Gbps: a 409.6M-cycle mean gap, scaled by 0.2 and 1.8.
  const auto bounds = sim::arrival_bounds(1e-6);
  EXPECT_EQ(bounds.min_cycles, 81'920'000);
  EXPECT_EQ(bounds.max_cycles, 737'280'000);
}

TEST(PacketSource, ArrivalsAreMonotoneWithBoundedGaps) {
  const auto times = sim::generate_arrival_times(40.0, 10'000, 7);
  ASSERT_EQ(times.size(), 10'000u);
  std::uint64_t prev = 0;
  for (const std::uint64_t t : times) {
    const std::uint64_t gap = t - prev;
    EXPECT_GE(gap, 2u);
    EXPECT_LE(gap, 18u);
    prev = t;
  }
}

TEST(PacketSource, MeanGapNearTen) {
  // Uniform[2,18] has mean 10 cycles: one packet per 50 ns at 40 Gbps with
  // 256-byte mean packets.
  const auto times = sim::generate_arrival_times(40.0, 100'000, 8);
  const double mean_gap =
      static_cast<double>(times.back()) / static_cast<double>(times.size());
  EXPECT_NEAR(mean_gap, 10.0, 0.2);
}

TEST(PacketSource, DeterministicPerSeed) {
  EXPECT_EQ(sim::generate_arrival_times(40.0, 100, 9),
            sim::generate_arrival_times(40.0, 100, 9));
  EXPECT_NE(sim::generate_arrival_times(40.0, 100, 9),
            sim::generate_arrival_times(40.0, 100, 10));
}

}  // namespace
