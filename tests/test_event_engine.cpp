// Engine-equivalence tests: the CalendarQueue must pop in exactly the same
// (time, insertion-seq) order as the binary-heap EventQueue — including
// same-cycle bursts, far-future overflow, past schedules, and across
// automatic resizes — and so must a CalendarQueue merged with an arrival
// lane (the router's event loop) against a heap fed every arrival up front.
#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "sim/engine.h"
#include "sim/packet_source.h"

namespace {

using namespace spal;

struct Payload {
  std::uint64_t id;
  bool operator==(const Payload&) const = default;
};

using Heap = sim::EventQueue<Payload>;
using Calendar = sim::CalendarQueue<Payload>;

/// Drives both engines through the same schedule/pop tape and asserts the
/// pop sequences are identical (time and payload).
class Tandem {
 public:
  explicit Tandem(std::size_t bucket_hint = 0) : calendar_(bucket_hint) {}

  void schedule(std::uint64_t time) {
    heap_.schedule(time, Payload{next_id_});
    calendar_.schedule(time, Payload{next_id_});
    ++next_id_;
  }

  void pop_and_check() {
    ASSERT_EQ(heap_.empty(), calendar_.empty());
    ASSERT_FALSE(heap_.empty());
    ASSERT_EQ(heap_.next_time(), calendar_.next_time());
    const auto [heap_time, heap_event] = heap_.pop();
    const auto [cal_time, cal_event] = calendar_.pop();
    ASSERT_EQ(heap_time, cal_time);
    ASSERT_EQ(heap_event, cal_event);
    ASSERT_EQ(heap_.size(), calendar_.size());
    last_popped_ = heap_time;
  }

  void drain_and_check() {
    while (!heap_.empty()) pop_and_check();
    ASSERT_TRUE(calendar_.empty());
  }

  std::uint64_t last_popped() const { return last_popped_; }
  std::size_t size() const { return heap_.size(); }

 private:
  Heap heap_;
  Calendar calendar_;
  std::uint64_t next_id_ = 0;
  std::uint64_t last_popped_ = 0;
};

#ifndef NDEBUG
using EmptyQueueDeathTest = testing::Test;

TEST(EmptyQueueDeathTest, NextTimeAndPopAssertOnEmptyQueues) {
  // next_time()/pop() on an empty queue is a contract violation; in debug
  // builds the assert guards must fire instead of returning garbage.
  EXPECT_DEATH({ Heap q; (void)q.next_time(); }, "empty");
  EXPECT_DEATH({ Heap q; (void)q.pop(); }, "empty");
  EXPECT_DEATH({ Calendar q; (void)q.next_time(); }, "empty");
  EXPECT_DEATH({ Calendar q; (void)q.pop(); }, "empty");
  EXPECT_DEATH(
      {
        Heap q;
        q.schedule(5, Payload{1});
        (void)q.pop();
        (void)q.pop();  // one past the end
      },
      "empty");
}
#endif  // NDEBUG

TEST(CalendarQueueTest, FifoWithinOneCycle) {
  Tandem tandem;
  for (int i = 0; i < 100; ++i) tandem.schedule(7);
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, SameCycleBurstsInterleavedWithPops) {
  Tandem tandem;
  std::mt19937_64 rng(1);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t t = tandem.last_popped() + rng() % 16;
    // Burst several events onto one cycle, some while that cycle drains.
    for (int i = 0; i < 5; ++i) tandem.schedule(t);
    tandem.pop_and_check();
    for (int i = 0; i < 3; ++i) tandem.schedule(tandem.last_popped());
    tandem.pop_and_check();
  }
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, FarFutureEventsOverflowCorrectly) {
  Tandem tandem;
  std::mt19937_64 rng(2);
  for (int i = 0; i < 2000; ++i) {
    // Bimodal: near events plus far-future ones well beyond any wheel lap.
    tandem.schedule(i % 3 == 0 ? rng() % 512 : 1'000'000'000 + rng() % 4096);
  }
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, PastSchedulesStillPopInOrder) {
  Tandem tandem;
  for (int i = 0; i < 64; ++i) tandem.schedule(1000 + i);
  for (int i = 0; i < 32; ++i) tandem.pop_and_check();
  // The heap accepts times below the last popped time; the calendar must
  // reproduce the same (earliest-first) recovery order.
  for (int i = 0; i < 16; ++i) tandem.schedule(i % 7);
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, ResizeUnderLoadKeepsOrder) {
  // Start from the smallest wheel and push far past it so both the
  // bucket-count growth and the width rebuild trigger mid-run.
  Tandem tandem(/*bucket_hint=*/1);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 40'000; ++i) tandem.schedule(rng() % 100'000);
  for (int i = 0; i < 10'000; ++i) tandem.pop_and_check();
  for (int i = 0; i < 40'000; ++i) {
    tandem.schedule(tandem.last_popped() + rng() % 1'000'000);
  }
  tandem.drain_and_check();
}

TEST(CalendarQueueTest, RandomizedPropertyTape) {
  // Mixed random tape across several seeds: schedules clustered near the
  // last popped time, same-cycle bursts, far-future spikes, interleaved pops.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Tandem tandem;
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 30'000; ++step) {
      const std::uint64_t kind = rng() % 10;
      if (kind < 5) {
        tandem.schedule(tandem.last_popped() + rng() % 300);
      } else if (kind == 5) {
        const std::uint64_t t = tandem.last_popped() + rng() % 50;
        for (int i = 0; i < 4; ++i) tandem.schedule(t);
      } else if (kind == 6) {
        tandem.schedule(tandem.last_popped() + 1'000'000 + rng() % 100'000);
      } else if (tandem.size() > 0) {
        tandem.pop_and_check();
      }
    }
    tandem.drain_and_check();
  }
}

TEST(CalendarQueueTest, ReserveMatchesUnreserved) {
  // reserve() only changes geometry, never order.
  Calendar reserved;
  reserved.reserve(500'000);
  Calendar plain;
  std::mt19937_64 rng(4);
  std::vector<std::uint64_t> times;
  for (int i = 0; i < 5'000; ++i) times.push_back(rng() % 1'000'000);
  for (std::size_t i = 0; i < times.size(); ++i) {
    reserved.schedule(times[i], Payload{i});
    plain.schedule(times[i], Payload{i});
  }
  while (!plain.empty()) {
    ASSERT_FALSE(reserved.empty());
    const auto a = plain.pop();
    const auto b = reserved.pop();
    ASSERT_EQ(a.first, b.first);
    ASSERT_EQ(a.second, b.second);
  }
  ASSERT_TRUE(reserved.empty());
}

/// The router's arrival merge against a reference. The reference is one
/// EventQueue fed everything up front in the router's insertion order:
/// pre-events, every LC's arrivals LC by LC, post-events. The candidate
/// schedules the pre- and post-events into a CalendarQueue around a seq
/// range reserved for the arrivals, which an ArrivalLane streams; each pop
/// takes the earlier of the two heads by (time, seq). Dynamic schedules go
/// to both sides in the same order, so their seqs line up too.
class LaneTandem {
 public:
  static constexpr std::uint64_t kArrival = std::uint64_t{1} << 63;

  LaneTandem(const std::vector<std::vector<std::uint64_t>>& per_lc,
             const std::vector<std::uint64_t>& pre,
             const std::vector<std::uint64_t>& post) {
    first_.push_back(0);
    for (const auto& times : per_lc) {
      times_.insert(times_.end(), times.begin(), times.end());
      first_.push_back(times_.size());
    }
    for (const std::uint64_t t : pre) schedule(t);
    for (std::size_t p = 0; p < times_.size(); ++p) {
      heap_.schedule(times_[p], Payload{kArrival | p});
    }
    arrival_seq_ = calendar_.reserve_seqs(times_.size());
    for (const std::uint64_t t : post) schedule(t);
    lane_ = sim::ArrivalLane(times_, first_);
  }

  void schedule(std::uint64_t time) {
    heap_.schedule(time, Payload{next_id_});
    calendar_.schedule(time, Payload{next_id_});
    ++next_id_;
  }

  void pop_and_check() {
    ASSERT_FALSE(heap_.empty());
    const auto [heap_time, heap_event] = heap_.pop();
    const bool from_lane =
        !lane_.empty() &&
        (calendar_.empty() ||
         !calendar_.head_before(lane_.next_time(), arrival_seq_ + lane_.next_packet()));
    std::uint64_t time = 0;
    Payload event{};
    if (from_lane) {
      time = lane_.next_time();
      const auto [packet, lc] = lane_.pop();
      // The yielded LC owns the packet's id range.
      ASSERT_LT(lc + 1, first_.size());
      ASSERT_LE(first_[lc], packet);
      ASSERT_LT(packet, first_[lc + 1]);
      event = Payload{kArrival | packet};
    } else {
      ASSERT_FALSE(calendar_.empty());
      std::tie(time, event) = calendar_.pop();
    }
    ASSERT_EQ(heap_time, time);
    ASSERT_EQ(heap_event, event);
    now_ = time;
    if (from_lane) ++lane_pops_;
  }

  void drain_and_check() {
    while (!heap_.empty() && !::testing::Test::HasFatalFailure()) pop_and_check();
    EXPECT_TRUE(calendar_.empty());
    EXPECT_TRUE(lane_.empty());
    EXPECT_EQ(lane_pops_, times_.size());
  }

  bool empty() const { return heap_.empty(); }
  std::uint64_t now() const { return now_; }
  const std::vector<std::uint64_t>& arrival_times() const { return times_; }

 private:
  Heap heap_;
  Calendar calendar_;
  sim::ArrivalLane lane_;
  std::vector<std::uint64_t> times_;
  std::vector<std::size_t> first_;
  std::uint64_t arrival_seq_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t now_ = 0;
  std::size_t lane_pops_ = 0;
};

/// Per-LC arrival times at 40 Gbps: `counts[lc]` packets for LC lc (ψ =
/// counts.size()).
std::vector<std::vector<std::uint64_t>> lanes(const std::vector<std::size_t>& counts,
                                              std::uint64_t seed) {
  std::vector<std::vector<std::uint64_t>> per_lc;
  for (std::size_t lc = 0; lc < counts.size(); ++lc) {
    per_lc.push_back(sim::generate_arrival_times(40.0, counts[lc], seed ^ lc));
  }
  return per_lc;
}

TEST(ArrivalLaneTest, LaneAloneYieldsTheUpfrontOrder) {
  // No calendar events at all: the lane's (time, packet) order is the
  // heap's (time, seq) order over the arrivals.
  LaneTandem tandem(lanes(std::vector<std::size_t>(16, 2'000), 5), {}, {});
  tandem.drain_and_check();
}

TEST(ArrivalLaneTest, MergeMatchesUpfrontQueueUnderRandomTapes) {
  // Packets per LC (ψ = size): empty LCs at the ends and between busy
  // ones, ψ that are not powers of two (3, 5, 6, 7: the tree's leaves sit
  // at two depths), and counts that differ, so LCs run dry at different
  // times.
  std::vector<std::size_t> sixteen_but_ends(16, 600);
  sixteen_but_ends.front() = sixteen_but_ends.back() = 0;
  const std::vector<std::size_t> shapes[] = {
      {600},
      {600, 0, 600, 600},
      sixteen_but_ends,
      std::vector<std::size_t>(16, 600),
      {0, 0, 0},
      {600, 600, 600, 600, 600},
      {600, 37, 900, 250, 1, 1'200, 480},
      {600, 300, 0, 900, 5, 600},
  };
  for (const std::vector<std::size_t>& shape : shapes) {
    for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
      SCOPED_TRACE(testing::Message() << "psi " << shape.size() << " seed " << seed);
      const auto per_lc = lanes(shape, seed);
      std::mt19937_64 rng(seed);
      // Pre- and post-events on arrival cycles (they tie with an arrival and
      // must pop before / after it) plus a few anywhere in the horizon.
      std::vector<std::uint64_t> pre, post;
      for (const auto& times : per_lc) {
        if (times.empty()) continue;
        pre.push_back(times.front());
        post.push_back(times.front());
        post.push_back(times[times.size() / 2]);
        pre.push_back(times.back());
        pre.push_back(rng() % (times.back() + 1));
        post.push_back(rng() % (times.back() + 1));
      }
      LaneTandem tandem(per_lc, pre, post);
      const auto& arrivals = tandem.arrival_times();
      int budget = 12'000;  // dynamic schedules; the tape then drains
      while (!tandem.empty() && !HasFatalFailure()) {
        tandem.pop_and_check();
        const std::uint64_t now = tandem.now();
        const std::uint64_t kind = rng() % 10;
        if (budget <= 0 || kind >= 7) continue;
        if (kind < 3) {
          // Near future: often below the calendar's cursor, which can run
          // ahead of the next arrival.
          tandem.schedule(now + rng() % 64);
          budget -= 1;
        } else if (kind == 3) {
          for (int i = 0; i < 3; ++i) tandem.schedule(now);  // same-cycle burst
          budget -= 3;
        } else if (kind == 4 && !arrivals.empty()) {
          // A burst on some arrival's cycle (or now, if that one is past).
          const std::uint64_t at =
              std::max(now, arrivals[static_cast<std::size_t>(rng() % arrivals.size())]);
          for (int i = 0; i < 3; ++i) tandem.schedule(at);
          budget -= 3;
        } else if (kind == 5) {
          tandem.schedule(now + 1'000'000 + rng() % 4096);  // far future
          budget -= 1;
        } else {
          tandem.schedule(now - std::min<std::uint64_t>(now, rng() % 8));  // past
          budget -= 1;
        }
      }
      tandem.drain_and_check();
    }
  }
}

}  // namespace
