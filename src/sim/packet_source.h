// Packet arrival-time generation (paper Sec. 5.1) and the arrival lane that
// streams a run's arrivals in event order.
//
// The paper generates variable-length packets so that each LC sustains its
// line rate with a 256-byte mean packet (40-byte minimum): at the 5 ns cycle
// this yields one packet every uniform[2,18] cycles at 40 Gbps and every
// uniform[6,74] cycles at 10 Gbps.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace spal::sim {

inline constexpr double kCycleNs = 5.0;  ///< the paper's simulated clock

struct ArrivalBounds {
  int min_cycles;
  int max_cycles;
};

/// Inter-arrival bounds for a line rate; only the paper's two rates are
/// meaningful but any rate is scaled from the 40 Gbps bounds. Throws
/// std::invalid_argument unless the rate is finite and positive and its
/// gaps fit an int (below about 1e-6 Gbps they do not).
inline ArrivalBounds arrival_bounds(double line_rate_gbps) {
  if (!std::isfinite(line_rate_gbps) || line_rate_gbps <= 0) {
    throw std::invalid_argument("line rate must be a finite positive Gbps");
  }
  if (line_rate_gbps >= 40.0) return {2, 18};
  if (line_rate_gbps >= 10.0 && line_rate_gbps < 11.0) return {6, 74};
  // General scaling: mean inter-arrival = mean packet bits / rate / cycle.
  const double mean_cycles = (256.0 * 8.0) / line_rate_gbps / kCycleNs;
  const double max_gap = mean_cycles * 1.8;
  // The upper bound is the larger one; below INT_MAX both casts are exact
  // truncations and min_cycles + 1 cannot overflow.
  if (!(max_gap < static_cast<double>(std::numeric_limits<int>::max()))) {
    throw std::invalid_argument("line rate too low: arrival gaps overflow int");
  }
  const int min_cycles = std::max(1, static_cast<int>(mean_cycles * 0.2));
  const int max_cycles = static_cast<int>(max_gap);
  return {min_cycles, std::max(max_cycles, min_cycles + 1)};
}

/// Fills `out` with one LC's deterministic arrival-time sequence (strictly
/// increasing, one packet per slot).
inline void fill_arrival_times(double line_rate_gbps, std::uint64_t seed,
                               std::span<std::uint64_t> out) {
  const ArrivalBounds bounds = arrival_bounds(line_rate_gbps);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> gap(bounds.min_cycles, bounds.max_cycles);
  std::uint64_t now = 0;
  for (std::uint64_t& time : out) {
    now += static_cast<std::uint64_t>(gap(rng));
    time = now;
  }
}

/// Deterministic arrival-time sequence for one LC.
inline std::vector<std::uint64_t> generate_arrival_times(double line_rate_gbps,
                                                         std::size_t packets,
                                                         std::uint64_t seed) {
  std::vector<std::uint64_t> times(packets);
  fill_arrival_times(line_rate_gbps, seed, times);
  return times;
}

/// Streams ψ per-LC arrival sequences in (arrival time, packet id) order
/// without scheduling them anywhere: a min-heap of one cursor per LC with
/// packets left. Packet ids are LC-major — LC lc owns ids [first[lc],
/// first[lc + 1]) — and each LC's times must be non-decreasing, so the lane
/// yields the arrivals in exactly the order a (time, seq) queue pops them
/// when fed every arrival LC by LC with consecutive seqs.
class ArrivalLane {
 public:
  ArrivalLane() = default;

  /// `times[p]` is packet p's arrival and must outlive the lane; `first`
  /// holds ψ + 1 ascending offsets. An LC with an empty range gets no
  /// cursor.
  ArrivalLane(std::span<const std::uint64_t> times,
              std::span<const std::size_t> first)
      : times_(times) {
    for (std::size_t lc = 0; lc + 1 < first.size(); ++lc) {
      if (first[lc] < first[lc + 1]) {
        heap_.push_back(Cursor{times_[first[lc]], first[lc], first[lc + 1]});
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
  }

  bool empty() const { return heap_.empty(); }
  /// The next arrival's time and packet id; callers check empty() first.
  std::uint64_t next_time() const { return heap_.front().time; }
  std::size_t next_packet() const { return heap_.front().packet; }

  /// Yields the next arrival's packet id and advances its LC's cursor.
  std::size_t pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Cursor& cursor = heap_.back();
    const std::size_t packet = cursor.packet++;
    if (cursor.packet < cursor.end) {
      cursor.time = times_[cursor.packet];
      std::push_heap(heap_.begin(), heap_.end(), later);
    } else {
      heap_.pop_back();
    }
    return packet;
  }

 private:
  struct Cursor {
    std::uint64_t time;  ///< arrival of `packet`
    std::size_t packet;  ///< the LC's next packet id
    std::size_t end;     ///< one past the LC's last packet id
  };

  static bool later(const Cursor& a, const Cursor& b) {
    return a.time != b.time ? a.time > b.time : a.packet > b.packet;
  }

  std::span<const std::uint64_t> times_;
  std::vector<Cursor> heap_;
};

}  // namespace spal::sim
