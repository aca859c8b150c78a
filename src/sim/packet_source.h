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

/// Inter-arrival bounds for a line rate: the paper's pair at exactly 10
/// Gbps, else uniform[0.2, 1.8] × the mean gap (which gives the paper's
/// [2, 18] at 40 Gbps). Throws std::invalid_argument unless the rate is
/// finite and positive and its gaps fit an int (below about 1e-6 Gbps they
/// do not).
inline ArrivalBounds arrival_bounds(double line_rate_gbps) {
  if (!std::isfinite(line_rate_gbps) || line_rate_gbps <= 0) {
    throw std::invalid_argument("line rate must be a finite positive Gbps");
  }
  if (line_rate_gbps == 10.0) return {6, 74};
  // Mean inter-arrival = mean packet bits / rate / cycle.
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

/// How many entries ahead of an LC's cursor the arrival lane prefetches the
/// LC's arrival times, and the router its destinations. ψ = 16 LCs step
/// through their streams in lockstep, more sequential streams than the
/// hardware prefetcher follows, so without it each LC's next load stalls.
inline constexpr std::size_t kReadAhead = 16;

/// Prefetches `data[index + kReadAhead]` when it lies below `size`.
template <typename T>
inline void read_ahead(const T* data, std::size_t index, std::size_t size) {
  if (index + kReadAhead < size) __builtin_prefetch(data + index + kReadAhead, 0, 3);
}

/// Streams ψ per-LC arrival sequences in (arrival time, packet id) order
/// without scheduling them anywhere. Packet ids are LC-major — LC lc owns
/// ids [first[lc], first[lc + 1]) — and each LC's times must be
/// non-decreasing, so the lane yields the arrivals in exactly the order a
/// (time, seq) queue pops them when fed every arrival LC by LC with
/// consecutive seqs.
///
/// A tournament ("loser") tree with one leaf per LC, laid out like a binary
/// heap: node n's children are 2n and 2n + 1, LC lc's leaf is node ψ + lc,
/// which works for any ψ (the leaves sit at one or two depths). Each
/// internal node keeps the loser of the match played there and slot 0 the
/// overall winner. A pop advances the winner's cursor and replays only its
/// leaf-to-root path, at most ⌈log2 ψ⌉ matches on (time, LC), which is the
/// (time, packet id) order because ids are LC-major. An LC with an empty
/// range or that ran dry holds the time kDone (UINT64_MAX) and loses every
/// match, so arrival times must stay below it. Each LC's times are
/// prefetched kReadAhead entries ahead of its cursor.
class ArrivalLane {
 public:
  /// One yielded arrival: its packet id and the LC that owns it.
  struct Arrival {
    std::size_t packet;
    std::size_t lc;
  };

  ArrivalLane() : ArrivalLane({}, {}) {}

  /// `times[p]` is packet p's arrival and must outlive the lane; `first`
  /// holds ψ + 1 ascending offsets.
  ArrivalLane(std::span<const std::uint64_t> times,
              std::span<const std::size_t> first)
      : times_(times) {
    // With no LCs, one dry leaf keeps the tree non-empty.
    const std::size_t psi = first.empty() ? 0 : first.size() - 1;
    const std::size_t leaves = std::max<std::size_t>(psi, 1);
    leaves_.assign(leaves, Leaf{kDone, 0, 0});
    for (std::size_t lc = 0; lc < psi; ++lc) {
      Leaf& leaf = leaves_[lc];
      leaf.packet = first[lc];
      leaf.end = first[lc + 1];
      if (leaf.packet < leaf.end) leaf.time = times_[leaf.packet];
    }
    // Play every match bottom-up.
    std::vector<std::size_t> winner(2 * leaves);
    for (std::size_t lc = 0; lc < leaves; ++lc) winner[leaves + lc] = lc;
    tree_.assign(leaves, 0);
    for (std::size_t node = leaves - 1; node != 0; --node) {
      const std::size_t a = winner[2 * node];
      const std::size_t b = winner[2 * node + 1];
      const bool a_wins = before(a, b);
      winner[node] = a_wins ? a : b;
      tree_[node] = a_wins ? b : a;
    }
    tree_[0] = winner[1];  // with one leaf, winner[1] is that leaf
  }

  bool empty() const { return leaves_[tree_[0]].time == kDone; }
  /// The next arrival's time and packet id; callers check empty() first.
  std::uint64_t next_time() const { return leaves_[tree_[0]].time; }
  std::size_t next_packet() const { return leaves_[tree_[0]].packet; }

  /// Yields the next arrival and advances its LC's cursor.
  Arrival pop() {
    const std::size_t lc = tree_[0];
    Leaf& leaf = leaves_[lc];
    const std::size_t packet = leaf.packet++;
    if (leaf.packet < leaf.end) {
      leaf.time = times_[leaf.packet];
      read_ahead(times_.data(), leaf.packet, leaf.end);
    } else {
      leaf.time = kDone;
    }
    std::size_t winner = lc;
    for (std::size_t node = (leaves_.size() + lc) / 2; node != 0; node /= 2) {
      const std::size_t other = tree_[node];
      if (before(other, winner)) {
        tree_[node] = winner;
        winner = other;
      }
    }
    tree_[0] = winner;
    return {packet, lc};
  }

 private:
  /// The time of a leaf with no packets left; it loses to every arrival.
  static constexpr std::uint64_t kDone = std::numeric_limits<std::uint64_t>::max();

  struct Leaf {
    std::uint64_t time;  ///< arrival of `packet`, kDone once the LC ran dry
    std::size_t packet;  ///< the LC's next packet id
    std::size_t end;     ///< one past the LC's last packet id
  };

  /// Whether leaf a's head arrival comes before leaf b's.
  bool before(std::size_t a, std::size_t b) const {
    const std::uint64_t ta = leaves_[a].time;
    const std::uint64_t tb = leaves_[b].time;
    return ta != tb ? ta < tb : a < b;
  }

  std::span<const std::uint64_t> times_;
  std::vector<Leaf> leaves_;       ///< one per LC
  std::vector<std::size_t> tree_;  ///< [0] the winner, [n] node n's loser
};

}  // namespace spal::sim
