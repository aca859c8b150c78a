// Traffic-aware table partitioning: control-bit selection and group→LC
// placement driven by per-prefix popularity weights.
//
// The paper's two criteria (bit_selector.h) balance *prefix counts*; under
// a Zipf traffic model a handful of hot prefixes can pin one LC while the
// others idle. The weighted variants here re-run the same greedy machinery
// over expected *load*:
//   * a prefix's weight is the fraction of lookups expected to match it;
//   * a "*" control bit splits a prefix's traffic evenly between the two
//     subsets (uniform host bits), so a prefix replicated into 2^s groups
//     contributes w / 2^s of load to each — total load is conserved, which
//     is the `partition_balance` conservation rule spal_report checks;
//   * bit selection minimizes weighted imbalance Σ|W0 − W1| plus weighted
//     replication Σ W* (weights pre-scaled to sum to the entry count so the
//     two terms stay commensurate with the unweighted score);
//   * group→LC packing is longest-processing-time greedy over group loads.
//
// Guarantees (property-tested in tests/test_weighted_partition.cpp):
//   * uniform (or empty, or all-zero) weights take the count-balanced path
//     exactly — the weighted partitioner is a strict superset;
//   * the weighted assignment's max per-LC expected load never exceeds the
//     count-balanced assignment's, because both candidate placements (and,
//     in RotPartition, both candidate bit sets) are evaluated and the
//     better one kept.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/prefix.h"
#include "partition/generic.h"
#include "partition/rot_partition.h"

namespace spal::partition {

/// True when the weight vector carries no balancing signal: empty, or every
/// weight exactly equal (including all-zero). Such vectors must reproduce
/// the count-balanced partition bit-for-bit.
inline bool uniform_weights(std::span<const double> weights) {
  if (weights.empty()) return true;
  const double first = weights.front();
  for (const double w : weights) {
    if (w != first) return false;
  }
  return true;
}

/// Jain's fairness index (Σx)² / (n·Σx²) over per-LC loads: 1 when
/// perfectly balanced, 1/n when one LC carries everything. Defined as 1
/// for an empty or all-zero load vector.
inline double jain_fairness(std::span<const double> loads) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : loads) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(loads.size()) * sum_sq);
}

/// Largest per-LC share of the total load (1/n when balanced, 1 when one
/// LC carries everything). 0 for an empty or all-zero load vector.
inline double max_share(std::span<const double> loads) {
  double sum = 0.0;
  double max = 0.0;
  for (const double x : loads) {
    sum += x;
    max = std::max(max, x);
  }
  return sum == 0.0 ? 0.0 : max / sum;
}

namespace generic {

/// Expected load of each of the 2^η control-bit groups: every entry
/// contributes weight / 2^s to each of the 2^s groups its s star control
/// bits expand into. Σ group loads == Σ weights exactly (no dedup — two
/// patterns landing in one group both count).
template <typename Entry>
std::vector<double> group_loads(std::span<const Entry> entries,
                                std::span<const double> weights,
                                std::span<const int> control_bits) {
  const std::size_t num_groups = std::size_t{1} << control_bits.size();
  std::vector<double> loads(num_groups, 0.0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::vector<std::uint32_t> patterns{0};
    for (const int bit : control_bits) {
      const net::PrefixBit value = entries[i].prefix.bit(bit);
      std::vector<std::uint32_t> next;
      next.reserve(patterns.size() * 2);
      for (const std::uint32_t p : patterns) {
        if (value != net::PrefixBit::kOne) next.push_back(p << 1);
        if (value != net::PrefixBit::kZero) next.push_back((p << 1) | 1u);
      }
      patterns = std::move(next);
    }
    const double share =
        weights[i] / static_cast<double>(patterns.size());
    for (const std::uint32_t p : patterns) loads[p] += share;
  }
  return loads;
}

/// Weighted group→LC placement. Builds both candidate mappings — the
/// count-balanced one (exactly assign_groups' rule) and a
/// longest-processing-time greedy over group *loads* — and keeps whichever
/// has the lower max per-LC expected load (ties favor count-balanced, so a
/// weight vector with no useful signal changes nothing). Identity when
/// ψ == 2^η: with one group per LC every bijection yields the same load
/// multiset, and identity keeps the degenerate case aligned with the
/// unweighted mapping.
template <typename Entry>
std::vector<std::vector<Entry>> assign_groups_weighted(
    std::span<const Entry> entries, std::span<const double> weights,
    std::span<const int> control_bits, int num_lcs,
    std::vector<int>& group_to_lc) {
  const std::size_t num_groups = std::size_t{1} << control_bits.size();
  if (static_cast<std::size_t>(num_lcs) == num_groups) {
    return spal::partition::generic::assign_groups(entries, control_bits,
                                                   num_lcs, group_to_lc);
  }
  // Bucket entries exactly as assign_groups does (star bits expand), and
  // accumulate each group's expected load alongside.
  std::vector<std::vector<Entry>> groups(num_groups);
  std::vector<double> loads(num_groups, 0.0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::vector<std::uint32_t> patterns{0};
    for (const int bit : control_bits) {
      const net::PrefixBit value = entries[i].prefix.bit(bit);
      std::vector<std::uint32_t> next;
      next.reserve(patterns.size() * 2);
      for (const std::uint32_t p : patterns) {
        if (value != net::PrefixBit::kOne) next.push_back(p << 1);
        if (value != net::PrefixBit::kZero) next.push_back((p << 1) | 1u);
      }
      patterns = std::move(next);
    }
    const double share = weights[i] / static_cast<double>(patterns.size());
    for (const std::uint32_t p : patterns) {
      groups[p].push_back(entries[i]);
      loads[p] += share;
    }
  }

  // Candidate A: the count-balanced mapping (assign_groups' exact rule —
  // groups in descending size, each onto the LC with the fewest entries).
  std::vector<int> by_count(num_groups, 0);
  {
    std::vector<std::size_t> order(num_groups);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return groups[a].size() > groups[b].size();
                     });
    std::vector<std::size_t> lc_sizes(static_cast<std::size_t>(num_lcs), 0);
    for (const std::size_t g : order) {
      const auto lightest =
          std::min_element(lc_sizes.begin(), lc_sizes.end());
      const auto lc =
          static_cast<std::size_t>(std::distance(lc_sizes.begin(), lightest));
      by_count[g] = static_cast<int>(lc);
      lc_sizes[lc] += groups[g].size();
    }
  }
  // Candidate B: LPT over group loads — groups in descending load, each
  // onto the LC with the least accumulated load.
  std::vector<int> by_load(num_groups, 0);
  {
    std::vector<std::size_t> order(num_groups);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return loads[a] > loads[b];
                     });
    std::vector<double> lc_loads(static_cast<std::size_t>(num_lcs), 0.0);
    for (const std::size_t g : order) {
      const auto lightest =
          std::min_element(lc_loads.begin(), lc_loads.end());
      const auto lc =
          static_cast<std::size_t>(std::distance(lc_loads.begin(), lightest));
      by_load[g] = static_cast<int>(lc);
      lc_loads[lc] += loads[g];
    }
  }
  const auto max_lc_load = [&](const std::vector<int>& mapping) {
    std::vector<double> lc_loads(static_cast<std::size_t>(num_lcs), 0.0);
    for (std::size_t g = 0; g < num_groups; ++g) {
      lc_loads[static_cast<std::size_t>(mapping[g])] += loads[g];
    }
    return *std::max_element(lc_loads.begin(), lc_loads.end());
  };
  group_to_lc =
      max_lc_load(by_load) < max_lc_load(by_count) ? by_load : by_count;

  std::vector<std::vector<Entry>> lc_entries(static_cast<std::size_t>(num_lcs));
  for (std::size_t g = 0; g < num_groups; ++g) {
    auto& bucket = lc_entries[static_cast<std::size_t>(group_to_lc[g])];
    bucket.insert(bucket.end(), groups[g].begin(), groups[g].end());
  }
  return lc_entries;
}

namespace detail {

/// Weighted per-position Φ tallies over one subset: the weight mass of
/// one-bits and star-bits per candidate position, plus the subset total
/// (zero mass falls out by subtraction, like the unweighted tallies).
struct WeightedTallies {
  std::array<double, 128> ones{};
  std::array<double, 128> stars{};
  double total = 0.0;

  void add(const spal::partition::generic::detail::PackedPrefix& p, double w) {
    total += w;
    for (int word = 0; word < 2; ++word) {
      for (std::uint64_t m = p.ones[static_cast<std::size_t>(word)]; m != 0;
           m &= m - 1) {
        ones[static_cast<std::size_t>(word * 64 + std::countr_zero(m))] += w;
      }
      for (std::uint64_t m = p.stars[static_cast<std::size_t>(word)]; m != 0;
           m &= m - 1) {
        stars[static_cast<std::size_t>(word * 64 + std::countr_zero(m))] += w;
      }
    }
  }
};

/// Weighted analogue of BitScore, same arbitration rule: minimize
/// replication + imbalance, ties by lower replication.
struct WeightedBitScore {
  double replication = 0.0;
  double imbalance = 0.0;

  double combined() const { return replication + imbalance; }

  friend bool operator<(const WeightedBitScore& a, const WeightedBitScore& b) {
    if (a.combined() != b.combined()) return a.combined() < b.combined();
    return a.replication < b.replication;
  }
};

}  // namespace detail

/// Greedy recursive control-bit selection over weighted Φ: per subset and
/// candidate bit, replication is the star weight mass and imbalance is
/// |W0 − W1|. Weights are pre-scaled to sum to the entry count so both
/// terms stay on the unweighted score's scale. Structure mirrors
/// generic::select_control_bits (same recursion, same subset splitting).
template <typename Table>
std::vector<int> select_control_bits_weighted(const Table& table,
                                              std::span<const double> weights,
                                              int count, int max_bit) {
  std::vector<int> chosen;
  if (count <= 0 || table.size() == 0 || max_bit < 0 || max_bit > 127) {
    return chosen;
  }
  const int bits = max_bit + 1;
  double total_weight = 0.0;
  for (const double w : weights) total_weight += w;
  const double scale =
      total_weight > 0.0
          ? static_cast<double>(table.size()) / total_weight
          : 0.0;

  using PackedPrefix = spal::partition::generic::detail::PackedPrefix;
  struct Member {
    PackedPrefix p;
    double w;
  };
  std::vector<Member> all;
  all.reserve(table.size());
  {
    std::size_t i = 0;
    for (const auto& e : table.entries()) {
      PackedPrefix p;
      for (int b = 0; b < bits; ++b) {
        switch (e.prefix.bit(b)) {
          case net::PrefixBit::kZero: break;
          case net::PrefixBit::kOne:
            p.ones[static_cast<std::size_t>(b >> 6)] |= 1ull << (b & 63);
            break;
          case net::PrefixBit::kStar:
            p.stars[static_cast<std::size_t>(b >> 6)] |= 1ull << (b & 63);
            break;
        }
      }
      all.push_back(Member{p, weights[i] * scale});
      ++i;
    }
  }

  std::vector<std::vector<Member>> subsets(1);
  subsets[0] = std::move(all);

  for (int round = 0; round < count; ++round) {
    std::vector<detail::WeightedTallies> tallies(subsets.size());
    for (std::size_t s = 0; s < subsets.size(); ++s) {
      for (const Member& m : subsets[s]) tallies[s].add(m.p, m.w);
    }
    int best_bit = -1;
    detail::WeightedBitScore best_score{};
    for (int bit = 0; bit < bits; ++bit) {
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) {
        continue;
      }
      detail::WeightedBitScore score{};
      for (const detail::WeightedTallies& t : tallies) {
        const auto b = static_cast<std::size_t>(bit);
        const double w1 = t.ones[b];
        const double wstar = t.stars[b];
        const double w0 = t.total - w1 - wstar;
        score.replication += wstar;
        score.imbalance += std::abs(w0 - w1);
      }
      if (best_bit < 0 || score < best_score) {
        best_score = score;
        best_bit = bit;
      }
    }
    if (best_bit < 0) break;
    chosen.push_back(best_bit);
    const std::size_t w = static_cast<std::size_t>(best_bit >> 6);
    const std::uint64_t m = 1ull << (best_bit & 63);
    std::vector<std::vector<Member>> next;
    next.reserve(subsets.size() * 2);
    for (const auto& subset : subsets) {
      auto& zero = next.emplace_back();
      auto& one = next.emplace_back();
      for (const Member& member : subset) {
        if (member.p.stars[w] & m) {
          // A star prefix replicates into both subsets; its traffic splits
          // evenly, so each side tallies half the weight from here on.
          zero.push_back(Member{member.p, member.w / 2.0});
          one.push_back(Member{member.p, member.w / 2.0});
        } else if (member.p.ones[w] & m) {
          one.push_back(member);
        } else {
          zero.push_back(member);
        }
      }
    }
    subsets = std::move(next);
  }
  return chosen;
}

}  // namespace generic

/// Weighted control-bit selection for IPv4/IPv6 tables. `weights` must be
/// parallel to `table.entries()`. Uniform weights delegate to the
/// count-based selector (identical result by construction).
std::vector<int> select_control_bits_weighted(
    const net::RouteTable& table, std::span<const double> weights, int count,
    const BitSelectorConfig& config = {});
std::vector<int> select_control_bits_weighted(
    const net::RouteTable6& table, std::span<const double> weights, int count,
    const BitSelector6Config& config = {});

/// Per-LC expected loads of a partition under `weights` (parallel to
/// `table.entries()`): each entry's weight splits evenly across the groups
/// its star control bits expand into, and group shares accumulate onto the
/// group's LC. Σ expected_loads == Σ weights exactly — the conservation
/// rule behind the `partition_balance` report point.
std::vector<double> expected_loads(const RotPartition& partition,
                                   const net::RouteTable& table,
                                   std::span<const double> weights);
std::vector<double> expected_loads(const RotPartition6& partition,
                                   const net::RouteTable6& table,
                                   std::span<const double> weights);

}  // namespace spal::partition
