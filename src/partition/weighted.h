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
#include <cstdint>
#include <numeric>
#include <span>
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

}  // namespace generic

/// Weighted control-bit selection. `weights` must be parallel to
/// `table.entries()`. Uniform weights delegate to the count-based selector
/// (identical result by construction). Otherwise the greedy recursion of
/// select_control_bits runs over weighted Φ: per subset and candidate bit,
/// replication is the star weight mass and imbalance is |W0 − W1|, with the
/// weights pre-scaled to sum to the entry count so both terms stay on the
/// unweighted score's scale.
template <typename Addr>
std::vector<int> select_control_bits_weighted(
    const net::BasicRouteTable<Addr>& table, std::span<const double> weights,
    int count, const BasicBitSelectorConfig<Addr>& config = {});

/// Per-LC expected loads of a partition under `weights` (parallel to
/// `table.entries()`): each entry's weight splits evenly across the groups
/// its star control bits expand into, and group shares accumulate onto the
/// group's LC. Σ expected_loads == Σ weights exactly — the conservation
/// rule behind the `partition_balance` report point.
template <typename Addr>
std::vector<double> expected_loads(const BasicRotPartition<Addr>& partition,
                                   const net::BasicRouteTable<Addr>& table,
                                   std::span<const double> weights);

}  // namespace spal::partition
