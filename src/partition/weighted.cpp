#include "partition/weighted.h"

#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace spal::partition {
namespace {

/// Weighted per-position Φ tallies over one subset: the weight mass of
/// one-bits and star-bits per candidate position, plus the subset total
/// (zero mass falls out by subtraction, like the unweighted tallies).
struct WeightedTallies {
  std::array<double, 128> ones{};
  std::array<double, 128> stars{};
  double total = 0.0;

  void add(const generic::detail::PackedPrefix& p, double w) {
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

}  // namespace

/// Same recursion and subset splitting as select_control_bits, over
/// weighted tallies.
template <typename Addr>
std::vector<int> select_control_bits_weighted(
    const net::BasicRouteTable<Addr>& table, std::span<const double> weights,
    int count, const BasicBitSelectorConfig<Addr>& config) {
  if (uniform_weights(weights)) {
    return select_control_bits(table, count, config);
  }
  if (weights.size() != table.size()) {
    throw std::invalid_argument(
        "select_control_bits_weighted: weights must parallel table entries");
  }
  std::vector<int> chosen;
  const int max_bit = config.max_bit;
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

  using generic::detail::PackedPrefix;
  struct Member {
    PackedPrefix p;
    double w;
  };
  const auto entries = table.entries();
  std::vector<Member> all;
  all.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    all.push_back(Member{generic::detail::pack(entries[i].prefix, bits),
                         weights[i] * scale});
  }

  std::vector<std::vector<Member>> subsets(1);
  subsets[0] = std::move(all);

  for (int round = 0; round < count; ++round) {
    std::vector<WeightedTallies> tallies(subsets.size());
    for (std::size_t s = 0; s < subsets.size(); ++s) {
      for (const Member& m : subsets[s]) tallies[s].add(m.p, m.w);
    }
    int best_bit = -1;
    WeightedBitScore best_score{};
    for (int bit = 0; bit < bits; ++bit) {
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) {
        continue;
      }
      WeightedBitScore score{};
      for (const WeightedTallies& t : tallies) {
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

template <typename Addr>
std::vector<double> expected_loads(const BasicRotPartition<Addr>& partition,
                                   const net::BasicRouteTable<Addr>& table,
                                   std::span<const double> weights) {
  if (weights.size() != table.size()) {
    throw std::invalid_argument(
        "expected_loads: weights must parallel table entries");
  }
  std::vector<double> loads(static_cast<std::size_t>(partition.num_lcs()),
                            0.0);
  if (partition.control_bits().empty()) {
    double total = 0.0;
    for (const double w : weights) total += w;
    if (!loads.empty()) loads[0] = total;
    return loads;
  }
  const std::vector<double> per_group = generic::group_loads(
      table.entries(), weights, partition.control_bits());
  const auto group_to_lc = partition.group_to_lc();
  for (std::size_t g = 0; g < per_group.size(); ++g) {
    loads[static_cast<std::size_t>(group_to_lc[g])] += per_group[g];
  }
  return loads;
}

template std::vector<int> select_control_bits_weighted(
    const net::RouteTable&, std::span<const double>, int,
    const BitSelectorConfig&);
template std::vector<int> select_control_bits_weighted(
    const net::RouteTable6&, std::span<const double>, int,
    const BitSelector6Config&);
template std::vector<double> expected_loads(const RotPartition&,
                                            const net::RouteTable&,
                                            std::span<const double>);
template std::vector<double> expected_loads(const RotPartition6&,
                                            const net::RouteTable6&,
                                            std::span<const double>);

}  // namespace spal::partition
