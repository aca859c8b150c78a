#include "partition/bit_selector.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "partition/generic.h"

namespace spal::partition {
namespace {

/// Per-position Φ tallies over one subset, accumulated by iterating each
/// member's set bits (Kernighan-style), so the cost per entry is its
/// popcount rather than one branch per candidate position.
struct SubsetTallies {
  std::array<std::uint64_t, 128> ones{};
  std::array<std::uint64_t, 128> stars{};
  std::size_t members = 0;

  void add(const generic::detail::PackedPrefix& p) {
    ++members;
    for (int w = 0; w < 2; ++w) {
      for (std::uint64_t m = p.ones[w]; m != 0; m &= m - 1) {
        ++ones[static_cast<std::size_t>(w * 64 + std::countr_zero(m))];
      }
      for (std::uint64_t m = p.stars[w]; m != 0; m &= m - 1) {
        ++stars[static_cast<std::size_t>(w * 64 + std::countr_zero(m))];
      }
    }
  }

  BitStats stats(int bit) const {
    BitStats s;
    s.phi1 = ones[static_cast<std::size_t>(bit)];
    s.phi_star = stars[static_cast<std::size_t>(bit)];
    s.phi0 = members - s.phi1 - s.phi_star;
    return s;
  }
};

}  // namespace

template <typename Addr>
BitStats compute_bit_stats(std::span<const net::BasicRouteEntry<Addr>> entries,
                           int bit) {
  BitStats stats;
  for (const auto& e : entries) {
    switch (e.prefix.bit(bit)) {
      case net::PrefixBit::kZero: ++stats.phi0; break;
      case net::PrefixBit::kOne: ++stats.phi1; break;
      case net::PrefixBit::kStar: ++stats.phi_star; break;
    }
  }
  return stats;
}

/// Greedy recursive selection per the two criteria (see BitScore for the
/// arbitration rule). Prefixes are packed into tri-state bitmasks once;
/// every round then tallies all candidate positions in a single pass per
/// subset. Scores — and therefore the chosen bits — are identical to the
/// direct per-bit scan.
template <typename Addr>
std::vector<int> select_control_bits(const net::BasicRouteTable<Addr>& table,
                                     int count,
                                     const BasicBitSelectorConfig<Addr>& config) {
  using generic::detail::PackedPrefix;
  std::vector<int> chosen;
  const int max_bit = config.max_bit;
  if (count <= 0 || table.size() == 0 || max_bit < 0 || max_bit > 127) {
    return chosen;
  }
  const int bits = max_bit + 1;

  std::vector<PackedPrefix> all;
  all.reserve(table.size());
  for (const auto& e : table.entries()) {
    all.push_back(generic::detail::pack(e.prefix, bits));
  }

  std::vector<std::vector<PackedPrefix>> subsets(1);
  subsets[0] = std::move(all);

  for (int round = 0; round < count; ++round) {
    std::vector<SubsetTallies> tallies(subsets.size());
    for (std::size_t s = 0; s < subsets.size(); ++s) {
      for (const PackedPrefix& p : subsets[s]) tallies[s].add(p);
    }
    int best_bit = -1;
    BitScore best_score{};
    for (int bit = 0; bit < bits; ++bit) {
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) continue;
      BitScore score{};
      for (const SubsetTallies& t : tallies) {
        const BitStats stats = t.stats(bit);
        score.replication += stats.phi_star;
        score.imbalance += stats.imbalance();
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
    std::vector<std::vector<PackedPrefix>> next;
    next.reserve(subsets.size() * 2);
    for (const auto& subset : subsets) {
      auto& zero = next.emplace_back();
      auto& one = next.emplace_back();
      for (const PackedPrefix& p : subset) {
        if (p.stars[w] & m) {
          zero.push_back(p);
          one.push_back(p);
        } else if (p.ones[w] & m) {
          one.push_back(p);
        } else {
          zero.push_back(p);
        }
      }
    }
    subsets = std::move(next);
  }
  return chosen;
}

template BitStats compute_bit_stats(std::span<const net::RouteEntry>, int);
template BitStats compute_bit_stats(std::span<const net::RouteEntry6>, int);
template std::vector<int> select_control_bits(const net::RouteTable&, int,
                                              const BitSelectorConfig&);
template std::vector<int> select_control_bits(const net::RouteTable6&, int,
                                              const BitSelector6Config&);

SplitQuality evaluate_bits(const net::RouteTable& table,
                           std::span<const int> bits) {
  std::vector<std::vector<net::RouteEntry>> subsets(1);
  subsets[0].assign(table.entries().begin(), table.entries().end());
  for (const int bit : bits) {
    std::vector<std::vector<net::RouteEntry>> next;
    next.reserve(subsets.size() * 2);
    for (const auto& subset : subsets) {
      auto& zero = next.emplace_back();
      auto& one = next.emplace_back();
      generic::split_subset(subset, bit, zero, one);
    }
    subsets = std::move(next);
  }
  SplitQuality quality;
  quality.smallest = std::numeric_limits<std::size_t>::max();
  for (const auto& subset : subsets) {
    quality.total_entries += subset.size();
    quality.largest = std::max(quality.largest, subset.size());
    quality.smallest = std::min(quality.smallest, subset.size());
  }
  if (subsets.empty()) quality.smallest = 0;
  return quality;
}

}  // namespace spal::partition
