// Address-family-generic core of SPAL's table partitioning.
//
// The control-bit selection of Sec. 3.1 and the ROT-partition construction
// depend only on a tri-state bit view of prefixes, so one implementation
// serves IPv4 (32-bit) and IPv6 (128-bit) tables. The public APIs in
// bit_selector.h, rot_partition.h and weighted.h (one overload or template
// instance per family) wrap these templates.
//
// Requirements on the types:
//   Entry:  `.prefix` with `bit(int) -> net::PrefixBit`
//   Table:  `entries() -> span<const Entry>`, `size()`, constructible from
//           `std::vector<Entry>`
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "net/prefix.h"
#include "partition/bit_selector.h"

namespace spal::partition::generic {

template <typename Entry>
BitStats compute_bit_stats(std::span<const Entry> entries, int bit) {
  BitStats stats;
  for (const Entry& e : entries) {
    switch (e.prefix.bit(bit)) {
      case net::PrefixBit::kZero: ++stats.phi0; break;
      case net::PrefixBit::kOne: ++stats.phi1; break;
      case net::PrefixBit::kStar: ++stats.phi_star; break;
    }
  }
  return stats;
}

template <typename Entry>
void split_subset(const std::vector<Entry>& subset, int bit,
                  std::vector<Entry>& zero, std::vector<Entry>& one) {
  for (const Entry& e : subset) {
    switch (e.prefix.bit(bit)) {
      case net::PrefixBit::kZero: zero.push_back(e); break;
      case net::PrefixBit::kOne: one.push_back(e); break;
      case net::PrefixBit::kStar:
        zero.push_back(e);
        one.push_back(e);
        break;
    }
  }
}

namespace detail {

/// Tri-state view of one prefix over candidate positions 0..bits-1, packed
/// into bitmasks (two words cover IPv6's 64-bit search window and then
/// some). Positions in neither mask read as zero.
struct PackedPrefix {
  std::array<std::uint64_t, 2> ones{};
  std::array<std::uint64_t, 2> stars{};
};

/// Per-position Φ tallies over one subset, accumulated by iterating each
/// member's set bits (Kernighan-style), so the cost per entry is its
/// popcount rather than one branch per candidate position.
struct SubsetTallies {
  std::array<std::uint64_t, 128> ones{};
  std::array<std::uint64_t, 128> stars{};
  std::size_t members = 0;

  void add(const PackedPrefix& p) {
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

}  // namespace detail

/// Greedy recursive control-bit selection per the two criteria (see
/// BitScore for the arbitration rule). Prefixes are packed into tri-state
/// bitmasks once; every round then tallies all candidate positions in a
/// single pass per subset. Scores — and therefore the chosen bits — are
/// identical to the direct per-bit scan.
template <typename Table>
std::vector<int> select_control_bits(const Table& table, int count, int max_bit) {
  std::vector<int> chosen;
  if (count <= 0 || table.size() == 0 || max_bit < 0 || max_bit > 127) {
    return chosen;
  }
  const int bits = max_bit + 1;

  std::vector<detail::PackedPrefix> all;
  all.reserve(table.size());
  for (const auto& e : table.entries()) {
    detail::PackedPrefix p;
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
    all.push_back(p);
  }

  std::vector<std::vector<detail::PackedPrefix>> subsets(1);
  subsets[0] = std::move(all);

  for (int round = 0; round < count; ++round) {
    std::vector<detail::SubsetTallies> tallies(subsets.size());
    for (std::size_t s = 0; s < subsets.size(); ++s) {
      for (const detail::PackedPrefix& p : subsets[s]) tallies[s].add(p);
    }
    int best_bit = -1;
    BitScore best_score{};
    for (int bit = 0; bit < bits; ++bit) {
      if (std::find(chosen.begin(), chosen.end(), bit) != chosen.end()) continue;
      BitScore score{};
      for (const detail::SubsetTallies& t : tallies) {
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
    std::vector<std::vector<detail::PackedPrefix>> next;
    next.reserve(subsets.size() * 2);
    for (const auto& subset : subsets) {
      auto& zero = next.emplace_back();
      auto& one = next.emplace_back();
      for (const detail::PackedPrefix& p : subset) {
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

/// Buckets every entry into each control-bit group it can match ("*" bits
/// expand to both values) and packs 2^η groups onto ψ LCs (identity when
/// ψ = 2^η, longest-processing-time greedy otherwise). Returns the per-LC
/// entry vectors and fills `group_to_lc`.
template <typename Entry>
std::vector<std::vector<Entry>> assign_groups(std::span<const Entry> entries,
                                              std::span<const int> control_bits,
                                              int num_lcs,
                                              std::vector<int>& group_to_lc) {
  const std::size_t num_groups = std::size_t{1} << control_bits.size();
  std::vector<std::vector<Entry>> groups(num_groups);
  for (const Entry& e : entries) {
    std::vector<std::uint32_t> patterns{0};
    for (const int bit : control_bits) {
      const net::PrefixBit value = e.prefix.bit(bit);
      std::vector<std::uint32_t> next;
      next.reserve(patterns.size() * 2);
      for (const std::uint32_t p : patterns) {
        if (value != net::PrefixBit::kOne) next.push_back(p << 1);
        if (value != net::PrefixBit::kZero) next.push_back((p << 1) | 1u);
      }
      patterns = std::move(next);
    }
    for (const std::uint32_t p : patterns) groups[p].push_back(e);
  }

  group_to_lc.assign(num_groups, 0);
  std::vector<std::vector<Entry>> lc_entries(static_cast<std::size_t>(num_lcs));
  if (static_cast<std::size_t>(num_lcs) == num_groups) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      group_to_lc[g] = static_cast<int>(g);
      lc_entries[g] = std::move(groups[g]);
    }
  } else {
    std::vector<std::size_t> order(num_groups);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return groups[a].size() > groups[b].size();
    });
    for (const std::size_t g : order) {
      const auto lightest = std::min_element(
          lc_entries.begin(), lc_entries.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      const auto lc =
          static_cast<std::size_t>(std::distance(lc_entries.begin(), lightest));
      group_to_lc[g] = static_cast<int>(lc);
      auto& bucket = lc_entries[lc];
      bucket.insert(bucket.end(), groups[g].begin(), groups[g].end());
    }
  }
  return lc_entries;
}

}  // namespace spal::partition::generic
