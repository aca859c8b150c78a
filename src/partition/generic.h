// Building blocks shared by the partition templates (bit_selector.cpp,
// rot_partition.cpp, weighted.h/.cpp).
//
// The control-bit selection of Sec. 3.1 and the ROT-partition construction
// depend only on a tri-state bit view of prefixes, so one implementation
// serves IPv4 (32-bit) and IPv6 (128-bit) tables. An Entry is a
// net::BasicRouteEntry of either family.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "net/prefix.h"

namespace spal::partition::generic {

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

/// Packs `prefix`'s tri-state bits at positions 0..bits-1 (bits <= 128).
template <typename Prefix>
PackedPrefix pack(const Prefix& prefix, int bits) {
  PackedPrefix p;
  for (int b = 0; b < bits; ++b) {
    switch (prefix.bit(b)) {
      case net::PrefixBit::kZero: break;
      case net::PrefixBit::kOne:
        p.ones[static_cast<std::size_t>(b >> 6)] |= 1ull << (b & 63);
        break;
      case net::PrefixBit::kStar:
        p.stars[static_cast<std::size_t>(b >> 6)] |= 1ull << (b & 63);
        break;
    }
  }
  return p;
}

}  // namespace detail

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
