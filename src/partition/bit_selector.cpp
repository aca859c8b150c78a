#include "partition/bit_selector.h"

#include <limits>

#include "partition/generic.h"

namespace spal::partition {

BitStats compute_bit_stats(std::span<const net::RouteEntry> entries, int bit) {
  return generic::compute_bit_stats(entries, bit);
}

BitStats compute_bit_stats(std::span<const net::RouteEntry6> entries, int bit) {
  return generic::compute_bit_stats(entries, bit);
}

std::vector<int> select_control_bits(const net::RouteTable& table, int count,
                                     const BitSelectorConfig& config) {
  return generic::select_control_bits(table, count, config.max_bit);
}

std::vector<int> select_control_bits(const net::RouteTable6& table, int count,
                                     const BitSelector6Config& config) {
  return generic::select_control_bits(table, count, config.max_bit);
}

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
