// Control-bit selection for routing-table fragmentation (paper Sec. 3.1).
//
// A chosen bit position ν splits a prefix set into two subsets: prefixes
// whose bit ν is 0, those whose bit ν is 1, and — because a prefix shorter
// than ν+1 bits has "*" there — prefixes that must be replicated into both.
// With Φ0/Φ1/Φ* counting those classes, the paper's two optimality criteria
// are:
//   (1) minimize Φ* (total replication — each subset is as small as
//       possible), and
//   (2) minimize |Φ0 − Φ1| (the subsets are balanced; prefixes with "*" at
//       ν are ignored since they appear on both sides).
// For multiple control bits the criteria are applied recursively: the next
// bit is evaluated over all current subsets jointly and one common bit is
// chosen for every subset (the partitioning hardware examines the same bit
// positions of every destination address). Both address families take the
// same criteria (the paper's Sec. 6 extension); each function template is
// instantiated for Ipv4Addr and Ipv6Addr.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/route_table.h"

namespace spal::partition {

/// Φ counts for one candidate bit over one prefix subset.
struct BitStats {
  std::size_t phi0 = 0;     ///< prefixes with bit ν = 0
  std::size_t phi1 = 0;     ///< prefixes with bit ν = 1
  std::size_t phi_star = 0; ///< prefixes with bit ν = * (replicated)

  std::size_t imbalance() const {
    return phi0 > phi1 ? phi0 - phi1 : phi1 - phi0;
  }
};

template <typename Addr>
BitStats compute_bit_stats(std::span<const net::BasicRouteEntry<Addr>> entries,
                           int bit);

/// Joint score of one candidate bit across every current subset. The paper
/// states the two criteria but not how to arbitrate between them; since
/// both are measured in prefixes (extra replicated copies vs. count
/// imbalance), this implementation minimizes their sum, breaking ties by
/// lower replication. Replication-only ordering would accept degenerate
/// splits (e.g. an empty partition on the paper's own P1..P7 example) and
/// imbalance-only ordering would accept mostly-* high bits that replicate
/// nearly the whole table.
struct BitScore {
  std::size_t replication = 0;  ///< Σ Φ* over subsets (Criterion 1)
  std::size_t imbalance = 0;    ///< Σ |Φ0 − Φ1| over subsets (Criterion 2)

  constexpr std::size_t combined() const { return replication + imbalance; }

  friend constexpr bool operator<(const BitScore& a, const BitScore& b) {
    return std::pair(a.combined(), a.replication) <
           std::pair(b.combined(), b.replication);
  }
};

template <typename Addr>
struct BasicBitSelectorConfig {
  /// Highest bit position considered, inclusive: 31 on IPv4, 63 on IPv6.
  /// The paper scans 0..31 but notes Criterion (1) itself rules out large ν
  /// (most prefixes are <= /24, so a high ν would replicate nearly
  /// everything). IPv6 control bits come from the routing half: /48-heavy
  /// v6 tables make bits past ~48 mostly "*" the same way.
  int max_bit = Addr::kBits < 64 ? Addr::kBits - 1 : 63;
};

using BitSelectorConfig = BasicBitSelectorConfig<net::Ipv4Addr>;
using BitSelector6Config = BasicBitSelectorConfig<net::Ipv6Addr>;

/// Greedily selects `count` control bits for fragmenting `table`, applying
/// the two criteria recursively as described in Sec. 3.1. Returns the chosen
/// bit positions in selection order.
template <typename Addr>
std::vector<int> select_control_bits(const net::BasicRouteTable<Addr>& table,
                                     int count,
                                     const BasicBitSelectorConfig<Addr>& config = {});

/// Score of a specific bit set: splits `table` by `bits` and reports the
/// summed subset sizes and max-min size spread. Used by tests and the
/// partition-quality benches to compare chosen bits against alternatives.
struct SplitQuality {
  std::size_t total_entries = 0;  ///< Σ subset sizes (≥ table size; replication)
  std::size_t largest = 0;
  std::size_t smallest = 0;
};
SplitQuality evaluate_bits(const net::RouteTable& table,
                           std::span<const int> bits);

}  // namespace spal::partition
