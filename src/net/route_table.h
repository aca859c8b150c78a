// Routing-table container: an ordered, de-duplicated set of
// <prefix, next hop> entries, plus summary statistics used by the
// partitioner and the experiment harnesses. One template serves both
// address families.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/prefix.h"

namespace spal::net {

/// Lookup result payload. In SPAL this is the Next_hop_LC# the packet should
/// be switched to; any small integer identifier works.
using NextHop = std::uint32_t;

/// Returned when no prefix in the table matches an address.
inline constexpr NextHop kNoRoute = ~NextHop{0};

template <typename Addr>
struct BasicRouteEntry {
  BasicPrefix<Addr> prefix;
  NextHop next_hop = kNoRoute;

  friend constexpr auto operator<=>(const BasicRouteEntry&,
                                    const BasicRouteEntry&) = default;
};

/// A routing table. Entries are kept sorted by (prefix address, length) with
/// at most one entry per distinct prefix (the latest insertion wins), which
/// is the form every trie builder in src/trie consumes.
template <typename Addr>
class BasicRouteTable {
 public:
  using Prefix = BasicPrefix<Addr>;
  using Entry = BasicRouteEntry<Addr>;

  BasicRouteTable() = default;
  explicit BasicRouteTable(std::vector<Entry> entries);

  /// Inserts or replaces the entry for `prefix`.
  void add(const Prefix& prefix, NextHop next_hop);

  /// Removes the entry for exactly `prefix`. Returns true if present.
  bool remove(const Prefix& prefix);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::span<const Entry> entries() const { return entries_; }

  /// Exact-prefix fetch (not longest-match). Nullopt if absent.
  std::optional<NextHop> find(const Prefix& prefix) const;

  /// Reference longest-prefix-match by linear scan. O(n); intended as the
  /// correctness oracle for the tries and for small tables only.
  NextHop lookup_linear(const Addr& addr) const;

  /// Number of prefixes per length 0..kMaxLength (index = length).
  std::array<std::size_t, Prefix::kMaxLength + 1> length_histogram() const;

  /// Count of prefixes with length <= `length`.
  std::size_t count_length_at_most(int length) const;

  /// Serialization: one "prefix next_hop" line per entry, the prefix in
  /// Prefix::parse notation. load() skips empty and '#' lines and rejects a
  /// line whose prefix does not parse, whose next hop is not a decimal
  /// NextHop below kNoRoute, or that has a third field.
  void save(std::ostream& out) const;
  static std::optional<BasicRouteTable> load(std::istream& in);

  friend bool operator==(const BasicRouteTable&, const BasicRouteTable&) = default;

 private:
  void normalize();

  std::vector<Entry> entries_;  // sorted by prefix, unique
};

extern template class BasicRouteTable<Ipv4Addr>;
extern template class BasicRouteTable<Ipv6Addr>;

using RouteEntry = BasicRouteEntry<Ipv4Addr>;
using RouteEntry6 = BasicRouteEntry<Ipv6Addr>;
using RouteTable = BasicRouteTable<Ipv4Addr>;
using RouteTable6 = BasicRouteTable<Ipv6Addr>;

}  // namespace spal::net
