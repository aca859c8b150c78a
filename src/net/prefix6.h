// IPv6 prefixes and routing tables — the paper's Sec. 6 extension ("SPAL is
// feasibly applicable to IPv6"; Sec. 4 notes the SRAM reduction "will be
// much larger under IPv6").
//
// Mirrors the IPv4 types in prefix.h / route_table.h at 128 bits. Only the
// pieces the SPAL experiments need are provided: tri-state bit access for
// the partitioner, longest-prefix matching, and summary statistics.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "net/ip_addr.h"
#include "net/prefix.h"
#include "net/route_table.h"

namespace spal::net {

/// An IPv6 prefix: `length` leading bits of `addr` (low bits zeroed).
class Prefix6 {
 public:
  static constexpr int kMaxLength = 128;

  constexpr Prefix6() = default;

  constexpr Prefix6(Ipv6Addr addr, int length)
      : hi_(addr.hi() & hi_mask(length)),
        lo_(addr.lo() & lo_mask(length)),
        length_(static_cast<std::uint8_t>(length)) {}

  constexpr Ipv6Addr address() const { return Ipv6Addr{hi_, lo_}; }
  constexpr int length() const { return length_; }

  /// Tri-state bit at MSB-relative position `pos`: kStar iff pos >= length.
  constexpr PrefixBit bit(int pos) const {
    if (pos >= length_) return PrefixBit::kStar;
    return address().bit(pos) ? PrefixBit::kOne : PrefixBit::kZero;
  }

  constexpr bool matches(const Ipv6Addr& addr) const {
    return ((addr.hi() ^ hi_) & hi_mask(length_)) == 0 &&
           ((addr.lo() ^ lo_) & lo_mask(length_)) == 0;
  }

  constexpr bool covers(const Prefix6& other) const {
    return length_ <= other.length_ && matches(other.address());
  }

  /// Lowest / highest address inside this prefix.
  constexpr Ipv6Addr range_first() const { return address(); }
  constexpr Ipv6Addr range_last() const {
    return Ipv6Addr{hi_ | ~hi_mask(length_), lo_ | ~lo_mask(length_)};
  }

  /// "<full hex groups>/len".
  std::string to_string() const {
    return address().to_string() + "/" + std::to_string(length_);
  }

  /// Parses the full-form notation produced by to_string()
  /// ("xxxx:xxxx:...:xxxx/len"); nullopt on any syntax error.
  static std::optional<Prefix6> parse(std::string_view text);

  friend constexpr auto operator<=>(const Prefix6&, const Prefix6&) = default;

 private:
  static constexpr std::uint64_t hi_mask(int length) {
    if (length <= 0) return 0;
    if (length >= 64) return ~std::uint64_t{0};
    return ~std::uint64_t{0} << (64 - length);
  }
  static constexpr std::uint64_t lo_mask(int length) {
    if (length <= 64) return 0;
    if (length >= 128) return ~std::uint64_t{0};
    return ~std::uint64_t{0} << (128 - length);
  }

  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
  std::uint8_t length_ = 0;
};

struct RouteEntry6 {
  Prefix6 prefix;
  NextHop next_hop = kNoRoute;

  friend constexpr auto operator<=>(const RouteEntry6&, const RouteEntry6&) = default;
};

/// Sorted, de-duplicated IPv6 routing table (latest insertion wins).
class RouteTable6 {
 public:
  RouteTable6() = default;
  explicit RouteTable6(std::vector<RouteEntry6> entries);

  void add(const Prefix6& prefix, NextHop next_hop);

  /// Removes an exact prefix; false if absent.
  bool remove(const Prefix6& prefix);

  /// Exact-prefix lookup (not LPM); nullopt if absent.
  std::optional<NextHop> find(const Prefix6& prefix) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::span<const RouteEntry6> entries() const { return entries_; }

  /// Reference longest-prefix match by linear scan (oracle).
  NextHop lookup_linear(const Ipv6Addr& addr) const;

  std::array<std::size_t, Prefix6::kMaxLength + 1> length_histogram() const;

  /// Serialization: one "<full-hex-addr>/len next_hop" line per entry.
  void save(std::ostream& out) const;
  static std::optional<RouteTable6> load(std::istream& in);

  friend bool operator==(const RouteTable6&, const RouteTable6&) = default;

 private:
  void normalize();

  std::vector<RouteEntry6> entries_;
};

/// Synthetic IPv6 BGP-like table: mass concentrated on /48 and /32 with the
/// /29-/44 body and a /64+ tail observed in global v6 tables, within the
/// 2000::/3 global-unicast space.
struct TableGen6Config {
  std::size_t size = 20'000;
  std::uint64_t seed = 1;
  std::uint32_t next_hops = 16;
  double nested_fraction = 0.30;
};

RouteTable6 generate_table6(const TableGen6Config& config);

/// Modern-internet stand-in: `size` prefixes (default the ~220k-route IPv6
/// table of the mid-2020s BGP default-free zone).
RouteTable6 make_rt6_internet(std::size_t size = 220'000);

/// Uniformly random address inside `prefix` (host bits randomized).
Ipv6Addr random_address_in6(const Prefix6& prefix, std::mt19937_64& rng);

/// True iff the first `bits` bits of a and b agree (bits in [0, 128]).
constexpr bool equal_prefix_bits(const Ipv6Addr& a, const Ipv6Addr& b, int bits) {
  if (bits <= 0) return true;
  if (bits <= 64) {
    const std::uint64_t mask = ~std::uint64_t{0} << (64 - bits);
    return ((a.hi() ^ b.hi()) & mask) == 0;
  }
  if (a.hi() != b.hi()) return false;
  const std::uint64_t mask =
      bits >= 128 ? ~std::uint64_t{0} : (~std::uint64_t{0} << (128 - bits));
  return ((a.lo() ^ b.lo()) & mask) == 0;
}

/// Number of leading bits a and b share (0..128).
constexpr int common_prefix_bits(const Ipv6Addr& a, const Ipv6Addr& b) {
  if (a.hi() != b.hi()) return std::countl_zero(a.hi() ^ b.hi());
  if (a.lo() != b.lo()) return 64 + std::countl_zero(a.lo() ^ b.lo());
  return 128;
}

}  // namespace spal::net
