// IPv4 / IPv6 address value types used throughout the SPAL library.
//
// Addresses are small value types with explicit bit-position accessors.
// SPAL's table partitioning (Sec. 3.1 of the paper) is defined in terms of
// bit positions b0 (most significant) .. b31 (least significant) of an IPv4
// destination address, so the bit numbering here follows the paper: bit 0 is
// the MSB.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>

namespace spal::net {

/// An IPv4 address. Thin wrapper over a host-order 32-bit integer.
class Ipv4Addr {
 public:
  static constexpr int kBits = 32;

  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) : value_(value) {}

  /// Builds an address from its four dotted-quad octets (a.b.c.d).
  static constexpr Ipv4Addr from_octets(std::uint8_t a, std::uint8_t b,
                                        std::uint8_t c, std::uint8_t d) {
    return Ipv4Addr((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                    (std::uint32_t{c} << 8) | std::uint32_t{d});
  }

  /// Parses dotted-quad notation ("192.0.2.1"). Returns nullopt on any
  /// syntax error (missing octet, value > 255, trailing junk).
  static std::optional<Ipv4Addr> parse(std::string_view text);

  constexpr std::uint32_t value() const { return value_; }

  /// Bit at position `pos` where position 0 is the MOST significant bit
  /// (the paper's b0). Returns 0 or 1.
  constexpr int bit(int pos) const {
    return static_cast<int>((value_ >> (kBits - 1 - pos)) & 1u);
  }

  /// Extracts `count` bits starting at MSB-relative position `pos`,
  /// packed into the low bits of the result (earlier position = higher bit).
  constexpr std::uint32_t bits(int pos, int count) const {
    if (count == 0) return 0;
    return (value_ >> (kBits - pos - count)) &
           (count >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << count) - 1));
  }

  /// Dotted-quad representation.
  std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Addr, Ipv4Addr) = default;

 private:
  std::uint32_t value_ = 0;
};

/// A 128-bit IPv6 address, stored as two host-order 64-bit halves.
/// Provided for the paper's "SPAL is feasibly applicable to IPv6" extension;
/// the partitioner and the binary, DP and LC tries accept either family.
class Ipv6Addr {
 public:
  static constexpr int kBits = 128;

  constexpr Ipv6Addr() = default;
  constexpr Ipv6Addr(std::uint64_t hi, std::uint64_t lo) : hi_(hi), lo_(lo) {}

  constexpr std::uint64_t hi() const { return hi_; }
  constexpr std::uint64_t lo() const { return lo_; }

  /// Bit at MSB-relative position `pos` (0 = most significant). 0 or 1.
  constexpr int bit(int pos) const {
    return pos < 64 ? static_cast<int>((hi_ >> (63 - pos)) & 1u)
                    : static_cast<int>((lo_ >> (127 - pos)) & 1u);
  }

  /// Extracts `count` (<= 32) bits starting at MSB-relative position `pos`,
  /// packed into the low bits of the result; the field may straddle the
  /// 64-bit halves. pos + count must be <= 128.
  constexpr std::uint32_t bits(int pos, int count) const {
    if (count == 0) return 0;
    const std::uint32_t mask =
        count >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << count) - 1);
    if (pos + count <= 64) {
      return static_cast<std::uint32_t>(hi_ >> (64 - pos - count)) & mask;
    }
    if (pos >= 64) {
      return static_cast<std::uint32_t>(lo_ >> (128 - pos - count)) & mask;
    }
    // Straddles the halves: the low (64 - pos) bits of hi_ form the top of
    // the field, the top (pos + count - 64) bits of lo_ the bottom.
    const int from_lo = pos + count - 64;
    const std::uint64_t high_part = hi_ & (~std::uint64_t{0} >> pos);
    return static_cast<std::uint32_t>(
               (high_part << from_lo) | (lo_ >> (64 - from_lo))) &
           mask;
  }

  /// Hex-groups representation (full, non-compressed form).
  std::string to_string() const;

  friend constexpr auto operator<=>(const Ipv6Addr&, const Ipv6Addr&) = default;

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

/// True iff the first `bits` bits of a and b agree (bits in [0, 32]). The
/// XOR is widened so that bits == 0 is a defined 32-bit shift yielding 0.
constexpr bool equal_prefix_bits(Ipv4Addr a, Ipv4Addr b, int bits) {
  return (std::uint64_t{a.value() ^ b.value()} >> (32 - bits)) == 0;
}

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

/// Number of leading bits a and b share (0..32).
constexpr int common_prefix_bits(Ipv4Addr a, Ipv4Addr b) {
  return std::countl_zero(a.value() ^ b.value());
}

/// Number of leading bits a and b share (0..128).
constexpr int common_prefix_bits(const Ipv6Addr& a, const Ipv6Addr& b) {
  if (a.hi() != b.hi()) return std::countl_zero(a.hi() ^ b.hi());
  if (a.lo() != b.lo()) return 64 + std::countl_zero(a.lo() ^ b.lo());
  return 128;
}

}  // namespace spal::net
