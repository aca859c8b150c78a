// Prefixes of either address family and the tri-state bit view SPAL's
// partitioner works with.
//
// A prefix of length L fixes bits b0..b(L-1) of an address; every later bit
// is "don't care" — the paper writes it "*". Partitioning (Sec. 3.1)
// classifies each prefix at a control-bit position as 0, 1, or *; prefixes
// that are * at a control bit are replicated into every matching partition.
#pragma once

#include <compare>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/ip_addr.h"

namespace spal::net {

/// Tri-state value of one bit position of a prefix.
enum class PrefixBit : std::uint8_t { kZero = 0, kOne = 1, kStar = 2 };

/// A prefix of address family `Addr` (Ipv4Addr or Ipv6Addr): the `length`
/// leading bits of an address, the remaining bits zeroed.
template <typename Addr>
class BasicPrefix {
 public:
  static constexpr int kMaxLength = Addr::kBits;

  constexpr BasicPrefix() = default;

  /// Builds a prefix from an address and length; the bits past `length` are
  /// masked off so equal prefixes compare equal.
  constexpr BasicPrefix(const Addr& addr, int length)
      : addr_(addr & Addr::netmask(length)),
        length_(static_cast<std::uint8_t>(length)) {}

  /// Parses "address/len" in the family's notation (Addr::parse). A bare
  /// IPv4 address parses as a /32 host prefix; a bare IPv6 address is
  /// rejected.
  static std::optional<BasicPrefix> parse(std::string_view text);

  /// The prefix's bits as one host-order word (IPv4 only).
  constexpr std::uint32_t bits() const
    requires std::same_as<Addr, Ipv4Addr>
  {
    return addr_.value();
  }
  constexpr int length() const { return length_; }
  constexpr Addr address() const { return addr_; }

  /// Tri-state bit at MSB-relative position `pos`: kStar iff pos >= length.
  constexpr PrefixBit bit(int pos) const {
    if (pos >= length_) return PrefixBit::kStar;
    return addr_.bit(pos) ? PrefixBit::kOne : PrefixBit::kZero;
  }

  /// True iff `addr` falls inside this prefix.
  constexpr bool matches(const Addr& addr) const {
    return (addr & Addr::netmask(length_)) == addr_;
  }

  /// True iff every address matched by `other` is also matched by *this
  /// (i.e. *this is a covering, shorter-or-equal prefix of `other`).
  constexpr bool covers(const BasicPrefix& other) const {
    return length_ <= other.length_ && matches(other.addr_);
  }

  /// Lowest / highest address inside this prefix.
  constexpr Addr range_first() const { return addr_; }
  constexpr Addr range_last() const { return addr_ | ~Addr::netmask(length_); }

  /// "address/len" notation.
  std::string to_string() const {
    return addr_.to_string() + "/" + std::to_string(length_);
  }

  friend constexpr auto operator<=>(const BasicPrefix&, const BasicPrefix&) = default;

 private:
  Addr addr_{};
  std::uint8_t length_ = 0;
};

using Prefix = BasicPrefix<Ipv4Addr>;
using Prefix6 = BasicPrefix<Ipv6Addr>;

extern template std::optional<Prefix> Prefix::parse(std::string_view);
extern template std::optional<Prefix6> Prefix6::parse(std::string_view);

}  // namespace spal::net
