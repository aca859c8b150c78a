#include "net/ip_addr.h"

#include <algorithm>
#include <array>
#include <charconv>

namespace spal::net {

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  std::array<std::uint32_t, 4> octets{};
  const char* p = text.data();
  const char* end = text.data() + text.size();
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
    auto [next, ec] = std::from_chars(p, end, octets[static_cast<std::size_t>(i)]);
    if (ec != std::errc{} || next == p) return std::nullopt;
    if (octets[static_cast<std::size_t>(i)] > 255) return std::nullopt;
    p = next;
  }
  if (p != end) return std::nullopt;
  return Ipv4Addr::from_octets(
      static_cast<std::uint8_t>(octets[0]), static_cast<std::uint8_t>(octets[1]),
      static_cast<std::uint8_t>(octets[2]), static_cast<std::uint8_t>(octets[3]));
}

std::string Ipv4Addr::to_string() const {
  std::string out;
  out.reserve(15);
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string((value_ >> (24 - 8 * i)) & 0xffu);
  }
  return out;
}

std::optional<Ipv6Addr> Ipv6Addr::parse(std::string_view text) {
  std::uint64_t hi = 0, lo = 0;
  for (int group = 0; group < 8; ++group) {
    if (group > 0) {
      if (text.empty() || text.front() != ':') return std::nullopt;
      text.remove_prefix(1);
    }
    std::uint32_t value = 0;
    auto [next, ec] = std::from_chars(
        text.data(), text.data() + std::min<std::size_t>(4, text.size()), value,
        16);
    if (ec != std::errc{} || next == text.data() || value > 0xffff) {
      return std::nullopt;
    }
    text.remove_prefix(static_cast<std::size_t>(next - text.data()));
    if (group < 4) {
      hi = (hi << 16) | value;
    } else {
      lo = (lo << 16) | value;
    }
  }
  if (!text.empty()) return std::nullopt;
  return Ipv6Addr{hi, lo};
}

std::string Ipv6Addr::to_string() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(39);
  for (int group = 0; group < 8; ++group) {
    if (group > 0) out.push_back(':');
    const std::uint64_t half = group < 4 ? hi_ : lo_;
    const int shift = 48 - 16 * (group % 4);
    const std::uint16_t v = static_cast<std::uint16_t>(half >> shift);
    out.push_back(kHex[(v >> 12) & 0xf]);
    out.push_back(kHex[(v >> 8) & 0xf]);
    out.push_back(kHex[(v >> 4) & 0xf]);
    out.push_back(kHex[v & 0xf]);
  }
  return out;
}

}  // namespace spal::net
