#include "net/prefix.h"

#include <charconv>
#include <type_traits>

namespace spal::net {

template <typename Addr>
std::optional<BasicPrefix<Addr>> BasicPrefix<Addr>::parse(std::string_view text) {
  const auto slash = text.find('/');
  int length = kMaxLength;
  std::string_view addr_part = text;
  if (slash != std::string_view::npos) {
    addr_part = text.substr(0, slash);
    const std::string_view len_part = text.substr(slash + 1);
    auto [next, ec] =
        std::from_chars(len_part.data(), len_part.data() + len_part.size(), length);
    if (ec != std::errc{} || next != len_part.data() + len_part.size()) {
      return std::nullopt;
    }
    if (length < 0 || length > kMaxLength) return std::nullopt;
  } else if (!std::is_same_v<Addr, Ipv4Addr>) {
    return std::nullopt;  // only IPv4 reads a bare address as a host route
  }
  const auto addr = Addr::parse(addr_part);
  if (!addr) return std::nullopt;
  return BasicPrefix(*addr, length);
}

template std::optional<Prefix> Prefix::parse(std::string_view);
template std::optional<Prefix6> Prefix6::parse(std::string_view);

}  // namespace spal::net
