#include "net/route_table.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

namespace spal::net {
namespace {

/// First entry not ordered before `prefix`: where `prefix` is, or would go.
/// The prefix order is the table's sort key, (address, length).
template <typename Entries, typename Prefix>
auto lower_bound_of(Entries& entries, const Prefix& prefix) {
  return std::lower_bound(
      entries.begin(), entries.end(), prefix,
      [](const auto& e, const Prefix& p) { return e.prefix < p; });
}

}  // namespace

template <typename Addr>
BasicRouteTable<Addr>::BasicRouteTable(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  normalize();
}

template <typename Addr>
void BasicRouteTable<Addr>::normalize() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) { return a.prefix < b.prefix; });
  // Keep the LAST entry for each duplicated prefix (latest insertion wins).
  auto last_wins = std::unique(
      entries_.rbegin(), entries_.rend(),
      [](const Entry& a, const Entry& b) { return a.prefix == b.prefix; });
  entries_.erase(entries_.begin(), last_wins.base());
}

template <typename Addr>
void BasicRouteTable<Addr>::add(const Prefix& prefix, NextHop next_hop) {
  const auto pos = lower_bound_of(entries_, prefix);
  if (pos != entries_.end() && pos->prefix == prefix) {
    pos->next_hop = next_hop;
  } else {
    entries_.insert(pos, Entry{prefix, next_hop});
  }
}

template <typename Addr>
bool BasicRouteTable<Addr>::remove(const Prefix& prefix) {
  const auto pos = lower_bound_of(entries_, prefix);
  if (pos == entries_.end() || pos->prefix != prefix) return false;
  entries_.erase(pos);
  return true;
}

template <typename Addr>
std::optional<NextHop> BasicRouteTable<Addr>::find(const Prefix& prefix) const {
  const auto pos = lower_bound_of(entries_, prefix);
  if (pos == entries_.end() || pos->prefix != prefix) return std::nullopt;
  return pos->next_hop;
}

template <typename Addr>
NextHop BasicRouteTable<Addr>::lookup_linear(const Addr& addr) const {
  int best_len = -1;
  NextHop best = kNoRoute;
  for (const Entry& e : entries_) {
    if (e.prefix.length() > best_len && e.prefix.matches(addr)) {
      best_len = e.prefix.length();
      best = e.next_hop;
    }
  }
  return best;
}

template <typename Addr>
std::array<std::size_t, BasicPrefix<Addr>::kMaxLength + 1>
BasicRouteTable<Addr>::length_histogram() const {
  std::array<std::size_t, Prefix::kMaxLength + 1> hist{};
  for (const Entry& e : entries_) {
    hist[static_cast<std::size_t>(e.prefix.length())]++;
  }
  return hist;
}

template <typename Addr>
std::size_t BasicRouteTable<Addr>::count_length_at_most(int length) const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.prefix.length() <= length) ++n;
  }
  return n;
}

template <typename Addr>
void BasicRouteTable<Addr>::save(std::ostream& out) const {
  for (const Entry& e : entries_) {
    out << e.prefix.to_string() << ' ' << e.next_hop << '\n';
  }
}

template <typename Addr>
std::optional<BasicRouteTable<Addr>> BasicRouteTable<Addr>::load(std::istream& in) {
  std::vector<Entry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string prefix_text, hop_text, extra;
    if (!(fields >> prefix_text >> hop_text) || fields >> extra) {
      return std::nullopt;
    }
    // from_chars takes no sign, so "-1" cannot wrap to kNoRoute.
    NextHop next_hop = kNoRoute;
    const char* const hop_end = hop_text.data() + hop_text.size();
    const auto [next, ec] = std::from_chars(hop_text.data(), hop_end, next_hop);
    if (ec != std::errc{} || next != hop_end || next_hop == kNoRoute) {
      return std::nullopt;
    }
    const auto prefix = Prefix::parse(prefix_text);
    if (!prefix) return std::nullopt;
    entries.push_back(Entry{*prefix, next_hop});
  }
  return BasicRouteTable(std::move(entries));
}

template class BasicRouteTable<Ipv4Addr>;
template class BasicRouteTable<Ipv6Addr>;

}  // namespace spal::net
