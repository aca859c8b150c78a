#include "net/update_stream.h"

#include <cmath>
#include <random>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "net/table_gen.h"

namespace spal::net {
namespace {

// The announce model of each family, chosen by overload on the address type.
using V4 = std::type_identity<Ipv4Addr>;
using V6 = std::type_identity<Ipv6Addr>;

auto announce_length_weights(V4) { return TableGenConfig::default_length_weights(); }
auto announce_length_weights(V6) { return TableGen6Config::default_length_weights(); }

constexpr int min_announce_length(V4) { return 8; }
constexpr int min_announce_length(V6) { return 16; }

Ipv4Addr announce_address(V4, std::mt19937_64& rng) {
  return Ipv4Addr{std::uniform_int_distribution<std::uint32_t>{}(rng)};
}
Ipv6Addr announce_address(V6, std::mt19937_64& rng) {
  // Global unicast 2000::/3, same space as the table generator.
  std::uniform_int_distribution<std::uint64_t> word;
  const std::uint64_t hi =
      (word(rng) & 0x1fffffffffffffffULL) | 0x2000000000000000ULL;
  return Ipv6Addr{hi, word(rng)};
}

}  // namespace

void check_update_mix(double announce_fraction, double withdraw_fraction) {
  for (const double fraction : {announce_fraction, withdraw_fraction}) {
    if (!std::isfinite(fraction) || fraction < 0.0) {
      throw std::invalid_argument(
          "update mix: fractions must be finite and non-negative");
    }
  }
  if (announce_fraction + withdraw_fraction > 1.0) {
    throw std::invalid_argument(
        "update mix: announce + withdraw fractions exceed 1");
  }
}

template <typename Addr>
std::vector<BasicTableUpdate<Addr>> generate_update_stream(
    const BasicRouteTable<Addr>& initial, const UpdateStreamConfig& config) {
  using Prefix = BasicPrefix<Addr>;
  using Update = BasicTableUpdate<Addr>;
  check_update_mix(config.announce_fraction, config.withdraw_fraction);
  constexpr std::type_identity<Addr> family{};
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<NextHop> hop_dist(
      0, config.next_hops == 0 ? 0 : config.next_hops - 1);
  const auto weights = announce_length_weights(family);
  std::discrete_distribution<int> length_dist(weights.begin(), weights.end());

  // Track the live prefix set to keep withdrawals/changes valid.
  std::vector<Prefix> live;
  live.reserve(initial.size() + config.count);
  for (const auto& e : initial.entries()) live.push_back(e.prefix);

  // Membership in the evolving table: the sorted initial table, less the
  // initial prefixes the stream withdrew, plus the new prefixes it
  // announced. Both corrections stay as small as the stream.
  std::set<Prefix> withdrawn_initial;
  std::set<Prefix> announced_new;
  const auto in_table = [&](const Prefix& prefix) {
    return initial.find(prefix).has_value() ? !withdrawn_initial.contains(prefix)
                                            : announced_new.contains(prefix);
  };
  std::vector<Update> updates;
  updates.reserve(config.count);
  while (updates.size() < config.count) {
    const double kind_draw = unit(rng);
    if (kind_draw < config.announce_fraction || live.empty()) {
      // Announce: synthesize a prefix not currently in the table.
      for (int attempt = 0; attempt < 16; ++attempt) {
        const int length = std::max(min_announce_length(family), length_dist(rng));
        const Prefix prefix(announce_address(family, rng), length);
        if (in_table(prefix)) continue;
        const NextHop hop = hop_dist(rng);
        updates.push_back(Update{UpdateKind::kAnnounce, prefix, hop});
        if (withdrawn_initial.erase(prefix) == 0) announced_new.insert(prefix);
        live.push_back(prefix);
        break;
      }
    } else if (kind_draw < config.announce_fraction + config.withdraw_fraction) {
      // Withdraw a live prefix.
      const std::size_t index =
          std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
      const Prefix prefix = live[index];
      updates.push_back(Update{UpdateKind::kWithdraw, prefix, kNoRoute});
      if (announced_new.erase(prefix) == 0) withdrawn_initial.insert(prefix);
      live[index] = live.back();
      live.pop_back();
    } else {
      // Next-hop change of a live prefix.
      const Prefix prefix =
          live[std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng)];
      const NextHop hop = hop_dist(rng);
      updates.push_back(Update{UpdateKind::kHopChange, prefix, hop});
    }
  }
  return updates;
}

template std::vector<TableUpdate> generate_update_stream(
    const RouteTable&, const UpdateStreamConfig&);
template std::vector<TableUpdate6> generate_update_stream(
    const RouteTable6&, const UpdateStreamConfig&);

}  // namespace spal::net
