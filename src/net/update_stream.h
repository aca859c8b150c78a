// BGP-style routing-table update streams.
//
// The paper's Sec. 3.2 leans on measured update rates — "the routing table
// of a backbone router gets updated some 20 times per second on an average
// (and possibly as many as 100 times)" [3, 15] — and flushes all LR-caches
// per update. This module generates realistic update sequences (announce /
// withdraw / next-hop change) against an evolving table of either address
// family so the per-update costs (trie rebuilds, cache disturbance) can be
// measured.
#pragma once

#include <cstdint>
#include <vector>

#include "net/route_table.h"

namespace spal::net {

enum class UpdateKind : std::uint8_t {
  kAnnounce,   ///< a new prefix appears
  kWithdraw,   ///< an existing prefix is removed
  kHopChange,  ///< an existing prefix's next hop changes (re-announcement)
};

template <typename Addr>
struct BasicTableUpdate {
  UpdateKind kind;
  BasicPrefix<Addr> prefix;
  NextHop next_hop = kNoRoute;  ///< unused for withdrawals

  friend constexpr auto operator<=>(const BasicTableUpdate&,
                                    const BasicTableUpdate&) = default;
};

using TableUpdate = BasicTableUpdate<Ipv4Addr>;
using TableUpdate6 = BasicTableUpdate<Ipv6Addr>;

struct UpdateStreamConfig {
  std::size_t count = 1'000;
  std::uint64_t seed = 1;
  /// Mix of update kinds; hop changes take the remainder. BGP update
  /// studies put re-announcements well ahead of genuine topology changes.
  double announce_fraction = 0.25;
  double withdraw_fraction = 0.25;
  std::uint32_t next_hops = 16;
};

/// Throws std::invalid_argument unless both fractions are finite and
/// non-negative and sum to at most 1: a mix the generator can draw as given.
void check_update_mix(double announce_fraction, double withdraw_fraction);

/// Generates `config.count` updates that are valid when applied in order
/// starting from `initial` (withdrawals always name a live prefix,
/// announcements a genuinely new one). Deterministic per seed. Throws
/// std::invalid_argument for a mix check_update_mix() rejects.
/// Announcements follow the family's table generator: its length weights
/// (so the table's shape holds as it evolves), at least /8 on IPv4 and /16
/// on IPv6, anywhere on IPv4 and inside 2000::/3 on IPv6.
template <typename Addr>
std::vector<BasicTableUpdate<Addr>> generate_update_stream(
    const BasicRouteTable<Addr>& initial, const UpdateStreamConfig& config);

/// The IPv6 stream under its older name.
inline std::vector<TableUpdate6> generate_update_stream6(
    const RouteTable6& initial, const UpdateStreamConfig& config) {
  return generate_update_stream(initial, config);
}

/// Applies one update to `table`. Returns false if the update was a no-op
/// (withdrawing an absent prefix); generated streams never produce those.
template <typename Addr>
bool apply_update(BasicRouteTable<Addr>& table,
                  const BasicTableUpdate<Addr>& update) {
  switch (update.kind) {
    case UpdateKind::kAnnounce:
    case UpdateKind::kHopChange:
      table.add(update.prefix, update.next_hop);
      return true;
    case UpdateKind::kWithdraw:
      return table.remove(update.prefix);
  }
  return false;
}

}  // namespace spal::net
