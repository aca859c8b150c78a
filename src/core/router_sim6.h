// The IPv6 SPAL router — the end-to-end form of the paper's Sec. 6 claim
// that SPAL "is feasibly applicable to IPv6". RouterSim6 is BasicRouterSim
// (basic_router_sim.h) over the IPv6 family policy below, so its lookup
// flow, update pipeline, fault, failover and rebalancer machinery, trace
// generator and interface are the IPv4 router's: 128-bit destinations,
// RotPartition6 fragmentation, BasicLrCache<Ipv6Addr> LR-caches, DpTrie6
// FEs (with the full-table BinaryTrie6 as the verify/degraded oracle).
//
// Configuration notes vs. the IPv4 router:
//   * `config.trie` / `config.trie_options` are ignored — the v6 FE is
//     always the DP trie, whatever `config.trie` says. The end-to-end
//     benchmark's IPv6 workload builds this router with the default
//     `config.trie` (Lulea, which has no IPv6 form), so honouring the field
//     waits for that workload to name an IPv6 trie. `fe_service_cycles`
//     still sets the FE's abstract service time.
//   * `config.partition6_config` (not `partition_config`) sets the control
//     bits; selected ones come from bits 0..63 by the Sec. 3.1 criteria.
//   * Live updates draw IPv6 announcements (net::generate_update_stream)
//     and invalidate IPv6 LR-cache blocks exactly as on IPv4.
#pragma once

#include "core/basic_router_sim.h"
#include "trie/dp_trie.h"

namespace spal::core {

/// IPv6 family policy for BasicRouterSim: the FE is always the DP trie.
struct V6Family {
  using Addr = net::Ipv6Addr;

  static std::uint64_t hash_bits(const Addr& addr) {
    return addr.hi() * 0x9e3779b97f4a7c15ULL ^ addr.lo();
  }
  static const partition::Partition6Config& partition_config(
      const RouterConfig& config) {
    return config.partition6_config;
  }
  static std::unique_ptr<trie::LpmIndex6> build_fe(const net::RouteTable6& table,
                                                   const RouterConfig&) {
    return std::make_unique<trie::DpTrie6>(table);
  }
};

using RouterSim6 = BasicRouterSim<V6Family>;

}  // namespace spal::core
