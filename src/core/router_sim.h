// The IPv4 SPAL router: a discrete-event simulation of the full lookup flow
// of paper Sec. 3.3 over ψ line cards.
//
// Per-packet flow (all times in 5 ns cycles):
//   1. A packet arrives at its arrival LC and probes that LC's LR-cache
//      (at most one probe per cycle per cache — probes contend for the
//      port). A completed-block hit resolves the lookup in the next cycle.
//   2. A W=1 hit parks the packet on the block's waiting list.
//   3. On a miss, a block is reserved early (W=1) and the LR1 detector
//      routes the lookup: if the destination's control bits name this LC,
//      the packet enters the local FE queue (deterministic service, e.g.
//      40 cycles for the Lulea trie); otherwise a request crosses the
//      switching fabric to the home LC, where the same probe/reserve/FE
//      flow runs, and the reply crosses back, fills the arrival LC's block
//      with M=REM, and releases all parked packets.
//   4. An FE completion fills the local block with M=LOC and serves every
//      waiter — local packets resolve, remote requesters get replies.
//
// The simulation is event-driven (O(events)); FEs are deterministic
// k-server queues tracked by next-free-time bookkeeping, and the fabric
// model adds traversal latency plus per-port serialization.
//
// With `config.fault.enabled`, the fabric is lossy (seeded drops, jitter,
// per-port outage windows) and every remote request runs a timeout/retry
// protocol: sequence-numbered requests, exponential backoff up to
// `recovery.max_retries`, duplicate-reply suppression, and — when retries
// are exhausted — a degraded local full-table lookup at the
// conventional-router cost, with the arrival LC's W=1 block reclaimed so
// the lost reply cannot leak cache quota. See DESIGN.md ("Fault model").
//
// RouterSim is BasicRouterSim (basic_router_sim.h) over the IPv4 family
// policy below; the IPv6 router (router_sim6.h) is the same template over
// another policy.
#pragma once

#include "core/basic_router_sim.h"
#include "trie/lpm.h"

namespace spal::core {

/// IPv4 family policy for BasicRouterSim: the FE is `config.trie`.
struct V4Family {
  using Addr = net::Ipv4Addr;

  static std::uint64_t hash_bits(const Addr& addr) { return addr.value(); }
  static const partition::PartitionConfig& partition_config(
      const RouterConfig& config) {
    return config.partition_config;
  }
  static std::unique_ptr<trie::LpmIndex> build_fe(const net::RouteTable& table,
                                                  const RouterConfig& config) {
    return trie::build_lpm(config.trie, table, config.trie_options);
  }
};

using RouterSim = BasicRouterSim<V4Family>;

}  // namespace spal::core
