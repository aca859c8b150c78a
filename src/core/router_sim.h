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
// The machinery is shared with the IPv6 router (basic_router_sim.h /
// router_sim6.h) through an address-family policy.
#pragma once

#include "core/basic_router_sim.h"
#include "net/route_table.h"
#include "partition/rot_partition.h"
#include "trace/trace_gen.h"
#include "trie/binary_trie.h"
#include "trie/lpm.h"

namespace spal::core {

/// IPv4 family policy for BasicRouterSim.
struct V4Family {
  using Addr = net::Ipv4Addr;
  using Table = net::RouteTable;
  using Partition = partition::RotPartition;
  using Fe = std::unique_ptr<trie::LpmIndex>;
  using Oracle = trie::BinaryTrie;

  static Partition make_partition(const Table& table, int num_lcs,
                                  const RouterConfig& config) {
    return Partition(table, num_lcs, config.partition_config);
  }
  static Fe build_fe(const Table& table, const RouterConfig& config) {
    return trie::build_lpm(config.trie, table, config.trie_options);
  }
  static net::NextHop fe_lookup(const Fe& fe, const Addr& addr) {
    return fe->lookup(addr);
  }
  static void fe_lookup_batch(const Fe& fe, const Addr* keys, std::size_t n,
                              net::NextHop* out) {
    fe->lookup_batch(keys, n, out);
  }
  static std::size_t fe_storage(const Fe& fe) { return fe->storage_bytes(); }
  // Memory-tier cost model hooks: the arena list (hottest first) the model
  // places, and the counted lookup it prices jobs with.
  static std::vector<trie::ArenaSpan> fe_arenas(const Fe& fe) {
    return fe->arenas();
  }
  static net::NextHop fe_lookup_counted(const Fe& fe, const Addr& addr,
                                        trie::MemAccessCounter& counter) {
    return fe->lookup_counted(addr, counter);
  }
  static Oracle build_oracle(const Table& table) { return Oracle(table); }
  static net::NextHop oracle_lookup(const Oracle& oracle, const Addr& addr) {
    return oracle.lookup(addr);
  }
  static std::uint64_t hash_bits(const Addr& addr) { return addr.value(); }

  // Live route-update pipeline:
  using Update = net::TableUpdate;
  static std::vector<Update> make_updates(const Table& table,
                                          const net::UpdateStreamConfig& config) {
    return net::generate_update_stream(table, config);
  }
  static bool fe_supports_update(const Fe& fe) {
    return fe->supports_incremental_update();
  }
  static void fe_insert(Fe& fe, const net::Prefix& prefix, net::NextHop hop) {
    fe->insert(prefix, hop);
  }
  static void fe_remove(Fe& fe, const net::Prefix& prefix) { fe->remove(prefix); }
};

class RouterSim {
 public:
  /// Builds the router: fragments `table` (if configured), builds one trie
  /// per LC over its forwarding table, and instantiates LR-caches/fabric.
  RouterSim(const net::RouteTable& table, const RouterConfig& config)
      : impl_(table, config) {}

  /// Runs one simulation over per-LC destination streams (streams.size()
  /// must equal ψ). With `verify` set, every resolved next hop is checked
  /// against a full-table oracle and mismatches are counted.
  RouterResult run(const std::vector<std::vector<net::Ipv4Addr>>& streams,
                   bool verify = false) {
    return impl_.run(streams, verify);
  }

  /// Convenience: generates streams from a workload profile and runs.
  RouterResult run_workload(const trace::WorkloadProfile& profile,
                            bool verify = false) {
    const trace::TraceGenerator generator(profile, full_table_for_traces());
    std::vector<std::vector<net::Ipv4Addr>> streams;
    const int num_lcs = impl_.config().num_lcs;
    streams.reserve(static_cast<std::size_t>(num_lcs));
    for (int lc = 0; lc < num_lcs; ++lc) {
      streams.push_back(generator.generate(lc, impl_.config().packets_per_lc));
    }
    return impl_.run(streams, verify);
  }

  const RouterConfig& config() const { return impl_.config(); }
  /// Worker threads run() uses: always 1 (one event loop per run).
  int planned_shards(bool /*verify*/ = false) const { return 1; }
  /// Partition diagnostics (control bits, per-LC table sizes).
  const partition::RotPartition& rot() const { return impl_.partition(); }
  /// Per-LC forwarding-trie storage in bytes.
  std::vector<std::size_t> trie_storage_bytes() const {
    return impl_.fe_storage_bytes();
  }
  /// Host-side lookups through LC `lc`'s built trie (batch pipeline in
  /// chunks of `batch` keys when batch > 1, scalar otherwise).
  void host_fe_lookup(int lc, const net::Ipv4Addr* keys, std::size_t n,
                      net::NextHop* out, std::size_t batch) const {
    impl_.fe_host_lookup(lc, keys, n, out, batch);
  }

 private:
  /// Workload streams are drawn from the whole routing table (the union of
  /// the partitions); the simulation core already holds that copy.
  const net::RouteTable& full_table_for_traces() const { return impl_.table(); }

  BasicRouterSim<V4Family> impl_;
};

}  // namespace spal::core
