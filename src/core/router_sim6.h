// The IPv6 SPAL router — the end-to-end form of the paper's Sec. 6 claim
// that SPAL "is feasibly applicable to IPv6". Identical lookup flow to the
// IPv4 router (basic_router_sim.h): 128-bit destinations, RotPartition6
// fragmentation, BasicLrCache<Ipv6Addr> LR-caches, DpTrie6 FEs (with the
// full-table BinaryTrie6 as the verify/degraded oracle).
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
//   * `config.fault` / `config.recovery` work identically to IPv4: the
//     timeout/retry/degraded machinery lives in the shared core, and the
//     degraded slow path resolves against the full-table BinaryTrie6.
#pragma once

#include "core/basic_router_sim.h"
#include "net/prefix6.h"
#include "trace/trace_gen6.h"
#include "trie/dp_trie.h"

namespace spal::core {

/// IPv6 family policy for BasicRouterSim.
struct V6Family {
  using Addr = net::Ipv6Addr;
  using Table = net::RouteTable6;
  using Update = net::TableUpdate6;

  static std::vector<Update> make_updates(const Table& table,
                                          const net::UpdateStreamConfig& config) {
    return net::generate_update_stream6(table, config);
  }
  static std::uint64_t hash_bits(const Addr& addr) {
    return addr.hi() * 0x9e3779b97f4a7c15ULL ^ addr.lo();
  }
  static const partition::Partition6Config& partition_config(
      const RouterConfig& config) {
    return config.partition6_config;
  }
  static std::unique_ptr<trie::LpmIndex6> build_fe(const Table& table,
                                                   const RouterConfig&) {
    return std::make_unique<trie::DpTrie6>(table);
  }
};

class RouterSim6 {
 public:
  RouterSim6(const net::RouteTable6& table, const RouterConfig& config)
      : impl_(table, config) {}

  RouterResult run(const std::vector<std::vector<net::Ipv6Addr>>& streams,
                   bool verify = false) {
    return impl_.run(streams, verify);
  }

  RouterResult run_workload(const trace::WorkloadProfile& profile,
                            bool verify = false) {
    const trace::TraceGenerator6 generator(profile, impl_.table());
    std::vector<std::vector<net::Ipv6Addr>> streams;
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
  const partition::RotPartition6& rot() const { return impl_.partition(); }
  std::vector<std::size_t> trie_storage_bytes() const {
    return impl_.fe_storage_bytes();
  }

 private:
  BasicRouterSim<V6Family> impl_;
};

}  // namespace spal::core
