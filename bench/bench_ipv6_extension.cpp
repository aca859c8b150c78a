// Sec. 6 / Sec. 4 extension bench: SPAL under IPv6.
//
// The paper claims (a) "SPAL is feasibly applicable to IPv6" and (b) the
// per-LC SRAM reduction from partitioning is much larger under IPv6. This
// bench fragments a synthetic global-unicast IPv6 table for ψ ∈ {4, 16},
// prints the chosen 128-bit-space control bits, per-partition sizes, and
// the per-LC binary-trie storage before/after, next to the IPv4 RT_1
// numbers for the same ψ. It then runs the Fig. 6 sweep over the IPv6
// router, and one IPv6 live-update run in verify mode that exits 1 if a
// packet stays unresolved or resolves a wrong next hop.
#include <numeric>

#include "bench_util.h"
#include "core/router_sim6.h"
#include "net/table_gen.h"
#include "partition/rot_partition.h"
#include "trie/binary_trie.h"

using namespace spal;

namespace {

void report_v6(const net::RouteTable6& table, int psi) {
  const partition::RotPartition6 rot(table, psi);
  const trie::BinaryTrie6 whole(table);
  std::size_t biggest = 0;
  for (int lc = 0; lc < psi; ++lc) {
    biggest = std::max(biggest, trie::BinaryTrie6(rot.table_of(lc)).storage_bytes());
  }
  const auto sizes = rot.partition_sizes();
  const std::size_t total = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  std::printf("ipv6,psi=%d,prefixes=%zu,bits=", psi, table.size());
  for (std::size_t i = 0; i < rot.control_bits().size(); ++i) {
    std::printf("%s%d", i ? "|" : "", rot.control_bits()[i]);
  }
  std::printf(",replication=%.4f,whole_kb=%zu,per_lc_kb=%zu,saving_kb=%zu\n",
              static_cast<double>(total) / static_cast<double>(table.size()),
              whole.storage_bytes() / 1024, biggest / 1024,
              (whole.storage_bytes() - biggest) / 1024);
}

void report_v4(const net::RouteTable& table, int psi) {
  const partition::RotPartition rot(table, psi);
  const auto whole = trie::build_lpm(trie::TrieKind::kBinary, table);
  std::size_t biggest = 0;
  for (int lc = 0; lc < psi; ++lc) {
    biggest = std::max(
        biggest,
        trie::build_lpm(trie::TrieKind::kBinary, rot.table_of(lc))->storage_bytes());
  }
  std::printf("ipv4,psi=%d,prefixes=%zu,whole_kb=%zu,per_lc_kb=%zu,saving_kb=%zu\n",
              psi, table.size(), whole->storage_bytes() / 1024, biggest / 1024,
              (whole->storage_bytes() - biggest) / 1024);
}

}  // namespace

int main() {
  bench::print_header("Sec. 6 extension: SPAL partitioning under IPv6 "
                      "(binary-trie storage, same prefix count as RT_1-scale v4)",
                      "family,psi,metrics");
  net::TableGen6Config config;
  config.size = 41'709;  // match RT_1's prefix count for a fair comparison
  config.seed = 0x6bed;
  const net::RouteTable6 v6 = net::generate_table6(config);
  report_v4(bench::rt1(), 4);
  report_v6(v6, 4);
  report_v4(bench::rt1(), 16);
  report_v6(v6, 16);
  std::printf("# paper Sec. 4: \"the reduction amount will be much larger under IPv6\"\n");

  // End-to-end: the Fig. 6 sweep under IPv6 (DP-trie FEs; the longer v6
  // walk costs ~62 cycles, the paper's DP-trie service band).
  std::printf("# Fig. 6 analogue under IPv6 (beta=4K, gamma=50%%, 62-cycle FE)\n");
  std::printf("trace,psi,mean_cycles,hit_rate\n");
  const trace::WorkloadProfile profile = trace::profile_d81();
  for (const int psi : {1, 2, 4, 8, 16}) {
    core::RouterConfig router_config = core::spal_default_config(psi);
    router_config.packets_per_lc = 50'000;
    router_config.fe_service_cycles = 62;
    core::RouterSim6 router(v6, router_config);
    const auto result = router.run_workload(profile);
    std::printf("%s,%d,%.3f,%.4f\n", profile.name.c_str(), psi,
                result.mean_lookup_cycles(), result.cache_total.hit_rate());
  }

  // Live updates under IPv6: one update per 100 cycles with selective
  // invalidation, every resolved next hop checked against the churning
  // oracle. The columns are bench_update's.
  std::printf("# live updates under IPv6 (D_75, psi=16, 1 update / 100 cycles, "
              "selective invalidation, verify)\n");
  std::printf("updates_per_mcycle,psi,trie,mean_cycles,p99_cycles,hit_rate,"
              "updates_applied,applications,fe_incremental,fe_rebuilds,"
              "update_cost_cycles,update_messages,invalidation_messages,"
              "blocks_invalidated\n");
  core::RouterConfig churn_config = core::spal_default_config(16);
  churn_config.packets_per_lc = 20'000;
  churn_config.fe_service_cycles = 62;
  churn_config.update_policy =
      core::RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  churn_config.update.interval_cycles = 100;
  core::RouterSim6 churn_router(v6, churn_config);
  const auto churn = churn_router.run_workload(trace::profile_d75(), true);
  std::printf("%llu,%d,dp,%.3f,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
              "%llu\n",
              1'000'000ULL / churn_config.update.interval_cycles,
              churn_config.num_lcs, churn.mean_lookup_cycles(),
              static_cast<unsigned long long>(churn.latency.percentile(0.99)),
              churn.cache_total.hit_rate(),
              static_cast<unsigned long long>(churn.update.applied),
              static_cast<unsigned long long>(churn.update.applications),
              static_cast<unsigned long long>(churn.update.fe_incremental),
              static_cast<unsigned long long>(churn.update.fe_rebuilds),
              static_cast<unsigned long long>(churn.update.update_cost_cycles),
              static_cast<unsigned long long>(churn.update.update_messages),
              static_cast<unsigned long long>(
                  churn.update.invalidation_messages),
              static_cast<unsigned long long>(churn.update.blocks_invalidated));
  const std::uint64_t injected =
      churn_config.packets_per_lc *
      static_cast<std::uint64_t>(churn_config.num_lcs);
  if (churn.resolved_packets != injected || churn.verify_mismatches != 0) {
    std::fprintf(stderr,
                 "bench_ipv6_extension: live-update run resolved %llu of %llu "
                 "packets with %llu verify mismatches\n",
                 static_cast<unsigned long long>(churn.resolved_packets),
                 static_cast<unsigned long long>(injected),
                 static_cast<unsigned long long>(churn.verify_mismatches));
    return 1;
  }
  return 0;
}
