// Reproduces the paper's headline claim (Secs. 1, 5.2): a SPAL router with
// ψ = 16 and β = 4K forwards >336 million packets/s — 4.2× a conventional
// router whose per-lookup cost is the 40-cycle (200 ns) Lulea FE time with
// queueing "ignored optimistically" (i.e. 5 Mpps per LC, 80 Mpps for 16).
//
// Printed per trace: SPAL mean lookup cycles, per-LC and router-wide Mpps,
// the measured worst case, and the speedup over the optimistic baseline.
// After the simulated table, the bench measures the *host-side* lookup rate
// of LC 0's built trie — the scalar path vs the interleaved batch pipeline
// (chunk width from --batch, default 8) — through the router's host_fe_lookup
// path, so the abstract 40-cycle FE model sits next to real ns/lookup.
#include <chrono>
#include <random>

#include "bench_util.h"

using namespace spal;

namespace {

double pass_ns(core::RouterSim& router, const std::vector<net::Ipv4Addr>& keys,
               std::vector<net::NextHop>& out, std::size_t batch) {
  const auto start = std::chrono::steady_clock::now();
  router.host_fe_lookup(0, keys.data(), keys.size(), out.data(), batch);
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                 .count()) /
         static_cast<double>(keys.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  constexpr int kPsi = 16;
  constexpr double kBaselineCycles = 40.0;  // conventional router, no queueing
  bench::print_header(
      "Headline: psi=16, beta=4K forwarding rate vs conventional router",
      "trace,mean_cycles,worst_cycles,lc_mpps,router_mpps,speedup_vs_40cy");
  core::RouterConfig config = bench::figure_config(kPsi, args.packets_per_lc);
  config.cache.blocks = 4096;
  // One router reused across traces: run() starts every simulation from a
  // cold router, so results are identical to per-trace construction.
  core::RouterSim router(bench::rt2(), config);
  double total_speedup = 0.0;
  int traces = 0;
  std::vector<std::string> entries;
  for (const auto& profile : trace::all_profiles()) {
    const auto result = router.run_workload(profile);
    const double lc_mpps = result.latency.lookups_per_second(sim::kCycleNs) / 1e6;
    const double speedup = kBaselineCycles / result.mean_lookup_cycles();
    total_speedup += speedup;
    ++traces;
    std::printf("%s,%.3f,%llu,%.1f,%.1f,%.2f\n", profile.name.c_str(),
                result.mean_lookup_cycles(),
                static_cast<unsigned long long>(result.worst_lookup_cycles()),
                lc_mpps, lc_mpps * kPsi, speedup);
    if (args.json) {
      entries.push_back(bench::json_point(
          bench::rowf("trace=%s", profile.name.c_str()), result));
    }
  }
  std::printf("# paper: >336 Mpps router-wide, 4.2x over the conventional router\n");
  std::printf("# measured mean speedup over all traces: %.2fx\n",
              total_speedup / traces);

  // Host-side FE rate: wall-clock lookups into LC 0's built trie over its
  // own forwarding-table fragment, scalar vs batch pipeline.
  {
    const net::RouteTable& lc0 = router.rot().table_of(0);
    std::mt19937_64 rng(0x4057f3ULL);
    std::uniform_int_distribution<std::size_t> pick(0, lc0.size() - 1);
    std::vector<net::Ipv4Addr> keys;
    keys.reserve(args.packets_per_lc);
    for (std::size_t i = 0; i < args.packets_per_lc; ++i) {
      keys.push_back(net::random_address_in(lc0.entries()[pick(rng)].prefix, rng));
    }
    std::vector<net::NextHop> scalar_out(keys.size()), batch_out(keys.size());
    const double scalar_ns = pass_ns(router, keys, scalar_out, 1);
    const std::size_t width = args.batch;
    const double batch_ns = pass_ns(router, keys, batch_out, width);
    if (batch_out != scalar_out) {
      std::fprintf(stderr, "host FE batch/scalar next-hop divergence\n");
      return 1;
    }
    std::printf("# host FE (LC 0, %s, simd=%s): scalar %.1f ns/lookup, "
                "batch(width=%zu) %.1f ns/lookup, %.2fx\n",
                std::string(trie::to_string(router.config().trie)).c_str(),
                std::string(trie::to_string(trie::resolved_simd_level()))
                    .c_str(),
                scalar_ns, width, batch_ns,
                batch_ns > 0.0 ? scalar_ns / batch_ns : 0.0);
  }
  bench::write_json_report(args, "throughput", entries);
  return 0;
}
