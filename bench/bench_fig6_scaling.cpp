// Reproduces Fig. 6: mean lookup time (cycles) versus ψ (number of LCs,
// any integer — 3 included deliberately) for β = 4K, γ = 50%, five traces.
//
// Paper shape: mean lookup time falls as ψ grows (finer fragmentation =>
// better per-LC address-space coverage + more FE parallelism); ψ = 1 is
// also what an LR-cache-without-partitioning router achieves regardless of
// its LC count (the Sec. 5.2 comparison against [6]).
//
// Sweep points are grouped by ψ: every trace at one ψ shares the same
// router build (run() fully resets per-run state), so the expensive
// partition + per-LC trie construction happens once per ψ instead of once
// per (trace, ψ). Groups run concurrently on the sweep runner; rows print
// trace-major, identical to the sequential per-point output.
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Fig. 6: mean lookup time vs psi (beta=4K, gamma=50%)",
                      "trace,psi,mean_cycles,hit_rate,remote_fraction");
  bench::rt2();

  const auto profiles = trace::all_profiles();
  const std::vector<int> psis{1, 2, 3, 4, 8, 16};
  const auto points_by_psi =
      sim::parallel_sweep(psis, [&](int psi) {
        core::RouterConfig config =
            bench::figure_config(psi, args.packets_per_lc);
        config.cache.blocks = 4096;
        config.cache.remote_fraction = 0.50;
        core::RouterSim router(bench::rt2(), config);
        std::vector<bench::PointOutput> points;
        points.reserve(profiles.size());
        for (const auto& profile : profiles) {
          const auto result = router.run_workload(profile);
          const double remote_share =
              result.resolved_packets == 0
                  ? 0.0
                  : static_cast<double>(result.remote_requests) /
                        static_cast<double>(result.resolved_packets);
          bench::PointOutput point;
          point.row = bench::rowf(
              "%s,%d,%.3f,%.4f,%.4f\n", profile.name.c_str(), psi,
              result.mean_lookup_cycles(), result.cache_total.hit_rate(),
              remote_share);
          if (args.json) {
            point.json = bench::json_point(
                bench::rowf("trace=%s,psi=%d", profile.name.c_str(), psi),
                result);
          }
          points.push_back(std::move(point));
        }
        return points;
      });
  std::vector<std::string> entries;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (const auto& points : points_by_psi) {
      std::fputs(points[p].row.c_str(), stdout);
      if (args.json) entries.push_back(points[p].json);
    }
  }
  bench::write_json_report(args, "fig6_scaling", entries);
  return 0;
}
