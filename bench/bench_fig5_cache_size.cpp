// Reproduces Fig. 5: mean lookup time (cycles) versus LR-cache size β for
// ψ = 16, five traces, 40 Gbps LCs, 40-cycle FE lookups. Following
// Sec. 5.2, γ = 50% for β >= 2K and 25% for β = 1K.
//
// Paper shape: larger β consistently lowers mean lookup time; at β = 4K
// every trace is below 9.2 cycles (>21 Mpps per LC, >336 Mpps router-wide).
//
// Sweep points are grouped by β: every trace at one β shares the same
// router build (run() fully resets per-run state). Groups run concurrently
// on the sweep runner; rows print trace-major, identical to the sequential
// per-point output.
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Fig. 5: mean lookup time vs LR-cache size (psi=16)",
                      "trace,beta_blocks,mean_cycles,hit_rate,lc_mpps");
  bench::rt2();

  const auto profiles = trace::all_profiles();
  const std::vector<std::size_t> betas{1024, 2048, 4096, 8192};
  const auto points_by_beta =
      sim::parallel_sweep(betas, [&](std::size_t beta) {
        core::RouterConfig config =
            bench::figure_config(16, args.packets_per_lc);
        config.cache.blocks = beta;
        config.cache.remote_fraction = beta == 1024 ? 0.25 : 0.50;
        core::RouterSim router(bench::rt2(), config);
        std::vector<bench::PointOutput> points;
        points.reserve(profiles.size());
        for (const auto& profile : profiles) {
          const auto result = router.run_workload(profile);
          bench::PointOutput point;
          point.row = bench::rowf(
              "%s,%zu,%.3f,%.4f,%.1f\n", profile.name.c_str(), beta,
              result.mean_lookup_cycles(), result.cache_total.hit_rate(),
              result.latency.lookups_per_second(sim::kCycleNs) / 1e6);
          if (args.json) {
            point.json = bench::json_point(
                bench::rowf("trace=%s,beta=%zu", profile.name.c_str(), beta),
                result);
          }
          points.push_back(std::move(point));
        }
        return points;
      });
  std::vector<std::string> entries;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (const auto& points : points_by_beta) {
      std::fputs(points[p].row.c_str(), stdout);
      if (args.json) entries.push_back(points[p].json);
    }
  }
  bench::write_json_report(args, "fig5_cache_size", entries);
  return 0;
}
