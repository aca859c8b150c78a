// Reproduces Fig. 4: mean lookup time (cycles) versus the mix value γ
// (the share of each LR-cache set devoted to remote-homed results) for
// ψ = 4, β = 4K blocks, five traces, 40 Gbps LCs, 40-cycle FE lookups.
//
// Paper shape: γ = 50% is best or nearly best for every trace; γ = 0%
// (no REM blocks survive) is clearly worse because every remote lookup
// re-crosses the fabric.
//
// Sweep points are grouped by γ: every trace at one γ shares the same
// router build (run() fully resets per-run state). Groups run concurrently
// on the sweep runner; rows print trace-major, identical to the sequential
// per-point output.
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Fig. 4: mean lookup time vs mix value (psi=4, beta=4K)",
                      "trace,gamma_percent,mean_cycles,hit_rate");
  bench::rt2();  // build the shared table once, outside the timed points

  const auto profiles = trace::all_profiles();
  const std::vector<double> gammas{0.0, 0.25, 0.50, 0.75};
  const auto points_by_gamma =
      sim::parallel_sweep(gammas, [&](double gamma) {
        core::RouterConfig config =
            bench::figure_config(4, args.packets_per_lc);
        config.cache.blocks = 4096;
        config.cache.remote_fraction = gamma;
        core::RouterSim router(bench::rt2(), config);
        std::vector<bench::PointOutput> points;
        points.reserve(profiles.size());
        for (const auto& profile : profiles) {
          const auto result = router.run_workload(profile);
          bench::PointOutput point;
          point.row = bench::rowf(
              "%s,%d,%.3f,%.4f\n", profile.name.c_str(),
              static_cast<int>(gamma * 100), result.mean_lookup_cycles(),
              result.cache_total.hit_rate());
          if (args.json) {
            point.json = bench::json_point(
                bench::rowf("trace=%s,gamma=%d", profile.name.c_str(),
                            static_cast<int>(gamma * 100)),
                result);
          }
          points.push_back(std::move(point));
        }
        return points;
      });
  std::vector<std::string> entries;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (const auto& points : points_by_gamma) {
      std::fputs(points[p].row.c_str(), stdout);
      if (args.json) entries.push_back(points[p].json);
    }
  }
  bench::write_json_report(args, "fig4_mix", entries);
  return 0;
}
