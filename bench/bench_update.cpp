// Live route-update sweep: lookup time and update-pipeline overhead as the
// router churns.
//
// Sweeps update rate × ψ × trie kind on the D_75 trace over RT_2. Each point
// runs the live update pipeline (announce/withdraw/hop-change stream routed
// over the fabric to the home LCs, applied incrementally or by epoch
// rebuild, followed by LR-cache invalidation on every LC) and reports the
// mean/p99 lookup time, hit rate, and the update ledger: updates applied,
// per-fragment applications, incremental vs rebuild applications, FE cycles
// charged, fabric control messages, and blocks invalidated.
//
// `--update-rate=N` pins the rate axis (N updates per million cycles;
// 0 = pipeline off), `--update-seed=N` the stream seed, `--trie=KIND` the
// FE structure. With `--verify`, every resolved next hop is checked against
// the churning oracle and the bench exits nonzero on any unexcused mismatch
// or lost packet — staleness under churn is a hard invariant, not a curve.
//
// With --json, every point embeds the full RouterResult (update block
// included) so `spal_report --check` can validate the update ledger
// (applied == announces+withdraws+hop_changes, applications ==
// fe_incremental+fe_rebuilds, invalidation fan-out, fabric conservation).
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Live updates: lookup time and pipeline overhead vs update rate, psi, "
      "trie",
      "updates_per_mcycle,psi,trie,mean_cycles,p99_cycles,hit_rate,"
      "updates_applied,applications,fe_incremental,fe_rebuilds,"
      "update_cost_cycles,update_messages,invalidation_messages,"
      "blocks_invalidated");
  bench::rt2();

  const std::vector<std::uint64_t> rates =
      args.update_rate_set ? std::vector<std::uint64_t>{args.update_rate}
                           : std::vector<std::uint64_t>{100, 1'000, 10'000};
  const std::vector<int> psis{4, 16};
  const std::vector<trie::TrieKind> tries =
      args.trie_set
          ? std::vector<trie::TrieKind>{args.trie}
          : std::vector<trie::TrieKind>{trie::TrieKind::kDp,
                                        trie::TrieKind::kLulea,
                                        trie::TrieKind::kLc};

  struct Point {
    std::uint64_t rate;
    int psi;
    trie::TrieKind trie;
  };
  std::vector<Point> points;
  for (const std::uint64_t rate : rates) {
    for (const int psi : psis) {
      for (const trie::TrieKind kind : tries) {
        points.push_back(Point{rate, psi, kind});
      }
    }
  }

  int failures = 0;
  const auto outputs = sim::parallel_sweep(points, [&](const Point& point) {
    core::RouterConfig config =
        bench::figure_config(point.psi, args.packets_per_lc);
    config.trie = point.trie;
    config.update_policy =
        core::RouterConfig::UpdatePolicy::kSelectiveInvalidate;
    if (point.rate > 0) {
      // rate = updates per 1M cycles -> injection interval in cycles.
      config.update.interval_cycles = 1'000'000 / point.rate;
      config.update.seed = args.update_seed;
    }
    core::RouterSim router(bench::rt2(), config);
    const auto result = router.run_workload(trace::profile_d75(), args.verify);
    const std::uint64_t injected =
        static_cast<std::uint64_t>(args.packets_per_lc) *
        static_cast<std::uint64_t>(point.psi);
    const bool conserved = result.resolved_packets == injected &&
                           result.verify_mismatches == 0;
    bench::PointOutput out;
    out.row = bench::rowf(
        "%llu,%d,%s,%.3f,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu%s\n",
        static_cast<unsigned long long>(point.rate), point.psi,
        std::string(trie::to_string(point.trie)).c_str(),
        result.mean_lookup_cycles(),
        static_cast<unsigned long long>(result.latency.percentile(0.99)),
        result.cache_total.hit_rate(),
        static_cast<unsigned long long>(result.update.applied),
        static_cast<unsigned long long>(result.update.applications),
        static_cast<unsigned long long>(result.update.fe_incremental),
        static_cast<unsigned long long>(result.update.fe_rebuilds),
        static_cast<unsigned long long>(result.update.update_cost_cycles),
        static_cast<unsigned long long>(result.update.update_messages),
        static_cast<unsigned long long>(result.update.invalidation_messages),
        static_cast<unsigned long long>(result.update.blocks_invalidated),
        conserved ? "" : ",CONSERVATION_FAILURE");
    if (args.json) {
      out.json = bench::json_point(
          bench::rowf("rate=%llu,psi=%d,trie=%s",
                      static_cast<unsigned long long>(point.rate), point.psi,
                      std::string(trie::to_string(point.trie)).c_str()),
          result);
    }
    return std::pair<bench::PointOutput, bool>(std::move(out), conserved);
  });

  std::vector<std::string> entries;
  for (const auto& [out, conserved] : outputs) {
    std::fputs(out.row.c_str(), stdout);
    if (!out.json.empty()) entries.push_back(out.json);
    if (!conserved) ++failures;
  }
  bench::write_json_report(args, "live_updates", entries);
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_update: %d point(s) lost packets or resolved a stale "
                 "next hop\n",
                 failures);
    return 1;
  }
  return 0;
}
