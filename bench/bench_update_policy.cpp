// Extension bench: routing-table update handling (paper Sec. 3.2).
//
// The paper flushes every LR-cache on each table update (~20/s, up to
// 100/s) and explicitly notes that "this simple flushing will not work
// effectively if the routing table is updated incrementally and very
// frequently". This bench quantifies that: mean lookup time and hit rate
// under increasing update rates, full flush vs selective invalidation
// (drop only blocks covered by the changed prefix).
//
// Each point runs the live route-update pipeline (DESIGN.md "Live
// route-update pipeline"): real announce/withdraw/hop-change updates, one
// per interval, applied at their home LCs and followed by invalidation on
// every LC. The FE is the DP trie, so each application is a 62-cycle
// incremental walk; on an immutable FE (the default Lulea) each would be an
// epoch rebuild, whose cost would swamp the cache effect measured here.
//
// Update intervals are in 5 ns cycles: 2,000,000 ≈ the paper's 100/s at
// 10 ms; the smaller intervals model the "incremental and very frequent"
// regime (BGP bursts reach thousands of updates/s).
#include "bench_util.h"

using namespace spal;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Sec. 3.2 extension: full flush vs selective invalidation per update",
      "policy,update_interval_cycles,mean_cycles,hit_rate,updates,invalidated_blocks");
  const trace::WorkloadProfile profile = trace::profile_d81();
  std::vector<std::string> entries;
  for (const std::uint64_t interval : {2'000'000ull, 200'000ull, 20'000ull, 2'000ull}) {
    for (const bool selective : {false, true}) {
      core::RouterConfig config = bench::figure_config(4, args.packets_per_lc);
      config.trie = trie::TrieKind::kDp;
      config.update.interval_cycles = interval;
      config.update_policy =
          selective ? core::RouterConfig::UpdatePolicy::kSelectiveInvalidate
                    : core::RouterConfig::UpdatePolicy::kFlushAll;
      core::RouterSim router(bench::rt2(), config);
      const auto result = router.run_workload(profile);
      std::printf("%s,%llu,%.3f,%.4f,%llu,%llu\n",
                  selective ? "selective" : "flush_all",
                  static_cast<unsigned long long>(interval),
                  result.mean_lookup_cycles(), result.cache_total.hit_rate(),
                  static_cast<unsigned long long>(result.update.applied),
                  static_cast<unsigned long long>(
                      result.update.blocks_invalidated));
      if (args.json) {
        entries.push_back(bench::json_point(
            bench::rowf("policy=%s,interval=%llu",
                        selective ? "selective" : "flush_all",
                        static_cast<unsigned long long>(interval)),
            result));
      }
    }
  }
  bench::write_json_report(args, "update_policy", entries);
  return 0;
}
