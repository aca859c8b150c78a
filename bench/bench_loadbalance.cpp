// Load-balance sweep: traffic-aware partitioning and the online rebalancer
// against the count-balanced baseline, across workload shapes.
//
// Sweeps workload ∈ {uniform, zipf-1.0, flash-crowd, scan} × ψ ∈ {4, 16} ×
// policy ∈ {count, traffic, rebalance} on RT_2. `count` is the paper's
// prefix-count-balanced partition; `traffic` feeds the workload's
// per-prefix popularity weights (TraceGenerator::prefix_weights) into the
// weighted partitioner; `rebalance` keeps the count partition but runs the
// online LoadRebalancer, which samples per-LC arrival counters and live-
// migrates the hottest fragment off the most loaded LC (route churn runs
// concurrently so migrations exercise the delta-replay path). Per point the
// bench reports Jain's fairness index and the max per-LC load share, both
// for the partition's *expected* load under the workload's weight vector
// (static, packet-count independent) and for the *measured* per-LC FE
// lookup counts.
//
// Every run executes in verify mode and the bench exits nonzero if any
// packet is unaccounted for or disagrees with the churning full-table
// oracle, the expected-load vector breaks conservation (Σ per-LC loads must
// equal Σ weights — a star-bit prefix splits, never duplicates, its load),
// the rebalancer ledger breaks its conservation rules, the weighted
// partition's expected max load exceeds the count-balanced one anywhere, or
// — the paper-facing claim — traffic-aware partitioning fails to strictly
// improve Jain's fairness and max load share over count-balanced under
// Zipf-1.0 at ψ = 16.
//
// `--balance=count|traffic` pins the static-policy axis (the rebalance leg
// is skipped), `--rebalance-window=N` overrides the sampling window, and
// `--inject-staleness` arms the rebalancer's inject_stale fault hook — the
// cut-over structure misses the deltas buffered mid-copy, so the verify
// sweep MUST exit nonzero (the WILL_FAIL CI leg). With --json, static
// points additionally emit a `partition_balance` entry that
// `spal_report --check` recomputes from the raw per-LC load vector.
#include <cmath>

#include "bench_util.h"
#include "partition/weighted.h"

using namespace spal;

namespace {

enum class Policy { kCount, kTraffic, kRebalance };

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kCount: return "count";
    case Policy::kTraffic: return "traffic";
    case Policy::kRebalance: return "rebalance";
  }
  return "?";
}

struct Point {
  trace::WorkloadProfile profile;
  int psi;
  Policy policy;
};

struct PointResult {
  bench::PointOutput out;
  std::string balance_json;  ///< partition_balance entry (static policies)
  bool ok = false;
  double expected_jain = 0.0;
  double expected_max_share = 0.0;
  double measured_jain = 0.0;
  double measured_max_share = 0.0;
};

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The raw material for the `partition_balance` report point: ψ, the load
/// vector, its total, and the two fairness summaries — all recomputable
/// from `per_lc_loads` alone, which is exactly what spal_report --check
/// does.
std::string balance_entry(const std::string& label, int psi, Policy policy,
                          const std::vector<double>& loads) {
  std::string out = "{\"label\":\"" + label + "\",\"result\":{";
  out += "\"kind\":\"partition_balance\",";
  out += "\"psi\":" + std::to_string(psi) + ',';
  out += "\"balance\":\"" + std::string(policy_name(policy)) + "\",";
  double total = 0.0;
  for (const double x : loads) total += x;
  out += "\"total_weight\":" + fmt_double(total) + ',';
  out += "\"jain_fairness\":" + fmt_double(partition::jain_fairness(loads)) +
         ',';
  out += "\"max_share\":" + fmt_double(partition::max_share(loads)) + ',';
  out += "\"per_lc_loads\":[";
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt_double(loads[i]);
  }
  out += "]}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Load balance: count vs traffic-weighted partitioning vs the online "
      "rebalancer, by workload",
      "workload,psi,policy,expected_jain,expected_max_share,measured_jain,"
      "measured_max_share,mean_cycles,p99_cycles,skew_detections,"
      "completed_migrations");
  bench::rt2();

  const std::vector<trace::WorkloadProfile> workloads{
      trace::profile_uniform(), trace::profile_zipf1(),
      trace::profile_flash_crowd(), trace::profile_scan()};
  const std::vector<int> psis{4, 16};
  std::vector<Policy> policies;
  if (args.balance_set) {
    policies = {args.balance_traffic ? Policy::kTraffic : Policy::kCount};
  } else {
    policies = {Policy::kCount, Policy::kTraffic, Policy::kRebalance};
  }
  // At 40 Gbps the mean inter-arrival is 10 cycles, so the trace spans
  // about 10 × packets_per_lc cycles; the default window gives the
  // rebalancer several sampling rounds within the trace.
  const std::uint64_t est_horizon =
      10 * static_cast<std::uint64_t>(args.packets_per_lc);
  const std::uint64_t window = args.rebalance_window_set
                                   ? args.rebalance_window
                                   : std::max<std::uint64_t>(1, est_horizon / 8);

  std::vector<Point> points;
  for (const auto& workload : workloads) {
    for (const int psi : psis) {
      for (const Policy policy : policies) {
        points.push_back(Point{workload, psi, policy});
      }
    }
  }

  const auto outputs = sim::parallel_sweep(points, [&](const Point& point) {
    const trace::TraceGenerator generator(point.profile, bench::rt2());
    const std::vector<double> weights = generator.prefix_weights();

    core::RouterConfig config =
        bench::figure_config(point.psi, args.packets_per_lc);
    if (point.policy == Policy::kTraffic) {
      config.partition_config.weights = weights;
    } else if (point.policy == Policy::kRebalance) {
      config.rebalancer.enabled = true;
      config.rebalancer.window_cycles = window;
      config.rebalancer.skew_threshold = 1.1;
      config.rebalancer.max_migrations = 8;
      config.rebalancer.inject_stale = args.inject_staleness;
      // Concurrent route churn, so migrations cross live updates and the
      // delta replay into the staged structure is what verify audits (and
      // what --inject-staleness breaks).
      config.update.interval_cycles = std::max<std::uint64_t>(1, window / 20);
      config.update.count = 200;
      config.update.seed = args.update_seed;
    }

    core::RouterSim router(bench::rt2(), config);
    const auto result = router.run_workload(point.profile, /*verify=*/true);

    // Static expected load of the partition the router actually built,
    // under this workload's weight vector.
    const std::vector<double> expected =
        partition::expected_loads(router.rot(), bench::rt2(), weights);
    std::vector<double> measured;
    measured.reserve(result.per_lc.size());
    for (const auto& lc : result.per_lc) {
      measured.push_back(static_cast<double>(lc.fe_lookups));
    }

    const std::uint64_t injected =
        static_cast<std::uint64_t>(args.packets_per_lc) *
        static_cast<std::uint64_t>(point.psi);
    const auto check = [&](bool held, const char* what) {
      if (!held) {
        std::fprintf(stderr, "bench_loadbalance: %s psi=%d policy=%s: %s\n",
                     point.profile.name.c_str(), point.psi,
                     policy_name(point.policy), what);
      }
      return held;
    };
    bool ok = check(result.resolved_packets == injected,
                    bench::rowf("packets lost (%llu resolved of %llu)",
                                static_cast<unsigned long long>(
                                    result.resolved_packets),
                                static_cast<unsigned long long>(injected))
                        .c_str());
    ok &= check(result.verify_mismatches == 0, "stale resolutions");
    ok &= check(result.latency.count() == injected, "latency count mismatch");
    // Conservation: a star-bit prefix splits its load across the fragments
    // it replicates into; nothing is created or lost.
    double weight_total = 0.0;
    for (const double w : weights) weight_total += w;
    double expected_total = 0.0;
    for (const double x : expected) expected_total += x;
    ok &= check(std::abs(expected_total - weight_total) <=
                    1e-9 * std::max(1.0, weight_total),
                "expected-load conservation broke");
    const auto& rb = result.rebalancer;
    if (point.policy == Policy::kRebalance) {
      // The rebalancer ledger rules spal_report --check enforces.
      ok &= check(rb.enabled && rb.skew_detections <= rb.windows,
                  "detections exceed windows");
      ok &= check(rb.skew_detections ==
                      rb.migrations_triggered + rb.skipped_in_flight +
                          rb.skipped_no_target + rb.skipped_budget,
                  "detection ledger broke");
      ok &= check(rb.completed_migrations + rb.aborted_migrations <=
                      rb.migrations_triggered,
                  "migration outcomes exceed triggers");
      ok &= check(result.failover.migrations == rb.completed_migrations,
                  "cutover count disagrees with failover ledger");
    }

    PointResult pr;
    pr.ok = ok;
    pr.expected_jain = partition::jain_fairness(expected);
    pr.expected_max_share = partition::max_share(expected);
    pr.measured_jain = partition::jain_fairness(measured);
    pr.measured_max_share = partition::max_share(measured);
    pr.out.row = bench::rowf(
        "%s,%d,%s,%.4f,%.4f,%.4f,%.4f,%.3f,%llu,%llu,%llu%s\n",
        point.profile.name.c_str(), point.psi, policy_name(point.policy),
        pr.expected_jain, pr.expected_max_share, pr.measured_jain,
        pr.measured_max_share, result.mean_lookup_cycles(),
        static_cast<unsigned long long>(result.latency.percentile(0.99)),
        static_cast<unsigned long long>(rb.skew_detections),
        static_cast<unsigned long long>(rb.completed_migrations),
        ok ? "" : ",CONSERVATION_FAILURE");
    if (args.json) {
      const std::string label = bench::rowf(
          "workload=%s,psi=%d,policy=%s", point.profile.name.c_str(),
          point.psi, policy_name(point.policy));
      pr.out.json = bench::json_point(label, result);
      if (point.policy != Policy::kRebalance) {
        pr.balance_json = balance_entry(label, point.psi, point.policy,
                                        expected);
      }
    }
    return pr;
  });

  int failures = 0;
  std::vector<std::string> entries;
  for (const auto& pr : outputs) {
    std::fputs(pr.out.row.c_str(), stdout);
    if (!pr.out.json.empty()) entries.push_back(pr.out.json);
    if (!pr.balance_json.empty()) entries.push_back(pr.balance_json);
    if (!pr.ok) ++failures;
  }

  // Cross-policy invariants over the expected-load summaries.
  const auto find = [&](const trace::WorkloadProfile& w, int psi,
                        Policy policy) -> const PointResult* {
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].profile.name == w.name && points[i].psi == psi &&
          points[i].policy == policy) {
        return &outputs[i];
      }
    }
    return nullptr;
  };
  for (const auto& workload : workloads) {
    for (const int psi : psis) {
      const PointResult* count = find(workload, psi, Policy::kCount);
      const PointResult* traffic = find(workload, psi, Policy::kTraffic);
      if (count == nullptr || traffic == nullptr) continue;
      // Construction guarantee: the weighted partitioner evaluates the
      // count-balanced candidate too and keeps the better one, so its max
      // expected share can never exceed count-balanced.
      if (traffic->expected_max_share >
          count->expected_max_share + 1e-9) {
        std::fprintf(stderr,
                     "bench_loadbalance: %s psi=%d weighted max share %.6f "
                     "exceeds count-balanced %.6f\n",
                     workload.name.c_str(), psi, traffic->expected_max_share,
                     count->expected_max_share);
        ++failures;
      }
      // The paper-facing claim: under the canonical Zipf-1.0 skew at
      // ψ = 16, traffic-aware partitioning strictly improves both fairness
      // summaries over count-balanced.
      if (workload.name == "zipf-1.0" && psi == 16) {
        if (!(traffic->expected_jain > count->expected_jain &&
              traffic->expected_max_share < count->expected_max_share)) {
          std::fprintf(
              stderr,
              "bench_loadbalance: zipf-1.0 psi=16 weighted partitioning did "
              "not improve on count-balanced (jain %.6f vs %.6f, max share "
              "%.6f vs %.6f)\n",
              traffic->expected_jain, count->expected_jain,
              traffic->expected_max_share, count->expected_max_share);
          ++failures;
        }
      }
    }
  }

  bench::write_json_report(args, "loadbalance", entries);
  if (failures > 0) {
    std::fprintf(stderr, "bench_loadbalance: %d point(s) failed\n", failures);
    return 1;
  }
  return 0;
}
