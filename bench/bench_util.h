// Shared helpers for the table/figure reproduction benches.
//
// Every figure bench prints one CSV row per plotted point
// (series,x,y[,extra...]) so the paper's figures can be re-plotted
// directly, plus a human-readable header. Benches default to 100,000
// packets per LC for quick runs; pass --full for the paper's 300,000 (or
// --packets=N for anything else).
//
// With --json[=path], benches additionally emit a machine-readable report:
// one JSON object per simulated point embedding RouterResult::to_json()
// (per-LC cache/FE/fabric/latency metrics — schema in DESIGN.md). The
// report goes to `path`, or to stdout after the CSV when no path is given.
// `tools/spal_report` validates the cross-component invariants of such a
// report and diffs two reports for metric regressions.
#pragma once

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/spal.h"
#include "sim/sweep.h"
#include "trie/simd_dispatch.h"

namespace spal::bench {

struct BenchArgs {
  std::size_t packets_per_lc = 100'000;
  bool full = false;
  bool json = false;        ///< --json[=path]: emit the JSON report
  std::string json_path;    ///< empty = stdout
  /// --batch=N: LPM lookup batch width for the host-side measurements
  /// (1 = the scalar path; > 1 routes through lookup_batch in chunks of N).
  std::size_t batch = 8;
  bool batch_set = false;  ///< --batch was given explicitly
  /// Fault-injection knobs (bench_fault): --drop-rate=F is the per-message
  /// loss probability in [0,1], --outage=N a port-0..k outage length in
  /// cycles, --max-retries=N the retransmit budget before the degraded
  /// fallback. All validated strictly; out-of-range or non-numeric values
  /// exit 2.
  double drop_rate = 0.0;
  bool drop_rate_set = false;
  std::uint64_t outage_cycles = 0;
  bool outage_set = false;
  int max_retries = 3;
  /// Live route-update knobs (bench_update): --update-rate=N injects N
  /// updates per million cycles, --update-seed=N seeds the stream,
  /// --trie=dp|lulea|lc|stride|gupta|binary picks the FE structure,
  /// --verify checks every resolved hop against the churning oracle.
  std::uint64_t update_rate = 0;  ///< updates per 1M cycles
  bool update_rate_set = false;
  std::uint64_t update_seed = 7;
  trie::TrieKind trie = trie::TrieKind::kLulea;
  bool trie_set = false;
  bool verify = false;
  /// --simd=generic|sse42|avx2|auto pins the batch-lookup dispatch level
  /// for the whole process (applied immediately via trie::set_simd_mode, so
  /// it also overrides a SPAL_SIMD env setting). Unknown levels exit 2.
  /// Requests above the CPU's capability clamp to the detected level with a
  /// warning, exactly like the env variable.
  bool simd_set = false;
  /// --table-size=N: target prefix count for the internet-scale bench
  /// (bench_scale; 0 = the bench's default, the ~1M-route modern DFZ).
  /// Lets the ctest smoke and the sanitizer jobs run the same binary at a
  /// size they can afford.
  std::size_t table_size = 0;
  bool table_size_set = false;
  /// Failover knobs (bench_failover): --replicas=N homes each fragment on
  /// its primary plus N ring-placed replica LCs, --suspect-after=N sets the
  /// health tracker's alive->suspect timeout streak (down follows at 2N),
  /// --migrate=FROM:TO schedules one live fragment migration mid-run. All
  /// validated strictly; malformed values exit 2.
  int replicas = 0;
  bool replicas_set = false;
  int suspect_after = 2;
  int migrate_from = -1;
  int migrate_to = -1;
  bool migrate_set = false;
  /// Load-balance knobs (bench_loadbalance): --balance=<count|traffic> pins
  /// the partitioning policy axis (count-balanced vs traffic-weighted),
  /// --rebalance-window=N sets the online rebalancer's sampling window in
  /// cycles (positive), and --inject-staleness arms the rebalancer's
  /// staleness fault hook so the verify sweep must exit nonzero (the
  /// WILL_FAIL CI leg). All validated strictly; malformed values exit 2.
  bool balance_traffic = false;
  bool balance_set = false;
  std::uint64_t rebalance_window = 0;
  bool rebalance_window_set = false;
  bool inject_staleness = false;

  /// Parses the shared bench flags. Malformed values (--packets=0 or
  /// --batch=0, negative or non-numeric counts) and unknown flags are
  /// rejected with exit code 2 instead of silently running a meaningless
  /// simulation.
  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--full") == 0) {
        args.full = true;
        args.packets_per_lc = 300'000;  // the paper's per-LC packet count
      } else if (std::strncmp(arg, "--packets=", 10) == 0) {
        args.packets_per_lc = parse_count(arg + 10, "--packets");
      } else if (std::strncmp(arg, "--batch=", 8) == 0) {
        args.batch = parse_count(arg + 8, "--batch");
        args.batch_set = true;
      } else if (std::strncmp(arg, "--drop-rate=", 12) == 0) {
        args.drop_rate = parse_fraction(arg + 12, "--drop-rate");
        args.drop_rate_set = true;
      } else if (std::strncmp(arg, "--outage=", 9) == 0) {
        args.outage_cycles = parse_nonnegative(arg + 9, "--outage");
        args.outage_set = true;
      } else if (std::strncmp(arg, "--max-retries=", 14) == 0) {
        const std::uint64_t retries =
            parse_nonnegative(arg + 14, "--max-retries");
        if (retries > 64) {
          std::fprintf(stderr, "--max-retries expects at most 64, got %llu\n",
                       static_cast<unsigned long long>(retries));
          usage_error(nullptr);
        }
        args.max_retries = static_cast<int>(retries);
      } else if (std::strncmp(arg, "--update-rate=", 14) == 0) {
        args.update_rate = parse_nonnegative(arg + 14, "--update-rate");
        args.update_rate_set = true;
      } else if (std::strncmp(arg, "--update-seed=", 14) == 0) {
        args.update_seed = parse_nonnegative(arg + 14, "--update-seed");
      } else if (std::strncmp(arg, "--trie=", 7) == 0) {
        const auto kind = trie::trie_kind_from_string(arg + 7);
        if (!kind.has_value()) {
          std::fprintf(stderr, "--trie expects a known trie kind, got '%s'\n",
                       arg + 7);
          usage_error(nullptr);
        }
        args.trie = *kind;
        args.trie_set = true;
      } else if (std::strncmp(arg, "--simd=", 7) == 0) {
        const auto mode = trie::simd_mode_from_string(arg + 7);
        if (!mode.has_value()) {
          std::fprintf(stderr,
                       "--simd expects generic, sse42, avx2, or auto, got "
                       "'%s'\n",
                       arg + 7);
          usage_error(nullptr);
        }
        args.simd_set = true;
        trie::set_simd_mode(*mode);
      } else if (std::strncmp(arg, "--table-size=", 13) == 0) {
        args.table_size = parse_count(arg + 13, "--table-size");
        args.table_size_set = true;
      } else if (std::strncmp(arg, "--replicas=", 11) == 0) {
        const std::uint64_t replicas = parse_nonnegative(arg + 11, "--replicas");
        if (replicas > 64) {
          std::fprintf(stderr, "--replicas expects at most 64, got %llu\n",
                       static_cast<unsigned long long>(replicas));
          usage_error(nullptr);
        }
        args.replicas = static_cast<int>(replicas);
        args.replicas_set = true;
      } else if (std::strncmp(arg, "--suspect-after=", 16) == 0) {
        const std::size_t streak = parse_count(arg + 16, "--suspect-after");
        if (streak > 1024) {
          std::fprintf(stderr, "--suspect-after expects at most 1024, got "
                       "'%s'\n", arg + 16);
          usage_error(nullptr);
        }
        args.suspect_after = static_cast<int>(streak);
      } else if (std::strncmp(arg, "--migrate=", 10) == 0) {
        parse_migrate(arg + 10, args);
        args.migrate_set = true;
      } else if (std::strncmp(arg, "--balance=", 10) == 0) {
        const char* policy = arg + 10;
        if (std::strcmp(policy, "count") == 0) {
          args.balance_traffic = false;
        } else if (std::strcmp(policy, "traffic") == 0) {
          args.balance_traffic = true;
        } else {
          std::fprintf(stderr, "--balance expects count or traffic, got '%s'\n",
                       policy);
          usage_error(nullptr);
        }
        args.balance_set = true;
      } else if (std::strncmp(arg, "--rebalance-window=", 19) == 0) {
        args.rebalance_window =
            parse_count(arg + 19, "--rebalance-window");
        args.rebalance_window_set = true;
      } else if (std::strcmp(arg, "--inject-staleness") == 0) {
        args.inject_staleness = true;
      } else if (std::strcmp(arg, "--verify") == 0) {
        args.verify = true;
      } else if (std::strcmp(arg, "--json") == 0) {
        args.json = true;
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        args.json = true;
        args.json_path = arg + 7;
        if (args.json_path.empty()) usage_error("--json= requires a path");
      } else {
        std::fprintf(stderr, "unknown flag '%s'\n", arg);
        usage_error(nullptr);
      }
    }
    return args;
  }

 private:
  [[noreturn]] static void usage_error(const char* message) {
    if (message != nullptr) std::fprintf(stderr, "%s\n", message);
    std::fprintf(stderr,
                 "usage: [--full] [--packets=N] [--batch=N] "
                 "[--drop-rate=F] [--outage=N] [--max-retries=N] "
                 "[--update-rate=N] [--update-seed=N] [--trie=KIND] "
                 "[--table-size=N] [--replicas=N] [--suspect-after=N] "
                 "[--migrate=FROM:TO] "
                 "[--balance=count|traffic] [--rebalance-window=N] "
                 "[--inject-staleness] "
                 "[--simd=generic|sse42|avx2|auto] [--verify] "
                 "[--json[=path]]\n");
    std::exit(2);
  }

  static std::size_t parse_count(const char* text, const char* flag) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || end == text || *end != '\0' ||
        errno != 0 || value == 0) {
      std::fprintf(stderr, "%s expects a positive integer, got '%s'\n", flag,
                   text);
      usage_error(nullptr);
    }
    return static_cast<std::size_t>(value);
  }

  /// Non-negative integer (0 allowed — "no outage" / "no retries" are valid
  /// sweep points, unlike a zero packet count).
  static std::uint64_t parse_nonnegative(const char* text, const char* flag) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || end == text || *end != '\0' ||
        errno != 0) {
      std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n",
                   flag, text);
      usage_error(nullptr);
    }
    return static_cast<std::uint64_t>(value);
  }

  /// FROM:TO pair of distinct LC indices ("1:3"). The bench validates the
  /// indices against its ψ; this only enforces shape and distinctness.
  static void parse_migrate(const char* text, BenchArgs& args) {
    errno = 0;
    char* end = nullptr;
    const long from = std::strtol(text, &end, 10);
    if (end == text || *end != ':' || errno != 0 || from < 0) {
      std::fprintf(stderr, "--migrate expects FROM:TO, got '%s'\n", text);
      usage_error(nullptr);
    }
    const char* to_text = end + 1;
    const long to = std::strtol(to_text, &end, 10);
    if (end == to_text || *end != '\0' || errno != 0 || to < 0 || to == from) {
      std::fprintf(stderr,
                   "--migrate expects distinct non-negative FROM:TO, got "
                   "'%s'\n",
                   text);
      usage_error(nullptr);
    }
    args.migrate_from = static_cast<int>(from);
    args.migrate_to = static_cast<int>(to);
  }

  /// Probability in [0, 1]; rejects non-numeric text and out-of-range values.
  static double parse_fraction(const char* text, const char* flag) {
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (*text == '\0' || end == text || *end != '\0' || errno != 0 ||
        value < 0.0 || value > 1.0) {
      std::fprintf(stderr, "%s expects a probability in [0,1], got '%s'\n",
                   flag, text);
      usage_error(nullptr);
    }
    return value;
  }
};

/// RT_2 stand-in, generated once per process (the paper presents RT_2
/// results; RT_1 trends match).
inline const net::RouteTable& rt2() {
  static const net::RouteTable table = net::make_rt2();
  return table;
}

inline const net::RouteTable& rt1() {
  static const net::RouteTable table = net::make_rt1();
  return table;
}

/// The paper's simulated case for Figs. 4-6: 40 Gbps LCs, 40-cycle (Lulea)
/// FE lookups.
inline core::RouterConfig figure_config(int num_lcs, std::size_t packets_per_lc) {
  core::RouterConfig config = core::spal_default_config(num_lcs);
  config.line_rate_gbps = 40.0;
  config.fe_service_cycles = 40;
  config.packets_per_lc = packets_per_lc;
  return config;
}

inline void print_header(const char* title, const char* columns) {
  std::printf("# %s\n", title);
  std::printf("# paper: SPAL (Tzeng, ICPP 2004); tables/traces are synthetic "
              "stand-ins, see DESIGN.md\n");
  std::printf("%s\n", columns);
}

/// printf-style formatting into a std::string (for sweep points that build
/// their CSV row off the main thread).
inline std::string rowf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buffer[512];
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

/// One simulated point's output: the CSV row (always printed) and its JSON
/// report entry (collected when --json is on; empty otherwise). Sweep
/// lambdas build both off the main thread; emission stays in point order.
struct PointOutput {
  std::string row;
  std::string json;
};

/// Renders one JSON report entry: the point's label (e.g.
/// "trace=D_75,gamma=50") and the full RouterResult.
inline std::string json_point(const std::string& label,
                              const core::RouterResult& result) {
  return "{\"label\":\"" + label + "\",\"result\":" + result.to_json() + "}";
}

/// Writes the JSON report (no-op unless --json): a single object naming the
/// bench and carrying one entry per point. Exits nonzero if the path cannot
/// be written so CI never mistakes a missing report for a passing run.
inline void write_json_report(const BenchArgs& args, const char* bench,
                              const std::vector<std::string>& entries) {
  if (!args.json) return;
  std::string doc = "{\"bench\":\"";
  doc += bench;
  doc += "\",\"schema\":1,\"points\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) doc += ',';
    doc += entries[i];
  }
  doc += "]}\n";
  if (args.json_path.empty()) {
    std::fputs(doc.c_str(), stdout);
    return;
  }
  std::FILE* file = std::fopen(args.json_path.c_str(), "w");
  if (file == nullptr ||
      std::fwrite(doc.data(), 1, doc.size(), file) != doc.size() ||
      std::fclose(file) != 0) {
    std::fprintf(stderr, "cannot write JSON report to '%s'\n",
                 args.json_path.c_str());
    std::exit(1);
  }
}

/// Runs fn over every point on the parallel sweep runner (worker count from
/// SPAL_SWEEP_THREADS or the hardware) and prints the returned rows in point
/// order — output is byte-identical to a sequential run.
template <typename Point, typename Fn>
void print_sweep(const std::vector<Point>& points, Fn fn) {
  for (const std::string& row : sim::parallel_sweep(points, std::move(fn))) {
    std::fputs(row.c_str(), stdout);
  }
}

/// print_sweep for PointOutput-producing lambdas: prints the CSV rows in
/// point order and returns the JSON entries (empty strings filtered out)
/// for write_json_report.
template <typename Point, typename Fn>
std::vector<std::string> run_sweep(const std::vector<Point>& points, Fn fn) {
  std::vector<std::string> entries;
  for (PointOutput& out : sim::parallel_sweep(points, std::move(fn))) {
    std::fputs(out.row.c_str(), stdout);
    if (!out.json.empty()) entries.push_back(std::move(out.json));
  }
  return entries;
}

}  // namespace spal::bench
