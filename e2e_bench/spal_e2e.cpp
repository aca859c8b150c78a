// End-to-end SPAL benchmark harness (driven by run.py; see README.md).
//
// Runs one workload per process on a single thread and drives only the
// public API: table generator -> RouterSim/RouterSim6 -> TraceGenerator{,6}
// -> run(). The simulated side is an open loop: arrivals are fixed at the
// RouterConfig line rate (40 Gbps per LC) by sim::generate_arrival_times and
// latency counts from each packet's arrival. The host side is a batch: each
// repetition resolves the whole trace as fast as it can.
//
// --trace 0 repeats {set-up, untraced run} after one untimed warm-up until
// --seconds have elapsed and reports the end-to-end metrics (run() time
// averaged and set-up time a median over repetitions); it then runs the
// workload once more in verify mode and checks that every repetition
// reproduced the same simulated report byte for byte.
// --trace 1 runs the workload once in verify mode under spans, replays the
// workload's own inputs through each layer's public functions to price one
// call of each, repeats untraced runs to measure the tracing overhead, and
// reports the per-layer metrics. Spans go to --spans as trace-event JSON.
//
// The last stdout line is the result object; the line before it records
// the host, the build and the seeds. Exit status: 0 when every packet
// resolved to the oracle's next hop and every run reproduced the reference
// report, 1 otherwise, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/spal.h"
#include "trie/simd_dispatch.h"

#ifndef SPAL_E2E_BUILD_TYPE
#define SPAL_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace spal;
using Clock = std::chrono::steady_clock;

// --- Workloads ---------------------------------------------------------

/// Packets per run, split evenly over the ψ LCs: every workload resolves
/// the same total, 100k packets per LC at ψ = 16 as in the paper's runs.
constexpr std::size_t kPacketsPerRun = 1'600'000;
/// churn_psi16's live update rate (bench_update's top rate).
constexpr std::uint64_t kChurnUpdatesPerMcycle = 10'000;
/// Fewest timed untraced repetitions per process, whatever --seconds says.
constexpr std::size_t kMinReps = 3;

struct Workload {
  const char* name;
  int psi;
  bool v6;
  trace::WorkloadProfile (*profile)();
  bool churn;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const Workload kWorkloads[] = {
    {"d75_psi16", 16, false, trace::profile_d75, false},
    {"l92_psi4", 4, false, trace::profile_l92_0, false},
    {"churn_psi16", 16, false, trace::profile_d75, true},
    {"v6_psi16", 16, true, trace::profile_d75, false},
};

// --- Address families ----------------------------------------------------

struct V4 {
  using Addr = net::Ipv4Addr;
  using Table = net::RouteTable;
  using Router = core::RouterSim;
  using Partition = partition::RotPartition;
  using TraceGen = trace::TraceGenerator;
  using Fe = std::unique_ptr<trie::LpmIndex>;
  using Oracle = trie::BinaryTrie;
  using Update = net::TableUpdate;
  static constexpr std::uint64_t kTableSeed = 0x5eed'0002;  // make_rt2()

  static Table make_table(std::uint64_t seed) {
    if (seed == kTableSeed) return net::make_rt2();
    net::TableGenConfig config;  // RT_2's shape, drawn from another seed
    config.size = 140'838;
    config.seed = seed;
    return net::generate_table(config);
  }
  static std::unique_ptr<Partition> make_partition(
      const Table& table, const core::RouterConfig& config) {
    return std::make_unique<Partition>(table, config.num_lcs,
                                       config.partition_config);
  }
  static Fe build_fe(const Table& table, const core::RouterConfig& config) {
    return trie::build_lpm(config.trie, table, config.trie_options);
  }
  static bool supports_update(const Fe& fe) {
    return fe->supports_incremental_update();
  }
  static void apply(Fe& fe, const Update& update) {
    if (update.kind == net::UpdateKind::kWithdraw) {
      fe->remove(update.prefix);
    } else {
      fe->insert(update.prefix, update.next_hop);
    }
  }
  static std::vector<Update> make_updates(const Table& table,
                                          const net::UpdateStreamConfig& c) {
    return net::generate_update_stream(table, c);
  }
  static net::NextHop lookup(const Fe& fe, Addr addr) { return fe->lookup(addr); }
};

struct V6 {
  using Addr = net::Ipv6Addr;
  using Table = net::RouteTable6;
  using Router = core::RouterSim6;
  using Partition = partition::RotPartition6;
  using TraceGen = trace::TraceGenerator6;
  using Fe = trie::DpTrie6;
  using Oracle = trie::BinaryTrie6;
  using Update = net::TableUpdate6;
  static constexpr std::uint64_t kTableSeed = 0x5eed'0011;  // make_rt6_internet()

  static Table make_table(std::uint64_t seed) {
    if (seed == kTableSeed) return net::make_rt6_internet();
    net::TableGen6Config config;  // make_rt6_internet's shape, another seed
    config.size = 220'000;
    config.seed = seed;
    config.next_hops = 64;
    return net::generate_table6(config);
  }
  static std::unique_ptr<Partition> make_partition(
      const Table& table, const core::RouterConfig& config) {
    return std::make_unique<Partition>(table, config.num_lcs,
                                       config.partition6_config);
  }
  // RouterSim6 always builds DpTrie6 FEs, whatever config.trie says.
  static Fe build_fe(const Table& table, const core::RouterConfig&) {
    return Fe(table);
  }
  static bool supports_update(const Fe&) { return true; }
  static void apply(Fe& fe, const Update& update) {
    if (update.kind == net::UpdateKind::kWithdraw) {
      fe.remove(update.prefix);
    } else {
      fe.insert(update.prefix, update.next_hop);
    }
  }
  static std::vector<Update> make_updates(const Table& table,
                                          const net::UpdateStreamConfig& c) {
    return net::generate_update_stream6(table, c);
  }
  static net::NextHop lookup(const Fe& fe, const Addr& addr) {
    return fe.lookup(addr);
  }
};

// --- Options -------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::optional<std::uint64_t> table_seed;
  std::optional<std::uint64_t> trace_seed;
  std::optional<std::uint64_t> update_seed;
  std::size_t packets = kPacketsPerRun;
  std::string spans_path;
};

[[noreturn]] void usage(const char* message, const char* value = "") {
  std::fprintf(stderr, "spal_e2e: %s%s\n", message, value);
  std::fprintf(stderr,
               "usage: spal_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--table-seed N] [--trace-seed N] "
               "[--update-seed N] [--packets N] [--spans PATH]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (*text == '\0' || *text == '-' || *end != '\0' || errno != 0) {
    usage(flag, " expects a non-negative integer");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  bool seed_set = false, seconds_set = false, trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for ", argv[i]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string_view(value)) o.workload = &w;
      }
      if (o.workload == nullptr) usage("unknown workload ", value);
    } else if (flag == "--seed") {
      o.seed = parse_u64(argv[i - 1], value);
      seed_set = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 3600.0) {
        usage("--seconds expects a positive number, got ", value);
      }
      seconds_set = true;
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        usage("--trace expects 0 or 1, got ", value);
      }
      o.trace = std::string_view(value) == "1";
      trace_set = true;
    } else if (flag == "--table-seed") {
      o.table_seed = parse_u64(argv[i - 1], value);
    } else if (flag == "--trace-seed") {
      o.trace_seed = parse_u64(argv[i - 1], value);
    } else if (flag == "--update-seed") {
      o.update_seed = parse_u64(argv[i - 1], value);
    } else if (flag == "--packets") {
      o.packets = parse_u64(argv[i - 1], value);
      if (o.packets < 16 || o.packets > 100'000'000) {
        usage("--packets expects 16..100000000, got ", value);
      }
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      usage("unknown flag ", argv[i - 1]);
    }
  }
  if (o.workload == nullptr || !seed_set || !seconds_set || !trace_set) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

// --- Timing and spans ------------------------------------------------------

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// In-memory span log (name, start, end, parent), written out once at the
/// end of the process as trace-event JSON ("X" complete events, µs).
class Spans {
 public:
  void open(std::string name) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    stack_.push_back(spans_.size());
    spans_.push_back(Span{std::move(name), now_us(), 0.0, parent});
  }
  void close() {
    spans_[stack_.back()].end_us = now_us();
    stack_.pop_back();
  }

  bool write(const std::string& path) const {
    std::string doc = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      char buffer[160];
      std::snprintf(buffer, sizeof buffer,
                    ",\"cat\":\"spal\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":",
                    span.start_us, span.end_us - span.start_us, i);
      if (i > 0) doc += ',';
      doc += "{\"name\":" + json_string(span.name) + buffer;
      doc += span.parent < 0 ? "null" : std::to_string(span.parent);
      doc += "}}";
    }
    doc += "],\"displayTimeUnit\":\"ms\"}\n";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const bool written = std::fwrite(doc.data(), 1, doc.size(), file) == doc.size();
    return std::fclose(file) == 0 && written;
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    long parent;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Wall seconds of fn(), recorded as span `name` when `spans` is non-null.
template <typename Fn>
double timed(Spans* spans, const char* name, Fn&& fn) {
  if (spans != nullptr) spans->open(name);
  const auto start = Clock::now();
  fn();
  const double elapsed = seconds_since(start);
  if (spans != nullptr) spans->close();
  return elapsed;
}

/// Median wall seconds of one fn() call over at least five calls, repeated
/// until 0.2 s of timed work or 200 calls; prepare() runs untimed first.
template <typename Prepare, typename Fn>
double replay_median(Prepare&& prepare, Fn&& fn) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 5 || (total < 0.2 && samples.size() < 200)) {
    prepare();
    const auto start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
    total += samples.back();
  }
  return median(samples);
}

// --- Runs and correctness --------------------------------------------------

struct Seeds {
  std::uint64_t table;
  std::uint64_t trace;
  std::uint64_t update;
};

/// Packets (and replayed lookups) attempted and failed across every run of
/// the process, plus the simulated report every run must reproduce.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string reference;

  /// A lost packet, a wrong next hop, or a report that differs from the
  /// first run's (which fails every packet of the run) counts as failed.
  void account(const core::RouterResult& result, std::uint64_t injected) {
    attempted += injected;
    std::uint64_t bad = injected - std::min(result.resolved_packets, injected) +
                        result.verify_mismatches;
    std::string report = result.to_json();
    if (reference.empty()) {
      reference = std::move(report);
    } else if (report != reference) {
      bad = injected;
    }
    failed += std::min(bad, injected);
  }
};

template <typename Fam>
struct Setup {
  typename Fam::Table table;
  std::unique_ptr<typename Fam::Router> router;
  std::vector<std::vector<typename Fam::Addr>> streams;
  double table_s = 0.0;
  double build_s = 0.0;
  double trace_s = 0.0;

  std::uint64_t injected() const {
    std::uint64_t total = 0;
    for (const auto& stream : streams) total += stream.size();
    return total;
  }
};

/// The set-up a user pays before run(): table generation, router
/// construction (partition, FE builds, caches, fabric), trace generation.
template <typename Fam>
std::unique_ptr<Setup<Fam>> set_up(const Workload& workload,
                                   const core::RouterConfig& config,
                                   const Seeds& seeds, Spans* spans) {
  auto s = std::make_unique<Setup<Fam>>();
  if (spans != nullptr) spans->open("setup");
  s->table_s = timed(spans, "net.table_gen",
                     [&] { s->table = Fam::make_table(seeds.table); });
  s->build_s = timed(spans, "core.build", [&] {
    s->router = std::make_unique<typename Fam::Router>(s->table, config);
  });
  s->trace_s = timed(spans, "trace.gen", [&] {
    trace::WorkloadProfile profile = workload.profile();
    profile.seed = seeds.trace;
    const typename Fam::TraceGen generator(profile, s->table);
    for (int lc = 0; lc < config.num_lcs; ++lc) {
      s->streams.push_back(generator.generate(lc, config.packets_per_lc));
    }
  });
  if (spans != nullptr) spans->close();
  return s;
}

struct Sample {
  double table_s;
  double build_s;
  double trace_s;
  double run_s;
  int threads;  ///< worker threads the run used (RouterSim::planned_shards)

  double setup_s() const { return table_s + build_s + trace_s; }
};

/// Median over samples of one field.
double median_of(const std::vector<Sample>& samples, double (*field)(const Sample&)) {
  std::vector<double> values;
  for (const Sample& sample : samples) values.push_back(field(sample));
  return median(values);
}

/// Mean run() time over the samples: total packets over total run time is
/// the throughput. Host speed here flips between a fast and a slow state
/// for tens of seconds at a time; a median jumps between the two, while a
/// mean moves with the share of time spent in each.
double mean_run_s(const std::vector<Sample>& samples) {
  double total = 0.0;
  for (const Sample& sample : samples) total += sample.run_s;
  return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

struct RunInfo {
  std::vector<Sample> samples;  ///< untraced repetitions
  int threads;                  ///< most worker threads any run used
};

RunInfo run_info(std::vector<Sample> samples, int threads) {
  for (const Sample& sample : samples) threads = std::max(threads, sample.threads);
  return RunInfo{std::move(samples), threads};
}

/// JSON array of one field over the samples, for the run record.
std::string json_array(const std::vector<Sample>& samples,
                       double (*field)(const Sample&)) {
  std::string out = "[";
  for (const Sample& sample : samples) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%s%.6g", out.size() > 1 ? "," : "",
                  field(sample));
    out += buffer;
  }
  return out + "]";
}

/// Untraced {set-up, run} repetitions until `seconds` have elapsed (at
/// least kMinReps), after one warm-up repetition that is checked but not
/// timed. Each repetition builds a fresh router, so none pays for undoing
/// a previous run's route updates.
template <typename Fam>
std::vector<Sample> untraced_reps(const Options& o,
                                  const core::RouterConfig& config,
                                  const Seeds& seeds, Ledger& ledger) {
  std::vector<Sample> samples;
  bool warm = false;
  auto start = Clock::now();
  while (!warm || samples.size() < kMinReps || seconds_since(start) < o.seconds) {
    const auto s = set_up<Fam>(*o.workload, config, seeds, nullptr);
    core::RouterResult result;
    const double run_s = timed(nullptr, "core.run", [&] {
      result = s->router->run(s->streams, /*verify=*/false);
    });
    ledger.account(result, s->injected());
    if (warm) {
      samples.push_back(Sample{s->table_s, s->build_s, s->trace_s, run_s,
                               s->router->planned_shards(false)});
    } else {
      warm = true;
      start = Clock::now();
    }
  }
  return samples;
}

/// Metric name -> (value, unit), printed in insertion order.
struct Metrics {
  struct Item {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Item> items;
  void add(const char* name, double value, const char* unit) {
    items.push_back(Item{name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      char buffer[192];
      std::snprintf(buffer, sizeof buffer,
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i > 0 ? "," : "", items[i].name, items[i].value,
                    items[i].unit);
      out += buffer;
    }
    return out + "}";
  }
};

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Lookup-latency percentile with sub-cycle resolution: the integer
/// percentile L of LatencyStats, placed inside its 1-cycle bucket by taking
/// the bucket's samples as spread evenly over (L-1, L]. Deterministic like
/// the integer one, but it moves when the distribution does.
double fine_percentile(const sim::LatencyStats& stats, double q) {
  const std::uint64_t n = stats.count();
  const std::uint64_t level = stats.percentile(q);
  if (n == 0 || level == 0) return 0.0;
  // Samples <= v: the largest rank whose order statistic is <= v.
  const auto at_most = [&](std::uint64_t v) {
    std::uint64_t lo = 0, hi = n;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      const double rank_q = (static_cast<double>(mid) - 0.5) / static_cast<double>(n);
      if (stats.percentile(rank_q) <= v) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return static_cast<double>(lo);
  };
  const double below = at_most(level - 1);
  const double upto = at_most(level);
  return static_cast<double>(level - 1) +
         ratio(q * static_cast<double>(n) - below, upto - below);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- End-to-end (untraced) -------------------------------------------------

template <typename Fam>
RunInfo run_untraced(const Options& o, const core::RouterConfig& config,
                     const Seeds& seeds, Ledger& ledger, Metrics& metrics) {
  const std::vector<Sample> samples = untraced_reps<Fam>(o, config, seeds, ledger);
  const double rss_mb = peak_rss_mb();
  // Verify after timing, so the oracle's lookups and memory stay out of
  // every measurement.
  const auto s = set_up<Fam>(*o.workload, config, seeds, nullptr);
  const core::RouterResult verified = s->router->run(s->streams, /*verify=*/true);
  ledger.account(verified, s->injected());

  const double packets = static_cast<double>(s->injected());
  metrics.add("sim_pps", packets / mean_run_s(samples), "packets/s");
  metrics.add("setup_s", median_of(samples, [](const Sample& x) { return x.setup_s(); }),
              "s");
  metrics.add("peak_rss_mb", rss_mb, "MB");
  metrics.add("mean_lookup_cycles", verified.mean_lookup_cycles(), "cycles");
  metrics.add("p99_lookup_cycles", fine_percentile(verified.latency, 0.99), "cycles");
  metrics.add("p9999_lookup_cycles", fine_percentile(verified.latency, 0.9999),
              "cycles");
  metrics.add("router_mpps",
              verified.router_packets_per_second(config.num_lcs) / 1e6, "Mpps");
  return run_info(samples, s->router->planned_shards(true));
}

// --- Per-layer (traced) ------------------------------------------------------

/// LC 0's stream through a standalone LR-cache: probe, and on a miss
/// reserve then fill. Misses homed at LC 0 are the keys its FE resolves.
template <typename Addr, typename Partition>
void replay_cache(cache::BasicLrCache<Addr>& cache, const std::vector<Addr>& stream,
                  const Partition& part,
                  std::type_identity_t<std::vector<Addr>>* fe_keys) {
  std::uint64_t now = 0;
  for (const Addr& addr : stream) {
    ++now;
    if (cache.probe(addr, now).state != cache::ProbeState::kMiss) continue;
    const bool local = part.home_of(addr) == 0;
    if (local && fe_keys != nullptr) fe_keys->push_back(addr);
    if (cache.reserve(addr, local ? cache::Origin::kLocal : cache::Origin::kRemote,
                      now)) {
      cache.fill(addr, net::NextHop{0}, now);
    }
  }
}

/// Every request of the run's fan-out matrix and its reply, in src-major
/// order at one injection per cycle.
void replay_fabric(fabric::Fabric& fabric, const std::vector<std::uint64_t>& fanout,
                   int psi) {
  std::uint64_t now = 0;
  for (int src = 0; src < psi; ++src) {
    for (int home = 0; home < psi; ++home) {
      const std::uint64_t requests =
          fanout[static_cast<std::size_t>(src * psi + home)];
      for (std::uint64_t k = 0; k < requests; ++k) {
        ++now;
        fabric.try_deliver(src, home, now);
        fabric.try_deliver(home, src, now);
      }
    }
  }
}

/// Schedules every arrival (LC-major, as the router does) and pops them
/// all; returns how many popped in (time) order.
std::uint64_t replay_events(const std::vector<std::vector<std::uint64_t>>& arrivals,
                            std::size_t total, std::uint64_t horizon) {
  sim::CalendarQueue<std::uint64_t> queue;
  queue.reserve(total, horizon);
  std::uint64_t id = 0;
  for (const auto& times : arrivals) {
    for (const std::uint64_t t : times) queue.schedule(t, id++);
  }
  std::uint64_t in_order = 0, last = 0;
  while (!queue.empty()) {
    const std::uint64_t t = queue.pop().first;
    if (t >= last) ++in_order;
    last = t;
  }
  return in_order;
}

template <typename Fam>
RunInfo run_traced(const Options& o, const core::RouterConfig& config,
                   const Seeds& seeds, Ledger& ledger, Metrics& metrics,
                   Spans& spans) {
  using Addr = typename Fam::Addr;
  const int psi = config.num_lcs;
  spans.open(std::string("spal_e2e ") + o.workload->name);
  const auto s = set_up<Fam>(*o.workload, config, seeds, &spans);
  core::RouterResult traced;
  const double traced_run_s = timed(&spans, "core.run", [&] {
    traced = s->router->run(s->streams, /*verify=*/true);
  });
  ledger.account(traced, s->injected());
  const typename Fam::Table& table = s->table;

  spans.open("replay");
  // The builds the router constructor runs, repeated for a median.
  std::unique_ptr<typename Fam::Partition> part;
  double partition_build_s = 0.0;
  timed(&spans, "partition.build", [&] {
    partition_build_s = replay_median([&] { part.reset(); },
                                      [&] { part = Fam::make_partition(table, config); });
  });
  std::vector<typename Fam::Fe> fes;
  double trie_build_s = 0.0;
  timed(&spans, "trie.build", [&] {
    trie_build_s = replay_median([&] { fes.clear(); }, [&] {
      for (int lc = 0; lc < psi; ++lc) {
        fes.push_back(Fam::build_fe(part->table_of(lc), config));
      }
    });
  });

  cache::BasicLrCache<Addr> lr_cache(config.cache);  // LC 0's configuration
  const std::vector<Addr>& stream0 = s->streams[0];
  std::vector<Addr> fe_keys;
  replay_cache(lr_cache, stream0, *part, &fe_keys);
  double probe_s = 0.0;
  timed(&spans, "cache.probe", [&] {
    probe_s = replay_median([&] { lr_cache.reset(); },
                            [&] { replay_cache(lr_cache, stream0, *part, nullptr); });
  });

  // LC 0's FE as the router constructor builds it, on the scalar path FE
  // jobs take. (The router's own FEs have absorbed any churn by now.)
  std::vector<net::NextHop> hops(fe_keys.size());
  double lookup_s = 0.0;
  timed(&spans, "trie.lookup", [&] {
    lookup_s = replay_median([] {}, [&] {
      for (std::size_t i = 0; i < fe_keys.size(); ++i) {
        hops[i] = Fam::lookup(fes[0], fe_keys[i]);
      }
    });
  });
  {
    // A fragment resolves the addresses homed on it exactly as the full
    // table does (the ROT-partition property).
    const typename Fam::Oracle oracle(table);
    ledger.attempted += fe_keys.size();
    for (std::size_t i = 0; i < fe_keys.size(); ++i) {
      if (hops[i] != oracle.lookup(fe_keys[i])) ++ledger.failed;
    }
  }

  double update_gen_s = 0.0, update_s = 0.0, invalidate_s = 0.0;
  std::size_t fragment_updates = 0, invalidations = 0;
  if (traced.update.applied > 0) {
    // The stream the router injected: same count, seed and mix.
    net::UpdateStreamConfig stream_config;
    stream_config.count = traced.update.applied;
    stream_config.seed = config.update.seed;
    stream_config.announce_fraction = config.update.announce_fraction;
    stream_config.withdraw_fraction = config.update.withdraw_fraction;
    stream_config.next_hops = config.update.next_hops;
    std::vector<typename Fam::Update> updates;
    update_gen_s = timed(&spans, "net.update_gen", [&] {
      updates = Fam::make_updates(table, stream_config);
    });
    std::vector<typename Fam::Update> fragment0;
    for (const auto& update : updates) {
      const std::vector<int> homes = part->homes_of(update.prefix);
      if (!homes.empty() && homes.front() == 0) fragment0.push_back(update);
    }
    fragment_updates = fragment0.size();
    if (!fragment0.empty() && Fam::supports_update(fes[0])) {
      std::optional<typename Fam::Fe> fe;
      timed(&spans, "trie.update", [&] {
        update_s = replay_median(
            [&] { fe.emplace(Fam::build_fe(part->table_of(0), config)); },
            [&] {
              for (const auto& update : fragment0) Fam::apply(*fe, update);
            });
      });
    }
    invalidations = updates.size();
    invalidate_s = timed(&spans, "cache.invalidate", [&] {
      for (const auto& update : updates) lr_cache.invalidate_matching(update.prefix);
    });
  }

  fabric::FabricConfig fabric_config = config.fabric;
  fabric_config.ports = psi;
  fabric::Fabric fabric(fabric_config, config.fault);
  std::uint64_t requests = 0;
  for (const std::uint64_t n : traced.remote_fanout) requests += n;
  double deliver_s = 0.0;
  timed(&spans, "fabric.deliver", [&] {
    deliver_s = replay_median([&] { fabric.reset(); },
                              [&] { replay_fabric(fabric, traced.remote_fanout, psi); });
  });

  // The router's per-LC arrival seeds (BasicRouterSim::run).
  std::vector<std::vector<std::uint64_t>> arrivals;
  std::size_t events = 0;
  std::uint64_t horizon = 0;
  for (int lc = 0; lc < psi; ++lc) {
    arrivals.push_back(sim::generate_arrival_times(
        config.line_rate_gbps, s->streams[static_cast<std::size_t>(lc)].size(),
        config.seed ^ (0xabcdef12345ULL + static_cast<std::uint64_t>(lc))));
    events += arrivals.back().size();
    if (!arrivals.back().empty()) horizon = std::max(horizon, arrivals.back().back());
  }
  double event_s = 0.0;
  std::uint64_t in_order = 0;
  timed(&spans, "sim.event", [&] {
    event_s = replay_median([] {}, [&] { in_order = replay_events(arrivals, events, horizon); });
  });
  ledger.attempted += events;
  ledger.failed += events - std::min<std::uint64_t>(in_order, events);
  spans.close();  // replay
  spans.close();  // root

  // Untraced repetitions of the same inputs: the baseline of the tracing
  // overhead, medians for the set-up phases and the mean of the event loop.
  const std::vector<Sample> samples = untraced_reps<Fam>(o, config, seeds, ledger);
  const double table_gen_s = median_of(samples, [](const Sample& x) { return x.table_s; });
  const double core_build_s = median_of(samples, [](const Sample& x) { return x.build_s; });
  const double trace_gen_s = median_of(samples, [](const Sample& x) { return x.trace_s; });
  const double core_run_s = mean_run_s(samples);

  const double packets = static_cast<double>(s->injected());
  const double probe_ns = ratio(probe_s * 1e9, static_cast<double>(stream0.size()));
  const double lookup_ns = ratio(lookup_s * 1e9, static_cast<double>(fe_keys.size()));
  const double update_ns = ratio(update_s * 1e9, static_cast<double>(fragment_updates));
  const double invalidate_us = ratio(invalidate_s * 1e6, static_cast<double>(invalidations));
  const double deliver_ns = ratio(deliver_s * 1e9, 2.0 * static_cast<double>(requests));
  const double event_ns = ratio(event_s * 1e9, static_cast<double>(events));
  std::uint64_t queue_wait = 0;
  for (const core::LcStats& lc : traced.per_lc) queue_wait += lc.fe_queue_wait_cycles;
  const auto sizes = part->partition_sizes();
  const auto storage = s->router->trie_storage_bytes();
  const auto& cache_total = traced.cache_total;
  const auto& update = traced.update;

  // Outside estimate of the loop's unattributed time: every replayed
  // per-call cost times the run's call count, subtracted from core.run_s.
  // Events are estimated as arrivals + FE completions + fabric deliveries +
  // update injections; invalidations as one per application plus one per
  // invalidation message.
  const double estimated_events = packets + static_cast<double>(traced.fe_lookups) +
                                  static_cast<double>(traced.fabric.messages) +
                                  static_cast<double>(update.applied);
  const double attributed_ns =
      probe_ns * static_cast<double>(cache_total.probes) +
      lookup_ns * static_cast<double>(traced.fe_lookups) +
      deliver_ns * static_cast<double>(traced.fabric.messages) +
      event_ns * estimated_events +
      update_ns * static_cast<double>(update.applications) +
      invalidate_us * 1e3 *
          static_cast<double>(update.applications + update.invalidation_messages);

  metrics.add("net.table_gen_s", table_gen_s, "s");
  metrics.add("net.update_gen_s", update_gen_s, "s");
  metrics.add("partition.build_s", partition_build_s, "s");
  metrics.add("partition.max_fragment_prefixes",
              static_cast<double>(*std::max_element(sizes.begin(), sizes.end())),
              "prefixes");
  metrics.add("trie.build_s", trie_build_s, "s");
  metrics.add("trie.max_storage_bytes",
              static_cast<double>(*std::max_element(storage.begin(), storage.end())),
              "bytes");
  metrics.add("trie.lookup_ns", lookup_ns, "ns/key");
  metrics.add("trie.update_ns", update_ns, "ns/op");
  metrics.add("cache.hit_rate", cache_total.hit_rate(), "ratio");
  metrics.add("cache.waiting_share",
              ratio(static_cast<double>(cache_total.waiting_hits),
                    static_cast<double>(cache_total.probes)),
              "ratio");
  metrics.add("cache.probe_ns", probe_ns, "ns/probe");
  metrics.add("cache.invalidate_us", invalidate_us, "us/call");
  metrics.add("fabric.messages_per_packet",
              ratio(static_cast<double>(traced.fabric.messages), packets), "ratio");
  metrics.add("fabric.queueing_cycles_per_message",
              ratio(static_cast<double>(traced.fabric.total_queueing_cycles),
                    static_cast<double>(traced.fabric.messages)),
              "cycles");
  metrics.add("fabric.deliver_ns", deliver_ns, "ns/msg");
  metrics.add("trace.gen_s", trace_gen_s, "s");
  metrics.add("sim.event_ns", event_ns, "ns/event");
  metrics.add("core.build_s", core_build_s, "s");
  metrics.add("core.build_self_s", core_build_s - partition_build_s - trie_build_s, "s");
  metrics.add("core.run_s", core_run_s, "s");
  metrics.add("core.fe_jobs_per_packet",
              ratio(static_cast<double>(traced.fe_lookups), packets), "ratio");
  metrics.add("core.fe_queue_wait_cycles",
              ratio(static_cast<double>(queue_wait),
                    static_cast<double>(traced.fe_lookups)),
              "cycles/job");
  metrics.add("core.fe_utilization_max", traced.max_fe_utilization, "ratio");
  metrics.add("core.remote_share",
              ratio(static_cast<double>(traced.remote_requests), packets), "ratio");
  metrics.add("core.update_applications", static_cast<double>(update.applications),
              "count");
  metrics.add("core.blocks_invalidated", static_cast<double>(update.blocks_invalidated),
              "count");
  metrics.add("core.loop_other_ns_per_packet",
              (core_run_s * 1e9 - attributed_ns) / packets, "ns");
  metrics.add("core.trace_overhead_s", traced_run_s - core_run_s, "s");
  return run_info(samples, s->router->planned_shards(true));
}

// --- Host record -------------------------------------------------------------

int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  std::FILE* file = std::fopen("/proc/cpuinfo", "r");
  if (file == nullptr) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) continue;
    model = colon + 1;
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(" \n") + 1);
    break;
  }
  std::fclose(file);
  return model;
}

template <typename Fam>
int bench(const Options& o) {
  const Workload& workload = *o.workload;
  const Seeds seeds{
      o.table_seed.value_or(Fam::kTableSeed),
      o.trace_seed.value_or(workload.profile().seed + o.seed),
      o.update_seed.value_or(core::RouterConfig{}.update.seed + o.seed)};

  // The RouterConfig defaults a user gets (paper configuration, sequential
  // engine), plus the workload's own trie, churn and packet count.
  core::RouterConfig config = core::spal_default_config(workload.psi);
  config.packets_per_lc = o.packets / static_cast<std::size_t>(workload.psi);
  if (workload.churn) {
    config.trie = trie::TrieKind::kDp;
    config.update_policy = core::RouterConfig::UpdatePolicy::kSelectiveInvalidate;
    config.update.interval_cycles = 1'000'000 / kChurnUpdatesPerMcycle;
    config.update.seed = seeds.update;
  }

  Ledger ledger;
  Metrics metrics;
  Spans spans;
  const RunInfo info =
      o.trace ? run_traced<Fam>(o, config, seeds, ledger, metrics, spans)
              : run_untraced<Fam>(o, config, seeds, ledger, metrics);
  if (o.trace && !o.spans_path.empty() && !spans.write(o.spans_path)) {
    std::fprintf(stderr, "spal_e2e: cannot write spans to '%s'\n",
                 o.spans_path.c_str());
    return 1;
  }

  // The harness starts no thread of its own; a run that used more worker
  // threads than the CPUs the process may use fails the benchmark.
  const int nproc = allowed_cpus();
  if (info.threads > nproc) ledger.failed = ledger.attempted;
  const bool correct = ledger.failed == 0;

  std::printf(
      "{\"record\":{\"workload\":\"%s\",\"trace\":%d,\"seed\":%llu,"
      "\"table_seed\":%llu,\"trace_seed\":%llu,\"update_seed\":%llu,"
      "\"psi\":%d,\"packets\":%zu,\"reps\":%zu,\"run_s\":%s,\"setup_s\":%s,"
      "\"nproc\":%d,\"cpu_model\":%s,"
      "\"simd\":\"%s\",\"build_type\":\"%s\",\"threads_used\":%d,"
      "\"failed_share\":%.17g,\"spans\":%s}}\n",
      workload.name, o.trace ? 1 : 0, static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(seeds.table),
      static_cast<unsigned long long>(seeds.trace),
      static_cast<unsigned long long>(seeds.update), workload.psi,
      config.packets_per_lc * static_cast<std::size_t>(workload.psi),
      info.samples.size(),
      json_array(info.samples, [](const Sample& x) { return x.run_s; }).c_str(),
      json_array(info.samples, [](const Sample& x) { return x.setup_s(); }).c_str(),
      nproc, json_string(cpu_model()).c_str(),
      std::string(trie::to_string(trie::resolved_simd_level())).c_str(),
      SPAL_E2E_BUILD_TYPE, info.threads,
      ratio(static_cast<double>(ledger.failed), static_cast<double>(ledger.attempted)),
      o.trace && !o.spans_path.empty() ? json_string(o.spans_path).c_str() : "null");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed), metrics.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  return options.workload->v6 ? bench<V6>(options) : bench<V4>(options);
}
