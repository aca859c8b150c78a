// spal_cli: run an arbitrary SPAL router configuration from the command
// line and print a full report — the "I want to try my own point in the
// design space" tool.
//
// Usage:
//   spal_cli [--psi=N] [--beta=BLOCKS] [--gamma=PCT] [--rate=GBPS]
//            [--fe-cycles=N] [--fe-parallel=N]
//            [--trie=lulea|dp|lc|binary|gupta|stride]
//            [--trace=D_75|D_81|L_92-0|L_92-1|B_L] [--packets=N]
//            [--table-size=N] [--seed=N] [--no-partition] [--no-cache]
//            [--update-interval=CYCLES] [--selective-invalidate] [--verify]
//            [--ipv6] [--json]
//
// Unknown flags and malformed values (non-numeric or out-of-range numbers,
// unknown trie or trace names) print a message and exit 2.
//
// With --json, the full RouterResult (per-LC cache/FE/fabric/latency
// metrics — schema in DESIGN.md) is printed as one JSON object after the
// human-readable report.
//
// Example:
//   spal_cli --psi=12 --beta=2048 --gamma=25 --trace=L_92-0 --verify
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "core/spal.h"

using namespace spal;

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "spal_cli: " << message
            << "\n(see the header of examples/spal_cli.cpp for usage)\n";
  std::exit(2);
}

const std::set<std::string> kValueFlags = {
    "--psi", "--beta", "--gamma", "--rate", "--fe-cycles", "--fe-parallel",
    "--trie", "--trace", "--packets", "--table-size", "--seed",
    "--update-interval"};
const std::set<std::string> kSwitches = {
    "--no-partition", "--no-cache", "--selective-invalidate", "--verify",
    "--ipv6", "--json", "--help", "-h"};

/// The command line as --name=value flags and bare switches. Unknown flags,
/// a switch given a value, and a valued flag given none all exit 2.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      if (eq == std::string::npos && kSwitches.count(name) != 0) {
        switches_.insert(name);
      } else if (eq != std::string::npos && kValueFlags.count(name) != 0) {
        values_[name] = arg.substr(eq + 1);
      } else if (kValueFlags.count(name) != 0) {
        usage_error(name + " expects " + name + "=VALUE");
      } else if (kSwitches.count(name) != 0) {
        usage_error(name + " takes no value");
      } else {
        usage_error("unknown flag '" + arg + "'");
      }
    }
  }

  std::optional<std::string> value(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  bool has(const std::string& name) const { return switches_.count(name) != 0; }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;
};

/// A whole decimal integer >= `min`; anything else exits 2.
std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t min = 0) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0 ||
      value < min) {
    usage_error(flag + " expects an integer >= " + std::to_string(min) +
                ", got '" + text + "'");
  }
  return value;
}

int parse_int(const std::string& flag, const std::string& text, int min) {
  const std::uint64_t value =
      parse_uint(flag, text, static_cast<std::uint64_t>(min));
  if (value > static_cast<std::uint64_t>(INT_MAX)) {
    usage_error(flag + " is out of range, got '" + text + "'");
  }
  return static_cast<int>(value);
}

/// A finite decimal number; anything else exits 2.
double parse_number(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno != 0 || !std::isfinite(value)) {
    usage_error(flag + " expects a number, got '" + text + "'");
  }
  return value;
}

}  // namespace

void print_report(const core::RouterResult& result, int psi, bool use_cache,
                  bool verify, bool json) {
  std::cout << "\n--- results ---\n"
            << "packets resolved:    " << result.resolved_packets << "\n"
            << "mean lookup:         " << result.mean_lookup_cycles()
            << " cycles (" << result.mean_lookup_cycles() * sim::kCycleNs << " ns)\n"
            << "p50 / p99 / worst:   " << result.latency.percentile(0.5) << " / "
            << result.latency.percentile(0.99) << " / "
            << result.worst_lookup_cycles() << " cycles\n"
            << "per-LC rate:         "
            << result.latency.lookups_per_second(sim::kCycleNs) / 1e6 << " Mpps\n"
            << "router rate:         "
            << result.router_packets_per_second(psi) / 1e6 << " Mpps\n";
  if (use_cache) {
    std::cout << "LR-cache hit rate:   " << result.cache_total.hit_rate()
              << " (victim hits " << result.cache_total.victim_hits
              << ", waiting hits " << result.cache_total.waiting_hits << ")\n";
  }
  std::cout << "FE lookups:          " << result.fe_lookups << " ("
            << 100.0 * static_cast<double>(result.fe_lookups) /
                   static_cast<double>(std::max<std::uint64_t>(1, result.resolved_packets))
            << "% of packets), busiest FE at "
            << result.max_fe_utilization * 100 << "%\n"
            << "fabric messages:     " << result.fabric.messages << "\n";
  if (psi > 1 && !result.per_lc_latency.empty()) {
    // Exposes per-LC imbalance, e.g. the hot LC that homes two control-bit
    // groups when psi is not a power of two.
    std::cout << "per-LC mean cycles: ";
    for (const auto& stats : result.per_lc_latency) {
      std::cout << ' ' << stats.mean_cycles();
    }
    std::cout << "\n";
  }
  if (result.update.applied > 0) {
    std::cout << "table updates:       " << result.update.applied
              << " (blocks invalidated " << result.update.blocks_invalidated
              << ", cache flushes " << result.update.cache_flushes << ")\n";
  }
  if (verify) {
    std::cout << "oracle mismatches:   " << result.verify_mismatches
              << (result.verify_mismatches == 0 ? " (all lookups correct)" : " (BUG!)")
              << "\n";
  }
  if (json) std::cout << result.to_json() << "\n";
}

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("--help") || args.has("-h")) {
    std::cout << "see the header of examples/spal_cli.cpp for usage\n";
    return 0;
  }

  const int psi = parse_int("--psi", args.value("--psi").value_or("16"), 1);
  core::RouterConfig config = core::spal_default_config(psi);
  config.cache.blocks = static_cast<std::size_t>(
      parse_uint("--beta", args.value("--beta").value_or("4096"), 1));
  const double gamma =
      parse_number("--gamma", args.value("--gamma").value_or("50"));
  if (gamma < 0.0 || gamma > 100.0) {
    usage_error("--gamma expects a percentage in [0, 100]");
  }
  config.cache.remote_fraction = gamma / 100.0;
  config.line_rate_gbps =
      parse_number("--rate", args.value("--rate").value_or("40"));
  try {
    (void)sim::arrival_bounds(config.line_rate_gbps);
  } catch (const std::invalid_argument& e) {
    usage_error("--rate: " + std::string(e.what()));
  }
  config.fe_service_cycles =
      parse_int("--fe-cycles", args.value("--fe-cycles").value_or("40"), 1);
  config.fe_parallelism =
      parse_int("--fe-parallel", args.value("--fe-parallel").value_or("1"), 1);
  config.packets_per_lc = static_cast<std::size_t>(
      parse_uint("--packets", args.value("--packets").value_or("100000"), 1));
  config.seed = parse_uint("--seed", args.value("--seed").value_or("42"));
  config.partition = !args.has("--no-partition");
  config.use_lr_cache = !args.has("--no-cache");
  config.update.interval_cycles = parse_uint(
      "--update-interval", args.value("--update-interval").value_or("0"));
  if (args.has("--selective-invalidate")) {
    config.update_policy = core::RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  }
  if (const auto name = args.value("--trie")) {
    const auto kind = trie::trie_kind_from_string(*name);
    if (!kind) usage_error("unknown trie '" + *name + "'");
    config.trie = *kind;
  }

  const std::size_t table_size = static_cast<std::size_t>(parse_uint(
      "--table-size", args.value("--table-size").value_or("140838"), 1));
  const bool ipv6 = args.has("--ipv6");
  const bool verify = args.has("--verify");
  const bool json = args.has("--json");

  trace::WorkloadProfile profile = trace::profile_d75();
  if (const auto name = args.value("--trace")) {
    bool found = false;
    for (const auto& p : trace::all_profiles()) {
      if (p.name == *name) {
        profile = p;
        found = true;
      }
    }
    if (!found) usage_error("unknown trace '" + *name + "'");
  }

  if (ipv6) {
    net::TableGen6Config table_config;
    table_config.size = table_size;
    table_config.seed = 0x6bed;
    const net::RouteTable6 table = net::generate_table6(table_config);
    std::cout << "IPv6 table: " << table.size() << " prefixes | psi=" << psi
              << " | beta=" << config.cache.blocks
              << " | gamma=" << config.cache.remote_fraction * 100 << "%"
              << " | trace=" << profile.name << "\n";
    core::RouterSim6 router(table, config);
    print_report(router.run_workload(profile, verify), psi,
                 config.use_lr_cache, verify, json);
    return 0;
  }

  net::TableGenConfig table_config;
  table_config.size = table_size;
  table_config.seed = 0x5eed'0002;
  const net::RouteTable table = net::generate_table(table_config);

  std::cout << "table: " << table.size() << " prefixes | psi=" << psi
            << " | trie=" << trie::to_string(config.trie)
            << " | beta=" << config.cache.blocks
            << " | gamma=" << config.cache.remote_fraction * 100 << "%"
            << " | rate=" << config.line_rate_gbps << " Gbps"
            << " | fe=" << config.fe_service_cycles << "cy x"
            << config.fe_parallelism << " | trace=" << profile.name << "\n";

  core::RouterSim router(table, config);
  if (config.partition && psi > 1) {
    std::cout << "control bits:";
    for (const int bit : router.rot().control_bits()) std::cout << ' ' << bit;
    std::cout << " | partition sizes:";
    for (const std::size_t s : router.rot().partition_sizes()) std::cout << ' ' << s;
    std::cout << "\n";
  }
  const auto storage = router.trie_storage_bytes();
  std::size_t max_storage = 0;
  for (const std::size_t s : storage) max_storage = std::max(max_storage, s);
  std::cout << "per-LC trie storage: <= " << max_storage / 1024 << " KB\n";

  print_report(router.run_workload(profile, verify), psi, config.use_lr_cache,
               verify, json);
  return 0;
}
