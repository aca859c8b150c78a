#include "core/router_sim.h"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "trie/simd_dispatch.h"

namespace spal::core {

RouterConfig spal_default_config(int num_lcs) {
  RouterConfig config;
  config.num_lcs = num_lcs;
  config.cache.blocks = 4096;
  config.cache.associativity = 4;
  config.cache.remote_fraction = 0.5;
  config.cache.victim_blocks = 8;
  return config;
}

RouterConfig conventional_config(int num_lcs) {
  RouterConfig config = spal_default_config(num_lcs);
  config.partition = false;
  config.use_lr_cache = false;
  return config;
}

RouterConfig cache_only_config(int num_lcs) {
  RouterConfig config = spal_default_config(num_lcs);
  config.partition = false;
  return config;
}

// --- JSON reporter -------------------------------------------------------
// Hand-rolled emission: the schema is small and fixed (documented in
// DESIGN.md, "JSON report schema"), and the toolchain has no JSON library.

namespace {

void append_u64(std::string& out, const char* key, std::uint64_t value,
                bool comma = true) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "\"%s\":%" PRIu64 "%s", key, value,
                comma ? "," : "");
  out += buffer;
}

void append_double(std::string& out, const char* key, double value,
                   bool comma = true) {
  char buffer[96];
  // %.17g round-trips doubles exactly, so a diff of two reports compares
  // the computed values, not a formatting artifact.
  std::snprintf(buffer, sizeof buffer, "\"%s\":%.17g%s", key, value,
                comma ? "," : "");
  out += buffer;
}

void append_latency(std::string& out, const sim::LatencyStats& latency,
                    bool comma = true) {
  out += '{';
  append_u64(out, "count", latency.count());
  append_u64(out, "total_cycles", latency.total_cycles());
  append_double(out, "mean_cycles", latency.mean_cycles());
  append_u64(out, "p50", latency.percentile(0.5));
  append_u64(out, "p90", latency.percentile(0.9));
  append_u64(out, "p99", latency.percentile(0.99));
  append_u64(out, "p999", latency.percentile(0.999));
  append_u64(out, "worst_cycles", latency.worst_cycles(), /*comma=*/false);
  out += '}';
  if (comma) out += ',';
}

// `"name":value,` for every counter of one stats struct, in its list's order.
#define SPAL_APPEND_COUNTER(name) append_u64(out, #name, stats.name);
void append_counters(std::string& out, const cache::LrCacheStats& stats) {
  SPAL_LR_CACHE_COUNTERS(SPAL_APPEND_COUNTER)
}
void append_counters(std::string& out, const UpdateStats& stats) {
  SPAL_UPDATE_COUNTERS(SPAL_APPEND_COUNTER)
}
void append_counters(std::string& out, const FaultStats& stats) {
  SPAL_FAULT_COUNTERS(SPAL_APPEND_COUNTER)
}
void append_counters(std::string& out, const FailoverStats& stats) {
  SPAL_FAILOVER_COUNTERS(SPAL_APPEND_COUNTER)
}
void append_counters(std::string& out, const RebalancerStats& stats) {
  SPAL_REBALANCER_COUNTERS(SPAL_APPEND_COUNTER)
}
void append_counters(std::string& out, const fabric::FabricPortStats& stats) {
  SPAL_FABRIC_PORT_COUNTERS(SPAL_APPEND_COUNTER)
}
#undef SPAL_APPEND_COUNTER

/// An object holding nothing but one struct's counters.
template <typename Stats>
void append_counter_object(std::string& out, const Stats& stats) {
  out += '{';
  append_counters(out, stats);
  out.back() = '}';  // the last counter's comma
}

void append_cache(std::string& out, const cache::LrCacheStats& stats,
                  bool comma = true) {
  out += '{';
  append_counters(out, stats);
  append_double(out, "hit_rate", stats.hit_rate(), /*comma=*/false);
  out += '}';
  if (comma) out += ',';
}

}  // namespace

std::string RouterResult::to_json() const {
  std::string out;
  out.reserve(4096);
  out += '{';
  // Batch-lookup dispatch level the host FE ran at (trie/simd_dispatch.h) —
  // recorded so perf reports are only compared like-for-like.
  out += "\"simd\":\"";
  out += trie::to_string(trie::resolved_simd_level());
  out += "\",";
  append_u64(out, "resolved_packets", resolved_packets);
  append_u64(out, "verify_mismatches", verify_mismatches);
  append_u64(out, "makespan_cycles", makespan_cycles);
  append_u64(out, "fe_lookups", fe_lookups);
  append_u64(out, "remote_requests", remote_requests);
  append_u64(out, "remote_replies", remote_replies);
  append_double(out, "max_fe_utilization", max_fe_utilization);
  // Live route-update pipeline counters (all zero with the pipeline off).
  out += "\"update\":";
  append_counter_object(out, update);
  out += ',';
  // Memory-tier ledger — emitted only when the model ran, so reports from
  // default configurations stay byte-identical to builds without it.
  if (memory.enabled) {
    out += "\"memory\":{";
    append_u64(out, "matching_overhead_cycles", memory.matching_overhead_cycles);
    append_u64(out, "lookups", memory.lookups);
    append_u64(out, "matching_cycles", memory.matching_cycles);
    append_u64(out, "charged_cycles", memory.charged_cycles);
    append_u64(out, "storage_bytes", memory.storage_bytes);
    out += "\"tiers\":[";
    for (std::size_t t = 0; t < memory.tiers.size(); ++t) {
      const MemoryTierStats& tier = memory.tiers[t];
      if (t > 0) out += ',';
      out += "{\"name\":\"";
      out += tier.name;  // tier names are identifiers, no escaping needed
      out += "\",";
      append_u64(out, "capacity_bytes", tier.capacity_bytes);
      append_u64(out, "access_cycles", tier.access_cycles);
      append_u64(out, "placed_bytes", tier.placed_bytes);
      append_u64(out, "placed_arenas", tier.placed_arenas);
      append_u64(out, "accesses", tier.accesses);
      append_u64(out, "cycles", tier.cycles, /*comma=*/false);
      out += '}';
    }
    out += "]},";
  }
  out += "\"latency\":";
  append_latency(out, latency);
  out += "\"cache_total\":";
  append_cache(out, cache_total);
  out += "\"fabric\":{";
  append_u64(out, "messages", fabric.messages);
  append_u64(out, "queueing_cycles", fabric.total_queueing_cycles);
  append_u64(out, "dropped", fabric.dropped);
  append_u64(out, "outage_dropped", fabric.outage_dropped);
  append_u64(out, "jitter_events", fabric.jitter_events);
  append_u64(out, "jitter_cycles", fabric.jitter_cycles);
  out += "\"ports\":[";
  for (std::size_t p = 0; p < fabric.ports.size(); ++p) {
    if (p > 0) out += ',';
    append_counter_object(out, fabric.ports[p]);
  }
  out += "]},";
  // Recovery-protocol counters (all zero with the fault layer disabled).
  out += "\"fault\":{";
  append_counters(out, fault);
  out += "\"per_lc_outage_cycles\":[";
  for (std::size_t lc = 0; lc < fault.per_lc_outage_cycles.size(); ++lc) {
    if (lc > 0) out += ',';
    out += std::to_string(fault.per_lc_outage_cycles[lc]);
  }
  out += "]},";
  // Failover ledger — emitted only when replication or migration was
  // configured, so reports from default configurations stay byte-identical
  // to builds without the failover subsystem.
  if (failover.enabled) {
    out += "\"failover\":";
    append_counter_object(out, failover);
    out += ',';
  }
  // Rebalancer ledger — emitted only when the online rebalancer ran, so
  // every other report stays byte-identical. Conservation (checked by
  // spal_report --check): skew_detections == migrations_triggered +
  // skipped_in_flight + skipped_no_target + skipped_budget;
  // skew_detections <= windows; completed + aborted <= triggered; and
  // failover.migrations == completed_migrations.
  if (rebalancer.enabled) {
    out += "\"rebalancer\":";
    append_counter_object(out, rebalancer);
    out += ',';
  }
  // Lookup latency restricted to arrivals that landed inside an outage
  // window — only priced when the run asked for it.
  if (outage_latency_tracked) {
    out += "\"outage_latency\":";
    append_latency(out, outage_latency);
  }
  out += "\"per_lc\":[";
  for (std::size_t lc = 0; lc < per_lc.size(); ++lc) {
    const LcStats& stats = per_lc[lc];
    if (lc > 0) out += ',';
    out += '{';
    append_u64(out, "lc", lc);
    out += "\"latency\":";
    append_latency(out, lc < per_lc_latency.size() ? per_lc_latency[lc]
                                                   : sim::LatencyStats{});
    out += "\"cache\":";
    append_cache(out, stats.cache);
    out += "\"fe\":{";
    append_u64(out, "lookups", stats.fe_lookups);
    append_u64(out, "busy_cycles", stats.fe_busy_cycles);
    append_u64(out, "queue_wait_cycles", stats.fe_queue_wait_cycles);
    append_double(out, "utilization", stats.fe_utilization, /*comma=*/false);
    out += "},";
    append_u64(out, "waiting_highwater", stats.waiting_highwater,
               /*comma=*/false);
    out += '}';
  }
  out += "],";
  // ψ×ψ request fan-out as an array of rows (src-major).
  out += "\"remote_fanout\":[";
  const std::size_t psi = per_lc.size();
  for (std::size_t src = 0; src < psi; ++src) {
    if (src > 0) out += ',';
    out += '[';
    for (std::size_t home = 0; home < psi; ++home) {
      if (home > 0) out += ',';
      out += std::to_string(remote_fanout[src * psi + home]);
    }
    out += ']';
  }
  out += "]}";
  return out;
}

}  // namespace spal::core
