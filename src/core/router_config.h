// Configuration and result types for the SPAL router simulation, plus
// factory helpers for the paper's comparison points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/lr_cache.h"
#include "core/memory_model.h"
#include "fabric/fabric.h"
#include "partition/rot_partition.h"
#include "sim/metrics.h"
#include "trie/lpm.h"

namespace spal::core {

struct RouterConfig {
  int num_lcs = 16;                    ///< ψ
  double line_rate_gbps = 40.0;        ///< per-LC rate (paper: 10 or 40)
  std::size_t packets_per_lc = 300'000;
  int fe_service_cycles = 40;          ///< LPM time at the FE (40 Lulea / 62 DP)
  /// Concurrent lookups one FE can run (deterministic k-server queue).
  /// 1 for SPAL and the conventional router; >1 models designs with
  /// parallel lookup engines such as the length-partitioned baseline [1].
  int fe_parallelism = 1;

  trie::TrieKind trie = trie::TrieKind::kLulea;
  trie::LpmBuildOptions trie_options;

  bool partition = true;               ///< SPAL table fragmentation
  partition::PartitionConfig partition_config;
  /// IPv6 partition knobs (RouterSim6); mirrors partition_config, including
  /// the traffic-aware `weights` vector.
  partition::Partition6Config partition6_config;

  bool use_lr_cache = true;
  cache::LrCacheConfig cache;          ///< per-LC LR-cache (β, γ, ...)

  fabric::FabricConfig fabric;         ///< ports is overridden with num_lcs

  /// Fabric fault injection (drops, jitter, per-port outage windows).
  /// Disabled by default; a disabled fault layer leaves every simulation
  /// bit-identical to a build without it (no RNG draws, no timeout events).
  fabric::FaultConfig fault;

  /// Remote-lookup recovery protocol, armed only when `fault.enabled`:
  /// every fabric request carries a sequence number and arms a timeout in
  /// the event engine; expiry retransmits with exponential backoff, and an
  /// exhausted request falls back to a degraded local full-resolution
  /// lookup so the simulator never strands a packet.
  struct RecoveryConfig {
    /// Cycles before the first retransmit; doubles per retry. 0 = auto:
    /// 16 × (2 × fabric traversal latency + fe_service_cycles), covering a
    /// lightly loaded round trip with generous slack.
    std::uint64_t timeout_cycles = 0;
    int max_retries = 3;
  };
  RecoveryConfig recovery;

  /// Fragment replication for LC failover. With R > 0 every fragment keeps
  /// R live copies on the next R LCs around the ring
  /// (partition::assign_replicas), a per-observer health state machine
  /// tracks remote LCs (alive → suspect after `suspect_after` consecutive
  /// request timeouts → down after `down_after`, probe-based rejoin), and
  /// remote lookups re-route to the best live copy instead of retrying a
  /// dead primary into the degraded fallback. replicas == 0 (default)
  /// leaves every run and report byte-identical to a build without the
  /// subsystem.
  struct ReplicationConfig {
    int replicas = 0;      ///< R failover copies per fragment; 0 = off
    int suspect_after = 2; ///< timeout streak that starts re-routing
    int down_after = 4;    ///< timeout streak that marks the LC down
    /// Minimum cycles between probes an observer sends a non-alive LC.
    /// 0 = auto: the resolved request timeout base.
    std::uint64_t probe_interval_cycles = 0;
  };
  ReplicationConfig replication;

  /// Operator-initiated live fragment migration: at `start_cycle`, LC
  /// `from` snapshots its fragment and streams it to LC `to` in chunks of
  /// `chunk_prefixes` entries every `chunk_interval_cycles`; route updates
  /// applied at `from` during the copy are double-delivered to `to`; once
  /// `to` has built the staged FE the fragment is cut over (home lookups
  /// re-map to `to`, every LR-cache drops blocks homed on the fragment).
  /// The same copy-then-cutover machinery resyncs a rejoining LC that
  /// missed updates during an outage.
  struct MigrationConfig {
    bool enabled = false;
    int from = -1;
    int to = -1;
    std::uint64_t start_cycle = 0;
    std::size_t chunk_prefixes = 512;
    std::uint64_t chunk_interval_cycles = 8;
  };
  MigrationConfig migration;

  /// Online load rebalancer: samples per-fragment lookup-arrival counters
  /// over fixed windows, and when the per-LC offered load skews past
  /// `skew_threshold` (max / mean), drives the copy-then-cutover migration
  /// machinery to move the hottest fragment off the most-loaded LC onto the
  /// least-loaded *healthy* LC (never one whose port is down, that is
  /// stale, or that any observer's health row marks suspect/down). At most
  /// one migration is in flight at a time and at most `max_migrations` per
  /// run; every decision is ledgered in RebalancerStats (skew_detections ==
  /// migrations_triggered + every skip, audited by `spal_report --check`).
  /// Mutually exclusive with `migration` (operator-initiated). Disabled
  /// (default) leaves every run and report byte-identical to builds without
  /// the subsystem.
  struct RebalancerConfig {
    bool enabled = false;
    std::uint64_t window_cycles = 50'000;  ///< sampling window length
    double skew_threshold = 1.5;           ///< trigger at max/mean >= this
    int max_migrations = 4;                ///< migration budget per run
    /// Test hook (WILL_FAIL CI leg): drop the deltas buffered during the
    /// copy phase instead of replaying them into the staged table, making
    /// the migrated structure genuinely stale so verify mode must fail.
    bool inject_stale = false;
  };
  RebalancerConfig rebalancer;

  /// Record a second latency histogram restricted to packets that arrived
  /// while any configured outage window was open (the mid-outage latency
  /// timeline bench_failover plots). Off by default: no extra JSON.
  bool track_outage_latency = false;

  /// Early cache-block recording on a miss (the W-bit mechanism). Disabled
  /// only by the ablation bench: without it, every packet of a burst that
  /// misses goes to the FE / fabric individually.
  bool early_reservation = true;

  /// What a routing-table update does to the LR-caches.
  enum class UpdatePolicy {
    kFlushAll,             ///< the paper's mechanism: invalidate everything
    kSelectiveInvalidate,  ///< extension: drop only blocks the changed
                           ///< prefix covers (Sec. 3.2's "incremental and
                           ///< very frequent" regime)
  };
  UpdatePolicy update_policy = UpdatePolicy::kFlushAll;

  /// Live route-update pipeline: a BGP-style announce/withdraw/hop-change
  /// stream (net/update_stream.h) injected while packets are in flight.
  /// Each update is routed over the fabric to every home LC whose fragment
  /// holds the prefix, applied there (incrementally when the FE supports
  /// it, by epoch rebuild otherwise), and followed by LR-cache invalidation
  /// on all LCs per `update_policy`. Fully off at interval_cycles == 0 (the
  /// paper's runs fit within one update period, so its default is off):
  /// zero-update runs are bit-identical to builds without this pipeline.
  /// The FE cycles an application costs are constants of the router
  /// (basic_router_sim.h).
  struct LiveUpdateConfig {
    std::uint64_t interval_cycles = 0;  ///< injection period; 0 = disabled
    std::size_t count = 0;              ///< updates to inject; 0 = fill horizon
    std::uint64_t seed = 7;             ///< update-stream seed
    double announce_fraction = 0.25;
    double withdraw_fraction = 0.25;
    std::uint32_t next_hops = 16;
  };
  LiveUpdateConfig update;

  /// CRAM-lens memory-tier cost model (core/memory_model.h). When enabled,
  /// each FE's arenas are packed into the configured tiers by cumulative
  /// footprint and every FE job is priced by a counted lookup instead of
  /// the flat `fe_service_cycles`; RouterResult::memory then carries the
  /// per-tier byte/access ledger. Off by default — a disabled model leaves
  /// runs and reports byte-identical to builds without it.
  MemoryModelConfig memory;

  std::uint64_t seed = 42;
};

/// Exponential retry backoff with a clamped shift: `base << attempt`, the
/// doubling capped at kBackoffMaxShift doublings and the result saturated
/// at kBackoffCeilingCycles so `now + 1 + backoff` can never wrap the
/// 64-bit cycle clock no matter how large `timeout_cycles` × `max_retries`
/// is configured. Bit-identical to the historical `base << min(attempt,20)`
/// whenever that expression did not overflow.
inline constexpr int kBackoffMaxShift = 20;
inline constexpr std::uint64_t kBackoffCeilingCycles = std::uint64_t{1} << 62;

inline std::uint64_t backoff_cycles(std::uint64_t base, int attempt) {
  if (base == 0) return 0;
  const int shift =
      attempt < 0 ? 0 : (attempt < kBackoffMaxShift ? attempt : kBackoffMaxShift);
  if (base >= (kBackoffCeilingCycles >> shift)) return kBackoffCeilingCycles;
  return base << shift;
}

// Each stats struct below declares its counters from one X-macro list,
// X(name) per counter in report order; RouterResult::to_json writes them
// from the same list, under their names.
#define SPAL_COUNTER_MEMBER(name) std::uint64_t name = 0;

/// Recovery-protocol counters for one run: the router-level activity the
/// fabric's losses (RouterResult::fabric) triggered. All zero when the
/// fault layer is disabled. Conservation (checked by `spal_report --check`):
/// timeouts == retransmits + degraded_fallbacks, and every dropped message
/// is answered by a retransmit or a degraded fallback
/// (retransmits + degraded_fallbacks >= fabric.dropped).
#define SPAL_FAULT_COUNTERS(X)                                               \
  X(timeouts)                 /* non-stale request timeouts fired */         \
  X(retransmits)              /* timeout-triggered request resends */        \
  X(duplicate_replies)        /* replies for an already-settled seq */       \
  X(degraded_fallbacks)       /* requests exhausted into slow path */        \
  X(degraded_lookups)         /* packets resolved by the slow path */        \
  X(reclaimed_waiting_blocks) /* W=1 blocks released on fallback */

struct FaultStats {
  SPAL_FAULT_COUNTERS(SPAL_COUNTER_MEMBER)
  /// Configured outage cycles per LC port (from FaultConfig, index = LC).
  std::vector<std::uint64_t> per_lc_outage_cycles;
};

/// Live route-update pipeline counters for one run. All zero when the
/// pipeline is off. Ledger (checked by `spal_report --check`):
/// applied == announces + withdraws + hop_changes;
/// applications == fe_incremental + fe_rebuilds and >= applied (a prefix
/// with star control bits applies at several home LCs); and, with the
/// migrations' share, cache_total.invalidated_blocks == blocks_invalidated
/// + failover.migration_invalidated_blocks.
#define SPAL_UPDATE_COUNTERS(X)                                              \
  X(applied)               /* updates injected and applied */                \
  X(announces)                                                               \
  X(withdraws)                                                               \
  X(hop_changes)                                                             \
  X(applications)          /* per-home-LC fragment applications */           \
  X(fe_incremental)        /* applications via trie insert/remove */         \
  X(fe_rebuilds)           /* applications via epoch rebuild */              \
  X(update_cost_cycles)    /* FE cycles charged for updates */               \
  X(update_messages)       /* fabric control msgs carrying updates */        \
  X(invalidation_messages) /* fabric invalidation broadcasts */              \
  X(blocks_invalidated)    /* cache blocks dropped by updates */             \
  X(cache_flushes)         /* full flushes under kFlushAll */

struct UpdateStats {
  SPAL_UPDATE_COUNTERS(SPAL_COUNTER_MEMBER)
};

/// Failover / replication / migration ledger for one run. All zero (and
/// absent from the JSON report) unless replication or migration is
/// configured. Conservation rules (checked by `spal_report --check`):
/// control_messages == probes_sent + probe_replies_sent + resync_fetches +
/// resync_chunks + migration_chunks + double_delivered_updates +
/// cutover_messages; probe_replies <= probe_replies_sent <= probes_sent;
/// rejoins <= probe_replies; recoveries >= rejoins;
/// down_transitions <= suspect_transitions; cutovers == migrations +
/// resync_cutovers; resync_entries <= missed_updates;
/// local_replica_serves + rerouted served lookups <= replica_lookups.
/// With failover present the update ledger generalizes to
/// update_messages == applications - resync_entries and
/// invalidation_messages == (applications - replica_update_applications -
/// resync_entries + acting_primary_applications) × (ψ - 1), and the fault
/// rule to fabric.dropped <= retransmits + degraded_fallbacks + probes_sent
/// + probe_replies_sent (probes are fire-and-forget and may be lost).
#define SPAL_FAILOVER_COUNTERS(X)                                            \
  /* Re-routing. */                                                          \
  X(rerouted_requests)    /* requests sent to a non-primary LC */            \
  X(replica_lookups)      /* FE jobs run on a copy, not the holder's own */  \
  X(local_replica_serves) /* misses served from the arrival LC's copy */     \
  /* Health state machine (per-observer view of remote LCs). */              \
  X(probes_sent)                                                             \
  X(probe_replies_sent)                                                      \
  X(probe_replies)        /* received back at the observer */                \
  X(suspect_transitions)                                                     \
  X(down_transitions)                                                        \
  X(recoveries)           /* suspect/down -> alive, any evidence */          \
  X(rejoins)              /* subset of recoveries: via a probe reply */      \
  /* Update handling under failover + resync of rejoining LCs. */            \
  X(missed_updates)       /* applies deferred while the home was down */     \
  X(replica_update_applications) /* applications to copies */                \
  X(acting_primary_applications) /* copy applications that also */           \
                                 /* broadcast for a dead primary */          \
  X(resync_fetches)                                                          \
  X(resync_chunks)                                                           \
  X(resync_entries)       /* deferred updates re-applied at the primary */   \
  X(resync_cutovers)                                                         \
  /* Operator-initiated fragment migration. */                               \
  X(migrations)                                                              \
  X(migration_chunks)                                                        \
  X(snapshot_prefixes)                                                       \
  /* In-copy deltas double-delivered to the target, plus applies */          \
  /* forwarded from an LC the fragment had already left. */                  \
  X(double_delivered_updates)                                                \
  X(cutover_messages)     /* ready + cutover broadcast msgs */               \
  X(migration_invalidated_blocks)                                            \
  X(cutovers)             /* migrations + resync cutovers */                 \
  X(control_messages)     /* every failover fabric send */

struct FailoverStats {
  bool enabled = false;  ///< replication or migration configured
  SPAL_FAILOVER_COUNTERS(SPAL_COUNTER_MEMBER)
};

/// Online-rebalancer ledger for one run. All zero (and absent from the
/// JSON report) unless the rebalancer is enabled. Conservation rules
/// (checked by `spal_report --check`):
/// skew_detections == migrations_triggered + skipped_in_flight +
/// skipped_no_target + skipped_budget (every detection is acted on or has
/// a ledgered reason it was not); skew_detections <= windows;
/// completed_migrations + aborted_migrations <= migrations_triggered (a
/// migration still copying at run end is neither); and — the rebalancer
/// being the only migration driver when enabled —
/// failover.migrations == completed_migrations.
#define SPAL_REBALANCER_COUNTERS(X)                                          \
  X(windows)              /* sampling windows evaluated */                   \
  X(skew_detections)      /* windows with max/mean >= threshold */           \
  X(migrations_triggered) /* kMigrateStart scheduled */                      \
  X(skipped_in_flight)    /* a migration was already running */              \
  X(skipped_no_target)    /* no healthy, less-loaded target */               \
  X(skipped_budget)       /* max_migrations exhausted */                     \
  X(completed_migrations) /* cutovers reached */                             \
  X(aborted_migrations)   /* target died mid-copy; rolled back */

struct RebalancerStats {
  bool enabled = false;
  SPAL_REBALANCER_COUNTERS(SPAL_COUNTER_MEMBER)
};

#undef SPAL_COUNTER_MEMBER

/// Per-LC structured counters (index = arrival/home LC). The latency
/// breakdown for the same LC lives in RouterResult::per_lc_latency.
struct LcStats {
  cache::LrCacheStats cache;     ///< this LC's LR-cache counters
  std::uint64_t fe_lookups = 0;  ///< FE jobs executed at this LC
  std::uint64_t fe_busy_cycles = 0;        ///< total FE service cycles
  std::uint64_t fe_queue_wait_cycles = 0;  ///< job start minus submission
  double fe_utilization = 0.0;   ///< busy / (makespan × fe_parallelism)
  /// Peak number of requesters simultaneously parked on this LC's waiting
  /// lists (the W-bit structure's worst-case footprint).
  std::uint64_t waiting_highwater = 0;
};

/// Aggregate outcome of one simulation run.
struct RouterResult {
  sim::LatencyStats latency;             ///< per-packet lookup times (cycles)
  /// Per-arrival-LC latency breakdown (index = LC). Exposes load imbalance,
  /// e.g. the hot LC that homes two control-bit groups at non-power-of-2 ψ.
  std::vector<sim::LatencyStats> per_lc_latency;
  /// Per-LC cache/FE/waiting-list counters (index = LC).
  std::vector<LcStats> per_lc;
  cache::LrCacheStats cache_total;       ///< summed over all LR-caches
  fabric::FabricStats fabric;
  FaultStats fault;                      ///< fault injection + recovery
  /// ψ×ψ remote-request fan-out, row-major: [src_lc * ψ + home_lc] counts
  /// the lookup requests src sent to home over the fabric.
  std::vector<std::uint64_t> remote_fanout;
  std::uint64_t fe_lookups = 0;          ///< LPM executions across all FEs
  std::uint64_t remote_requests = 0;     ///< fabric request messages
  std::uint64_t remote_replies = 0;      ///< fabric reply messages
  std::uint64_t makespan_cycles = 0;     ///< last event time
  double max_fe_utilization = 0.0;       ///< busiest FE's busy fraction
  std::uint64_t resolved_packets = 0;
  std::uint64_t verify_mismatches = 0;   ///< vs full-table oracle (verify mode)
  UpdateStats update;                    ///< live update-pipeline counters
  /// Failover/replication/migration ledger; emitted in to_json only when
  /// `failover.enabled` — absent otherwise so R = 0 reports stay
  /// byte-identical to builds without the subsystem.
  FailoverStats failover;
  /// Online-rebalancer ledger; emitted in to_json only when
  /// `rebalancer.enabled` — absent otherwise so disabled-rebalancer reports
  /// stay byte-identical to builds without the subsystem.
  RebalancerStats rebalancer;
  /// Latency of packets that arrived inside an outage window; populated
  /// (and emitted) only when `RouterConfig::track_outage_latency` and an
  /// outage is configured.
  bool outage_latency_tracked = false;
  sim::LatencyStats outage_latency;
  /// Memory-tier ledger; populated (and emitted in to_json) only when
  /// `RouterConfig::memory.enabled` — absent otherwise so reports stay
  /// byte-identical to builds without the model.
  MemoryStats memory;

  double mean_lookup_cycles() const { return latency.mean_cycles(); }
  std::uint64_t worst_lookup_cycles() const { return latency.worst_cycles(); }
  /// Router-level forwarding rate in packets/s (all ψ LCs), the paper's
  /// "336 million packets per second" metric.
  double router_packets_per_second(int num_lcs, double cycle_ns = 5.0) const {
    return latency.lookups_per_second(cycle_ns) * num_lcs;
  }

  /// Machine-readable report: one JSON object with router-wide metrics,
  /// the per-LC breakdown, per-port fabric stats, and the fan-out matrix.
  /// Schema documented in DESIGN.md ("JSON report schema").
  std::string to_json() const;
};

/// The paper's default SPAL configuration: ψ LCs, 4K-block 4-way LR-cache
/// with γ = 50%, victim cache of 8, 40 Gbps line rate, 40-cycle Lulea FE.
RouterConfig spal_default_config(int num_lcs);

/// Baseline A — a conventional router: full table in every LC, no LR-cache.
/// (The paper compares against its FE time with queueing "ignored
/// optimistically"; at 40 Gbps the FE is overloaded and measured means
/// include queueing.)
RouterConfig conventional_config(int num_lcs);

/// Baseline B — LR-caches without table partitioning (the processor-caching
/// approach of Chiueh & Pradhan); every lookup is local.
RouterConfig cache_only_config(int num_lcs);

}  // namespace spal::core
