// Address-family-generic SPAL router simulation.
//
// The full Sec. 3.3 lookup flow (see router_sim.h for the narrative) is
// independent of the address family: it needs a partition (home-LC mapping
// + per-LC tables), a forwarding-engine index per LC, an LR-cache keyed by
// addresses, and the fabric/event machinery. This template captures that
// flow once; RouterSim (IPv4) and RouterSim6 (IPv6) are aliases of it over
// a Family policy. The routing table, update stream and trace generator
// (net::BasicRouteTable, net::generate_update_stream,
// trace::BasicTraceGenerator), the partition (partition::BasicRotPartition),
// the FE interface (trie::BasicLpmIndex) and the oracle
// (trie::BasicBinaryTrie) are the address-generic templates, all named
// through Family::Addr; the policy supplies only what differs between the
// families:
//
//   struct Family {
//     using Addr;                     // packet destination type
//     static std::uint64_t hash_bits(const Addr&);       // waiting-list key
//     // The RouterConfig field holding this family's partition knobs:
//     static const partition::BasicPartitionConfig<Addr>& partition_config(
//         const RouterConfig&);
//     static std::unique_ptr<trie::BasicLpmIndex<Addr>> build_fe(
//         const net::BasicRouteTable<Addr>&, const RouterConfig&);
//   };
//
// Execution model. One calendar queue drives every LC's events on the
// calling thread, merged with an arrival lane that yields each packet's
// first lookup straight from the per-LC arrival times (the lane's seqs are
// reserved in the queue, so ties break as if every arrival were queued).
// A fabric send happens in two phases: the *egress* phase
// (source-port serialization, traversal, fault draws) runs when the handler
// sends and yields a raw arrival time at the destination port; the message
// then waits in an in-flight min-heap keyed (raw arrival, origin LC,
// per-origin send sequence), and its *ingress commit* (destination-port
// serialization) runs when it leaves the heap. A message commits before any
// queue event at the same or a later time, so each destination port sees
// its arrivals in that canonical order — which fixes the port's ingress
// timing independently of which handler happened to send first.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/basic_lr_cache.h"
#include "core/health_tracker.h"
#include "core/router_config.h"
#include "fabric/fabric.h"
#include "net/update_stream.h"
#include "partition/rot_partition.h"
#include "sim/calendar_queue.h"
#include "sim/packet_source.h"
#include "trace/trace_gen.h"
#include "trie/binary_trie.h"

namespace spal::core {

template <typename Family>
class BasicRouterSim {
 public:
  using Addr = typename Family::Addr;
  using Table = net::BasicRouteTable<Addr>;
  using Update = net::BasicTableUpdate<Addr>;
  using Partition = partition::BasicRotPartition<Addr>;
  using Fe = std::unique_ptr<trie::BasicLpmIndex<Addr>>;
  using Oracle = trie::BasicBinaryTrie<Addr>;
  using Cache = cache::BasicLrCache<Addr>;

  /// Builds the router: fragments `table` (if configured), builds one FE
  /// per LC over its forwarding table, and instantiates LR-caches/fabric.
  BasicRouterSim(const Table& table, const RouterConfig& config)
      : config_(config), full_table_(table) {
    if (config.num_lcs < 1) {
      throw std::invalid_argument("RouterSim: num_lcs must be >= 1");
    }
    // Throws for a rate that is not finite and positive or whose arrival
    // gaps overflow an int, before any run generates arrivals from it.
    (void)sim::arrival_bounds(config.line_rate_gbps);
    // Throws for an update mix the stream generator cannot draw as given,
    // before any run generates a stream from it.
    if (config.update.interval_cycles != 0) {
      net::check_update_mix(config.update.announce_fraction,
                            config.update.withdraw_fraction);
    }
    if (config.migration.enabled) {
      if (!config.partition || config.num_lcs < 2) {
        throw std::invalid_argument(
            "RouterSim: migration requires a partitioned router with >= 2 LCs");
      }
      if (config.migration.from < 0 ||
          config.migration.from >= config.num_lcs ||
          config.migration.to < 0 || config.migration.to >= config.num_lcs ||
          config.migration.from == config.migration.to) {
        throw std::invalid_argument(
            "RouterSim: migration from/to must be distinct valid LCs");
      }
      if (config.rebalancer.enabled) {
        // Both subsystems drive the same MigrationState machine; an
        // operator transfer racing an autonomous one is undefined.
        throw std::invalid_argument(
            "RouterSim: migration and rebalancer are mutually exclusive");
      }
    }
    if (config.rebalancer.enabled) {
      if (!config.partition || config.num_lcs < 2) {
        throw std::invalid_argument(
            "RouterSim: rebalancer requires a partitioned router with >= 2 "
            "LCs");
      }
      if (config.rebalancer.window_cycles == 0) {
        throw std::invalid_argument(
            "RouterSim: rebalancer window_cycles must be nonzero");
      }
    }
    // Fragment the table (an unpartitioned router keeps the full table in
    // every LC, modelled as a single-partition fragmentation).
    rot_ = std::make_unique<Partition>(
        table, config_.partition ? config_.num_lcs : 1,
        Family::partition_config(config_));
    replica_plan_ = partition::assign_replicas(
        config_.num_lcs,
        replication_active() ? config_.replication.replicas : 0);
    build_residents();
    if (config_.use_lr_cache) {
      caches_.reserve(static_cast<std::size_t>(config_.num_lcs));
      for (int lc = 0; lc < config_.num_lcs; ++lc) {
        cache::LrCacheConfig cache_config = config_.cache;
        cache_config.seed ^= static_cast<std::uint64_t>(lc) * 0x9e3779b97f4a7c15ULL;
        caches_.push_back(std::make_unique<Cache>(cache_config));
      }
    }
    fabric::FabricConfig fabric_config = config_.fabric;
    fabric_config.ports = config_.num_lcs;
    fabric_ = std::make_unique<fabric::Fabric>(fabric_config, config_.fault);
  }

  /// Runs one simulation over per-LC destination streams (streams.size()
  /// must equal ψ). With `verify`, every resolved next hop is checked
  /// against a full-table oracle and mismatches are counted.
  RouterResult run(const std::vector<std::vector<Addr>>& streams,
                   bool verify = false) {
    if (streams.size() != static_cast<std::size_t>(config_.num_lcs)) {
      throw std::invalid_argument("RouterSim::run: one stream per LC required");
    }
    // Reset run state: every run starts from a cold router.
    result_ = RouterResult();
    result_.per_lc_latency.assign(static_cast<std::size_t>(config_.num_lcs),
                                  sim::LatencyStats{});
    result_.per_lc.assign(static_cast<std::size_t>(config_.num_lcs), LcStats{});
    result_.remote_fanout.assign(
        static_cast<std::size_t>(config_.num_lcs) *
            static_cast<std::size_t>(config_.num_lcs),
        0);
    waiting_depth_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    // Global packet ids are LC-major: LC lc's i-th packet is id
    // lc_first_packet_[lc] + i, and its destination is read from the
    // caller's stream (destination()). Each LC's arrival times are
    // generated straight into its id range; the arrival lane streams them
    // to the loop (run_events), so they are never scheduled.
    streams_ = &streams;
    lc_first_packet_.assign(1, 0);
    for (const auto& stream : streams) {
      lc_first_packet_.push_back(lc_first_packet_.back() + stream.size());
    }
    const std::size_t total_packets = lc_first_packet_.back();
    arrival_time_.resize(total_packets);
    resolved_.assign(total_packets, 0);
    std::uint64_t arrival_horizon = 0;
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      const std::size_t first = lc_first_packet_[static_cast<std::size_t>(lc)];
      const std::size_t count = streams[static_cast<std::size_t>(lc)].size();
      sim::fill_arrival_times(
          config_.line_rate_gbps,
          config_.seed ^ (0xabcdef12345ULL + static_cast<std::uint64_t>(lc)),
          std::span(arrival_time_).subspan(first, count));
      if (count != 0) {
        arrival_horizon = std::max(arrival_horizon, arrival_time_[first + count - 1]);
      }
    }
    // Live route-update pipeline: how many updates this run injects, one
    // per interval (by default as many as fit the arrival horizon).
    const bool live_updates = config_.update.interval_cycles != 0;
    std::size_t update_count = 0;
    if (live_updates) {
      update_count = config_.update.count;
      if (update_count == 0) {
        update_count = static_cast<std::size_t>(arrival_horizon /
                                                config_.update.interval_cycles);
      }
    }
    verify_ = verify;
    timeout_base_ = config_.recovery.timeout_cycles;
    if (timeout_base_ == 0) {
      // Auto: a lightly loaded remote round trip (two fabric traversals plus
      // one FE service) with 16x slack for queueing. A too-small timeout is
      // safe — spurious retransmits are absorbed by duplicate suppression —
      // but wastes fabric messages.
      timeout_base_ = 16 * (2 * fabric_->min_lookahead() +
                            static_cast<std::uint64_t>(std::max(
                                1, config_.fe_service_cycles)));
    }
    probe_interval_ = config_.replication.probe_interval_cycles != 0
                          ? config_.replication.probe_interval_cycles
                          : timeout_base_;
    // Failover run state: health views, re-home map, resync queues, and the
    // in-flight migration are all per-run (the residents persist across
    // runs and are rebuilt when updates dirtied them).
    health_ = HealthTracker(config_.num_lcs, config_.replication.suspect_after,
                            config_.replication.down_after);
    home_remap_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      home_remap_[static_cast<std::size_t>(lc)] = lc;
    }
    stale_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    resyncing_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    resync_sending_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    missed_updates_.assign(static_cast<std::size_t>(config_.num_lcs), {});
    resync_sent_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    resync_head_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    migration_ = MigrationState{};
    window_frag_counts_.clear();
    track_outage_ = config_.track_outage_latency && config_.fault.enabled &&
                    !config_.fault.outages.empty();
    outage_spans_.clear();
    if (track_outage_) {
      // Union of every port's outage windows, merged and sorted: the
      // mid-outage latency histogram keys on the packet's arrival time
      // falling inside any of them.
      for (const auto& outage : config_.fault.outages) {
        if (outage.end_cycle <= outage.start_cycle) continue;
        outage_spans_.emplace_back(outage.start_cycle, outage.end_cycle);
      }
      std::sort(outage_spans_.begin(), outage_spans_.end());
      std::size_t merged = 0;
      for (const auto& span : outage_spans_) {
        if (merged != 0 && span.first <= outage_spans_[merged - 1].second) {
          outage_spans_[merged - 1].second =
              std::max(outage_spans_[merged - 1].second, span.second);
        } else {
          outage_spans_[merged++] = span;
        }
      }
      outage_spans_.resize(merged);
      track_outage_ = !outage_spans_.empty();
    }
    per_lc_outage_latency_.assign(
        track_outage_ ? static_cast<std::size_t>(config_.num_lcs) : 0,
        sim::LatencyStats{});
    result_.fault.per_lc_outage_cycles.assign(
        static_cast<std::size_t>(config_.num_lcs), 0);
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      result_.fault.per_lc_outage_cycles[static_cast<std::size_t>(lc)] =
          config_.fault.outage_cycles(lc);
    }
    for (const auto& c : caches_) c->reset();
    fabric_->reset();
    cache_port_free_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    fe_free_.assign(static_cast<std::size_t>(config_.num_lcs),
                    std::vector<std::uint64_t>(
                        static_cast<std::size_t>(std::max(1, config_.fe_parallelism)), 0));
    fe_busy_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    request_seq_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    send_seq_.assign(static_cast<std::size_t>(config_.num_lcs), 0);
    // A prior run's live updates mutated the residents / oracle: rebuild
    // them so every run starts from the configured table. Otherwise only
    // the structures a prior run's migrations added are dropped.
    if (residents_dirty_) {
      build_residents();
      residents_dirty_ = false;
    } else {
      for (auto& residents : residents_) {
        std::erase_if(residents, [](const Resident& res) {
          return res.role == Role::kMigrated;
        });
      }
    }
    if (oracle_dirty_) {
      oracle_.reset();
      oracle_dirty_ = false;
    }
    if ((verify_ || faults_active()) && oracle_ == nullptr) {
      // Verify mode reads it per packet; fault mode's degraded slow path
      // falls back to it.
      oracle_ = std::make_unique<Oracle>(full_table_);
    }
    updates_.clear();
    update_inject_time_.clear();
    update_settle_time_.clear();
    update_outstanding_.clear();
    if (live_updates && update_count > 0) {
      net::UpdateStreamConfig stream_config;
      stream_config.count = update_count;
      stream_config.seed = config_.update.seed;
      stream_config.announce_fraction = config_.update.announce_fraction;
      stream_config.withdraw_fraction = config_.update.withdraw_fraction;
      stream_config.next_hops = config_.update.next_hops;
      updates_ = net::generate_update_stream(full_table_, stream_config);
      update_inject_time_.resize(updates_.size());
      update_settle_time_.assign(updates_.size(), kSettlePending);
      update_outstanding_.assign(updates_.size(), 0);
      // Updates apply to a mutable copy of each LC's own fragment.
      for (auto& residents : residents_) {
        Resident& own = residents.front();
        if (own.table == nullptr) {
          own.table = std::make_unique<Table>(own_table(own.fragment));
        }
      }
    }
    // The run ahead will mutate the residents (every injected update is
    // applied) and the oracle if present; flag them for the next run.
    residents_dirty_ = !updates_.empty();
    oracle_dirty_ = !updates_.empty() && oracle_ != nullptr;

    // Rebalancer windows: one tick per window of the arrival schedule.
    const std::size_t rebalance_windows =
        config_.rebalancer.enabled
            ? static_cast<std::size_t>(arrival_horizon /
                                       config_.rebalancer.window_cycles) + 1
            : 0;

    // The initial schedule. Its order — updates, the migration start,
    // arrivals LC by LC, rebalancer ticks — breaks equal-time ties, so it
    // is part of the result. The arrivals keep their place as a reserved
    // seq range (packet p has seq arrival_seq_ + p) instead of calendar
    // entries, and the wheel is sized for the events it holds from the
    // start: its buckets keep their capacity once drained.
    queue_ = sim::CalendarQueue<Event>{};
    queue_.reserve(updates_.size() + (config_.migration.enabled ? 1 : 0) +
                   rebalance_windows);
    inflight_.clear();
    waiting_.clear();
    pending_.clear();
    memory_counters_ = MemoryCounters{};
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      const std::uint64_t at =
          (static_cast<std::uint64_t>(i) + 1) * config_.update.interval_cycles;
      update_inject_time_[i] = at;
      queue_.schedule(
          at, Event{Event::Type::kUpdateInject, 0, Addr{},
                    Requester{0, static_cast<std::int64_t>(i), false}, false,
                    net::kNoRoute});
    }
    if (config_.migration.enabled) {
      // Local management-plane event at `from`: snapshot and start
      // streaming.
      queue_.schedule(config_.migration.start_cycle,
                      Event{Event::Type::kMigrateStart, config_.migration.from,
                            Addr{}, Requester{config_.migration.from, -1, false},
                            false, net::kNoRoute});
    }
    arrival_seq_ = queue_.reserve_seqs(total_packets);
    lane_ = sim::ArrivalLane(arrival_time_, lc_first_packet_);
    if (config_.rebalancer.enabled) {
      // Per-window offered load per fragment, precomputed from the arrival
      // schedule (the home mapping is static; which LC *serves* a fragment
      // is applied at tick time). Counting here instead of in handle_lookup
      // keeps the hot path untouched and immune to the cache-port gate's
      // event reschedules double-counting an arrival.
      const std::uint64_t win = config_.rebalancer.window_cycles;
      window_frag_counts_.assign(
          rebalance_windows,
          std::vector<std::uint64_t>(static_cast<std::size_t>(config_.num_lcs), 0));
      for (std::size_t lc = 0; lc < streams.size(); ++lc) {
        const std::size_t first = lc_first_packet_[lc];
        for (std::size_t i = 0; i < streams[lc].size(); ++i) {
          const auto w = static_cast<std::size_t>(arrival_time_[first + i] / win);
          const int frag = rot_->home_of(streams[lc][i]);
          ++window_frag_counts_[w][static_cast<std::size_t>(frag)];
        }
      }
      // Finite tick schedule (one per window, management plane at LC 0):
      // a self-rescheduling tick would never let the event queue drain.
      for (std::size_t w = 0; w < rebalance_windows; ++w) {
        queue_.schedule(
            (static_cast<std::uint64_t>(w) + 1) * win,
            Event{Event::Type::kRebalanceTick, 0, Addr{},
                  Requester{0, -1, false}, false, net::kNoRoute});
      }
    }

    run_events();
    streams_ = nullptr;
    // Rebuild the FEs the run's last updates left stale, so
    // trie_storage_bytes(), host_fe_lookup() and the next run see them
    // built.
    for (auto& residents : residents_) {
      for (Resident& res : residents) built_fe(res);
    }

    result_.failover.enabled = failover_enabled();
    result_.rebalancer.enabled = config_.rebalancer.enabled;
    if (config_.memory.enabled) {
      MemoryStats& mem = result_.memory;
      mem.enabled = true;
      mem.matching_overhead_cycles = config_.memory.matching_overhead_cycles;
      mem.tiers.clear();
      mem.tiers.reserve(config_.memory.tiers.size());
      for (const MemoryTier& tier : config_.memory.tiers) {
        MemoryTierStats stats;
        stats.name = tier.name;
        stats.capacity_bytes = tier.capacity_bytes;
        stats.access_cycles = tier.access_cycles;
        mem.tiers.push_back(std::move(stats));
      }
      const MemoryCounters& c = memory_counters_;
      mem.lookups = c.lookups;
      mem.charged_cycles = c.charged_cycles;
      for (std::size_t t = 0; t < mem.tiers.size(); ++t) {
        mem.tiers[t].accesses = c.tier_accesses[t];
        mem.tiers[t].cycles = c.tier_cycles[t];
      }
      mem.matching_cycles =
          mem.lookups *
          static_cast<std::uint64_t>(mem.matching_overhead_cycles);
      // Byte accounting reflects every LC's end-of-run residents, frozen
      // ones included (identical to the built ones unless live updates
      // mutated them mid-run).
      for (const auto& residents : residents_) {
        for (const Resident& res : residents) {
          mem.storage_bytes += res.model.placed_bytes();
          for (const ArenaPlacement& placement : res.model.placements()) {
            mem.tiers[placement.tier].placed_bytes += placement.bytes;
            ++mem.tiers[placement.tier].placed_arenas;
          }
        }
      }
    }
    // Per-LC latency merges are exact (identical bucket layout), so merging
    // in LC order reproduces the global histogram a direct record() per
    // packet would have produced.
    for (const sim::LatencyStats& lc_latency : result_.per_lc_latency) {
      result_.latency.merge(lc_latency);
    }
    if (track_outage_) {
      result_.outage_latency_tracked = true;
      for (const sim::LatencyStats& lc_latency : per_lc_outage_latency_) {
        result_.outage_latency.merge(lc_latency);
      }
    }
    for (std::size_t lc = 0; lc < caches_.size(); ++lc) {
      result_.per_lc[lc].cache = caches_[lc]->stats();
      result_.cache_total.accumulate(caches_[lc]->stats());
    }
    result_.fabric = fabric_->stats();
    if (result_.makespan_cycles > 0) {
      const double capacity =
          static_cast<double>(result_.makespan_cycles) *
          static_cast<double>(std::max(1, config_.fe_parallelism));
      for (std::size_t lc = 0; lc < fe_busy_.size(); ++lc) {
        const double utilization =
            static_cast<double>(fe_busy_[lc]) / capacity;
        result_.per_lc[lc].fe_busy_cycles = fe_busy_[lc];
        result_.per_lc[lc].fe_utilization = utilization;
        result_.max_fe_utilization =
            std::max(result_.max_fe_utilization, utilization);
      }
    }
    return result_;
  }

  /// Convenience: generates streams from a workload profile over the full
  /// routing table (the union of the partitions) and runs.
  RouterResult run_workload(const trace::WorkloadProfile& profile,
                            bool verify = false) {
    const trace::BasicTraceGenerator<Addr> generator(profile, full_table_);
    std::vector<std::vector<Addr>> streams;
    streams.reserve(static_cast<std::size_t>(config_.num_lcs));
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      streams.push_back(generator.generate(lc, config_.packets_per_lc));
    }
    return run(streams, verify);
  }

  const RouterConfig& config() const { return config_; }
  /// Worker threads run() uses: always 1 (one event loop per run).
  int planned_shards(bool /*verify*/ = false) const { return 1; }
  /// Partition diagnostics (control bits, per-LC table sizes).
  const Partition& rot() const { return *rot_; }

  /// Per-LC storage in bytes of each LC's own forwarding index.
  std::vector<std::size_t> trie_storage_bytes() const {
    std::vector<std::size_t> sizes;
    sizes.reserve(residents_.size());
    for (const auto& residents : residents_) {
      sizes.push_back(residents.front().fe->storage_bytes());
    }
    return sizes;
  }

  /// Host-side (wall-clock) lookups through one LC's own built forwarding
  /// engine: the interleaved batch pipeline in chunks of `batch` keys when
  /// batch > 1, the scalar path otherwise. Results are bit-identical either
  /// way; this does not touch simulation state — the throughput benches use
  /// it to measure real ns/lookup on the per-LC structures.
  void host_fe_lookup(int lc, const Addr* keys, std::size_t n,
                      net::NextHop* out, std::size_t batch) const {
    const auto& fe = *residents_[static_cast<std::size_t>(lc)].front().fe;
    if (batch <= 1) {
      for (std::size_t i = 0; i < n; ++i) out[i] = fe.lookup(keys[i]);
      return;
    }
    for (std::size_t i = 0; i < n; i += batch) {
      fe.lookup_batch(keys + i, std::min(batch, n - i), out + i);
    }
  }

 private:
  // FE cycles the model charges for work outside the lookup flow.
  /// The degraded slow path: an unpartitioned full-table LPM at the arrival
  /// LC, costed like the paper's conventional router (the 62-cycle DP-trie
  /// FE time it quotes).
  static constexpr std::uint64_t kDegradedServiceCycles = 62;
  /// An incremental trie insert or remove walks the DP lookup path once.
  static constexpr std::uint64_t kIncrementalUpdateCycles = 62;
  /// An epoch rebuild of a table of `entries` prefixes: 1,000 cycles plus a
  /// quarter cycle per entry (integer math, deterministic).
  static std::uint64_t rebuild_cycles(std::size_t entries) {
    return 1'000 + std::uint64_t{entries} * 250 / 1'000;
  }

  struct Requester {
    int lc;               ///< LC the requesting packet arrived at
    std::int64_t packet;  ///< global packet id
    /// Set on a remote request when the arrival LC reserved a W=1 block;
    /// the home LC echoes it so the reply knows whether to fill.
    bool fill_on_reply = false;
    /// Request sequence number (fault mode only, 0 otherwise): the home LC
    /// echoes it in every reply so the requester can match replies to its
    /// pending-request table and suppress duplicates from retransmits.
    std::uint64_t seq = 0;
  };

  struct Event {
    enum class Type : std::uint8_t {
      kLookup,
      kFeComplete,
      kReply,
      kTimeout,   ///< remote-request timer (fault mode); requester.seq keys it
      kDegraded,  ///< slow-path completion for one packet (fault mode)
      // Live route-update pipeline (requester.packet carries the update
      // index into updates_; addr is unused):
      kUpdateInject,  ///< control plane emits update i to its home LCs
      kUpdateApply,   ///< update i reaches home LC `lc`: apply to its FE
      kInvalidate,    ///< invalidation for update i reaches LC `lc`'s cache
      // Failover subsystem (replication/migration; never scheduled when
      // both are off):
      kCopyLookup,    ///< re-routed request served from a replica copy;
                      ///< aux carries the fragment id
      kProbe,         ///< health probe at `lc`; requester.lc = the observer
      kProbeReply,    ///< probe response back at the observer
      kResyncFetch,   ///< rejoining LC asks the acting replica for its
                      ///< missed updates; aux = the stale LC
      kResyncSend,    ///< local pacing tick at the streaming replica
      kResyncChunk,   ///< batch of missed updates at the rejoining LC;
                      ///< aux = entry count
      kMigrateStart,  ///< local event at `from`: snapshot + begin streaming
      kMigrateSend,   ///< local pacing tick at `from`
      kMigrateChunk,  ///< snapshot chunk at `to`; fill flags the final chunk
      kMigrateDelta,  ///< double-delivered in-copy update at `to`
      kMigrateBuilt,  ///< local event at `to`: staged FE build finished
      kMigrateReady,  ///< `to` is ready; at `from`, triggers the cutover
      kCutover,       ///< cutover notice at `lc`: drop re-homed cache blocks
      kRebalanceTick, ///< rebalancer window boundary (management, LC 0)
    };
    Type type;
    int lc;
    Addr addr;
    Requester requester;
    /// Flag, by type: kFeComplete — fill the reserved block; kLookup — an
    /// old home relayed the request; kUpdateApply — the acting broadcast;
    /// kMigrateChunk — the final chunk.
    bool fill = false;
    net::NextHop hop = net::kNoRoute;
    /// Side-channel, by type: kLookup — the fragment of a relayed or
    /// fault-mode request; kFeComplete — the slot of the resident the job
    /// runs on; kCopyLookup, kUpdateApply, kMigrateDelta, kCutover — the
    /// fragment; kResyncFetch, kResyncSend — the stale LC; kResyncChunk,
    /// kMigrateChunk — a batch size.
    std::int32_t aux = -1;
  };

  /// One outstanding remote request (fault mode), keyed by its seq. Retries
  /// reuse the seq: any attempt's reply settles the request, and later
  /// replies for the same seq are counted as duplicates and dropped.
  struct PendingRequest {
    Addr addr;
    Requester requester;  ///< carries the seq and fill_on_reply flag
    int home;             ///< the address's fragment id (pre-remap)
    int target;           ///< LC the current attempt was sent to
    int attempt = 0;      ///< retransmits so far
  };

  /// One update apply deferred at a stale or dark primary (failover); the
  /// rejoin resync re-applies it.
  struct MissedUpdate {
    std::size_t index;  ///< into updates_
    int fragment;       ///< the fragment the apply was for
  };

  /// What a resident structure is to the LC holding it.
  enum class Role : std::uint8_t {
    kOwn,       ///< the LC's own fragment (resident 0)
    kCopy,      ///< a failover replica copy
    kMigrated,  ///< a fragment a migration moved here: staged, serving, or
                ///< left behind frozen when the fragment moved on
  };

  /// One forwarding structure resident at an LC: a fragment's table, the FE
  /// built over it, and the FE's memory-tier placement. Each LC keeps one
  /// list — its own fragment, then its replica copies in assign_replicas
  /// order, then migrated structures in arrival order — and packs the list
  /// into its memory tiers in that order. Migrated entries are append-only
  /// for the run: a fragment that moves on leaves its structure resident.
  struct Resident {
    int fragment;
    Role role;
    /// The mutable table updates apply to. Null on an own fragment until a
    /// run with live updates copies it from the partition.
    std::unique_ptr<Table> table;
    Fe fe;  ///< read through built_fe() during a run
    MemoryModel model;  ///< empty while the memory model is off
    /// Set when an update changed `table` under an FE that cannot update
    /// in place; built_fe() rebuilds the FE before its next read.
    bool stale = false;
  };

  using TableEntry = net::BasicRouteEntry<Addr>;

  /// State of the (single) in-flight live fragment migration — operator-
  /// initiated (config_.migration, fixed endpoints, state persists after the
  /// cutover) or rebalancer-triggered (endpoints chosen per trigger; the
  /// state resets at cutover for the next trigger).
  struct MigrationState {
    bool active = false;      ///< a transfer has been started
    int frag = -1;            ///< fragment being moved
    int src = -1;             ///< LC currently serving it
    int dst = -1;             ///< LC it is moving to
    bool aborted = false;     ///< target died mid-copy; discarding in flight
    bool copying = false;     ///< snapshot streaming + double-delivery window
    bool fe_ready = false;    ///< staged structure resident at the target
    bool cut_over = false;
    bool final_sent = false;  ///< last snapshot chunk left the source
    std::vector<TableEntry> snapshot;    ///< at the source, taken at start
    std::size_t cursor = 0;              ///< next snapshot entry to chunk
    /// In-flight chunk payloads; FIFO with the kMigrateChunk events (one
    /// source port, reliable, non-decreasing inject times).
    std::deque<std::vector<TableEntry>> chunk_queue;
    std::vector<TableEntry> staged_entries;   ///< received at the target
    std::vector<std::size_t> buffered_deltas; ///< double-deliveries pre-build
  };

  /// A fabric message between its egress and ingress phases. Messages
  /// commit in (raw, origin_lc, origin_seq) order — origin_seq is a
  /// per-source-LC send counter, so the key is unique.
  struct InFlightMsg {
    std::uint64_t raw = 0;
    std::uint32_t origin_lc = 0;
    std::uint64_t origin_seq = 0;
    Event event{};
  };
  struct InFlightAfter {
    bool operator()(const InFlightMsg& a, const InFlightMsg& b) const {
      if (a.raw != b.raw) return a.raw > b.raw;
      if (a.origin_lc != b.origin_lc) return a.origin_lc > b.origin_lc;
      return a.origin_seq > b.origin_seq;
    }
  };

  // Waiting lists are keyed by the exact (LC, address) pair — the hash
  // comes from Family::hash_bits but equality compares full addresses, so
  // 128-bit families cannot alias two lists.
  struct WaitKey {
    int lc;
    Addr addr;
    bool operator==(const WaitKey&) const = default;
  };
  struct WaitKeyHash {
    std::size_t operator()(const WaitKey& k) const {
      return static_cast<std::size_t>(
          Family::hash_bits(k.addr) ^
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.lc)) *
           0x9e3779b97f4a7c15ULL));
    }
  };
  WaitKey wait_key(int lc, const Addr& addr) const { return WaitKey{lc, addr}; }

  using WaitMap = std::unordered_map<WaitKey, std::vector<Requester>, WaitKeyHash>;

  // ----- Event loop --------------------------------------------------------

  /// Runs the egress phase at `src` and parks the message in the in-flight
  /// heap until its ingress commit.
  void send_reliable(int src, std::uint64_t inject, const Event& event) {
    push_inflight(src, fabric_->egress(src, inject).raw_arrival, event);
  }

  /// send_reliable() through the fabric's loss layer: a lost message never
  /// enters the in-flight heap.
  void send_lossy(int src, int dst, std::uint64_t inject, const Event& event) {
    const fabric::Egress out = fabric_->egress_lossy(src, dst, inject);
    if (out.delivered) push_inflight(src, out.raw_arrival, event);
  }

  void push_inflight(int src, std::uint64_t raw, const Event& event) {
    inflight_.push_back(InFlightMsg{raw, static_cast<std::uint32_t>(src),
                                    send_seq_[static_cast<std::size_t>(src)]++,
                                    event});
    std::push_heap(inflight_.begin(), inflight_.end(), InFlightAfter{});
  }

  /// Runs the destination-port ingress phase for the canonically-first
  /// in-flight message and schedules its event.
  void commit_front() {
    std::pop_heap(inflight_.begin(), inflight_.end(), InFlightAfter{});
    const InFlightMsg msg = inflight_.back();
    inflight_.pop_back();
    queue_.schedule(fabric_->ingress_commit(msg.event.lc, msg.raw), msg.event);
  }

  /// Commits in-flight messages and dispatches events until the calendar,
  /// the arrival lane and the in-flight heap are all empty. The next event
  /// is the earlier of the calendar head and the lane head by (time, seq);
  /// a message whose raw arrival is at or before its time commits first
  /// (the canonical order; see the file comment).
  void run_events() {
    for (;;) {
      const bool from_lane =
          !lane_.empty() &&
          (queue_.empty() ||
           !queue_.head_before(lane_.next_time(), arrival_seq_ + lane_.next_packet()));
      if (!from_lane && queue_.empty()) {
        if (inflight_.empty()) return;
        commit_front();
        continue;
      }
      const std::uint64_t next = from_lane ? lane_.next_time() : queue_.next_time();
      if (!inflight_.empty() && inflight_.front().raw <= next) {
        commit_front();
      } else if (from_lane) {
        const auto [packet, lc_index] = lane_.pop();
        const std::vector<Addr>& stream = (*streams_)[lc_index];
        const std::size_t i = packet - lc_first_packet_[lc_index];
        sim::read_ahead(stream.data(), i, stream.size());
        const int lc = static_cast<int>(lc_index);
        dispatch(next, Event{Event::Type::kLookup, lc, stream[i],
                             Requester{lc, static_cast<std::int64_t>(packet), false},
                             false, net::kNoRoute});
      } else {
        const auto [now, event] = queue_.pop();
        dispatch(now, event);
      }
    }
  }

  /// The destination of packet `packet`, which arrived at `lc`, read from
  /// the run's streams.
  const Addr& destination(int lc, std::size_t packet) const {
    const auto lc_index = static_cast<std::size_t>(lc);
    return (*streams_)[lc_index][packet - lc_first_packet_[lc_index]];
  }

  void dispatch(std::uint64_t now, const Event& event) {
    // A timer whose request already settled (reply accepted or degraded)
    // is stale: skip it before it can stretch the measured makespan.
    if (event.type == Event::Type::kTimeout &&
        pending_.find(event.requester.seq) == pending_.end()) {
      return;
    }
    result_.makespan_cycles = std::max(result_.makespan_cycles, now);
    switch (event.type) {
      case Event::Type::kLookup: handle_lookup(now, event); break;
      case Event::Type::kFeComplete: handle_fe_complete(now, event); break;
      case Event::Type::kReply: handle_reply(now, event); break;
      case Event::Type::kTimeout: handle_timeout(now, event); break;
      case Event::Type::kDegraded: handle_degraded(now, event); break;
      case Event::Type::kUpdateInject: handle_update_inject(now, event); break;
      case Event::Type::kUpdateApply: handle_update_apply(now, event); break;
      case Event::Type::kInvalidate: handle_invalidate(now, event); break;
      case Event::Type::kCopyLookup: handle_copy_lookup(now, event); break;
      case Event::Type::kProbe: handle_probe(now, event); break;
      case Event::Type::kProbeReply: handle_probe_reply(now, event); break;
      case Event::Type::kResyncFetch: handle_resync_fetch(now, event); break;
      case Event::Type::kResyncSend: handle_resync_send(now, event); break;
      case Event::Type::kResyncChunk: handle_resync_chunk(now, event); break;
      case Event::Type::kMigrateStart: handle_migrate_start(now, event); break;
      case Event::Type::kMigrateSend: handle_migrate_send(now, event); break;
      case Event::Type::kMigrateChunk: handle_migrate_chunk(now, event); break;
      case Event::Type::kMigrateDelta: handle_migrate_delta(now, event); break;
      case Event::Type::kMigrateBuilt: handle_migrate_built(now, event); break;
      case Event::Type::kMigrateReady: handle_migrate_ready(now, event); break;
      case Event::Type::kCutover: handle_cutover(now, event); break;
      case Event::Type::kRebalanceTick: handle_rebalance_tick(now, event); break;
    }
  }

  // ----- Waiting lists -----------------------------------------------------

  /// The waiting list for (lc, addr), creating it from the node free-list
  /// when possible so the hot miss path performs no allocation.
  std::vector<Requester>& waiters(int lc, const Addr& addr) {
    const WaitKey key = wait_key(lc, addr);
    const auto it = waiting_.find(key);
    if (it != waiting_.end()) return it->second;
    if (!wait_pool_.empty()) {
      auto node = std::move(wait_pool_.back());
      wait_pool_.pop_back();
      node.key() = key;
      return waiting_.insert(std::move(node)).position->second;
    }
    return waiting_[key];
  }

  /// Parks a requester on the (lc, addr) waiting list, tracking the per-LC
  /// parked-requester high-water mark.
  void park(int lc, const Addr& addr, const Requester& requester) {
    waiters(lc, addr).push_back(requester);
    auto& depth = waiting_depth_[static_cast<std::size_t>(lc)];
    ++depth;
    auto& lc_stats = result_.per_lc[static_cast<std::size_t>(lc)];
    lc_stats.waiting_highwater = std::max(lc_stats.waiting_highwater, depth);
  }

  /// Moves the waiting list for (lc, addr) into a scratch buffer (empty if
  /// none) and recycles both the map node and the vector capacity. The
  /// scratch is shared: callers drain it before the next take_waiters().
  const std::vector<Requester>& take_waiters(int lc, const Addr& addr) {
    wait_scratch_.clear();
    const auto it = waiting_.find(wait_key(lc, addr));
    if (it != waiting_.end()) {
      // Swap (not move) so the extracted node inherits the scratch's old
      // capacity and carries it back through the pool.
      wait_scratch_.swap(it->second);
      wait_pool_.push_back(waiting_.extract(it));
      waiting_depth_[static_cast<std::size_t>(lc)] -= wait_scratch_.size();
    }
    return wait_scratch_;
  }

  // ----- Lookup flow -------------------------------------------------------

  void handle_lookup(std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const Addr addr = event.addr;
    const Requester requester = event.requester;
    if (!caches_.empty()) {
      // One probe per cycle per LR-cache (Sec. 5.1): contend for the port.
      auto& port_free = cache_port_free_[static_cast<std::size_t>(lc)];
      if (port_free > now) {
        queue_.schedule(port_free, event);
        return;
      }
      port_free = now + 1;
      Cache& cache = *caches_[static_cast<std::size_t>(lc)];
      const cache::ProbeResult probe = cache.probe(addr, now);
      switch (probe.state) {
        case cache::ProbeState::kHit:
          deliver_result(now + 1, lc, addr, probe.next_hop, requester);
          return;
        case cache::ProbeState::kWaiting:
          if (event.fill && requester.lc == lc && requester.fill_on_reply &&
              serving_lc(event.aux) == lc) {
            // An old home relayed this request back to the LC that sent it:
            // a cutover re-homed the fragment here while it was in flight.
            // The waiting block is the one the request reserved when it was
            // sent (it is parked there already), and only this answer fills
            // it: run the job here instead of parking behind it. In fault
            // mode the job settles the pending entry, as a local serve
            // after a timeout does.
            if (faults_active()) {
              const auto it = pending_.find(requester.seq);
              if (it == pending_.end()) return;  // settled meanwhile
              pending_.erase(it);
            }
            start_fe_job(now, lc, addr, /*fill=*/true, requester,
                         serving_slot(lc, event.aux));
            return;
          }
          park(lc, addr, requester);
          return;
        case cache::ProbeState::kMiss:
          break;
      }
    }
    const int frag = config_.partition ? rot_->home_of(addr) : lc;
    const int home = serving_lc(frag);
    if (home == lc) {
      bool fill = false;
      if (!caches_.empty() && config_.early_reservation) {
        fill = caches_[static_cast<std::size_t>(lc)]->reserve(
            addr, cache::Origin::kLocal, now);
        if (fill) park(lc, addr, requester);
      }
      // frag != lc only after a cutover re-homed the fragment here: the
      // job then runs on the migrated structure, not this LC's own FE.
      start_fe_job(now, lc, addr, fill, requester, serving_slot(lc, frag));
    } else {
      // Failover: steer around a non-alive primary before committing the
      // request (choose_target is the identity while everyone looks alive,
      // so R = 0 and fault-free runs take the exact pre-failover path).
      int target = home;
      if (replication_active() && faults_active()) {
        target = choose_target(lc, frag, now);
      }
      if (target == lc) {
        // This LC holds a live copy of the fragment: serve the miss from
        // its own resident replica instead of crossing the fabric.
        ++result_.failover.local_replica_serves;
        bool fill = false;
        if (!caches_.empty() && config_.early_reservation) {
          fill = caches_[static_cast<std::size_t>(lc)]->reserve(
              addr, cache::Origin::kRemote, now);
          if (fill) park(lc, addr, requester);
        }
        start_fe_job(now, lc, addr, fill, requester,
                     resident_slot(lc, frag, Role::kCopy));
        return;
      }
      if (requester.lc != lc) {
        // A remote request that raced a migration cutover to this LC (it
        // was the fragment's home when sent): relay it onward under the
        // original requester and seq — the requester's own timeout still
        // covers the round trip, and its pending entry matches the reply.
        count_request(lc, target);
        const Event relay{Event::Type::kLookup, target, addr, requester,
                          /*fill=*/true, net::kNoRoute, frag};
        if (faults_active()) {
          send_lossy(lc, target, now + 1, relay);
        } else {
          send_reliable(lc, now + 1, relay);
        }
        return;
      }
      Requester forwarded = requester;
      forwarded.fill_on_reply = false;
      if (!caches_.empty() && config_.early_reservation) {
        if (caches_[static_cast<std::size_t>(lc)]->reserve(
                addr, cache::Origin::kRemote, now)) {
          park(lc, addr, requester);
          forwarded.fill_on_reply = true;
        }
      }
      send_request(now, lc, frag, target, addr, forwarded);
    }
  }

  /// Queues a lookup of `addr` on resident `slot` of `lc`'s FE servers.
  void start_fe_job(std::uint64_t now, int lc, const Addr& addr,
                    bool fill, Requester direct, int slot) {
    // k-server deterministic queue: the job runs on the earliest-free engine.
    auto& servers = fe_free_[static_cast<std::size_t>(lc)];
    auto& fe_free = *std::min_element(servers.begin(), servers.end());
    const std::uint64_t start = std::max(now, fe_free);
    std::uint64_t service = static_cast<std::uint64_t>(config_.fe_service_cycles);
    Resident& res = resident_at(lc, slot);
    if (config_.memory.enabled) {
      // Memory-tier pricing: a counted lookup against the structure as
      // built at admission time sets this job's service time (the result
      // the packet receives is still computed at completion, so an update
      // that lands in between changes the answer, not this job's price).
      // Each resident prices against its own placement.
      trie::MemAccessCounter counter;
      built_fe(res).lookup_counted(addr, counter);
      service = res.model.charge(counter, memory_counters_);
    }
    const std::uint64_t completion = start + service;
    fe_free = completion;
    fe_busy_[static_cast<std::size_t>(lc)] += service;
    ++result_.fe_lookups;
    if (res.role == Role::kCopy) ++result_.failover.replica_lookups;
    auto& lc_stats = result_.per_lc[static_cast<std::size_t>(lc)];
    ++lc_stats.fe_lookups;
    lc_stats.fe_queue_wait_cycles += start - now;
    queue_.schedule(completion, Event{Event::Type::kFeComplete, lc, addr,
                                      direct, fill, net::kNoRoute, slot});
  }

  void handle_fe_complete(std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const Addr addr = event.addr;
    auto& residents = residents_[static_cast<std::size_t>(lc)];
    Resident* res = &residents[static_cast<std::size_t>(event.aux)];
    if (res->role == Role::kMigrated) {
      // A job on a re-homed fragment answers from the fragment's latest
      // structure here, even if a newer one arrived while it queued.
      res = &residents[static_cast<std::size_t>(
          resident_slot(lc, res->fragment, Role::kMigrated))];
    }
    const bool copy = res->role == Role::kCopy;
    const net::NextHop hop = built_fe(*res).lookup(addr);
    if (event.fill) {
      if (!caches_.empty()) {
        caches_[static_cast<std::size_t>(lc)]->fill(addr, hop, now);
      }
      // Serve everything parked on the block: local packets resolve, remote
      // requesters receive replies over the fabric.
      for (const Requester& r : take_waiters(lc, addr)) {
        deliver_result(now, lc, addr, hop, r);
      }
    } else {
      // No reserved block (early recording disabled or the reservation
      // failed): cache the result late so subsequent packets still hit.
      // A copy job serving a re-routed remote requester is pure pass-
      // through: the result belongs in the requester's cache (via the
      // reply), not in the holder's.
      const bool pass_through = copy && event.requester.lc != lc;
      if (!caches_.empty() && !pass_through) {
        // A copy-served result at the arrival LC is remote-homed data and
        // keeps the remote quota; everything else is the pre-failover path.
        caches_[static_cast<std::size_t>(lc)]->insert(
            addr, hop, copy ? cache::Origin::kRemote : cache::Origin::kLocal,
            now);
      }
      deliver_result(now, lc, addr, hop, event.requester);
    }
  }

  void handle_reply(std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const Addr addr = event.addr;
    if (faults_active()) {
      // Match the reply to its pending request. A miss means the request
      // already settled — an earlier attempt's reply was accepted or the
      // lookup fell back to the degraded path — so this one is a duplicate
      // and must not touch the cache or resolve anything twice.
      const auto it = pending_.find(event.requester.seq);
      if (it == pending_.end()) {
        ++result_.fault.duplicate_replies;
        return;
      }
      if (replication_active()) {
        // Evidence of life from the LC that answered this attempt.
        note_alive(lc, it->second.target, /*via_probe=*/false);
      }
      pending_.erase(it);
    }
    if (!caches_.empty()) {
      if (event.requester.fill_on_reply) {
        caches_[static_cast<std::size_t>(lc)]->fill(addr, event.hop, now);
      } else {
        // No reservation was made at request time; cache the result late.
        caches_[static_cast<std::size_t>(lc)]->insert(
            addr, event.hop, cache::Origin::kRemote, now);
      }
    }
    // Drain the packets parked while this reply was in flight (the carried
    // requester is usually among them; resolve_packet guards duplicates).
    // A parked requester is not always local: a remote request that raced a
    // migration cutover to this LC can hit the waiting block this LC's own
    // re-request reserved and park behind it. deliver_result sends such a
    // requester its reply — resolving it here would strand the packets
    // parked behind it at its own LC, with no timeout to recover them on
    // the fault-free path.
    for (const Requester& r : take_waiters(lc, addr)) {
      deliver_result(now, lc, addr, event.hop, r);
    }
    resolve_packet(now, event.requester, event.hop);
  }

  void deliver_result(std::uint64_t now, int lc, const Addr& addr,
                      net::NextHop hop, const Requester& requester) {
    if (requester.lc == lc) {
      resolve_packet(now, requester, hop);
      return;
    }
    ++result_.remote_replies;
    const Event reply{Event::Type::kReply, requester.lc, addr, requester,
                      false, hop};
    if (faults_active()) {
      // The reply can be lost too; the requester's timeout covers the whole
      // round trip, so a dropped reply is indistinguishable from a dropped
      // request and triggers the same retry/degraded recovery.
      send_lossy(lc, requester.lc, now, reply);
      return;
    }
    send_reliable(lc, now, reply);
  }

  /// Marks the requester's packet resolved; false when it already was
  /// (waiting-list drains and the degraded path can race the same packet).
  bool resolve_packet(std::uint64_t now, const Requester& requester,
                      net::NextHop hop) {
    const auto index = static_cast<std::size_t>(requester.packet);
    if (resolved_[index]) return false;
    resolved_[index] = 1;
    ++result_.resolved_packets;
    const std::uint64_t cycles = now - arrival_time_[index];
    const auto lc = static_cast<std::size_t>(requester.lc);
    result_.per_lc_latency[lc].record(cycles);
    if (track_outage_ && arrived_in_outage(arrival_time_[index]) &&
        !config_.fault.port_down(requester.lc, arrival_time_[index])) {
      // Packets arriving at a surviving LC while some port is down: the
      // population failover protects. Arrivals at the dead LC itself are
      // excluded — with its own fabric port down, every remote-homed packet
      // there is doomed to the retry/degraded path regardless of how many
      // replicas the rest of the fabric holds (degraded_lookups counts
      // them).
      per_lc_outage_latency_[lc].record(cycles);
    }
    if (verify_) {
      const net::NextHop expected =
          oracle_->lookup(destination(requester.lc, index));
      if (expected != hop && !update_excuses(requester.lc, index, now)) {
        ++result_.verify_mismatches;
      }
    }
    return true;
  }

  /// Verify-under-churn: a mismatch against the (control-plane) oracle is
  /// excused iff some update covering the destination was in flight during
  /// the packet's lifetime — its [inject, settle] window overlaps
  /// [arrival, resolve]. Packets arriving after an update fully settled
  /// (every apply and invalidation delivered) get no excuse from it: that
  /// is the staleness property the update tests assert.
  bool update_excuses(int lc, std::size_t packet_index,
                      std::uint64_t resolve_time) const {
    if (updates_.empty()) return false;
    const Addr& dst = destination(lc, packet_index);
    const std::uint64_t arrival = arrival_time_[packet_index];
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      if (update_inject_time_[i] > resolve_time) break;  // stream is time-ordered
      if (update_settle_time_[i] < arrival) continue;
      if (updates_[i].prefix.matches(dst)) return true;
    }
    return false;
  }

  bool faults_active() const { return config_.fault.enabled; }

  /// Hands out request seqs that are unique and nonzero: each LC strides by
  /// num_lcs from its own offset.
  std::uint64_t next_request_seq(int lc) {
    return request_seq_[static_cast<std::size_t>(lc)]++ *
               static_cast<std::uint64_t>(config_.num_lcs) +
           static_cast<std::uint64_t>(lc) + 1;
  }

  void send_request(std::uint64_t now, int from_lc, int frag,
                    int target, const Addr& addr, const Requester& requester) {
    if (!faults_active()) {
      count_request(from_lc, target);
      send_reliable(from_lc, now + 1,
                    Event{Event::Type::kLookup, target, addr, requester, false,
                          net::kNoRoute});
      return;
    }
    Requester tagged = requester;
    tagged.seq = next_request_seq(from_lc);
    pending_.emplace(tagged.seq, PendingRequest{addr, tagged, frag, target, 0});
    dispatch_request(now, frag, target, addr, tagged, /*attempt=*/0);
  }

  void count_request(int from_lc, int home) {
    ++result_.remote_requests;
    ++result_.remote_fanout[static_cast<std::size_t>(from_lc) *
                                static_cast<std::size_t>(config_.num_lcs) +
                            static_cast<std::size_t>(home)];
  }

  /// Injects one (re)transmission of a pending request into the fabric and
  /// arms its timeout. The fabric may lose the message (drop or outage);
  /// either way the timeout fires unless some attempt's reply settles the
  /// seq first, so a lost message can never strand the lookup. A re-routed
  /// attempt (target != the fragment's serving LC) rides a kCopyLookup so
  /// the replica holder serves it from its resident copy.
  void dispatch_request(std::uint64_t now, int frag, int target,
                        const Addr& addr, const Requester& requester,
                        int attempt) {
    count_request(requester.lc, target);
    // A kCopyLookup is only meaningful at an LC that actually holds a copy;
    // a target that stopped being the serving LC mid-flight (migration
    // cutover) without holding one gets a plain kLookup, which the arrival
    // LC forwards to the fragment's current home like any other request.
    const bool rerouted = target != serving_lc(frag) &&
                          resident_slot(target, frag, Role::kCopy) >= 0;
    if (rerouted) ++result_.failover.rerouted_requests;
    send_lossy(requester.lc, target, now + 1,
               Event{rerouted ? Event::Type::kCopyLookup : Event::Type::kLookup,
                     target, addr, requester, false, net::kNoRoute, frag});
    // Exponential backoff with the shift clamped (backoff_cycles) so a huge
    // configured timeout or retry budget can never wrap the timer. The
    // timer is a local event at the requesting LC.
    const std::uint64_t backoff = backoff_cycles(timeout_base_, attempt);
    queue_.schedule(now + 1 + backoff, Event{Event::Type::kTimeout, requester.lc,
                                             addr, requester, false,
                                             net::kNoRoute});
  }

  void handle_timeout(std::uint64_t now, const Event& event) {
    // Stale timers were filtered in dispatch: this seq is live.
    const auto it = pending_.find(event.requester.seq);
    PendingRequest& pending = it->second;
    ++result_.fault.timeouts;
    if (replication_active()) {
      // The silence is evidence against whichever LC this attempt targeted.
      note_timeout(pending.requester.lc, pending.target);
    }
    if (pending.attempt < config_.recovery.max_retries) {
      ++pending.attempt;
      ++result_.fault.retransmits;
      if (replication_active()) {
        const int target =
            choose_target(pending.requester.lc, pending.home, now);
        if (target == pending.requester.lc) {
          // Best live holder is this LC itself: settle the request from the
          // local copy. The FE completion fills the reserved block (if any)
          // and drains the waiters; any straggler reply for this seq is
          // suppressed as a duplicate. When a migration cutover re-homed the
          // fragment onto this very LC while the request was in flight, the
          // job runs on the migrated structure, not a replica copy.
          const PendingRequest settled = pending;
          pending_.erase(it);
          const bool rehomed =
              serving_lc(settled.home) == settled.requester.lc;
          if (!rehomed) ++result_.failover.local_replica_serves;
          const int lc = settled.requester.lc;
          start_fe_job(now, lc, settled.addr, settled.requester.fill_on_reply,
                       settled.requester,
                       rehomed ? serving_slot(lc, settled.home)
                               : resident_slot(lc, settled.home, Role::kCopy));
          return;
        }
        pending.target = target;
      } else if (config_.migration.enabled || config_.rebalancer.enabled) {
        // No replicas to steer through, but the fragment's home can still
        // move under a retry: chase the current serving LC instead of
        // hammering the frozen source.
        pending.target = serving_lc(pending.home);
      }
      dispatch_request(now, pending.home, pending.target, pending.addr,
                       pending.requester, pending.attempt);
      return;
    }
    // Retries exhausted: degraded mode. Release the W=1 block the lost
    // reply would have filled (its quota must not leak for the rest of the
    // run), then resolve the requester and every packet parked behind it
    // with a local full-table lookup at the conventional-router cost.
    ++result_.fault.degraded_fallbacks;
    const int lc = pending.requester.lc;
    const Addr addr = pending.addr;
    if (!caches_.empty() && pending.requester.fill_on_reply) {
      if (caches_[static_cast<std::size_t>(lc)]->cancel_waiting(addr)) {
        ++result_.fault.reclaimed_waiting_blocks;
      }
    }
    const net::NextHop hop = oracle_->lookup(addr);
    const std::uint64_t done = now + kDegradedServiceCycles;
    for (const Requester& r : take_waiters(lc, addr)) {
      queue_.schedule(done,
                      Event{Event::Type::kDegraded, lc, addr, r, false, hop});
    }
    queue_.schedule(done, Event{Event::Type::kDegraded, lc, addr,
                                pending.requester, false, hop});
    pending_.erase(it);
  }

  void handle_degraded(std::uint64_t now, const Event& event) {
    if (resolve_packet(now, event.requester, event.hop)) {
      ++result_.fault.degraded_lookups;
    }
  }

  // ----- Live route-update pipeline ---------------------------------------

  /// Injection of update i at the control plane (modelled at LC 0's fabric
  /// port): the oracle advances immediately — it is the control plane's
  /// view — and one fabric message per home LC carries the update out.
  void handle_update_inject(std::uint64_t now, const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    const auto& update = updates_[index];
    ++result_.update.applied;
    switch (update.kind) {
      case net::UpdateKind::kAnnounce: ++result_.update.announces; break;
      case net::UpdateKind::kWithdraw: ++result_.update.withdraws; break;
      case net::UpdateKind::kHopChange: ++result_.update.hop_changes; break;
    }
    if (oracle_ != nullptr) {
      if (update.kind == net::UpdateKind::kWithdraw) {
        oracle_->remove(update.prefix);
      } else {
        oracle_->insert(update.prefix, update.next_hop);
      }
    }
    // Route to every home LC whose fragment replicates the prefix. An
    // unpartitioned router keeps the full table in every LC, so all of
    // them are homes.
    std::vector<int> homes;
    if (config_.partition) {
      homes = rot_->homes_of(update.prefix);
    } else {
      homes.reserve(static_cast<std::size_t>(config_.num_lcs));
      for (int lc = 0; lc < config_.num_lcs; ++lc) homes.push_back(lc);
    }
    // Pre-count every apply before any message leaves: the outstanding
    // counter can then never transiently hit zero while effects are still
    // fanning out (each apply also adds its invalidations before its own
    // decrement). A deferred primary apply holds one token too — it is
    // settled only when the resync re-applies the update at the rejoined
    // LC, which keeps the verify excuse window open for exactly as long as
    // a stale structure can still answer.
    const bool steer = replication_active() && faults_active();
    std::uint32_t tokens = 0;
    for (const int home : homes) {
      tokens += 1 + static_cast<std::uint32_t>(
                        replica_plan_[static_cast<std::size_t>(home)].size());
    }
    update_outstanding_[index] += tokens;
    for (const int home : homes) {
      const int primary = serving_lc(home);
      const auto& holders = replica_plan_[static_cast<std::size_t>(home)];
      // Defer the primary apply when the primary cannot take it (its port
      // is inside an outage window) or is already stale: the update joins
      // its missed queue and an acting replica broadcasts the invalidations
      // on its behalf. Pure config (FaultConfig::port_down draws no RNG).
      int acting = -1;
      if (steer && !holders.empty() &&
          (stale_[static_cast<std::size_t>(primary)] != 0 ||
           config_.fault.port_down(primary, now + 1))) {
        for (const int r : holders) {
          if (stale_[static_cast<std::size_t>(r)] == 0 &&
              !config_.fault.port_down(r, now + 1)) {
            acting = r;
            break;
          }
        }
      }
      if (acting >= 0) {
        ++result_.failover.missed_updates;
        stale_[static_cast<std::size_t>(primary)] = 1;
        missed_updates_[static_cast<std::size_t>(primary)].push_back(
            MissedUpdate{index, home});
      } else {
        ++result_.update.update_messages;
        // Control messages ride the fabric reliably (egress, not
        // egress_lossy): BGP sessions run over TCP, losses are
        // retransmitted below the timescale this model resolves.
        send_reliable(0, now + 1,
                      Event{Event::Type::kUpdateApply, primary, Addr{},
                            event.requester, false, net::kNoRoute, home});
      }
      // Every replica copy stays fresh regardless of the primary's fate;
      // the acting holder's event carries the broadcast flag (fill).
      for (const int r : holders) {
        ++result_.update.update_messages;
        send_reliable(0, now + 1,
                      Event{Event::Type::kUpdateApply, r, Addr{},
                            event.requester, /*fill=*/r == acting,
                            net::kNoRoute, home});
      }
    }
  }

  /// Update i arrives at LC `lc` for fragment `frag` (aux). The LC serving
  /// the fragment applies it to the structure it answers from, invalidates
  /// its cache, and broadcasts invalidation to every other LC. The broadcast
  /// is injected *after* the FE applied, so per-(src,dst) fabric FIFO
  /// guarantees it overtakes no stale reply this LC produced earlier — the
  /// invalidation is a barrier behind which no pre-update value survives in
  /// any cache. A replica holder keeps its copy fresh, and broadcasts only
  /// when the event carries the acting flag (fill): it then stands in for a
  /// primary whose apply was deferred, so the barrier exists even while the
  /// primary is dark. An apply that reaches an LC the fragment has left —
  /// the LC neither serves it nor holds a copy — follows the fragment to
  /// its current serving LC and keeps its settle token; like a double-
  /// delivered delta, that hop is migration control traffic.
  void handle_update_apply(std::uint64_t now, const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    const int lc = event.lc;
    const int frag = event.aux;
    const bool serving = serving_lc(frag) == lc;
    const int slot = serving ? serving_slot(lc, frag)
                             : resident_slot(lc, frag, Role::kCopy);
    if (slot < 0) {
      ++result_.failover.double_delivered_updates;
      ++result_.failover.control_messages;
      Event forward = event;
      forward.lc = serving_lc(frag);
      send_reliable(lc, now + 1, forward);
      return;
    }
    apply_to_resident(lc, slot, index, now, /*charge=*/true);
    if (!serving) ++result_.failover.replica_update_applications;
    if (!caches_.empty() && (serving || event.fill)) {
      if (!serving) ++result_.failover.acting_primary_applications;
      invalidate_cache(lc, updates_[index]);
      for (int other = 0; other < config_.num_lcs; ++other) {
        if (other == lc) continue;
        ++result_.update.invalidation_messages;
        ++update_outstanding_[index];
        send_reliable(lc, now + 1,
                      Event{Event::Type::kInvalidate, other, Addr{},
                            event.requester, false, net::kNoRoute});
      }
    }
    if (serving) maybe_double_deliver(now, event, lc, frag, index);
    settle_update(index, now);
  }

  /// Applies update `index` to resident `slot` at `lc`: its table, then its
  /// FE (incrementally when supported; otherwise the FE is marked stale and
  /// built_fe() rebuilds it at its next read), then the LC's placement,
  /// since the FE changed size. A charged apply counts as an application
  /// and stalls every FE server at `lc` for its cost — the FE is
  /// unavailable while the update applies. An uncharged one (a delta
  /// double-delivered into a staged structure) is management-plane work.
  void apply_to_resident(int lc, int slot, std::size_t index,
                         std::uint64_t now, bool charge) {
    const auto& update = updates_[index];
    Resident& res = resident_at(lc, slot);
    net::apply_update(*res.table, update);
    const bool incremental = res.fe->supports_incremental_update();
    if (incremental) {
      if (update.kind == net::UpdateKind::kWithdraw) {
        res.fe->remove(update.prefix);
      } else {
        res.fe->insert(update.prefix, update.next_hop);
      }
    } else {
      res.stale = true;
    }
    place_residents(lc);
    if (!charge) return;
    ++result_.update.applications;
    std::uint64_t cost = 0;
    if (incremental) {
      ++result_.update.fe_incremental;
      cost = kIncrementalUpdateCycles;
    } else {
      ++result_.update.fe_rebuilds;
      cost = rebuild_cycles(res.table->size());
    }
    for (auto& server : fe_free_[static_cast<std::size_t>(lc)]) {
      server = std::max(server, now) + cost;
    }
    fe_busy_[static_cast<std::size_t>(lc)] += cost;
    result_.update.update_cost_cycles += cost;
  }

  /// Copy phase: double-deliver a primary-applied delta for the in-copy
  /// fragment to the migration target. Its token keeps the update unsettled
  /// until the target has absorbed it, so the staged structure can never be
  /// resolved-against stale. The delta event carries the fragment in aux so
  /// a straggler can still find its (cut-over) structure.
  void maybe_double_deliver(std::uint64_t now, const Event& event,
                            int lc, int frag, std::size_t index) {
    if (!(migration_.copying && !migration_.cut_over && !migration_.aborted &&
          lc == migration_.src && frag == migration_.frag)) {
      return;
    }
    ++result_.failover.double_delivered_updates;
    ++result_.failover.control_messages;
    ++update_outstanding_[index];
    send_reliable(lc, now + 1,
                  Event{Event::Type::kMigrateDelta, migration_.dst, Addr{},
                        event.requester, false, net::kNoRoute, frag});
  }

  void handle_invalidate(std::uint64_t now, const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    invalidate_cache(event.lc, updates_[index]);
    settle_update(index, now);
  }

  /// Cache side of one update at one LC, per the configured policy.
  /// Waiting (W=1) blocks are left for their fill on the selective path:
  /// any in-flight fill was either produced after the update applied
  /// (fresh), or was injected before this invalidation by the same home
  /// and therefore already landed (fabric FIFO) and been dropped here.
  void invalidate_cache(int lc, const Update& update) {
    Cache& cache = *caches_[static_cast<std::size_t>(lc)];
    if (config_.update_policy == RouterConfig::UpdatePolicy::kSelectiveInvalidate) {
      result_.update.blocks_invalidated +=
          cache.invalidate_matching(update.prefix);
    } else {
      cache.flush();
      ++result_.update.cache_flushes;
    }
  }

  /// One apply/invalidation event of update `index` completed; the last one
  /// stamps the settle time. Events dispatch in non-decreasing time, so the
  /// last effect's `now` is the latest of them all.
  void settle_update(std::size_t index, std::uint64_t now) {
    if (--update_outstanding_[index] == 0) update_settle_time_[index] = now;
  }

  // ----- Failover: replication, health, resync, migration ------------------

  bool replication_active() const {
    return config_.replication.replicas > 0 && config_.partition &&
           config_.num_lcs > 1;
  }
  bool failover_enabled() const {
    return replication_active() || config_.migration.enabled ||
           config_.rebalancer.enabled;
  }

  /// The LC currently serving fragment `frag` (identity unless a migration
  /// or rebalancer cutover re-homed it).
  int serving_lc(int frag) const {
    return config_.migration.enabled || config_.rebalancer.enabled
               ? home_remap_[static_cast<std::size_t>(frag)]
               : frag;
  }

  /// Slot of the latest resident at `lc` holding fragment `frag` in
  /// `role`, or -1 when there is none.
  int resident_slot(int lc, int frag, Role role) const {
    const auto& residents = residents_[static_cast<std::size_t>(lc)];
    for (std::size_t slot = residents.size(); slot-- > 0;) {
      if (residents[slot].fragment == frag && residents[slot].role == role) {
        return static_cast<int>(slot);
      }
    }
    return -1;
  }

  /// Slot of the structure `lc` answers fragment `frag` from while it
  /// serves it: its own fragment, or the latest one a migration moved here.
  int serving_slot(int lc, int frag) const {
    return frag == lc ? 0 : resident_slot(lc, frag, Role::kMigrated);
  }

  /// Resident `slot` of `lc`. A negative slot means a job or an update was
  /// routed to an LC that holds no structure for its fragment.
  Resident& resident_at(int lc, int slot) {
    if (slot < 0) {
      throw std::logic_error(
          "RouterSim: no resident structure for the fragment at this LC");
    }
    return residents_[static_cast<std::size_t>(lc)]
                     [static_cast<std::size_t>(slot)];
  }

  /// Best target for a remote lookup on `frag` as seen by `observer`: the
  /// primary while it looks alive, else the first live replica holder (the
  /// observer itself, if it holds one — served locally). Non-alive LCs
  /// encountered on the way are probed, paced per (observer, target).
  int choose_target(int observer, int frag, std::uint64_t now) {
    const int primary = serving_lc(frag);
    if (health_.alive(observer, primary)) return primary;
    maybe_probe(observer, primary, now);
    for (const int r : replica_plan_[static_cast<std::size_t>(frag)]) {
      if (r == observer) return observer;
      if (health_.alive(observer, r)) return r;
      maybe_probe(observer, r, now);
    }
    // Nobody looks alive: keep hammering the primary; the retry/degraded
    // machinery remains the backstop of last resort.
    return primary;
  }

  void maybe_probe(int observer, int target, std::uint64_t now) {
    if (!health_.probe_due(observer, target, now)) return;
    health_.probe_sent(observer, target, now, probe_interval_);
    ++result_.failover.probes_sent;
    ++result_.failover.control_messages;
    send_lossy(observer, target, now + 1,
               Event{Event::Type::kProbe, target, Addr{},
                     Requester{observer, -1, false}, false, net::kNoRoute});
  }

  void note_timeout(int observer, int target) {
    switch (health_.note_timeout(observer, target)) {
      case HealthTracker::Transition::kSuspect:
        ++result_.failover.suspect_transitions;
        break;
      case HealthTracker::Transition::kDown:
        ++result_.failover.down_transitions;
        break;
      case HealthTracker::Transition::kNone:
        break;
    }
  }

  void note_alive(int observer, int target, bool via_probe) {
    if (observer == target) return;
    if (health_.note_alive(observer, target)) {
      ++result_.failover.recoveries;
      if (via_probe) ++result_.failover.rejoins;
    }
  }

  /// Re-routed request at a replica holder: serve straight from the
  /// resident copy (no cache interaction here — the result belongs in the
  /// requester's cache, carried back by the reply).
  void handle_copy_lookup(std::uint64_t now, const Event& event) {
    start_fe_job(now, event.lc, event.addr, false, event.requester,
                 resident_slot(event.lc, event.aux, Role::kCopy));
  }

  void handle_probe(std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    if (stale_[static_cast<std::size_t>(lc)] != 0) {
      // A stale rejoiner withholds probe replies until it has caught up —
      // observers keep steering to the replicas — but uses the contact to
      // start fetching its missed updates.
      maybe_start_resync(lc, now);
      return;
    }
    ++result_.failover.probe_replies_sent;
    ++result_.failover.control_messages;
    send_lossy(lc, event.requester.lc, now + 1,
               Event{Event::Type::kProbeReply, event.requester.lc, Addr{},
                     Requester{lc, -1, false}, false, net::kNoRoute});
  }

  void handle_probe_reply(std::uint64_t /*now*/,
                          const Event& event) {
    ++result_.failover.probe_replies;
    note_alive(event.lc, event.requester.lc, /*via_probe=*/true);
  }

  // --- Resync: stream a rejoining LC's missed updates from a live holder.

  void maybe_start_resync(int lc, std::uint64_t now) {
    if (resyncing_[static_cast<std::size_t>(lc)] != 0) return;
    // The acting source is the first live holder — the same preference
    // order the deferral used, so it has every missed update applied.
    int src = -1;
    for (const int r : replica_plan_[static_cast<std::size_t>(lc)]) {
      if (stale_[static_cast<std::size_t>(r)] == 0 &&
          !config_.fault.port_down(r, now + 1)) {
        src = r;
        break;
      }
    }
    if (src < 0) return;  // retry on the next probe contact
    resyncing_[static_cast<std::size_t>(lc)] = 1;
    ++result_.failover.resync_fetches;
    ++result_.failover.control_messages;
    send_reliable(lc, now + 1,
                  Event{Event::Type::kResyncFetch, src, Addr{},
                        Requester{lc, -1, false}, false, net::kNoRoute, lc});
  }

  void handle_resync_fetch(std::uint64_t now, const Event& event) {
    const int target = event.aux;
    if (resync_sending_[static_cast<std::size_t>(target)] != 0) return;
    resync_sending_[static_cast<std::size_t>(target)] = 1;
    queue_.schedule(now + 1,
                    Event{Event::Type::kResyncSend, event.lc, Addr{},
                          Requester{event.lc, -1, false}, false,
                          net::kNoRoute, target});
  }

  /// Local pacing tick at the streaming holder: emit the next batch of the
  /// target's missed-update queue, then re-arm. The chain stays alive while
  /// entries are chunked-but-unapplied so deferrals that land during the
  /// transfer are streamed too.
  void handle_resync_send(std::uint64_t now, const Event& event) {
    const int target = event.aux;
    const auto t = static_cast<std::size_t>(target);
    const auto& queue = missed_updates_[t];
    if (resync_sent_[t] >= queue.size()) {
      if (resync_head_[t] < resync_sent_[t]) {
        queue_.schedule(now + chunk_interval(), event);
      } else {
        resync_sending_[t] = 0;
      }
      return;
    }
    const std::size_t batch =
        std::min(chunk_prefixes(), queue.size() - resync_sent_[t]);
    resync_sent_[t] += batch;
    ++result_.failover.resync_chunks;
    ++result_.failover.control_messages;
    send_reliable(event.lc, now + 1,
                  Event{Event::Type::kResyncChunk, target, Addr{},
                        Requester{event.lc, -1, false}, false, net::kNoRoute,
                        static_cast<std::int32_t>(batch)});
    queue_.schedule(now + chunk_interval(), event);
  }

  void handle_resync_chunk(std::uint64_t now, const Event& event) {
    const int lc = event.lc;
    const auto l = static_cast<std::size_t>(lc);
    auto& queue = missed_updates_[l];
    for (std::size_t n = static_cast<std::size_t>(event.aux);
         n > 0 && resync_head_[l] < queue.size(); --n) {
      // Re-apply one deferred update at the rejoined primary, to the
      // structure it serves the deferral's fragment from (a migrated one
      // when a cutover had re-homed the fragment here): same apply as a
      // live one, but invalidation is local-only (the acting holder
      // broadcast the barrier when the update was deferred) and the settle
      // releases the token the deferral held — closing the verify excuse
      // window the stale structure was serving under.
      const auto [index, frag] = queue[resync_head_[l]++];
      ++result_.failover.resync_entries;
      apply_to_resident(lc, serving_slot(lc, frag), index, now,
                        /*charge=*/true);
      if (!caches_.empty()) invalidate_cache(lc, updates_[index]);
      settle_update(index, now);
    }
    if (resync_head_[l] >= queue.size()) {
      // Caught up: the cutover back to normal service. From here the LC
      // answers probes again and fresh updates apply directly.
      queue.clear();
      resync_head_[l] = 0;
      resync_sent_[l] = 0;
      stale_[l] = 0;
      resyncing_[l] = 0;
      ++result_.failover.resync_cutovers;
      ++result_.failover.cutovers;
    }
  }

  // --- Live migration: copy-then-cutover fragment transfer.

  /// The table a migration snapshots: the one the source serves the
  /// fragment from — its own fragment on a first move, a re-homed structure
  /// on a rebalancer re-move — live and update-mutated when the pipeline is
  /// on, the partition's fragment otherwise.
  const Table& migration_source_table() const {
    const Resident& res =
        residents_[static_cast<std::size_t>(migration_.src)]
                  [static_cast<std::size_t>(
                      serving_slot(migration_.src, migration_.frag))];
    return res.table != nullptr ? *res.table : rot_->table_of(migration_.frag);
  }

  std::size_t chunk_prefixes() const {
    return std::max<std::size_t>(std::size_t{1},
                                 config_.migration.chunk_prefixes);
  }
  std::uint64_t chunk_interval() const {
    return std::max<std::uint64_t>(1, config_.migration.chunk_interval_cycles);
  }

  void handle_migrate_start(std::uint64_t now, const Event& event) {
    if (!migration_.active) {
      // Operator-initiated transfer: endpoints come from the config. (A
      // rebalancer trigger filled them in before scheduling this event.)
      migration_.active = true;
      migration_.frag = config_.migration.from;
      migration_.src = config_.migration.from;
      migration_.dst = config_.migration.to;
    }
    migration_.copying = true;
    const auto entries = migration_source_table().entries();
    migration_.snapshot.assign(entries.begin(), entries.end());
    queue_.schedule(now + 1,
                    Event{Event::Type::kMigrateSend, event.lc, Addr{},
                          event.requester, false, net::kNoRoute});
  }

  void handle_migrate_send(std::uint64_t now, const Event& event) {
    if (migration_.final_sent || !migration_.active) return;
    if (config_.rebalancer.enabled &&
        config_.fault.port_down(migration_.dst, now)) {
      // The target died mid-copy: abort instead of streaming into a dead
      // port. Chunks already in flight drain and are discarded; the source
      // keeps serving, so no lookup is lost.
      abort_migration();
      return;
    }
    const std::size_t remaining =
        migration_.snapshot.size() - migration_.cursor;
    const std::size_t batch = std::min(chunk_prefixes(), remaining);
    const bool last = batch == remaining;
    migration_.chunk_queue.emplace_back(
        migration_.snapshot.begin() +
            static_cast<std::ptrdiff_t>(migration_.cursor),
        migration_.snapshot.begin() +
            static_cast<std::ptrdiff_t>(migration_.cursor + batch));
    migration_.cursor += batch;
    ++result_.failover.migration_chunks;
    ++result_.failover.control_messages;
    result_.failover.snapshot_prefixes += batch;
    send_reliable(event.lc, now + 1,
                  Event{Event::Type::kMigrateChunk, migration_.dst,
                        Addr{}, event.requester, last, net::kNoRoute,
                        static_cast<std::int32_t>(batch)});
    if (last) {
      migration_.final_sent = true;
    } else {
      queue_.schedule(now + chunk_interval(), event);
    }
  }

  /// Give up on the in-flight rebalancer migration (target died). The
  /// double-delivery window closes (copying = false) and the state resets —
  /// immediately when nothing is in flight, else when the last in-flight
  /// chunk drains in handle_migrate_chunk.
  void abort_migration() {
    migration_.aborted = true;
    migration_.copying = false;
    migration_.final_sent = true;
    ++result_.rebalancer.aborted_migrations;
    if (migration_.chunk_queue.empty()) migration_ = MigrationState{};
  }

  /// Snapshot chunk at the target. Chunks from one source port arrive in
  /// send order (non-decreasing raw arrivals, origin_seq tie-break), so the
  /// payload deque pairs up FIFO with the chunk events.
  void handle_migrate_chunk(std::uint64_t now, const Event& event) {
    auto chunk = std::move(migration_.chunk_queue.front());
    migration_.chunk_queue.pop_front();
    if (migration_.aborted) {
      // Aborted transfer: drain and discard. The last in-flight chunk
      // resets the state so the rebalancer can trigger again.
      if (migration_.chunk_queue.empty()) migration_ = MigrationState{};
      return;
    }
    migration_.staged_entries.insert(migration_.staged_entries.end(),
                                     chunk.begin(), chunk.end());
    if (!event.fill) return;
    // Final chunk: build the staged table, then replay the deltas buffered
    // during the transfer IN ORDER — a buffered withdraw must land after
    // the snapshot entries it withdraws, never be resurrected by them.
    // (inject_stale is the verify-mode fault hook: dropping the replay
    // makes the staged structure genuinely stale, which the differential
    // harness must catch as nonzero verify_mismatches.)
    auto table = std::make_unique<Table>(std::move(migration_.staged_entries));
    migration_.staged_entries = {};
    if (!config_.rebalancer.inject_stale) {
      for (const std::size_t index : migration_.buffered_deltas) {
        net::apply_update(*table, updates_[index]);
      }
    }
    migration_.buffered_deltas.clear();
    // The staged build is management-plane work: it delays the cutover,
    // not the serving FE servers. Price it like an epoch rebuild.
    const std::uint64_t build = rebuild_cycles(table->size());
    // The built structure joins the target's residents now; it starts
    // serving at the cutover.
    auto fe = Family::build_fe(*table, config_);
    residents_[static_cast<std::size_t>(migration_.dst)].push_back(
        Resident{migration_.frag, Role::kMigrated, std::move(table),
                 std::move(fe), MemoryModel{}});
    place_residents(migration_.dst);
    migration_.fe_ready = true;
    queue_.schedule(now + 1 + build,
                    Event{Event::Type::kMigrateBuilt, event.lc, Addr{},
                          Requester{event.lc, -1, false}, false,
                          net::kNoRoute});
  }

  /// Double-delivered update at the target (requester.packet carries the
  /// update index, aux the fragment). Before the staged structure is built
  /// the delta is buffered; after, it applies directly. A straggler that
  /// arrives after a rebalancer cutover (state already reset) or after an
  /// abort is applied to the structure now serving at this LC or dropped
  /// respectively. Every path settles the token.
  void handle_migrate_delta(std::uint64_t now,
                            const Event& event) {
    const auto index = static_cast<std::size_t>(event.requester.packet);
    const int frag = event.aux;
    if (migration_.active && !migration_.aborted &&
        frag == migration_.frag) {
      if (!migration_.fe_ready) {
        migration_.buffered_deltas.push_back(index);
      } else if (!config_.rebalancer.inject_stale) {
        apply_to_resident(
            migration_.dst,
            resident_slot(migration_.dst, frag, Role::kMigrated), index, now,
            /*charge=*/false);
      }
    } else if (config_.rebalancer.enabled &&
               !config_.rebalancer.inject_stale &&
               serving_lc(frag) == event.lc) {
      apply_to_resident(event.lc, serving_slot(event.lc, frag), index, now,
                        /*charge=*/false);
    }
    settle_update(index, now);
  }

  void handle_migrate_built(std::uint64_t now, const Event& event) {
    ++result_.failover.cutover_messages;
    ++result_.failover.control_messages;
    send_reliable(event.lc, now + 1,
                  Event{Event::Type::kMigrateReady, migration_.src,
                        Addr{}, Requester{event.lc, -1, false}, false,
                        net::kNoRoute});
  }

  /// Cutover, at the source: flip the re-home map, drop this LC's blocks
  /// homed on the fragment, and broadcast the cutover barrier. Requests
  /// still in flight toward this LC are forwarded to the new home by the
  /// ordinary lookup path (serving_lc no longer names this LC), so no
  /// lookup is lost or answered from the now-frozen source structure.
  void handle_migrate_ready(std::uint64_t now, const Event& event) {
    const int from = event.lc;
    const int frag = migration_.frag;
    migration_.copying = false;
    migration_.cut_over = true;
    home_remap_[static_cast<std::size_t>(frag)] = migration_.dst;
    ++result_.failover.migrations;
    ++result_.failover.cutovers;
    invalidate_for_migration(from, frag);
    for (int other = 0; other < config_.num_lcs; ++other) {
      if (other == from) continue;
      ++result_.failover.cutover_messages;
      ++result_.failover.control_messages;
      send_reliable(from, now + 1,
                    Event{Event::Type::kCutover, other, Addr{},
                          Requester{from, -1, false}, false, net::kNoRoute,
                          frag});
    }
    if (config_.rebalancer.enabled) {
      // The staged structure already sits in the target's resident list,
      // so the migration machinery is ready for the next trigger. Straggler
      // deltas find the structure through the re-home map (kMigrateDelta
      // carries the fragment in aux).
      ++result_.rebalancer.completed_migrations;
      migration_ = MigrationState{};
    }
  }

  void handle_cutover(std::uint64_t /*now*/, const Event& event) {
    invalidate_for_migration(event.lc, event.aux);
  }

  /// Selective invalidation on re-home: drop every cached block whose
  /// address is homed on the migrated fragment (its serving LC changed, so
  /// LOC/REM quota classes and staleness guarantees both moved).
  void invalidate_for_migration(int lc, int frag) {
    if (caches_.empty()) return;
    result_.failover.migration_invalidated_blocks +=
        caches_[static_cast<std::size_t>(lc)]->invalidate_if(
            [&](const Addr& addr) { return rot_->home_of(addr) == frag; });
  }

  // --- Online load rebalancer: skew detection + autonomous migration.

  /// Window boundary (management plane, LC 0). Evaluates the offered load
  /// each LC served over the closed window from the precomputed per-window
  /// fragment counts, and when the max/mean skew crosses the threshold,
  /// moves the hottest fragment of the most-loaded LC to the least-loaded
  /// healthy LC through the ordinary migration machinery. Ledger: every
  /// detection is either acted on (migrations_triggered) or accounted to
  /// exactly one skipped_* counter, so
  /// skew_detections == triggered + skipped_in_flight + skipped_no_target
  ///                    + skipped_budget.
  void handle_rebalance_tick(std::uint64_t now,
                             const Event& /*event*/) {
    RebalancerStats& rb = result_.rebalancer;
    ++rb.windows;
    const std::size_t w =
        static_cast<std::size_t>(now / config_.rebalancer.window_cycles) - 1;
    if (w >= window_frag_counts_.size()) return;
    const std::vector<std::uint64_t>& counts = window_frag_counts_[w];
    const auto n = static_cast<std::size_t>(config_.num_lcs);
    std::vector<std::uint64_t> load(n, 0);
    std::uint64_t total = 0;
    for (int frag = 0; frag < config_.num_lcs; ++frag) {
      const std::uint64_t c = counts[static_cast<std::size_t>(frag)];
      load[static_cast<std::size_t>(serving_lc(frag))] += c;
      total += c;
    }
    if (total == 0) return;
    int src = 0;
    for (int lc = 1; lc < config_.num_lcs; ++lc) {
      if (load[static_cast<std::size_t>(lc)] >
          load[static_cast<std::size_t>(src)]) {
        src = lc;
      }
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(config_.num_lcs);
    if (static_cast<double>(load[static_cast<std::size_t>(src)]) <
        config_.rebalancer.skew_threshold * mean) {
      return;
    }
    ++rb.skew_detections;
    if (migration_.active) {
      ++rb.skipped_in_flight;
      return;
    }
    if (rb.migrations_triggered >=
        static_cast<std::uint64_t>(config_.rebalancer.max_migrations)) {
      ++rb.skipped_budget;
      return;
    }
    // Hottest fragment currently served by the overloaded LC.
    int frag = -1;
    for (int f = 0; f < config_.num_lcs; ++f) {
      if (serving_lc(f) != src) continue;
      if (frag < 0 || counts[static_cast<std::size_t>(f)] >
                          counts[static_cast<std::size_t>(frag)]) {
        frag = f;
      }
    }
    // Least-loaded destination that is safe to receive it: never the
    // source, never the fragment's original LC (its resident structure is
    // frozen-stale once the fragment moved away), never a port currently in
    // outage, never an LC that missed updates, never one any observer holds
    // suspect/down — and only if strictly less loaded than the source.
    int dst = -1;
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      if (lc == src || lc == frag) continue;
      if (stale_[static_cast<std::size_t>(lc)] != 0) continue;
      if (config_.fault.port_down(lc, now)) continue;
      bool healthy = true;
      for (int obs = 0; obs < config_.num_lcs && healthy; ++obs) {
        if (obs != lc && !health_.alive(obs, lc)) healthy = false;
      }
      if (!healthy) continue;
      if (load[static_cast<std::size_t>(lc)] >=
          load[static_cast<std::size_t>(src)]) {
        continue;
      }
      if (dst < 0 || load[static_cast<std::size_t>(lc)] <
                         load[static_cast<std::size_t>(dst)]) {
        dst = lc;
      }
    }
    if (frag < 0 || dst < 0) {
      ++rb.skipped_no_target;
      return;
    }
    ++rb.migrations_triggered;
    migration_.active = true;
    migration_.frag = frag;
    migration_.src = src;
    migration_.dst = dst;
    queue_.schedule(now + 1,
                    Event{Event::Type::kMigrateStart, src, Addr{},
                          Requester{src, -1, false}, false, net::kNoRoute});
  }

  bool arrived_in_outage(std::uint64_t at) const {
    for (const auto& span : outage_spans_) {
      if (at < span.first) return false;
      if (at < span.second) return true;
    }
    return false;
  }

  // ----- Resident structures ----------------------------------------------

  /// The table LC `lc`'s own FE is built over.
  const Table& own_table(int lc) const {
    return config_.partition ? rot_->table_of(lc) : full_table_;
  }

  /// (Re)builds every LC's resident list from the configured table: the
  /// LC's own fragment, then the replica copies the plan homes there (a
  /// copy carries its own mutable table), each placed in the memory tiers.
  void build_residents() {
    residents_.clear();
    residents_.resize(static_cast<std::size_t>(config_.num_lcs));
    for (int lc = 0; lc < config_.num_lcs; ++lc) {
      residents_[static_cast<std::size_t>(lc)].push_back(
          Resident{lc, Role::kOwn, nullptr,
                   Family::build_fe(own_table(lc), config_), MemoryModel{}});
    }
    for (int frag = 0; frag < config_.num_lcs; ++frag) {
      for (const int holder : replica_plan_[static_cast<std::size_t>(frag)]) {
        auto table = std::make_unique<Table>(rot_->table_of(frag));
        auto fe = Family::build_fe(*table, config_);
        residents_[static_cast<std::size_t>(holder)].push_back(
            Resident{frag, Role::kCopy, std::move(table), std::move(fe),
                     MemoryModel{}});
      }
    }
    for (int lc = 0; lc < config_.num_lcs; ++lc) place_residents(lc);
  }

  /// Re-places `lc`'s residents into the memory tiers in list order, each
  /// packed after the bytes of the ones before it. Runs whenever one of
  /// them is built or changes size; a no-op with the model off.
  void place_residents(int lc) {
    if (!config_.memory.enabled) return;
    std::uint64_t base = 0;
    for (Resident& res : residents_[static_cast<std::size_t>(lc)]) {
      res.model =
          MemoryModel(config_.memory, built_fe(res).arenas(), base);
      base += res.model.placed_bytes();
    }
  }

  /// `res`'s FE, rebuilt from its table first if an update left it stale.
  /// The rebuild's simulated cost was charged when the update applied.
  trie::BasicLpmIndex<Addr>& built_fe(Resident& res) {
    if (res.stale) {
      res.fe = Family::build_fe(*res.table, config_);
      res.stale = false;
    }
    return *res.fe;
  }

  static constexpr std::uint64_t kSettlePending = ~std::uint64_t{0};

  RouterConfig config_;
  Table full_table_;
  std::unique_ptr<Partition> rot_;
  /// Per LC: its resident structures (own fragment first). The own and
  /// copy entries persist across runs; residents_dirty_ makes run()
  /// rebuild them after a run's updates mutated them.
  std::vector<std::vector<Resident>> residents_;
  bool residents_dirty_ = false;
  std::vector<std::vector<int>> replica_plan_;    // fragment -> holder LCs
  std::vector<std::unique_ptr<Cache>> caches_;    // one per LC (optional)
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<Oracle> oracle_;  // verify/degraded modes

  // Run state (reset per run()).
  sim::CalendarQueue<Event> queue_;
  std::vector<InFlightMsg> inflight_;  // min-heap via InFlightAfter
  WaitMap waiting_;
  std::vector<typename WaitMap::node_type> wait_pool_;
  std::vector<Requester> wait_scratch_;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;  // by seq
  MemoryCounters memory_counters_;  // folded into result_.memory
  std::vector<std::uint64_t> cache_port_free_;       // per LC
  std::vector<std::vector<std::uint64_t>> fe_free_;  // per LC, per FE server
  std::vector<std::uint64_t> fe_busy_;               // per LC, busy cycles
  std::vector<std::uint64_t> request_seq_;           // per LC, fault-mode seqs
  std::vector<std::uint64_t> send_seq_;              // per LC, commit order
  std::uint64_t timeout_base_ = 0;
  std::vector<std::uint64_t> waiting_depth_;  // per LC, currently parked
  std::vector<std::uint64_t> arrival_time_;          // per packet
  std::vector<std::uint8_t> resolved_;               // per packet
  const std::vector<std::vector<Addr>>* streams_ = nullptr;  // during run()
  std::vector<std::size_t> lc_first_packet_;  // per LC + 1: first packet id
  sim::ArrivalLane lane_;     // each packet's first kLookup
  std::uint64_t arrival_seq_ = 0;  // queue seq of packet 0's arrival
  // Live-update pipeline state. oracle_dirty_ makes run() rebuild the
  // oracle a prior run's updates mutated.
  std::vector<Update> updates_;
  std::vector<std::uint64_t> update_inject_time_;   // per update
  std::vector<std::uint64_t> update_settle_time_;   // kSettlePending in flight
  std::vector<std::uint32_t> update_outstanding_;   // effects not yet done
  bool oracle_dirty_ = false;
  bool verify_ = false;
  // Failover subsystem (per-run state).
  HealthTracker health_;
  std::uint64_t probe_interval_ = 0;
  std::vector<int> home_remap_;               // fragment -> serving LC
  std::vector<std::uint8_t> stale_;           // per LC: has missed updates
  std::vector<std::uint8_t> resyncing_;       // per LC: fetch in flight
  std::vector<std::uint8_t> resync_sending_;  // per target LC: chain armed
  std::vector<std::vector<MissedUpdate>> missed_updates_;  // per LC, in order
  std::vector<std::size_t> resync_sent_;      // per LC: entries chunked
  std::vector<std::size_t> resync_head_;      // per LC: entries applied
  MigrationState migration_;
  /// Rebalancer: offered lookups per [window][fragment], precomputed in
  /// run() from the arrival schedule and the static home mapping.
  std::vector<std::vector<std::uint64_t>> window_frag_counts_;
  bool track_outage_ = false;
  /// Merged, sorted union of every configured outage window.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outage_spans_;
  std::vector<sim::LatencyStats> per_lc_outage_latency_;  // per arrival LC
  RouterResult result_;
};

}  // namespace spal::core
