// CRAM-lens memory-tier cost model for the forwarding engines.
//
// The paper prices every trie memory access at a flat 12 ns because it
// assumes the whole structure sits in line-card SRAM (Sec. 5.1). At
// internet scale (1M+ IPv4 prefixes) that assumption breaks: the built
// structure spills out of SRAM and the cold arenas land in slower tiers.
// This model makes the spill explicit: each trie reports its flat storage
// arenas hottest-first (trie::LpmIndex::arenas()), the model packs them
// into a configurable SRAM/L2/LLC/DRAM hierarchy by cumulative footprint,
// and a counted lookup is priced as
//
//   matching_overhead_cycles + sum_over_arenas(accesses(a) * cycles(tier(a)))
//
// With everything resident in the first tier at its default 2 cycles and a
// 24-cycle matching overhead, the model reproduces the paper's flat
// constants (40 cycles for the ~8-access Lulea walk, 62 for the ~19-access
// DP walk), so enabling it on a paper-sized table is calibration, not a
// behavior change. The model is off by default; a disabled model leaves
// every simulation and JSON report byte-identical to a build without it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trie/lpm.h"

namespace spal::core {

/// One level of the modelled memory hierarchy. Tiers are ordered fastest
/// first; `capacity_bytes == 0` marks an unbounded backing tier (anything
/// listed after an unbounded tier is unreachable).
struct MemoryTier {
  std::string name;                  ///< "sram", "l2", ... (JSON-safe)
  std::uint64_t capacity_bytes = 0;  ///< per-LC budget; 0 = unbounded
  std::uint32_t access_cycles = 1;   ///< cycles per dependent access
};

/// Upper bound on modelled tiers; per-tier counters on the hot path are
/// fixed-size arrays so the event handlers never allocate.
inline constexpr std::size_t kMaxMemoryTiers = 8;

struct MemoryModelConfig {
  /// Off by default: the FE timeline then charges the flat
  /// `fe_service_cycles` and reports carry no "memory" object.
  bool enabled = false;
  /// Fixed per-lookup cost of the matching code around the memory walk —
  /// the paper's ~120 ns (Sec. 5.1) at 5 ns cycles.
  std::uint32_t matching_overhead_cycles = 24;
  std::vector<MemoryTier> tiers = default_tiers();

  /// sram 2 MiB @ 2 cycles, l2 8 MiB @ 8, llc 32 MiB @ 20, dram unbounded
  /// @ 70. The first tier's 2 cycles (10 ns) stands in for the paper's
  /// 12 ns SRAM access.
  static std::vector<MemoryTier> default_tiers();
};

/// Run-time accumulation of memory-model activity; folded into
/// RouterResult::memory after the run.
struct MemoryCounters {
  std::uint64_t lookups = 0;         ///< counted FE lookups priced
  std::uint64_t charged_cycles = 0;  ///< total service cycles, overhead incl.
  std::array<std::uint64_t, kMaxMemoryTiers> tier_accesses{};
  std::array<std::uint64_t, kMaxMemoryTiers> tier_cycles{};
};

/// Placement of one trie arena into the hierarchy.
struct ArenaPlacement {
  std::string name;          ///< arena name (from trie::ArenaSpan)
  std::uint64_t bytes = 0;
  std::size_t tier = 0;      ///< index into the configured tiers
};

/// Tier placement for one built FE: assigns each arena (hottest first) to
/// the first tier whose cumulative capacity still covers the arena's end
/// offset, then prices counted lookups against the assignment. Arenas are
/// never split across tiers — the cliff when a hot arena first spills is
/// exactly the effect the scale bench measures.
class MemoryModel {
 public:
  MemoryModel() = default;

  /// Throws std::invalid_argument on an empty or oversized tier list.
  /// `base_offset_bytes` shifts the cumulative packing start: an LC that
  /// hosts failover replica copies packs its own FE first (offset 0) and
  /// each copy after the bytes already resident, so a copy's arenas land in
  /// the tiers left over once the primary structure has claimed the fast
  /// ones.
  MemoryModel(const MemoryModelConfig& config,
              const std::vector<trie::ArenaSpan>& arenas,
              std::uint64_t base_offset_bytes = 0);

  const std::vector<ArenaPlacement>& placements() const { return placements_; }

  /// Total bytes placed (== the FE's storage_bytes()).
  std::uint64_t placed_bytes() const { return placed_bytes_; }

  /// Service cycles for one lookup whose per-arena access counts are in
  /// `counter`, without touching any statistics (bench/offline use).
  std::uint64_t lookup_cycles(const trie::MemAccessCounter& counter) const;

  /// lookup_cycles() plus accumulation into the per-tier counters.
  std::uint64_t charge(const trie::MemAccessCounter& counter,
                       MemoryCounters& out) const;

 private:
  std::vector<ArenaPlacement> placements_;
  std::uint64_t placed_bytes_ = 0;
  std::uint32_t matching_overhead_cycles_ = 0;
  std::size_t tier_count_ = 0;
  std::array<std::uint32_t, kMaxMemoryTiers> tier_access_cycles_{};
  /// arena index -> tier index, clamped like MemAccessCounter's arenas.
  std::array<std::uint8_t, trie::kMaxArenas> arena_tier_{};
};

/// Per-tier byte/access accounting for one run, summed over all LCs.
/// Conservation (checked by `spal_report --check` when present):
/// lookups == fe_lookups; charged_cycles == matching_cycles + Σ tier cycles;
/// Σ placed_bytes == storage_bytes; Σ per_lc fe.busy_cycles ==
/// charged_cycles + update.update_cost_cycles.
struct MemoryTierStats {
  std::string name;
  std::uint64_t capacity_bytes = 0;   ///< per-LC budget (config echo)
  std::uint32_t access_cycles = 0;    ///< cycles per access (config echo)
  std::uint64_t placed_bytes = 0;     ///< arena bytes resident, all LCs
  std::uint64_t placed_arenas = 0;    ///< arenas resident, all LCs
  std::uint64_t accesses = 0;
  std::uint64_t cycles = 0;
};

struct MemoryStats {
  bool enabled = false;
  std::uint32_t matching_overhead_cycles = 0;
  std::uint64_t lookups = 0;          ///< priced FE lookups
  std::uint64_t matching_cycles = 0;  ///< lookups × matching_overhead_cycles
  std::uint64_t charged_cycles = 0;   ///< total FE cycles the model charged
  std::uint64_t storage_bytes = 0;    ///< Σ per-LC FE storage placed
  std::vector<MemoryTierStats> tiers;
};

}  // namespace spal::core
