// The LR-cache's counters, defined once. This header depends on the
// standard library only, so `tools/spal_report` reads the same list
// without linking any SPAL library.
#pragma once

#include <cstdint>

/// Every LR-cache counter in report order, one X(name) each; the JSON key
/// is the name. LrCacheStats declares its members from this list, and
/// accumulate(), RouterResult::to_json and `spal_report --check` read it.
#define SPAL_LR_CACHE_COUNTERS(X)                                          \
  X(probes)                                                                \
  X(hits)                   /* completed-block hits (incl. victim hits) */ \
  X(loc_hits)               /* hits on M=LOC blocks (hits = loc + rem) */  \
  X(rem_hits)               /* hits on M=REM blocks */                     \
  X(victim_hits)            /* subset of hits served by the victim cache */ \
  X(waiting_hits)           /* probes that matched a W=1 block */          \
  X(misses)                                                                \
  X(reservations)                                                          \
  X(failed_reservations)    /* quota full of waiting blocks */             \
  X(quota_bypasses)         /* origin has zero ways (not cached) */        \
  X(failed_promotions)      /* victim hit kept in victim cache */          \
  X(fills)                                                                 \
  X(orphan_fills)           /* reply arrived after flush removed block */  \
  X(cancelled_reservations) /* W=1 blocks reclaimed on timeout */          \
  X(evictions)                                                             \
  X(flushes)                                                               \
  X(invalidated_blocks)     /* dropped by invalidate_matching/_if */

namespace spal::cache {

struct LrCacheStats {
#define SPAL_COUNTER_MEMBER(name) std::uint64_t name = 0;
  SPAL_LR_CACHE_COUNTERS(SPAL_COUNTER_MEMBER)
#undef SPAL_COUNTER_MEMBER

  double hit_rate() const {
    return probes == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes);
  }

  void accumulate(const LrCacheStats& other) {
#define SPAL_COUNTER_ADD(name) name += other.name;
    SPAL_LR_CACHE_COUNTERS(SPAL_COUNTER_ADD)
#undef SPAL_COUNTER_ADD
  }

  friend bool operator==(const LrCacheStats&, const LrCacheStats&) = default;
};

}  // namespace spal::cache
