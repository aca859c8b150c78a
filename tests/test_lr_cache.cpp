#include "cache/lr_cache.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "lr_cache_filter_check.h"

namespace {

using namespace spal;
using cache::LrCache;
using cache::LrCacheConfig;
using cache::Origin;
using cache::ProbeState;
using cache::Replacement;
using net::Ipv4Addr;

LrCacheConfig small_config() {
  LrCacheConfig config;
  config.blocks = 16;  // 4 sets x 4 ways
  config.associativity = 4;
  config.victim_blocks = 0;
  return config;
}

/// Addresses mapping to a chosen set (set index = low bits of the address).
Ipv4Addr addr_in_set(std::uint32_t set, std::uint32_t tag, std::size_t sets = 4) {
  return Ipv4Addr{static_cast<std::uint32_t>(tag * sets) + set};
}

TEST(LrCache, RejectsInvalidGeometry) {
  LrCacheConfig config = small_config();
  config.blocks = 10;  // not a multiple of 4
  EXPECT_THROW(LrCache{config}, std::invalid_argument);
  config = small_config();
  config.blocks = 12;  // 3 sets: not a power of two
  EXPECT_THROW(LrCache{config}, std::invalid_argument);
  config = small_config();
  config.associativity = 0;
  EXPECT_THROW(LrCache{config}, std::invalid_argument);
  config = small_config();
  config.remote_fraction = 1.5;
  EXPECT_THROW(LrCache{config}, std::invalid_argument);
}

TEST(LrCache, MissThenInsertThenHit) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(0, 1);
  EXPECT_EQ(cache.probe(a, 0).state, ProbeState::kMiss);
  cache.insert(a, 42, Origin::kLocal, 1);
  const auto result = cache.probe(a, 2);
  EXPECT_EQ(result.state, ProbeState::kHit);
  EXPECT_EQ(result.next_hop, 42u);
}

TEST(LrCache, ReserveMakesWaitingState) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(0, 1);
  EXPECT_TRUE(cache.reserve(a, Origin::kLocal, 0));
  EXPECT_EQ(cache.probe(a, 1).state, ProbeState::kWaiting);
  EXPECT_EQ(cache.stats().waiting_hits, 1u);
}

TEST(LrCache, FillCompletesWaitingBlock) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(0, 1);
  ASSERT_TRUE(cache.reserve(a, Origin::kRemote, 0));
  EXPECT_TRUE(cache.fill(a, 7, 2));
  const auto result = cache.probe(a, 3);
  EXPECT_EQ(result.state, ProbeState::kHit);
  EXPECT_EQ(result.next_hop, 7u);
}

TEST(LrCache, FillWithoutReservationIsOrphan) {
  LrCache cache(small_config());
  EXPECT_FALSE(cache.fill(addr_in_set(0, 1), 7, 0));
  EXPECT_EQ(cache.stats().orphan_fills, 1u);
}

TEST(LrCache, FillAfterFlushIsOrphan) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(0, 1);
  ASSERT_TRUE(cache.reserve(a, Origin::kLocal, 0));
  cache.flush();
  EXPECT_FALSE(cache.fill(a, 7, 1));
  EXPECT_EQ(cache.stats().orphan_fills, 1u);
}

TEST(LrCache, FlushInvalidatesEverything) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(0, 1);
  cache.insert(a, 42, Origin::kLocal, 0);
  cache.flush();
  EXPECT_EQ(cache.probe(a, 1).state, ProbeState::kMiss);
  EXPECT_EQ(cache.stats().flushes, 1u);
}

TEST(LrCache, LruEvictsLeastRecentlyUsed) {
  LrCacheConfig config = small_config();
  config.remote_fraction = 0.0;  // all four ways belong to LOC results
  LrCache cache(config);
  // Fill set 0 with four LOC blocks, touching them at distinct times.
  for (std::uint32_t tag = 1; tag <= 4; ++tag) {
    cache.insert(addr_in_set(0, tag), tag, Origin::kLocal, tag);
  }
  // Re-touch tag 1 so tag 2 becomes LRU.
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 10).state, ProbeState::kHit);
  cache.insert(addr_in_set(0, 5), 5, Origin::kLocal, 11);
  EXPECT_EQ(cache.probe(addr_in_set(0, 2), 12).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 13).state, ProbeState::kHit);
}

TEST(LrCache, FifoIgnoresRecency) {
  LrCacheConfig config = small_config();
  config.replacement = Replacement::kFifo;
  config.remote_fraction = 0.0;
  LrCache cache(config);
  for (std::uint32_t tag = 1; tag <= 4; ++tag) {
    cache.insert(addr_in_set(0, tag), tag, Origin::kLocal, tag);
  }
  // Touching tag 1 does not save it under FIFO.
  (void)cache.probe(addr_in_set(0, 1), 10);
  cache.insert(addr_in_set(0, 5), 5, Origin::kLocal, 11);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 12).state, ProbeState::kMiss);
}

TEST(LrCache, MixRuleRemoteQuotaOfOneBlock) {
  // γ = 25% of a 4-way set -> exactly one block per set devoted to REM
  // results (the paper's small-cache recommendation). A second REM insert
  // replaces the first; LOC blocks are untouched.
  LrCacheConfig config = small_config();
  config.remote_fraction = 0.25;
  LrCache cache(config);
  EXPECT_EQ(cache.ways(Origin::kRemote), 1u);
  EXPECT_EQ(cache.ways(Origin::kLocal), 3u);
  cache.insert(addr_in_set(0, 1), 1, Origin::kLocal, 1);
  cache.insert(addr_in_set(0, 2), 2, Origin::kLocal, 2);
  cache.insert(addr_in_set(0, 3), 3, Origin::kRemote, 3);
  cache.insert(addr_in_set(0, 4), 4, Origin::kRemote, 4);
  EXPECT_EQ(cache.probe(addr_in_set(0, 3), 6).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 7).state, ProbeState::kHit);
  EXPECT_EQ(cache.probe(addr_in_set(0, 2), 8).state, ProbeState::kHit);
  EXPECT_EQ(cache.probe(addr_in_set(0, 4), 9).state, ProbeState::kHit);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 1u);
}

TEST(LrCache, MixRuleLocalQuotaOfOneBlock) {
  // γ = 75% -> only 1 way for LOC: a second LOC insert replaces the first.
  LrCacheConfig config = small_config();
  config.remote_fraction = 0.75;
  LrCache cache(config);
  cache.insert(addr_in_set(0, 1), 1, Origin::kLocal, 1);
  cache.insert(addr_in_set(0, 2), 2, Origin::kLocal, 2);
  cache.insert(addr_in_set(0, 4), 4, Origin::kRemote, 4);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 6).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(addr_in_set(0, 2), 7).state, ProbeState::kHit);
  EXPECT_EQ(cache.probe(addr_in_set(0, 4), 8).state, ProbeState::kHit);
}

TEST(LrCache, QuotaReplacementIsLruWithinOrigin) {
  // γ = 50%: two ways per origin. The third LOC insert replaces the
  // least-recently-used LOC block and leaves REM blocks alone.
  LrCache cache(small_config());
  cache.insert(addr_in_set(0, 1), 1, Origin::kLocal, 1);
  cache.insert(addr_in_set(0, 2), 2, Origin::kRemote, 2);
  cache.insert(addr_in_set(0, 3), 3, Origin::kLocal, 3);
  cache.insert(addr_in_set(0, 4), 4, Origin::kRemote, 4);
  cache.insert(addr_in_set(0, 5), 5, Origin::kLocal, 5);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 6).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(addr_in_set(0, 2), 7).state, ProbeState::kHit);
  EXPECT_EQ(cache.probe(addr_in_set(0, 3), 8).state, ProbeState::kHit);
  EXPECT_EQ(cache.probe(addr_in_set(0, 4), 9).state, ProbeState::kHit);
}

TEST(LrCache, IdleWaysAreUsableByEitherOrigin) {
  // Below-quota insertions take invalid blocks first, so an all-LOC burst
  // can still use its two ways while the REM ways sit idle.
  LrCache cache(small_config());
  cache.insert(addr_in_set(0, 1), 1, Origin::kLocal, 1);
  cache.insert(addr_in_set(0, 2), 2, Origin::kLocal, 2);
  EXPECT_EQ(cache.count_origin(Origin::kLocal), 2u);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 3).state, ProbeState::kHit);
  EXPECT_EQ(cache.probe(addr_in_set(0, 2), 4).state, ProbeState::kHit);
}

TEST(LrCache, WaitingBlocksArePinned) {
  LrCache cache(small_config());  // γ = 50%: 2 LOC + 2 REM ways
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 1), Origin::kLocal, 1));
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 2), Origin::kLocal, 2));
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 3), Origin::kRemote, 3));
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 4), Origin::kRemote, 4));
  // Both quotas are now entirely W=1: further reservations must fail...
  EXPECT_FALSE(cache.reserve(addr_in_set(0, 5), Origin::kLocal, 5));
  EXPECT_FALSE(cache.reserve(addr_in_set(0, 6), Origin::kRemote, 6));
  EXPECT_EQ(cache.stats().failed_reservations, 2u);
  // ...and all four waiting blocks must still be present.
  for (std::uint32_t tag = 1; tag <= 4; ++tag) {
    EXPECT_EQ(cache.probe(addr_in_set(0, tag), 7).state, ProbeState::kWaiting);
  }
}

TEST(LrCache, CancelWaitingReleasesQuota) {
  // The router's timeout path reclaims a W=1 block whose reply was lost so
  // the origin's γ quota is not pinned for the rest of the run.
  LrCache cache(small_config());  // γ = 50%: 2 REM ways
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 1), Origin::kRemote, 1));
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 2), Origin::kRemote, 2));
  EXPECT_FALSE(cache.reserve(addr_in_set(0, 3), Origin::kRemote, 3));

  EXPECT_TRUE(cache.cancel_waiting(addr_in_set(0, 1)));
  EXPECT_EQ(cache.stats().cancelled_reservations, 1u);
  // The cancelled block is gone (a later reply would be an orphan fill)...
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 4).state, ProbeState::kMiss);
  EXPECT_FALSE(cache.fill(addr_in_set(0, 1), 7, 5));
  EXPECT_EQ(cache.stats().orphan_fills, 1u);
  // ...and its way is reservable again.
  EXPECT_TRUE(cache.reserve(addr_in_set(0, 3), Origin::kRemote, 6));
}

TEST(LrCache, CancelWaitingNeverTouchesCompletedBlocks) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(0, 1);
  EXPECT_FALSE(cache.cancel_waiting(a));  // never reserved
  ASSERT_TRUE(cache.reserve(a, Origin::kRemote, 0));
  ASSERT_TRUE(cache.fill(a, 9, 1));
  EXPECT_FALSE(cache.cancel_waiting(a));  // completed: must survive
  EXPECT_EQ(cache.probe(a, 2).next_hop, 9u);
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 2), Origin::kRemote, 3));
  cache.flush();
  EXPECT_FALSE(cache.cancel_waiting(addr_in_set(0, 2)));  // flushed away
  EXPECT_EQ(cache.stats().cancelled_reservations, 0u);
}

TEST(LrCache, VictimCacheCatchesConflictEvictions) {
  LrCacheConfig config = small_config();
  config.victim_blocks = 8;
  LrCache cache(config);
  for (std::uint32_t tag = 1; tag <= 5; ++tag) {
    cache.insert(addr_in_set(0, tag), tag, Origin::kLocal, tag);
  }
  // Tag 1 was evicted from the set but lives in the victim cache.
  const auto result = cache.probe(addr_in_set(0, 1), 10);
  EXPECT_EQ(result.state, ProbeState::kHit);
  EXPECT_EQ(result.next_hop, 1u);
  EXPECT_EQ(cache.stats().victim_hits, 1u);
}

TEST(LrCache, VictimHitPromotesBackToSet) {
  LrCacheConfig config = small_config();
  config.victim_blocks = 8;
  LrCache cache(config);
  for (std::uint32_t tag = 1; tag <= 5; ++tag) {
    cache.insert(addr_in_set(0, tag), tag, Origin::kLocal, tag);
  }
  (void)cache.probe(addr_in_set(0, 1), 10);  // victim hit, promotes
  const auto again = cache.probe(addr_in_set(0, 1), 11);
  EXPECT_EQ(again.state, ProbeState::kHit);
  EXPECT_EQ(cache.stats().victim_hits, 1u);  // second hit from the set
}

TEST(LrCache, VictimPromotionDemotesQuotaLruBackToVictim) {
  // Success path: promoting a victim-cache hit evicts the quota's LRU block
  // into the victim cache (a swap), so neither result is lost.
  LrCacheConfig config = small_config();  // γ = 50%: 2 REM ways
  config.victim_blocks = 8;
  LrCache cache(config);
  cache.insert(addr_in_set(0, 1), 1, Origin::kRemote, 1);
  cache.insert(addr_in_set(0, 2), 2, Origin::kRemote, 2);
  cache.insert(addr_in_set(0, 3), 3, Origin::kRemote, 3);  // evicts tag 1

  const auto hit = cache.probe(addr_in_set(0, 1), 10);  // victim hit, promotes
  EXPECT_EQ(hit.state, ProbeState::kHit);
  EXPECT_EQ(hit.next_hop, 1u);
  EXPECT_EQ(cache.stats().victim_hits, 1u);
  EXPECT_EQ(cache.stats().failed_promotions, 0u);
  // Tag 1 now hits in the set (victim_hits stays 1)...
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 11).state, ProbeState::kHit);
  EXPECT_EQ(cache.stats().victim_hits, 1u);
  // ...and tag 2 (the demoted LRU) survives in the victim cache.
  const auto demoted = cache.probe(addr_in_set(0, 2), 12);
  EXPECT_EQ(demoted.state, ProbeState::kHit);
  EXPECT_EQ(demoted.next_hop, 2u);
}

TEST(LrCache, DeclinedVictimPromotionKeepsTheEntry) {
  // Regression: when every way of the victim's origin quota is a pinned
  // W=1 block, promotion must be declined — and the victim-cache entry must
  // survive. The old code deleted the entry first and lost the result, so a
  // re-probe of the same address missed.
  LrCacheConfig config = small_config();  // γ = 50%: 2 REM ways
  config.victim_blocks = 8;
  LrCache cache(config);
  cache.insert(addr_in_set(0, 1), 1, Origin::kRemote, 1);
  cache.insert(addr_in_set(0, 2), 2, Origin::kRemote, 2);
  cache.insert(addr_in_set(0, 3), 3, Origin::kRemote, 3);  // tag 1 -> victim
  // Pin both REM ways with in-flight reservations (evicting tags 2 and 3
  // to the victim cache on the way).
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 4), Origin::kRemote, 4));
  ASSERT_TRUE(cache.reserve(addr_in_set(0, 5), Origin::kRemote, 5));

  const std::uint64_t bypasses_before = cache.stats().quota_bypasses;
  const auto hit = cache.probe(addr_in_set(0, 1), 10);
  EXPECT_EQ(hit.state, ProbeState::kHit);
  EXPECT_EQ(hit.next_hop, 1u);
  EXPECT_EQ(cache.stats().failed_promotions, 1u);
  // The declined promotion probes the set but must not be billed as a
  // quota bypass — that counter tracks insert/reserve placement decisions.
  EXPECT_EQ(cache.stats().quota_bypasses, bypasses_before);

  // The entry stayed in the victim cache: probing again still hits.
  const auto again = cache.probe(addr_in_set(0, 1), 11);
  EXPECT_EQ(again.state, ProbeState::kHit);
  EXPECT_EQ(again.next_hop, 1u);
  EXPECT_EQ(cache.stats().victim_hits, 2u);
  EXPECT_EQ(cache.stats().failed_promotions, 2u);
}

TEST(LrCache, WithoutVictimCacheConflictsAreLost) {
  LrCache cache(small_config());  // victim_blocks = 0
  for (std::uint32_t tag = 1; tag <= 5; ++tag) {
    cache.insert(addr_in_set(0, tag), tag, Origin::kLocal, tag);
  }
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 10).state, ProbeState::kMiss);
}

TEST(LrCache, InsertUpdatesExistingBlockInPlace) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(1, 1);
  cache.insert(a, 1, Origin::kLocal, 0);
  cache.insert(a, 9, Origin::kRemote, 1);
  const auto result = cache.probe(a, 2);
  EXPECT_EQ(result.next_hop, 9u);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 1u);
  EXPECT_EQ(cache.count_origin(Origin::kLocal), 0u);
}

TEST(LrCache, SetsAreIndependent) {
  LrCacheConfig config = small_config();
  config.remote_fraction = 0.0;  // four LOC ways per set
  LrCache cache(config);
  for (std::uint32_t set = 0; set < 4; ++set) {
    for (std::uint32_t tag = 1; tag <= 4; ++tag) {
      cache.insert(addr_in_set(set, tag), set, Origin::kLocal, tag);
    }
  }
  for (std::uint32_t set = 0; set < 4; ++set) {
    for (std::uint32_t tag = 1; tag <= 4; ++tag) {
      EXPECT_EQ(cache.probe(addr_in_set(set, tag), 10).state, ProbeState::kHit);
    }
  }
}

TEST(LrCache, StatsAccounting) {
  LrCache cache(small_config());
  const Ipv4Addr a = addr_in_set(0, 1);
  (void)cache.probe(a, 0);               // miss
  ASSERT_TRUE(cache.reserve(a, Origin::kLocal, 0));
  (void)cache.probe(a, 1);               // waiting hit
  cache.fill(a, 5, 2);
  (void)cache.probe(a, 3);               // hit
  const auto& stats = cache.stats();
  EXPECT_EQ(stats.probes, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.waiting_hits, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.reservations, 1u);
  EXPECT_EQ(stats.fills, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);
}

TEST(LrCache, ResetClearsContentAndStats) {
  LrCache cache(small_config());
  cache.insert(addr_in_set(0, 1), 1, Origin::kLocal, 0);
  (void)cache.probe(addr_in_set(0, 1), 1);
  cache.reset();
  EXPECT_EQ(cache.stats().probes, 0u);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 2).state, ProbeState::kMiss);
}

TEST(LrCache, RandomPolicyStaysWithinSet) {
  LrCacheConfig config = small_config();
  config.replacement = Replacement::kRandom;
  config.remote_fraction = 0.0;  // four LOC ways per set
  LrCache cache(config);
  for (std::uint32_t tag = 1; tag <= 12; ++tag) {
    cache.insert(addr_in_set(0, tag), tag, Origin::kLocal, tag);
  }
  // Exactly 4 of the 12 survive (all in set 0), and other sets are empty.
  std::size_t present = 0;
  for (std::uint32_t tag = 1; tag <= 12; ++tag) {
    if (cache.probe(addr_in_set(0, tag), 100).state == ProbeState::kHit) ++present;
  }
  EXPECT_EQ(present, 4u);
}

TEST(LrCache, CountOriginTracksMix) {
  LrCache cache(small_config());
  cache.insert(addr_in_set(0, 1), 1, Origin::kLocal, 0);
  cache.insert(addr_in_set(1, 1), 2, Origin::kRemote, 0);
  cache.insert(addr_in_set(2, 1), 3, Origin::kRemote, 0);
  EXPECT_EQ(cache.count_origin(Origin::kLocal), 1u);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 2u);
}

TEST(LrCache, GammaZeroKeepsNoRemoteUnderPressure) {
  // γ = 0: any present REM block is immediately the eviction candidate.
  LrCacheConfig config = small_config();
  config.remote_fraction = 0.0;
  LrCache cache(config);
  cache.insert(addr_in_set(0, 1), 1, Origin::kRemote, 1);
  cache.insert(addr_in_set(0, 2), 2, Origin::kLocal, 2);
  cache.insert(addr_in_set(0, 3), 3, Origin::kLocal, 3);
  cache.insert(addr_in_set(0, 4), 4, Origin::kLocal, 4);
  cache.insert(addr_in_set(0, 5), 5, Origin::kLocal, 5);
  EXPECT_EQ(cache.probe(addr_in_set(0, 1), 6).state, ProbeState::kMiss);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 0u);
}

// --- Selective invalidation (live route updates) -------------------------

TEST(LrCache, InvalidateMatchingDropsOnlyCoveredBlocks) {
  LrCache cache(small_config());
  const Ipv4Addr covered = addr_in_set(0, 1);    // 4 -> inside 0.0.0.0/24
  const Ipv4Addr outside{0x0A000000u + 0};       // same set, other /24
  cache.insert(covered, 1, Origin::kLocal, 0);
  cache.insert(outside, 2, Origin::kRemote, 1);
  const auto prefix = *net::Prefix::parse("0.0.0.0/24");
  EXPECT_EQ(cache.invalidate_matching(prefix), 1u);
  EXPECT_EQ(cache.stats().invalidated_blocks, 1u);
  EXPECT_EQ(cache.probe(covered, 2).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(outside, 3).state, ProbeState::kHit);
}

TEST(LrCache, InvalidateMatchingReleasesQuota) {
  // γ = 0.5 on 4 ways -> 2 REM ways per set. Fill the quota, invalidate the
  // covering prefix, and the freed ways must accept new REM blocks without
  // evicting anyone (the eviction counter stays put).
  LrCache cache(small_config());
  cache.insert(addr_in_set(0, 1), 1, Origin::kRemote, 0);
  cache.insert(addr_in_set(0, 2), 2, Origin::kRemote, 1);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 2u);
  EXPECT_EQ(cache.invalidate_matching(*net::Prefix::parse("0.0.0.0/24")), 2u);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 0u);
  const std::uint64_t evictions = cache.stats().evictions;
  EXPECT_TRUE(cache.reserve(addr_in_set(0, 3), Origin::kRemote, 2));
  EXPECT_TRUE(cache.fill(addr_in_set(0, 3), 3, 3));
  EXPECT_TRUE(cache.reserve(addr_in_set(0, 4), Origin::kRemote, 4));
  EXPECT_EQ(cache.stats().evictions, evictions);
  EXPECT_EQ(cache.stats().failed_reservations, 0u);
}

TEST(LrCache, InvalidateMatchingLeavesWaitingBlocksForTheirFill) {
  // W=1 blocks must survive selective invalidation: their in-flight reply
  // either carries post-update data or is dropped by a later invalidation,
  // and destroying the block here would orphan the fill and leak the
  // waiting packet list.
  LrCache cache(small_config());
  const Ipv4Addr addr = addr_in_set(0, 1);
  EXPECT_TRUE(cache.reserve(addr, Origin::kRemote, 0));
  EXPECT_EQ(cache.invalidate_matching(*net::Prefix::parse("0.0.0.0/24")), 0u);
  EXPECT_EQ(cache.probe(addr, 1).state, ProbeState::kWaiting);
  EXPECT_TRUE(cache.fill(addr, 7, 2));
  EXPECT_EQ(cache.stats().orphan_fills, 0u);
  EXPECT_EQ(cache.stats().fills, 1u);
  EXPECT_EQ(cache.probe(addr, 3).next_hop, 7u);
}

TEST(LrCache, InvalidateMatchingCoversVictimCache) {
  LrCacheConfig config = small_config();
  config.victim_blocks = 4;
  config.remote_fraction = 0.0;  // all 4 ways LOC: easy to force demotion
  LrCache cache(config);
  for (std::uint32_t tag = 1; tag <= 5; ++tag) {
    cache.insert(addr_in_set(0, tag), tag, Origin::kLocal, tag);
  }
  ASSERT_GT(cache.stats().evictions, 0u);  // someone was demoted to victim
  const std::size_t dropped =
      cache.invalidate_matching(*net::Prefix::parse("0.0.0.0/24"));
  EXPECT_EQ(dropped, 5u);  // all five live results, set and victim alike
  for (std::uint32_t tag = 1; tag <= 5; ++tag) {
    EXPECT_EQ(cache.probe(addr_in_set(0, tag), 10 + tag).state,
              ProbeState::kMiss);
  }
}

TEST(LrCache, FlushTurnsInFlightFillsIntoOrphans) {
  // The paper's flush-everything policy destroys waiting blocks; the fill
  // arriving afterwards must be counted as an orphan, not crash or
  // resurrect the block.
  LrCache cache(small_config());
  const Ipv4Addr addr = addr_in_set(0, 1);
  EXPECT_TRUE(cache.reserve(addr, Origin::kRemote, 0));
  cache.flush();
  EXPECT_FALSE(cache.fill(addr, 7, 1));
  EXPECT_EQ(cache.stats().orphan_fills, 1u);
  EXPECT_EQ(cache.probe(addr, 2).state, ProbeState::kMiss);
}

// --- Invalidation filter ---------------------------------------------------

// The declined promotion of DeclinedVictimPromotionKeepsTheEntry drops the
// victim entry and writes it back. A filter built before that must still
// count the entry, or the invalidation that should drop it skips its scan.
// Tag k is address k << 16 in set 0, so each tag has a bucket of its own.
TEST(LrCache, InvalidationFilterCountsARestoredVictimEntry) {
  LrCacheConfig config = small_config();  // γ = 50%: 2 REM ways
  config.victim_blocks = 8;
  LrCache cache(config);
  const auto tag = [](std::uint32_t k) { return addr_in_set(0, k << 14); };
  EXPECT_EQ(cache.invalidate_matching(*net::Prefix::parse("10.0.0.0/8")), 0u);
  cache.insert(tag(1), 1, Origin::kRemote, 1);
  cache.insert(tag(2), 2, Origin::kRemote, 2);
  cache.insert(tag(3), 3, Origin::kRemote, 3);  // tag 1 -> victim
  ASSERT_TRUE(cache.reserve(tag(4), Origin::kRemote, 4));
  ASSERT_TRUE(cache.reserve(tag(5), Origin::kRemote, 5));
  EXPECT_EQ(cache.probe(tag(1), 10).state, ProbeState::kHit);
  ASSERT_EQ(cache.stats().failed_promotions, 1u);
  EXPECT_EQ(cache.invalidate_matching(net::Prefix(tag(1), 16)), 1u);
  EXPECT_EQ(cache.probe(tag(1), 11).state, ProbeState::kMiss);
}

// The filter keys on the top 16 address bits. The pool spreads about two
// addresses per bucket over 96 buckets in runs of adjacent keys, so buckets
// keep emptying and short prefixes span several of them. Prefixes of every
// length /0-/32 are drawn around pool addresses and around random ones; one
// in eight is shorter than /16, since those drop blocks by the dozen.
TEST(LrCache, InvalidationFilterAgreesWithAPlainScan) {
  const std::uint32_t runs[] = {0x0000, 0x0a00, 0x0aff, 0x7ff8, 0xc0a8, 0xfff0};
  std::mt19937_64 rng(0x5eed);
  std::vector<Ipv4Addr> pool;
  for (int i = 0; i < 192; ++i) {
    const std::uint32_t bucket = runs[rng() % std::size(runs)] + rng() % 16;
    pool.push_back(Ipv4Addr{(bucket << 16) |
                            static_cast<std::uint32_t>(rng() % 1'024)});
  }
  const auto make_prefix = [&](std::mt19937_64& draw) {
    const Ipv4Addr base = draw() % 4 == 0
                              ? Ipv4Addr{static_cast<std::uint32_t>(draw())}
                              : pool[draw() % pool.size()];
    const auto length = static_cast<int>(draw() % 8 == 0 ? draw() % 16
                                                         : 16 + draw() % 17);
    return net::Prefix(base, length);
  };
  cache::testing::expect_filter_agrees_with_scan_everywhere(pool, make_prefix);
}

}  // namespace
