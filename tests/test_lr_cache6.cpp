// BasicLrCache<Ipv6Addr>: the LR-cache over 128-bit addresses, as the IPv6
// router uses it. Mechanics are shared with the IPv4 instantiation; these
// tests pin the v6-specific pieces (set indexing from the low half, full
// 128-bit tag comparison, Prefix6 selective invalidation).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cache/basic_lr_cache.h"
#include "lr_cache_filter_check.h"
#include "net/table_gen.h"

namespace {

using namespace spal;
using cache::BasicLrCache;
using cache::LrCacheConfig;
using cache::Origin;
using cache::ProbeState;
using net::Ipv6Addr;

using Cache6 = BasicLrCache<Ipv6Addr>;

LrCacheConfig config16() {
  LrCacheConfig config;
  config.blocks = 16;
  config.victim_blocks = 0;
  return config;
}

TEST(LrCache6, MissInsertHit) {
  Cache6 cache(config16());
  const Ipv6Addr a{0x20010DB800000000ULL, 42};
  EXPECT_EQ(cache.probe(a, 0).state, ProbeState::kMiss);
  cache.insert(a, 7, Origin::kLocal, 1);
  const auto result = cache.probe(a, 2);
  EXPECT_EQ(result.state, ProbeState::kHit);
  EXPECT_EQ(result.next_hop, 7u);
}

TEST(LrCache6, TagComparesFullAddress) {
  // Two addresses agreeing on the set-index bits (low 32) but differing in
  // the high half must not alias.
  Cache6 cache(config16());
  const Ipv6Addr a{0x2001000000000000ULL, 5};
  const Ipv6Addr b{0x2002000000000000ULL, 5};
  cache.insert(a, 1, Origin::kLocal, 0);
  EXPECT_EQ(cache.probe(b, 1).state, ProbeState::kMiss);
  cache.insert(b, 2, Origin::kLocal, 2);
  EXPECT_EQ(cache.probe(a, 3).next_hop, 1u);
  EXPECT_EQ(cache.probe(b, 4).next_hop, 2u);
}

TEST(LrCache6, SetIndexComesFromLowHalf) {
  // Addresses with distinct low-word set bits land in different sets, so a
  // same-origin quota in one set does not evict across sets.
  Cache6 cache(config16());  // 4 sets, assoc 4, LOC ways 2
  for (std::uint64_t set = 0; set < 4; ++set) {
    cache.insert(Ipv6Addr{0x2001000000000000ULL, set}, 1, Origin::kLocal, 1);
    cache.insert(Ipv6Addr{0x2002000000000000ULL, set}, 2, Origin::kLocal, 2);
  }
  for (std::uint64_t set = 0; set < 4; ++set) {
    EXPECT_EQ(cache.probe(Ipv6Addr{0x2001000000000000ULL, set}, 10).state,
              ProbeState::kHit);
    EXPECT_EQ(cache.probe(Ipv6Addr{0x2002000000000000ULL, set}, 11).state,
              ProbeState::kHit);
  }
}

TEST(LrCache6, WaitingAndFill) {
  Cache6 cache(config16());
  const Ipv6Addr a{0x20010DB800000000ULL, 9};
  ASSERT_TRUE(cache.reserve(a, Origin::kRemote, 0));
  EXPECT_EQ(cache.probe(a, 1).state, ProbeState::kWaiting);
  EXPECT_TRUE(cache.fill(a, 3, 2));
  EXPECT_EQ(cache.probe(a, 3).next_hop, 3u);
}

TEST(LrCache6, FillAfterFlushIsOrphan) {
  // A reply that lands after a table update flushed its W=1 block must be
  // reported (not silently re-create a block) — same contract as IPv4.
  Cache6 cache(config16());
  const Ipv6Addr a{0x20010DB800000000ULL, 9};
  ASSERT_TRUE(cache.reserve(a, Origin::kRemote, 0));
  cache.flush();
  EXPECT_FALSE(cache.fill(a, 7, 1));
  EXPECT_EQ(cache.stats().orphan_fills, 1u);
  EXPECT_EQ(cache.probe(a, 2).state, ProbeState::kMiss);
}

TEST(LrCache6, QuotaEntirelyWaitingFailsReservation) {
  // Both ways of an origin pinned by W=1 blocks: a further reservation must
  // fail (and be counted) rather than evict an in-flight block.
  Cache6 cache(config16());  // 4 sets, assoc 4, γ = 50%: 2 REM ways
  const Ipv6Addr r1{0x2001000000000000ULL, 0x20};
  const Ipv6Addr r2{0x2002000000000000ULL, 0x20};  // same set
  const Ipv6Addr r3{0x2003000000000000ULL, 0x20};
  ASSERT_TRUE(cache.reserve(r1, Origin::kRemote, 0));
  ASSERT_TRUE(cache.reserve(r2, Origin::kRemote, 1));
  EXPECT_FALSE(cache.reserve(r3, Origin::kRemote, 2));
  EXPECT_EQ(cache.stats().failed_reservations, 1u);
  EXPECT_EQ(cache.probe(r1, 3).state, ProbeState::kWaiting);
  EXPECT_EQ(cache.probe(r2, 4).state, ProbeState::kWaiting);
}

TEST(LrCache6, CancelWaitingReclaimsBlock) {
  Cache6 cache(config16());
  const Ipv6Addr r1{0x2001000000000000ULL, 0x20};
  const Ipv6Addr r2{0x2002000000000000ULL, 0x20};
  const Ipv6Addr r3{0x2003000000000000ULL, 0x20};
  ASSERT_TRUE(cache.reserve(r1, Origin::kRemote, 0));
  ASSERT_TRUE(cache.reserve(r2, Origin::kRemote, 1));
  ASSERT_FALSE(cache.reserve(r3, Origin::kRemote, 2));
  EXPECT_TRUE(cache.cancel_waiting(r1));
  EXPECT_FALSE(cache.cancel_waiting(r1));  // already gone
  EXPECT_EQ(cache.stats().cancelled_reservations, 1u);
  EXPECT_TRUE(cache.reserve(r3, Origin::kRemote, 3));  // quota released
}

TEST(LrCache6, Prefix6SelectiveInvalidation) {
  Cache6 cache(config16());
  const Ipv6Addr inside{0x20010DB800000000ULL, 1};
  const Ipv6Addr outside{0x20010DB900000000ULL, 1};
  cache.insert(inside, 1, Origin::kLocal, 0);
  cache.insert(outside, 2, Origin::kLocal, 1);
  const net::Prefix6 changed(Ipv6Addr{0x20010DB800000000ULL, 0}, 32);
  EXPECT_EQ(cache.invalidate_matching(changed), 1u);
  EXPECT_EQ(cache.probe(inside, 2).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(outside, 3).state, ProbeState::kHit);
}

TEST(LrCache6, GammaQuotasApply) {
  LrCacheConfig config = config16();
  config.remote_fraction = 0.25;  // 1 REM way per set
  Cache6 cache(config);
  const Ipv6Addr r1{0x2001000000000000ULL, 0x10};
  const Ipv6Addr r2{0x2002000000000000ULL, 0x10};  // same set
  cache.insert(r1, 1, Origin::kRemote, 0);
  cache.insert(r2, 2, Origin::kRemote, 1);
  EXPECT_EQ(cache.probe(r1, 2).state, ProbeState::kMiss);
  EXPECT_EQ(cache.probe(r2, 3).state, ProbeState::kHit);
  EXPECT_EQ(cache.count_origin(Origin::kRemote), 1u);
}

TEST(LrCache6, VictimCacheWorks) {
  LrCacheConfig config = config16();
  config.blocks = 4;  // one set, LOC ways 2
  config.victim_blocks = 4;
  Cache6 cache(config);
  const Ipv6Addr a{0x2001000000000000ULL, 0};
  const Ipv6Addr b{0x2002000000000000ULL, 0};
  const Ipv6Addr c{0x2003000000000000ULL, 0};
  cache.insert(a, 1, Origin::kLocal, 0);
  cache.insert(b, 2, Origin::kLocal, 1);
  cache.insert(c, 3, Origin::kLocal, 2);  // evicts a into the victim cache
  const auto result = cache.probe(a, 3);
  EXPECT_EQ(result.state, ProbeState::kHit);
  EXPECT_EQ(cache.stats().victim_hits, 1u);
}

// The v6 filter keys on address bits 16-31. The pool varies the top 16
// bits too (two values) and spreads about two addresses per bucket over
// bits 16-31 in runs of adjacent keys. Prefix lengths cover the three range
// cases: <= /16 covers every bucket, /17-/31 a run of them, >= /32 exactly
// one. The first two take one draw in eight each, since they drop blocks by
// the dozen.
TEST(LrCache6, InvalidationFilterAgreesWithAPlainScan) {
  const std::uint64_t tops[] = {0x2001, 0x2a00};
  const std::uint64_t runs[] = {0x0000, 0x00f8, 0x1234, 0x7ff8, 0xfff0};
  std::mt19937_64 rng(0x5eed6);
  std::vector<Ipv6Addr> pool;
  for (int i = 0; i < 192; ++i) {
    const std::uint64_t bucket = runs[rng() % std::size(runs)] + rng() % 16;
    const std::uint64_t hi =
        (tops[rng() % 2] << 48) | (bucket << 32) | (rng() % 4);
    pool.push_back(Ipv6Addr{hi, rng() % 1'024});
  }
  const auto make_prefix = [&](std::mt19937_64& draw) {
    const Ipv6Addr base = draw() % 4 == 0 ? Ipv6Addr{draw(), draw()}
                                          : pool[draw() % pool.size()];
    const int ranges[3][2] = {{0, 16}, {17, 31}, {32, 128}};
    const auto& range = ranges[std::min(draw() % 8, std::uint64_t{2})];
    return net::Prefix6(
        base, std::uniform_int_distribution<int>(range[0], range[1])(draw));
  };
  cache::testing::expect_filter_agrees_with_scan_everywhere(pool, make_prefix);
}

}  // namespace
