// Differential check of the LR-cache's selective-invalidation filter, shared
// by the IPv4 and IPv6 cache tests. Two caches replay one seeded sequence of
// probe, reserve, fill, insert, cancel_waiting, flush, reset and
// invalidate_if calls. Cache A invalidates a prefix with
// invalidate_matching(), which may skip its scan on the filter; cache B uses
// invalidate_if() with the prefix's matches(), which never consults the
// filter. Every pair of calls must agree, and the caches must end with equal
// stats and probe states.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "cache/basic_lr_cache.h"

namespace spal::cache::testing {

/// Replays 10,000 random operations on addresses drawn from `pool`;
/// `make_prefix(rng)` draws each prefix to invalidate. Fills and
/// cancellations mostly target outstanding reservations, so waiting blocks
/// come and go. Invalidations wait until the cache has seen 100 other
/// operations since its last clear, so the filter is always built over a
/// warm cache, victim and waiting blocks included.
template <typename Addr, typename MakePrefix>
void expect_filter_agrees_with_scan(const LrCacheConfig& config,
                                    const std::vector<Addr>& pool,
                                    MakePrefix make_prefix,
                                    std::uint64_t seed) {
  constexpr int kSteps = 10'000;
  BasicLrCache<Addr> filtered(config);
  BasicLrCache<Addr> scanned(config);
  std::mt19937_64 rng(seed);
  std::vector<Addr> reserved;  // reservations not yet filled or cancelled
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  const auto pick_reserved = [&] {
    if (reserved.empty() || rng() % 8 == 0) return pick();
    const std::size_t i = rng() % reserved.size();
    const Addr addr = reserved[i];
    reserved[i] = reserved.back();
    reserved.pop_back();
    return addr;
  };
  const auto origin = [&] {
    return rng() % 2 == 0 ? Origin::kLocal : Origin::kRemote;
  };
  int since_clear = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const auto now = static_cast<std::uint64_t>(step);
    std::uint64_t op = rng() % 1'000;
    if (op >= 794 && since_clear < 100) op %= 340;  // probe instead
    ++since_clear;
    if (op < 340) {
      const Addr addr = pick();
      const ProbeResult a = filtered.probe(addr, now);
      const ProbeResult b = scanned.probe(addr, now);
      ASSERT_EQ(a.state, b.state);
      ASSERT_EQ(a.next_hop, b.next_hop);
    } else if (op < 460) {
      const Addr addr = pick();
      const Origin o = origin();
      const bool ok = filtered.reserve(addr, o, now);
      ASSERT_EQ(ok, scanned.reserve(addr, o, now));
      if (ok) reserved.push_back(addr);
    } else if (op < 600) {
      const Addr addr = pick_reserved();
      const auto hop = static_cast<net::NextHop>(rng() % 16);
      ASSERT_EQ(filtered.fill(addr, hop, now), scanned.fill(addr, hop, now));
    } else if (op < 760) {
      const Addr addr = pick();
      const auto hop = static_cast<net::NextHop>(rng() % 16);
      const Origin o = origin();
      filtered.insert(addr, hop, o, now);
      scanned.insert(addr, hop, o, now);
    } else if (op < 790) {
      const Addr addr = pick_reserved();
      ASSERT_EQ(filtered.cancel_waiting(addr), scanned.cancel_waiting(addr));
    } else if (op < 792) {
      filtered.flush();
      scanned.flush();
      reserved.clear();
      since_clear = 0;
    } else if (op < 794) {
      filtered.reset();
      scanned.reset();
      reserved.clear();
      since_clear = 0;
    } else if (op < 804) {
      const auto residue = static_cast<std::uint32_t>(rng() % 4);
      const auto pred = [residue](const Addr& addr) {
        return lr_cache_set_bits(addr) % 4 == residue;
      };
      ASSERT_EQ(filtered.invalidate_if(pred), scanned.invalidate_if(pred));
    } else {
      const auto prefix = make_prefix(rng);
      ASSERT_EQ(filtered.invalidate_matching(prefix),
                scanned.invalidate_if(
                    [&](const Addr& addr) { return prefix.matches(addr); }))
          << prefix.to_string();
    }
  }
  EXPECT_EQ(filtered.stats(), scanned.stats());
  const auto end = static_cast<std::uint64_t>(kSteps);
  for (const Addr& addr : pool) {
    const ProbeResult a = filtered.probe(addr, end);
    const ProbeResult b = scanned.probe(addr, end);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.next_hop, b.next_hop);
  }
}

/// Runs the differential over every γ ∈ {0, 0.5, 1}, three geometries, and
/// LRU / FIFO / random replacement: a pool of about two hundred addresses
/// keeps evicting, demoting and re-hitting. The geometries give
/// invalidate_matching()'s tag scan 64 slots (16 sets of 4 ways, no victim
/// cache: whole chunks), 72 (the same plus 8 victim slots: whole chunks and
/// a tail) and 11 (2 sets of 4 ways plus 3 victim slots: a tail only).
template <typename Addr, typename MakePrefix>
void expect_filter_agrees_with_scan_everywhere(const std::vector<Addr>& pool,
                                               MakePrefix make_prefix) {
  struct Geometry {
    std::size_t blocks;
    std::size_t victims;
  };
  std::uint64_t seed = 1;
  for (const double gamma : {0.0, 0.5, 1.0}) {
    for (const Geometry geometry :
         {Geometry{64, 0}, Geometry{64, 8}, Geometry{8, 3}}) {
      for (const Replacement policy :
           {Replacement::kLru, Replacement::kFifo, Replacement::kRandom}) {
        SCOPED_TRACE(::testing::Message()
                     << "gamma=" << gamma << " blocks=" << geometry.blocks
                     << " victims=" << geometry.victims
                     << " policy=" << static_cast<int>(policy));
        LrCacheConfig config;
        config.blocks = geometry.blocks;
        config.associativity = 4;
        config.remote_fraction = gamma;
        config.victim_blocks = geometry.victims;
        config.replacement = policy;
        config.victim_replacement = policy;
        expect_filter_agrees_with_scan(config, pool, make_prefix, seed++);
      }
    }
  }
}

}  // namespace spal::cache::testing
