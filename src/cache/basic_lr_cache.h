// Address-family-generic LR-cache implementation. See lr_cache.h for the
// design commentary (M/W bits, γ ways quotas, victim cache) — that header
// also provides the IPv4 alias `LrCache` every IPv4 component uses, while
// the IPv6 router instantiates BasicLrCache<net::Ipv6Addr>.
//
// Requirements on Addr: regular value type with operator== and a static
// netmask(length), plus three overloads: lr_cache_set_bits(addr) yielding
// the 32 low-entropy bits the set index is drawn from,
// lr_cache_filter_key(addr) yielding the 16-bit bucket of the
// selective-invalidation filter, and lr_cache_tag(addr) yielding the 32
// address bits the invalidation scan compares first. The prefix type
// invalidate_matching() takes provides matches(addr), length(), address(),
// range_first() and range_last().
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "cache/lr_cache_stats.h"
#include "net/ip_addr.h"
#include "net/route_table.h"

namespace spal::cache {

/// Conventional replacement policy applied among eviction candidates.
enum class Replacement : std::uint8_t { kLru, kFifo, kRandom };

/// The M status bit: where the cached result was produced.
enum class Origin : std::uint8_t { kLocal, kRemote };

struct LrCacheConfig {
  std::size_t blocks = 4096;          ///< β, total blocks
  std::size_t associativity = 4;      ///< paper's choice (Sec. 3.2)
  double remote_fraction = 0.5;       ///< γ, share of each set for REM blocks
  std::size_t victim_blocks = 8;      ///< 0 disables the victim cache
  Replacement replacement = Replacement::kLru;
  Replacement victim_replacement = Replacement::kLru;
  std::uint64_t seed = 0x1004;        ///< used by the random policy only
};

/// Outcome of a probe.
enum class ProbeState : std::uint8_t {
  kHit,      ///< completed block found; next_hop is valid
  kWaiting,  ///< block found but W=1; park the packet on the waiting list
  kMiss,     ///< not present
};

struct ProbeResult {
  ProbeState state = ProbeState::kMiss;
  net::NextHop next_hop = net::kNoRoute;
};

/// Set-index source bits per address family.
inline std::uint32_t lr_cache_set_bits(net::Ipv4Addr addr) { return addr.value(); }
inline std::uint32_t lr_cache_set_bits(const net::Ipv6Addr& addr) {
  return static_cast<std::uint32_t>(addr.lo());
}

/// Invalidation-filter bucket per address family: a 16-bit slice of the
/// address. IPv4 takes the top 16 bits. IPv6 takes bits 16-31, because the
/// top 16 bits of a unicast v6 address carry little entropy. The slice is
/// contiguous, so the addresses a prefix covers fall in the buckets from
/// its first address's key to its last's.
inline std::uint32_t lr_cache_filter_key(net::Ipv4Addr addr) {
  return addr.value() >> 16;
}
inline std::uint32_t lr_cache_filter_key(const net::Ipv6Addr& addr) {
  return addr.bits(16, 16);
}

/// Invalidation-scan tag per address family: the IPv4 address, the top 32
/// bits of an IPv6 one. A tag is a slice of the address, so an address a
/// prefix matches has (tag & tag(netmask)) == tag(prefix address); the scan
/// reads a block only where that holds.
inline std::uint32_t lr_cache_tag(net::Ipv4Addr addr) { return addr.value(); }
inline std::uint32_t lr_cache_tag(const net::Ipv6Addr& addr) {
  return static_cast<std::uint32_t>(addr.hi() >> 32);
}

template <typename Addr>
class BasicLrCache {
 public:
  /// Throws std::invalid_argument unless blocks is a nonzero multiple of
  /// the associativity and the set count is a power of two.
  explicit BasicLrCache(const LrCacheConfig& config)
      : config_(config), rng_(config.seed) {
    if (config.associativity == 0 || config.blocks == 0 ||
        config.blocks % config.associativity != 0) {
      throw std::invalid_argument(
          "LrCache: blocks must be a nonzero multiple of associativity");
    }
    sets_ = config.blocks / config.associativity;
    if (!std::has_single_bit(sets_)) {
      throw std::invalid_argument("LrCache: set count must be a power of two");
    }
    if (config.remote_fraction < 0.0 || config.remote_fraction > 1.0) {
      throw std::invalid_argument("LrCache: remote_fraction outside [0,1]");
    }
    blocks_.resize(config.blocks + config.victim_blocks);
    tags_.assign(blocks_.size(), lr_cache_tag(Addr{}));
    candidates_.reserve(std::max(config.associativity, config.victim_blocks));
  }

  /// Looks `addr` up in its set and the victim cache simultaneously.
  ProbeResult probe(const Addr& addr, std::uint64_t now) {
    ++stats_.probes;
    if (Block* block = find_in_set(addr); block != nullptr) {
      if (block->waiting) {
        ++stats_.waiting_hits;
        return ProbeResult{ProbeState::kWaiting, net::kNoRoute};
      }
      block->last_use = now;
      ++stats_.hits;
      count_hit_origin(block->origin);
      return ProbeResult{ProbeState::kHit, block->next_hop};
    }
    // The victim cache is searched simultaneously (Sec. 3.2); on a hit the
    // block is promoted back into its set.
    if (Block* block = find_victim_entry(addr); block != nullptr) {
      ++stats_.hits;
      ++stats_.victim_hits;
      count_hit_origin(block->origin);
      const Block promoted = *block;
      drop(*block);  // free the slot: promote() may demote into it
      if (!promote(promoted, now)) {
        // Promotion declined (origin quota entirely waiting, or zero ways
        // at this γ): restore the entry instead of destroying a valid
        // result — it stays servable from the victim cache.
        overwrite(*block, promoted);
        block->last_use = now;
        ++stats_.failed_promotions;
      }
      return ProbeResult{ProbeState::kHit, promoted.next_hop};
    }
    ++stats_.misses;
    return ProbeResult{ProbeState::kMiss, net::kNoRoute};
  }

  /// Early recording: reserves a W=1 block (see lr_cache.h).
  bool reserve(const Addr& addr, Origin origin, std::uint64_t now) {
    Block* block = choose_victim(set_index(addr), origin, now);
    if (block == nullptr) {
      ++stats_.failed_reservations;
      return false;
    }
    ++stats_.reservations;
    overwrite(*block, Block{addr, net::kNoRoute, origin, /*valid=*/true,
                            /*waiting=*/true, now, now});
    return true;
  }

  /// Completes the waiting block for `addr`; false if it was flushed away.
  bool fill(const Addr& addr, net::NextHop next_hop, std::uint64_t now) {
    Block* block = find_in_set(addr);
    if (block == nullptr || !block->waiting) {
      ++stats_.orphan_fills;
      return false;
    }
    block->next_hop = next_hop;
    block->waiting = false;
    block->last_use = now;
    ++stats_.fills;
    return true;
  }

  /// Releases the waiting (W=1) block for `addr` without filling it: the
  /// router's timeout path reclaims blocks whose reply was lost so they
  /// stop pinning their origin's γ quota forever. False when no waiting
  /// block exists (already filled, flushed, or never reserved). Completed
  /// blocks are never touched.
  bool cancel_waiting(const Addr& addr) {
    Block* block = find_in_set(addr);
    if (block == nullptr || !block->waiting) return false;
    drop(*block);
    ++stats_.cancelled_reservations;
    return true;
  }

  /// Inserts a completed result directly (reserve+fill in one step).
  void insert(const Addr& addr, net::NextHop next_hop, Origin origin,
              std::uint64_t now) {
    if (Block* existing = find_in_set(addr); existing != nullptr) {
      existing->next_hop = next_hop;
      existing->origin = origin;
      existing->waiting = false;
      existing->last_use = now;
      return;
    }
    Block* block = choose_victim(set_index(addr), origin, now);
    if (block == nullptr) return;  // no ways for this origin / quota waiting
    overwrite(*block, Block{addr, next_hop, origin, /*valid=*/true,
                            /*waiting=*/false, now, now});
  }

  /// Invalidates every block including the victim cache (table update).
  void flush() {
    ++stats_.flushes;
    for (Block& block : blocks_) block.valid = false;
    filter_.clear();
  }

  /// Cold restart: flush() plus statistics and RNG reset.
  void reset() {
    for (Block& block : blocks_) block = Block{};
    std::fill(tags_.begin(), tags_.end(), lr_cache_tag(Addr{}));
    filter_.clear();
    stats_ = LrCacheStats{};
    rng_.seed(config_.seed);
  }

  /// Selective invalidation: drops completed blocks `prefix` covers
  /// (victim cache included); waiting blocks are left for their fill.
  /// Returns 0 without scanning when the filter holds no valid block in
  /// any bucket the prefix covers. Otherwise compares the slots' scan tags
  /// kScanChunk at a time and reads a block only where its tag matches.
  std::size_t invalidate_matching(const net::BasicPrefix<Addr>& prefix) {
    if (filter_.empty()) build_filter();
    const auto first =
        filter_.begin() + lr_cache_filter_key(prefix.range_first());
    const auto last =
        filter_.begin() + lr_cache_filter_key(prefix.range_last()) + 1;
    if (std::all_of(first, last, [](std::uint32_t n) { return n == 0; })) {
      return 0;
    }
    const std::uint32_t mask = lr_cache_tag(Addr::netmask(prefix.length()));
    const std::uint32_t value = lr_cache_tag(prefix.address());
    std::size_t invalidated = 0;
    const auto scan = [&](std::size_t base, std::size_t count) {
      if (count_tags(tags_.data() + base, count, mask, value) == 0) return;
      for (std::size_t i = base; i < base + count; ++i) {
        Block& block = blocks_[i];
        if ((tags_[i] & mask) == value && block.valid && !block.waiting &&
            prefix.matches(block.addr)) {
          drop(block);
          ++invalidated;
        }
      }
    };
    const std::size_t slots = tags_.size();
    std::size_t base = 0;
    for (; slots - base >= kScanChunk; base += kScanChunk) scan(base, kScanChunk);
    scan(base, slots - base);
    stats_.invalidated_blocks += invalidated;
    return invalidated;
  }

  /// Predicate invalidation: drops every completed block whose *address*
  /// satisfies `pred` (victim cache included); waiting blocks are left for
  /// their fill. The migration cutover uses this to shed all blocks homed
  /// on a re-homed fragment — a set no single prefix covers.
  template <typename Pred>
  std::size_t invalidate_if(Pred&& pred) {
    std::size_t invalidated = 0;
    for (Block& block : blocks_) {
      if (block.valid && !block.waiting && pred(block.addr)) {
        drop(block);
        ++invalidated;
      }
    }
    stats_.invalidated_blocks += invalidated;
    return invalidated;
  }

  const LrCacheStats& stats() const { return stats_; }
  const LrCacheConfig& config() const { return config_; }
  std::size_t set_count() const { return sets_; }

  /// Valid completed blocks of the given origin (test/diagnostic aid).
  std::size_t count_origin(Origin origin) const {
    std::size_t count = 0;
    for (const Block& block : std::span(blocks_).first(config_.blocks)) {
      if (block.valid && !block.waiting && block.origin == origin) ++count;
    }
    return count;
  }

  /// Ways of each set devoted to the origin. floor(): a fractional REM
  /// share never rounds a LOC way away (γ = 50% on a direct-mapped cache
  /// keeps the single way for LOC results).
  std::size_t ways(Origin origin) const {
    const auto rem = static_cast<std::size_t>(
        config_.remote_fraction * static_cast<double>(config_.associativity));
    return origin == Origin::kRemote ? rem : config_.associativity - rem;
  }

 private:
  struct Block {
    Addr addr{};
    net::NextHop next_hop = net::kNoRoute;
    Origin origin = Origin::kLocal;
    bool valid = false;
    bool waiting = false;
    std::uint64_t last_use = 0;   ///< LRU stamp
    std::uint64_t inserted = 0;   ///< FIFO stamp
  };

  std::size_t set_index(const Addr& addr) const {
    return lr_cache_set_bits(addr) & (sets_ - 1);
  }

  /// Every write that changes a block's address or validity goes through
  /// overwrite() or drop(), except flush() and reset(), which discard the
  /// filter (reset() also rewrites every tag). So a built filter stays
  /// exact and every slot's scan tag is its address's.
  void overwrite(Block& slot, const Block& block) {
    if (!filter_.empty()) {
      if (slot.valid) --filter_[lr_cache_filter_key(slot.addr)];
      if (block.valid) ++filter_[lr_cache_filter_key(block.addr)];
    }
    tags_[static_cast<std::size_t>(&slot - blocks_.data())] = lr_cache_tag(block.addr);
    slot = block;
  }

  void drop(Block& slot) {
    if (!filter_.empty() && slot.valid) {
      --filter_[lr_cache_filter_key(slot.addr)];
    }
    slot.valid = false;
  }

  /// Counts every valid block, waiting and victim ones included, per
  /// filter bucket: one pass over the blocks.
  void build_filter() {
    filter_.assign(kFilterBuckets, 0);
    for (const Block& block : blocks_) {
      if (block.valid) ++filter_[lr_cache_filter_key(block.addr)];
    }
  }

  /// How many of tags[0, count) satisfy (tag & mask) == value, with no
  /// branch. At 16 tags GCC unrolls it into scalar compares.
  static std::size_t count_tags(const std::uint32_t* tags, std::size_t count,
                                std::uint32_t mask, std::uint32_t value) {
    std::uint32_t matches = 0;
    for (std::size_t j = 0; j < count; ++j) {
      matches += static_cast<std::uint32_t>((tags[j] & mask) == value);
    }
    return matches;
  }

  void count_hit_origin(Origin origin) {
    if (origin == Origin::kLocal) {
      ++stats_.loc_hits;
    } else {
      ++stats_.rem_hits;
    }
  }

  /// Moves a victim-cache hit back into its set (Sec. 3.2). Unlike
  /// insert(), a declined allocation is reported to the caller and is not a
  /// quota bypass — the result is not lost, it stays in the victim cache.
  bool promote(const Block& victim, std::uint64_t now) {
    Block* block = choose_victim(set_index(victim.addr), victim.origin, now,
                                 /*count_quota_bypass=*/false);
    if (block == nullptr) return false;
    overwrite(*block, victim);
    block->last_use = now;
    block->inserted = now;
    return true;
  }

  Block* find_in_set(const Addr& addr) {
    const std::size_t base = set_index(addr) * config_.associativity;
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      Block& block = blocks_[base + i];
      if (block.valid && block.addr == addr) return &block;
    }
    return nullptr;
  }

  /// The victim cache's slots, stored after the sets' blocks.
  std::span<Block> victim_slots() { return std::span(blocks_).subspan(config_.blocks); }

  Block* find_victim_entry(const Addr& addr) {
    for (Block& block : victim_slots()) {
      if (block.valid && block.addr == addr) return &block;
    }
    return nullptr;
  }

  std::size_t pick_by_policy(const std::vector<std::size_t>& candidates,
                             Replacement policy) {
    switch (policy) {
      case Replacement::kLru:
        return *std::min_element(candidates.begin(), candidates.end(),
                                 [&](std::size_t a, std::size_t b) {
                                   return blocks_[a].last_use < blocks_[b].last_use;
                                 });
      case Replacement::kFifo:
        return *std::min_element(candidates.begin(), candidates.end(),
                                 [&](std::size_t a, std::size_t b) {
                                   return blocks_[a].inserted < blocks_[b].inserted;
                                 });
      case Replacement::kRandom:
        return candidates[std::uniform_int_distribution<std::size_t>(
            0, candidates.size() - 1)(rng_)];
    }
    return candidates.front();
  }

  /// Picks the block an `origin` insertion may overwrite under the γ ways
  /// quota; nullptr when the origin has no ways or only waiting blocks.
  Block* choose_victim(std::size_t set, Origin origin, std::uint64_t now,
                       bool count_quota_bypass = true) {
    if (ways(origin) == 0) {
      // This origin is not cached at this γ — but a promotion that keeps
      // its victim-cache entry is not a bypassed (lost) result.
      if (count_quota_bypass) ++stats_.quota_bypasses;
      return nullptr;
    }
    const std::size_t base = set * config_.associativity;
    // Same-origin blocks count against the γ quota (waiting ones included);
    // the evictable (non-waiting) ones are the candidates.
    candidates_.clear();
    std::size_t same_origin_valid = 0;
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      const Block& block = blocks_[base + i];
      if (!block.valid || block.origin != origin) continue;
      ++same_origin_valid;
      if (!block.waiting) candidates_.push_back(base + i);
    }
    if (same_origin_valid >= ways(origin)) {
      // Quota reached: replace within the origin's own ways.
      if (candidates_.empty()) return nullptr;  // quota entirely waiting
      Block* block = &blocks_[pick_by_policy(candidates_, config_.replacement)];
      if (config_.victim_blocks > 0) demote(*block, now);
      return block;
    }
    // Below quota: take an idle block first...
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      if (!blocks_[base + i].valid) return &blocks_[base + i];
    }
    // ...else the other origin necessarily exceeds its quota; reclaim.
    candidates_.clear();
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      const Block& block = blocks_[base + i];
      if (block.valid && block.origin != origin && !block.waiting) {
        candidates_.push_back(base + i);
      }
    }
    if (candidates_.empty()) return nullptr;
    Block* block = &blocks_[pick_by_policy(candidates_, config_.replacement)];
    if (config_.victim_blocks > 0) demote(*block, now);
    return block;
  }

  /// Demotes a valid block into the victim cache.
  void demote(const Block& block, std::uint64_t now) {
    ++stats_.evictions;
    for (Block& slot : victim_slots()) {
      if (!slot.valid) {
        overwrite(slot, block);
        slot.last_use = now;
        slot.inserted = now;
        return;
      }
    }
    candidates_.clear();
    for (std::size_t i = config_.blocks; i < blocks_.size(); ++i) {
      candidates_.push_back(i);
    }
    Block& slot = blocks_[pick_by_policy(candidates_, config_.victim_replacement)];
    overwrite(slot, block);
    slot.last_use = now;
    slot.inserted = now;
  }

  LrCacheConfig config_;
  std::size_t sets_ = 0;
  /// sets_ * associativity blocks, set-major, then the victim cache's
  /// fully associative slots.
  std::vector<Block> blocks_;
  /// lr_cache_tag of each slot's address, index for index with blocks_.
  std::vector<std::uint32_t> tags_;
  /// Tags invalidate_matching() compares per step (64 B).
  static constexpr std::size_t kScanChunk = 16;
  static constexpr std::size_t kFilterBuckets = std::size_t{1} << 16;
  /// Valid blocks per lr_cache_filter_key bucket; empty until the first
  /// invalidate_matching() after construction, flush() or reset().
  std::vector<std::uint32_t> filter_;
  /// Replacement candidates (block or victim-slot indices), refilled by
  /// each choose_victim() and demote() so neither allocates per call.
  std::vector<std::size_t> candidates_;
  LrCacheStats stats_;
  std::mt19937_64 rng_;
};

}  // namespace spal::cache
