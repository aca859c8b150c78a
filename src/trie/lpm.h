// Common interface for longest-prefix-match (LPM) indexes.
//
// Every trie in this library implements BasicLpmIndex<Addr>: LpmIndex over
// IPv4 addresses, LpmIndex6 over IPv6 ones (the binary, DP and LC tries
// exist in both families). Two aspects matter to the
// SPAL experiments beyond plain correctness:
//   * storage_bytes(): the SRAM footprint of the built structure, using the
//     storage models stated in the paper (Sec. 4) — this drives Fig. 3; and
//   * counted lookups: the number of memory accesses a lookup performs,
//     which (at 12 ns per access + ~120 ns matching code, Sec. 5.1) sets the
//     forwarding engine's service time (≈40 cycles Lulea, ≈62 cycles DP).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "net/route_table.h"

namespace spal::trie {

/// One contiguous storage arena of a built LPM structure. arenas() lists
/// them hottest-first (the order the lookup path dereferences them); the
/// memory-tier cost model (src/core/memory_model.h) packs the spans into
/// SRAM/L2/LLC/DRAM tiers by cumulative footprint in exactly that order.
struct ArenaSpan {
  std::string_view name;   ///< stable identifier ("codewords", "nodes", ...)
  std::size_t bytes = 0;   ///< arena footprint; spans sum to storage_bytes()
};

/// Upper bound on the number of arenas any one structure reports. Per-arena
/// access counters are a fixed-size array so the counted path never
/// allocates.
inline constexpr std::size_t kMaxArenas = 8;

/// Counts memory accesses performed by an LPM lookup. An "access" is one
/// dependent read of a trie node / array element, i.e. the unit the paper
/// charges 12 ns for. Accesses may additionally be attributed to the arena
/// (index into the structure's arenas() order) they touch, which is what the
/// memory-tier cost model prices.
class MemAccessCounter {
 public:
  /// Untagged accesses land in arena 0 — exact for every single-arena
  /// structure (their one arenas() span is index 0).
  void record(std::uint64_t accesses = 1) { record_arena(0, accesses); }
  void record_arena(std::size_t arena, std::uint64_t accesses = 1) {
    total_ += accesses;
    per_arena_[arena < kMaxArenas ? arena : kMaxArenas - 1] += accesses;
  }
  std::uint64_t total() const { return total_; }
  std::uint64_t arena_total(std::size_t arena) const {
    return arena < kMaxArenas ? per_arena_[arena] : 0;
  }
  void reset() {
    total_ = 0;
    per_arena_ = {};
  }

 private:
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kMaxArenas> per_arena_{};
};

/// In-flight keys the batched lookup pipelines interleave (G in DESIGN.md,
/// "Batched lookup pipeline"): enough independent dependent-miss chains to
/// cover one cache-miss latency, small enough that lane state stays in
/// registers/L1.
inline constexpr std::size_t kLpmBatchLanes = 8;

/// A built longest-prefix-match index over a routing table of addresses
/// `Addr`. Most structures are immutable after build; dynamic tries
/// (binary, DP) additionally support in-place announce/withdraw via the
/// incremental-update interface below, which the live route-update pipeline
/// uses to avoid epoch rebuilds.
template <typename Addr>
class BasicLpmIndex {
 public:
  using Prefix = net::BasicPrefix<Addr>;

  virtual ~BasicLpmIndex() = default;

  /// Longest-prefix match; kNoRoute if nothing matches.
  virtual net::NextHop lookup(Addr addr) const = 0;

  /// Looks up `n` independent keys, writing out[i] = lookup(keys[i]).
  /// Results are always bit-identical to the scalar path; structures with a
  /// batched pipeline (Lulea, LC) override this with an interleaved
  /// software-prefetch loop that hides one key's dependent misses behind the
  /// others'. The base implementation is the plain scalar loop.
  virtual void lookup_batch(const Addr* keys, std::size_t n,
                            net::NextHop* out) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = lookup(keys[i]);
  }

  /// Same as lookup() but records every dependent memory access.
  virtual net::NextHop lookup_counted(Addr addr,
                                      MemAccessCounter& counter) const = 0;

  /// SRAM bytes required to hold the structure, per the paper's per-trie
  /// storage model.
  virtual std::size_t storage_bytes() const = 0;

  /// The flat storage arenas that compose storage_bytes(), hottest first.
  /// Arena i here is the arena counted lookups attribute via
  /// MemAccessCounter::record_arena(i, ...). The spans always sum to exactly
  /// storage_bytes(). Default: one arena named after the structure.
  virtual std::vector<ArenaSpan> arenas() const {
    return {{name(), storage_bytes()}};
  }

  /// Human-readable algorithm name ("binary", "dp", "lulea", "lc").
  virtual std::string_view name() const = 0;

  // --- Incremental updates (dynamic tries only) ---------------------------
  // Callers must check supports_incremental_update() first; immutable
  // structures (Lulea, LC, Gupta, stride) keep the defaults and are updated
  // by an epoch rebuild (build_lpm over the changed table) instead.

  /// True iff insert()/remove() mutate the structure in place.
  virtual bool supports_incremental_update() const { return false; }

  /// Inserts or replaces `prefix` in place. No-op on immutable structures.
  virtual void insert(const Prefix& prefix, net::NextHop next_hop) {
    (void)prefix;
    (void)next_hop;
  }

  /// Removes `prefix` exactly; true if it was present. Always false on
  /// immutable structures.
  virtual bool remove(const Prefix& prefix) {
    (void)prefix;
    return false;
  }

 protected:
  // The concrete tries stay copyable and movable (callers hold them by
  // value in containers); the interface cannot be sliced into.
  BasicLpmIndex() = default;
  BasicLpmIndex(const BasicLpmIndex&) = default;
  BasicLpmIndex(BasicLpmIndex&&) = default;
  BasicLpmIndex& operator=(const BasicLpmIndex&) = default;
  BasicLpmIndex& operator=(BasicLpmIndex&&) = default;
};

using LpmIndex = BasicLpmIndex<net::Ipv4Addr>;
using LpmIndex6 = BasicLpmIndex<net::Ipv6Addr>;

/// Trie algorithm selector used by factories and experiment configs.
enum class TrieKind { kBinary, kDp, kLulea, kLc, kGupta, kStride };

std::string_view to_string(TrieKind kind);

/// Parses a trie-kind name as printed by to_string(); nullopt on anything
/// else (used by the bench CLIs' strict --trie flag).
std::optional<TrieKind> trie_kind_from_string(std::string_view name);

/// Options consumed by specific builders.
struct LpmBuildOptions {
  double lc_fill_factor = 0.25;  ///< LC-trie fill factor (the paper's Sec. 4 value)
  int lc_root_branch = 16;       ///< LC-trie first-level branching bits cap
  std::vector<int> strides = {16, 8, 8};  ///< fixed-stride trie level widths
};

/// Builds an LPM index of the requested kind over `table`.
std::unique_ptr<LpmIndex> build_lpm(TrieKind kind, const net::RouteTable& table,
                                    const LpmBuildOptions& options = {});

/// Mean memory accesses per lookup over `samples` random matched addresses
/// (deterministic per seed). Reproduces the Sec. 5.1 access-count table.
double mean_accesses_per_lookup(const LpmIndex& index, const net::RouteTable& table,
                                std::size_t samples, std::uint64_t seed);

}  // namespace spal::trie
