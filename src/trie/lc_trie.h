// LC-trie (level-compressed trie), after Nilsson & Karlsson, "IP-Address
// Lookup Using LC-Tries", IEEE JSAC 1999.
//
// The prefix set is split into a *base vector* (prefixes that are not proper
// prefixes of any other) and a *prefix vector* of internal prefixes chained
// from the base entries that they cover. A path- and level-compressed trie
// is built over the base vector: each node either branches on 2^branch bits
// (after skipping `skip` bits) or is a leaf naming a base entry. The branch
// factor is grown greedily while the fraction of non-empty children stays
// above the fill factor; empty children are filled with a neighbouring leaf
// and rejected by the explicit comparison search performs at the leaf — the
// paper's Sec. 2.1 notes exactly this "explicit comparison" step.
//
// The SPAL paper evaluates the LC-trie with fill factor 0.25 (Sec. 4). Over
// IPv6 (LcTrie6) the same algorithm runs on 128-bit strings — the structure
// behind the paper's Sec. 2.1 remark that software tries are "applicable to
// 128-bit IPv6 prefixes" but pay "far longer lookup times and bigger
// storage".
//
// Host layout: trie nodes are packed into the 4-byte word the JSAC paper's
// storage model describes (5-bit branch, 7-bit skip, 20-bit adr), so 16
// nodes share a cache line and storage_bytes() reports actual host memory.
// The 7-bit skip also covers IPv6's longer compressible runs.
#pragma once

#include <cstdint>
#include <vector>

#include "trie/lpm.h"

namespace spal::trie {

namespace lc_detail {

/// Packed 4-byte LC-trie node: branch in the top 5 bits, skip in the next
/// 7, adr (children start, or base-vector index for leaves) in the low 20.
/// branch == 0 marks a leaf. The reachable value ranges fit: branch <= 20
/// (kMaxBranch), skip <= 127 (an IPv6 string minus one consumed bit).
/// Structures outgrowing the 20-bit adr (~1.05M nodes or base entries, i.e.
/// internet-scale tables) are size-selected onto WideNode instead.
struct PackedNode {
  static constexpr std::uint32_t kAdrBits = 20;
  static constexpr std::uint32_t kAdrMask = (1u << kAdrBits) - 1;
  static constexpr std::uint32_t kSkipBits = 7;

  std::uint32_t word = 0;

  static PackedNode make(std::uint32_t branch, std::uint32_t skip,
                         std::uint32_t adr) {
    return PackedNode{(branch << (kAdrBits + kSkipBits)) | (skip << kAdrBits) |
                      adr};
  }
  std::uint32_t branch() const { return word >> (kAdrBits + kSkipBits); }
  std::uint32_t skip() const { return (word >> kAdrBits) & ((1u << kSkipBits) - 1); }
  std::uint32_t adr() const { return word & kAdrMask; }
};

/// 8-byte node with a full 32-bit adr: the build-time staging type, and the
/// lookup layout when the structure exceeds PackedNode's 20-bit adr. Same
/// accessor surface as PackedNode so the walk code is shared by template.
struct WideNode {
  std::uint32_t adr_ = 0;
  std::uint8_t branch_ = 0;
  std::uint8_t skip_ = 0;

  static WideNode make(std::uint32_t branch, std::uint32_t skip,
                       std::uint32_t adr) {
    return WideNode{adr, static_cast<std::uint8_t>(branch),
                    static_cast<std::uint8_t>(skip)};
  }
  std::uint32_t branch() const { return branch_; }
  std::uint32_t skip() const { return skip_; }
  std::uint32_t adr() const { return adr_; }
};

/// Arena indexes for counted-lookup attribution; must match the order
/// arenas() lists its spans.
enum LcArena : std::size_t {
  kArenaNodes = 0,
  kArenaBase = 1,
  kArenaPre = 2,
};

}  // namespace lc_detail

template <typename Addr>
class BasicLcTrie final : public BasicLpmIndex<Addr> {
 public:
  using Table = net::TableOf<Addr>;

  /// Widest branch any node takes, whatever the fill factor allows: 2^20
  /// child slots. `max_root_branch` caps the root further (16 by default).
  static constexpr int kMaxBranch = 20;

  /// `fill_factor` must be > 0 (std::invalid_argument otherwise).
  /// `packed_limit` is the largest adr value the packed 4-byte layout may
  /// hold; structures whose node or base count exceeds it keep the 8-byte
  /// wide layout instead. The default is the format's real 20-bit ceiling —
  /// tests lower it to exercise the wide path without million-node builds.
  explicit BasicLcTrie(const Table& table, double fill_factor = 0.25,
                       int max_root_branch = 16,
                       std::size_t packed_limit = lc_detail::PackedNode::kAdrMask);

  // LpmIndex:
  net::NextHop lookup(Addr addr) const override;
  void lookup_batch(const Addr* keys, std::size_t n,
                    net::NextHop* out) const override;
  net::NextHop lookup_counted(Addr addr,
                              MemAccessCounter& counter) const override;
  std::size_t storage_bytes() const override;
  std::vector<ArenaSpan> arenas() const override;
  std::string_view name() const override { return "lc"; }

  std::size_t node_count() const {
    return wide_nodes_.empty() ? nodes_.size() : wide_nodes_.size();
  }
  std::size_t base_count() const { return base_.size(); }
  std::size_t internal_count() const { return pre_.size(); }
  /// True when the structure outgrew the packed 20-bit adr and uses the
  /// 8-byte wide node layout.
  bool wide_layout() const { return !wide_nodes_.empty(); }

 private:
  using Node = lc_detail::PackedNode;
  using WideNode = lc_detail::WideNode;
  struct BaseEntry {
    Addr bits;
    std::uint8_t len = 0;
    net::NextHop next_hop = net::kNoRoute;
    std::int32_t pre = -1;  ///< chain of covering internal prefixes
  };
  struct PreEntry {
    std::uint8_t len = 0;
    net::NextHop next_hop = net::kNoRoute;
    std::int32_t pre = -1;
  };

  /// Builds the trie into wide staging nodes: the root's children are
  /// partitioned into per-pattern subtrees built independently (over the
  /// sweep pool for large tables), then spliced into one exactly pre-sized
  /// array in DFS order — bit-for-bit the array the sequential recursion
  /// produces, because the recursion appends each child's whole subtree
  /// before its next sibling's.
  void build_nodes(std::vector<WideNode>& out) const;
  /// Appends the subtree over base_[first, first+n) with its root at
  /// out[node_index] (sequential recursion, shared by every build path).
  void build_at(std::vector<WideNode>& out, std::size_t node_index,
                std::size_t first, std::size_t n, int pos) const;
  int compute_branch(std::size_t first, std::size_t n, int pos, int* skip_out) const;
  /// Base entry an empty child slot points at: whichever sorted neighbour
  /// of the slot (p - 1 or p, within [first, last)) shares the longest
  /// prefix with the slot's path, so its prefix chain contains every prefix
  /// that can match addresses falling into the slot (the explicit
  /// comparison at the leaf rejects the leaf itself when appropriate).
  std::size_t empty_slot_neighbour(std::size_t first, std::size_t last,
                                   std::size_t p, int branch_pos, int branch,
                                   std::uint32_t pattern) const;

  /// Below this many keys lookup_batch uses the plain scalar loop (pipeline
  /// setup cost exceeds the overlap win; see BENCH_lpm.json small batches).
  static constexpr std::size_t kMinWaveWidth = 8;

  // Dispatch-level kernels (trie/simd_dispatch.h). There is no SSE4.2 tier:
  // the LC walk has no rank computation for POPCNT to accelerate, so the
  // sse42 level runs the generic pipeline. The AVX2 kernels — one per
  // family: lc_trie_simd.cpp (8 x 32-bit lanes) and lc_trie6_simd.cpp (4 x
  // 128-bit keys); generic-calling stubs off x86 — run the node walk and
  // base comparison as gather waves over the packed layout; the wide layout
  // always takes the generic pipeline.
  void lookup_batch_generic(const Addr* keys, std::size_t n,
                            net::NextHop* out) const;
  template <typename NodeT>
  void lookup_batch_pipeline(const NodeT* nodes, const Addr* keys,
                             std::size_t n, net::NextHop* out) const;
  void lookup_batch_avx2(const Addr* keys, std::size_t n,
                         net::NextHop* out) const;

  template <bool kCounted, typename NodeT>
  net::NextHop lookup_impl(const NodeT* nodes, Addr addr,
                           MemAccessCounter* counter) const;

  double fill_factor_;
  int max_root_branch_;
  std::vector<Node> nodes_;           // packed layout (empty when wide)
  std::vector<WideNode> wide_nodes_;  // wide layout (empty when packed)
  std::vector<BaseEntry> base_;
  std::vector<PreEntry> pre_;
};

template <>
void BasicLcTrie<net::Ipv4Addr>::lookup_batch_avx2(const net::Ipv4Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const;
template <>
void BasicLcTrie<net::Ipv6Addr>::lookup_batch_avx2(const net::Ipv6Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const;

extern template class BasicLcTrie<net::Ipv4Addr>;
extern template class BasicLcTrie<net::Ipv6Addr>;

using LcTrie = BasicLcTrie<net::Ipv4Addr>;
using LcTrie6 = BasicLcTrie<net::Ipv6Addr>;

}  // namespace spal::trie
