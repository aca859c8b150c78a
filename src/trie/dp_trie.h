// DP trie (dynamic prefix trie), after Doeringer, Karjoth & Nassehi,
// "Routing on Longest-Matching Prefixes", IEEE/ACM ToN 1996.
//
// A path-compressed one-bit trie whose nodes are exactly the stored prefixes
// plus the branching points between them. Single-child chains are skipped
// via each node's index (bit-position) field, and skipped bits are verified
// against the node's key during search — the behaviour that gives the DP
// trie its characteristic ~16 memory accesses per lookup on backbone tables
// (Sec. 5.1 of the SPAL paper). Over IPv6 (DpTrie6) the same compression
// bounds the walk by the prefix population instead of the 128 levels a
// plain binary trie would take — the property the paper's Sec. 6
// feasibility claim needs, and the IPv6 router's forwarding engine.
//
// Storage model (Sec. 4 of the SPAL paper): each node is one byte for the
// index field plus five 4-byte pointers, i.e. 21 bytes per node; IPv6 nodes
// add the 16-byte key, 37 bytes per node.
#pragma once

#include <cstdint>
#include <vector>

#include "trie/lpm.h"

namespace spal::trie {

template <typename Addr>
class BasicDpTrie final : public BasicLpmIndex<Addr> {
 public:
  using Prefix = net::BasicPrefix<Addr>;
  using Table = net::BasicRouteTable<Addr>;

  explicit BasicDpTrie(const Table& table);

  // LpmIndex:
  net::NextHop lookup(Addr addr) const override;
  net::NextHop lookup_counted(Addr addr,
                              MemAccessCounter& counter) const override;
  std::size_t storage_bytes() const override;
  std::string_view name() const override { return "dp"; }

  // Incremental updates (the property the paper picks the DP trie for):
  // insert splits a compressed edge at the first divergent bit; remove
  // clears the prefix and splices out the node when it stops branching,
  // returning its slot to a free list. No rebuild, ever.
  bool supports_incremental_update() const override { return true; }
  void insert(const Prefix& prefix, net::NextHop next_hop) override;
  bool remove(const Prefix& prefix) override;

  /// Live (reachable) nodes; freed slots are excluded.
  std::size_t node_count() const { return nodes_.size() - free_.size(); }

 private:
  struct Node {
    Addr key;                    ///< path bits down to this node
    std::uint8_t index = 0;      ///< depth: number of key bits that are fixed
    bool has_prefix = false;     ///< node stores a routing-table prefix
    net::NextHop next_hop = net::kNoRoute;
    std::int32_t child[2] = {-1, -1};
    std::int32_t parent = -1;
  };

  template <bool kCounted>
  net::NextHop lookup_impl(Addr addr, MemAccessCounter* counter) const;

  std::int32_t alloc_node();
  /// Splices `id` out if it is a non-root pass-through (no prefix, <2
  /// children), cascading to its parent when it empties.
  void maybe_splice(std::int32_t id);

  std::vector<Node> nodes_;  // nodes_[0] is the root (depth 0)
  std::vector<std::int32_t> free_;  // reclaimed slots for reuse
};

extern template class BasicDpTrie<net::Ipv4Addr>;
extern template class BasicDpTrie<net::Ipv6Addr>;

using DpTrie = BasicDpTrie<net::Ipv4Addr>;
using DpTrie6 = BasicDpTrie<net::Ipv6Addr>;

}  // namespace spal::trie
