// Plain one-bit-at-a-time binary trie.
//
// This is the library's correctness oracle: the simplest possible LPM
// structure, supporting incremental insert/remove (used by the update tests)
// as well as the immutable LpmIndex interface. It is also the "no
// compression" reference point the other tries are judged against, and —
// as BinaryTrie6 — the storage yardstick for the Sec. 6 IPv6 extension (the
// paper argues SPAL's SRAM reduction grows under IPv6 because tries get
// several times larger).
#pragma once

#include <cstdint>
#include <vector>

#include "trie/lpm.h"

namespace spal::trie {

template <typename Addr>
class BasicBinaryTrie final : public BasicLpmIndex<Addr> {
 public:
  using Prefix = net::BasicPrefix<Addr>;
  using Table = net::BasicRouteTable<Addr>;

  BasicBinaryTrie();
  explicit BasicBinaryTrie(const Table& table);

  /// Inserts or replaces `prefix`.
  void insert(const Prefix& prefix, net::NextHop next_hop) override;

  /// Removes `prefix` exactly (the default route included); returns true if
  /// it was present. (Nodes are not reclaimed; the empty chain left behind
  /// costs 12 bytes a node and never changes lookup results.)
  bool remove(const Prefix& prefix) override;

  bool supports_incremental_update() const override { return true; }

  // LpmIndex:
  net::NextHop lookup(Addr addr) const override;
  net::NextHop lookup_counted(Addr addr,
                              MemAccessCounter& counter) const override;
  std::size_t storage_bytes() const override;
  std::string_view name() const override { return "binary"; }

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    net::NextHop next_hop = net::kNoRoute;
  };

  template <bool kCounted>
  net::NextHop lookup_impl(Addr addr, MemAccessCounter* counter) const;

  std::vector<Node> nodes_;  // nodes_[0] is the root
};

extern template class BasicBinaryTrie<net::Ipv4Addr>;
extern template class BasicBinaryTrie<net::Ipv6Addr>;

using BinaryTrie = BasicBinaryTrie<net::Ipv4Addr>;
using BinaryTrie6 = BasicBinaryTrie<net::Ipv6Addr>;

}  // namespace spal::trie
