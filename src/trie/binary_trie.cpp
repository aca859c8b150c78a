#include "trie/binary_trie.h"

namespace spal::trie {

template <typename Addr>
BasicBinaryTrie<Addr>::BasicBinaryTrie() {
  nodes_.emplace_back();
}

template <typename Addr>
BasicBinaryTrie<Addr>::BasicBinaryTrie(const Table& table) : BasicBinaryTrie() {
  for (const auto& e : table.entries()) insert(e.prefix, e.next_hop);
}

template <typename Addr>
void BasicBinaryTrie<Addr>::insert(const Prefix& prefix, net::NextHop next_hop) {
  const Addr key = prefix.address();
  std::int32_t node = 0;
  for (int depth = 0; depth < prefix.length(); ++depth) {
    const int bit = key.bit(depth);
    std::int32_t child = nodes_[static_cast<std::size_t>(node)].child[bit];
    if (child < 0) {
      child = static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
      nodes_[static_cast<std::size_t>(node)].child[bit] = child;
    }
    node = child;
  }
  nodes_[static_cast<std::size_t>(node)].next_hop = next_hop;
}

template <typename Addr>
bool BasicBinaryTrie<Addr>::remove(const Prefix& prefix) {
  const Addr key = prefix.address();
  std::int32_t node = 0;
  for (int depth = 0; depth < prefix.length(); ++depth) {
    node = nodes_[static_cast<std::size_t>(node)].child[key.bit(depth)];
    if (node < 0) return false;
  }
  Node& target = nodes_[static_cast<std::size_t>(node)];
  if (target.next_hop == net::kNoRoute) return false;
  target.next_hop = net::kNoRoute;
  return true;
}

template <typename Addr>
template <bool kCounted>
net::NextHop BasicBinaryTrie<Addr>::lookup_impl(Addr addr,
                                                MemAccessCounter* counter) const {
  net::NextHop best = net::kNoRoute;
  std::int32_t node = 0;
  for (int depth = 0; node >= 0 && depth <= Addr::kBits; ++depth) {
    if constexpr (kCounted) counter->record();  // one node read per level
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.next_hop != net::kNoRoute) best = n.next_hop;
    if (depth == Addr::kBits) break;
    node = n.child[addr.bit(depth)];
  }
  return best;
}

template <typename Addr>
net::NextHop BasicBinaryTrie<Addr>::lookup(Addr addr) const {
  return lookup_impl<false>(addr, nullptr);
}

template <typename Addr>
net::NextHop BasicBinaryTrie<Addr>::lookup_counted(
    Addr addr, MemAccessCounter& counter) const {
  return lookup_impl<true>(addr, &counter);
}

template <typename Addr>
std::size_t BasicBinaryTrie<Addr>::storage_bytes() const {
  // Two 4-byte child pointers + 4-byte next hop per node.
  return nodes_.size() * (2 * 4 + 4);
}

template class BasicBinaryTrie<net::Ipv4Addr>;
template class BasicBinaryTrie<net::Ipv6Addr>;

}  // namespace spal::trie
