#include "trie/dp_trie.h"

#include <algorithm>
#include <type_traits>

namespace spal::trie {
namespace {

/// `key` truncated to its first `len` bits (low bits zeroed).
template <typename Addr>
Addr key_head(const Addr& key, int len) {
  return key & Addr::netmask(len);
}

}  // namespace

template <typename Addr>
BasicDpTrie<Addr>::BasicDpTrie(const Table& table) {
  // Sort-based single-pass bulk build. The compressed structure is
  // canonical — its nodes are exactly the root, the stored prefixes, and
  // the branching points between them — so one left-to-right pass over the
  // sorted entries reconstructs the same trie per-entry insertion would,
  // in O(N): the classic rightmost-spine construction. The spine stack
  // holds the path from the root to the most recently added node (depths
  // strictly increasing); each new entry pops the spine back to its
  // divergence depth with the previous key and attaches there, inserting a
  // pass-through branch node when the divergence falls inside a compressed
  // edge. The arena is reserved to the 2N+1 structural bound up front
  // (every entry is at most one prefix node, branch nodes are strictly
  // fewer) so the pass never re-allocates.
  const auto& entries = table.entries();
  nodes_.emplace_back();  // root, depth 0
  std::size_t lo = 0;
  if (!entries.empty() && entries[0].prefix.length() == 0) {
    nodes_[0].has_prefix = true;
    nodes_[0].next_hop = entries[0].next_hop;
    lo = 1;
  }
  if (lo == entries.size()) return;
  nodes_.reserve(2 * (entries.size() - lo) + 1);

  // Spine of node ids; a node's depth is its index field.
  std::vector<std::int32_t> spine{0};
  spine.reserve(Addr::kBits + 1);
  Addr prev_key;
  for (std::size_t i = lo; i < entries.size(); ++i) {
    const Addr key = entries[i].prefix.address();
    const int len = entries[i].prefix.length();
    // Depth where this key leaves the previous entry's path; the first
    // entry attaches under the root (d = 0 pops nothing). When the keys are
    // equal (same bits, longer length) nothing pops either and the entry
    // chains under the previous node, exactly like a per-entry insert.
    const int d = i == lo ? 0 : net::common_prefix_bits(prev_key, key);
    prev_key = key;

    std::int32_t popped = -1;
    while (nodes_[static_cast<std::size_t>(spine.back())].index > d) {
      popped = spine.back();
      spine.pop_back();
    }
    std::int32_t parent = spine.back();
    const int parent_depth = nodes_[static_cast<std::size_t>(parent)].index;
    if (popped >= 0 && parent_depth < d) {
      // The divergence falls inside the compressed edge parent -> popped:
      // insert the pass-through branch node there. The old subtree keeps
      // bit 0 at depth d (keys ascend, so the new key has bit 1).
      const std::int32_t branch = static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
      Node& bn = nodes_.back();
      bn.key = key_head(key, d);
      bn.index = static_cast<std::uint8_t>(d);
      bn.parent = parent;
      bn.child[0] = popped;
      nodes_[static_cast<std::size_t>(popped)].parent = branch;
      nodes_[static_cast<std::size_t>(parent)].child[key.bit(parent_depth)] =
          branch;
      spine.push_back(branch);
      parent = branch;
    }
    // Attach the entry's prefix node: after a pop the edge bit at the
    // attach depth is 1 by key order; with no pop the parent is the
    // previous entry's node (an ancestor prefix of this key) and the edge
    // bit is the key's bit at the parent's own depth.
    const std::int32_t id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    Node& n = nodes_.back();
    n.key = key;  // already masked to `len` bits
    n.index = static_cast<std::uint8_t>(len);
    n.parent = parent;
    n.has_prefix = true;
    n.next_hop = entries[i].next_hop;
    Node& p = nodes_[static_cast<std::size_t>(parent)];
    p.child[key.bit(p.index)] = id;
    spine.push_back(id);
  }
}

template <typename Addr>
std::int32_t BasicDpTrie<Addr>::alloc_node() {
  if (!free_.empty()) {
    const std::int32_t id = free_.back();
    free_.pop_back();
    nodes_[static_cast<std::size_t>(id)] = Node{};
    return id;
  }
  nodes_.emplace_back();
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

template <typename Addr>
void BasicDpTrie<Addr>::insert(const Prefix& prefix, net::NextHop next_hop) {
  const int len = prefix.length();
  const Addr key = prefix.address();  // already masked to `len` bits
  std::int32_t cur = 0;
  // Invariant: nodes_[cur].key agrees with `key` on min(index, len) bits and
  // nodes_[cur].index <= len.
  while (true) {
    Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (n.index == len) {  // exact node exists (possibly a pass-through)
      n.has_prefix = true;
      n.next_hop = next_hop;
      return;
    }
    const int slot = key.bit(n.index);
    const std::int32_t child = n.child[slot];
    if (child < 0) {
      const std::int32_t leaf = alloc_node();
      Node& ln = nodes_[static_cast<std::size_t>(leaf)];
      ln.key = key;
      ln.index = static_cast<std::uint8_t>(len);
      ln.has_prefix = true;
      ln.next_hop = next_hop;
      ln.parent = cur;
      nodes_[static_cast<std::size_t>(cur)].child[slot] = leaf;
      return;
    }
    Node& c = nodes_[static_cast<std::size_t>(child)];
    const int edge_end = std::min<int>(c.index, len);
    const int d = std::min(net::common_prefix_bits(key, c.key), edge_end);
    if (d == edge_end && c.index <= len) {
      cur = child;  // the child's whole compressed edge matches: descend
      continue;
    }
    if (d == edge_end) {
      // len < c.index, keys agree on all `len` bits: the new prefix sits on
      // the compressed edge itself. Split the edge with a prefix node.
      const std::int32_t mid = alloc_node();
      Node& mn = nodes_[static_cast<std::size_t>(mid)];
      Node& cc = nodes_[static_cast<std::size_t>(child)];
      mn.key = key;
      mn.index = static_cast<std::uint8_t>(len);
      mn.has_prefix = true;
      mn.next_hop = next_hop;
      mn.parent = cur;
      mn.child[cc.key.bit(len)] = child;
      cc.parent = mid;
      nodes_[static_cast<std::size_t>(cur)].child[slot] = mid;
      return;
    }
    // Keys diverge at bit d (< both len and c.index): split the edge with a
    // branch node holding the old subtree on one side, a new leaf on the
    // other — the announce-that-splits-a-compressed-path case.
    const std::int32_t branch = alloc_node();
    const std::int32_t leaf = alloc_node();
    Node& bn = nodes_[static_cast<std::size_t>(branch)];
    Node& ln = nodes_[static_cast<std::size_t>(leaf)];
    Node& cc = nodes_[static_cast<std::size_t>(child)];
    bn.key = key_head(key, d);
    bn.index = static_cast<std::uint8_t>(d);
    bn.parent = cur;
    bn.child[cc.key.bit(d)] = child;
    bn.child[key.bit(d)] = leaf;
    cc.parent = branch;
    ln.key = key;
    ln.index = static_cast<std::uint8_t>(len);
    ln.has_prefix = true;
    ln.next_hop = next_hop;
    ln.parent = branch;
    nodes_[static_cast<std::size_t>(cur)].child[slot] = branch;
    return;
  }
}

template <typename Addr>
void BasicDpTrie<Addr>::maybe_splice(std::int32_t id) {
  while (id > 0) {
    Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.has_prefix) return;
    const int children = (n.child[0] >= 0 ? 1 : 0) + (n.child[1] >= 0 ? 1 : 0);
    if (children >= 2) return;
    const std::int32_t parent = n.parent;
    Node& p = nodes_[static_cast<std::size_t>(parent)];
    const int slot = p.child[0] == id ? 0 : 1;
    if (children == 1) {
      // Pass-through: fold this node back into the child's compressed edge.
      const std::int32_t child = n.child[0] >= 0 ? n.child[0] : n.child[1];
      p.child[slot] = child;
      nodes_[static_cast<std::size_t>(child)].parent = parent;
      free_.push_back(id);
      return;  // parent's child count is unchanged
    }
    p.child[slot] = -1;  // empty subtree: drop and re-check the parent
    free_.push_back(id);
    id = parent;
  }
}

template <typename Addr>
bool BasicDpTrie<Addr>::remove(const Prefix& prefix) {
  const int len = prefix.length();
  const Addr key = prefix.address();
  std::int32_t cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].index < len) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const std::int32_t child = n.child[key.bit(n.index)];
    if (child < 0) return false;
    const Node& c = nodes_[static_cast<std::size_t>(child)];
    if (c.index > len || !net::equal_prefix_bits(key, c.key, c.index)) {
      return false;  // the compressed edge skips past or diverges from `key`
    }
    cur = child;
  }
  Node& n = nodes_[static_cast<std::size_t>(cur)];
  if (n.index != len || !n.has_prefix ||
      !net::equal_prefix_bits(key, n.key, len)) {
    return false;
  }
  n.has_prefix = false;
  n.next_hop = net::kNoRoute;
  maybe_splice(cur);
  return true;
}

template <typename Addr>
template <bool kCounted>
net::NextHop BasicDpTrie<Addr>::lookup_impl(Addr addr,
                                            MemAccessCounter* counter) const {
  net::NextHop best = net::kNoRoute;
  std::int32_t node = 0;
  while (node >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if constexpr (kCounted) counter->record();  // node (index + pointers) read
    // Keys are verified only where a key exists — at prefix nodes, the way
    // the DP trie dereferences its key pointers. Pass-through branch nodes
    // are descended optimistically; any prefix node below re-verifies the
    // whole path, so skipped-bit mismatches can never produce a false match.
    if (n.has_prefix) {
      if constexpr (kCounted) counter->record();  // key comparison read
      if (!net::equal_prefix_bits(addr, n.key, n.index)) break;
      best = n.next_hop;
    }
    if (n.index >= Addr::kBits) break;
    node = n.child[addr.bit(n.index)];
  }
  return best;
}

template <typename Addr>
net::NextHop BasicDpTrie<Addr>::lookup(Addr addr) const {
  return lookup_impl<false>(addr, nullptr);
}

template <typename Addr>
net::NextHop BasicDpTrie<Addr>::lookup_counted(Addr addr,
                                               MemAccessCounter& counter) const {
  return lookup_impl<true>(addr, &counter);
}

template <typename Addr>
std::size_t BasicDpTrie<Addr>::storage_bytes() const {
  // The SPAL paper's stated DP-trie node layout: 1-byte index field plus
  // five 4-byte pointers (left, right, parent, key, prefix-data); an IPv6
  // node also holds its 16-byte key. Freed slots are reusable, so only live
  // nodes count.
  constexpr std::size_t kNodeBytes =
      1 + 5 * 4 + (std::is_same_v<Addr, net::Ipv6Addr> ? 16 : 0);
  return node_count() * kNodeBytes;
}

template class BasicDpTrie<net::Ipv4Addr>;
template class BasicDpTrie<net::Ipv6Addr>;

}  // namespace spal::trie
