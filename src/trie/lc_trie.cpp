#include "trie/lc_trie.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/sweep.h"
#include "trie/simd_dispatch.h"

namespace spal::trie {
namespace {

inline void prefetch(const void* address) { __builtin_prefetch(address, 0, 3); }

/// The batch pipeline's `count`-bit field of `addr` at MSB-relative `pos`.
/// The IPv4 form is branch-free: count == 0 yields 0 via the zero mask, and
/// the shift amount is clamped so it stays defined where Ipv4Addr::bits
/// would branch.
inline std::uint32_t field(net::Ipv4Addr addr, int pos, int count) {
  const std::uint32_t mask =
      count >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << count) - 1u);
  return (addr.value() >> ((32 - pos - count) & 31)) & mask;
}
inline std::uint32_t field(const net::Ipv6Addr& addr, int pos, int count) {
  return addr.bits(pos, count);
}

/// Below this many base entries the bulk build runs its per-pattern subtree
/// pass inline: small builds (including epoch rebuilds of per-LC fragments)
/// gain nothing from the sweep pool.
constexpr std::size_t kParallelBuildMin = 65536;

/// Root patterns handled per sweep task; 256 keeps task count well above
/// thread count at the default 16-bit root without per-task overhead
/// dominating.
constexpr std::size_t kPatternBatch = 256;

/// Storage-model bytes of a base entry: the address string plus length,
/// next hop and chain pointer — 12 B on IPv4, 24 B on IPv6.
template <typename Addr>
constexpr std::size_t kBaseEntryBytes = Addr::kBits / 8 + 8;

}  // namespace

template <typename Addr>
BasicLcTrie<Addr>::BasicLcTrie(const Table& table, double fill_factor,
                               int max_root_branch, std::size_t packed_limit)
    : fill_factor_(fill_factor), max_root_branch_(max_root_branch) {
  // Under a fill factor of 0, below 0 or NaN the fill test in
  // compute_branch never fails, and every node of three or more entries
  // would widen to kMaxBranch.
  if (!(fill_factor > 0.0)) {
    throw std::invalid_argument("LcTrie: fill factor must be > 0");
  }
  // Split into base vector (non-covering prefixes) and internal prefix
  // vector. Entries arrive sorted by (bits, length), so a prefix is internal
  // iff it covers the immediately following entry, and a stack of currently
  // open internal prefixes yields each entry's covering chain.
  const auto entries = table.entries();
  struct Open {
    net::PrefixOf<Addr> prefix;
    std::int32_t pre_index;
  };
  std::vector<Open> stack;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    while (!stack.empty() && !stack.back().prefix.covers(e.prefix)) stack.pop_back();
    const std::int32_t parent = stack.empty() ? -1 : stack.back().pre_index;
    const bool internal =
        i + 1 < entries.size() && e.prefix.covers(entries[i + 1].prefix);
    if (internal) {
      const auto pre_index = static_cast<std::int32_t>(pre_.size());
      pre_.push_back(PreEntry{static_cast<std::uint8_t>(e.prefix.length()),
                              e.next_hop, parent});
      stack.push_back(Open{e.prefix, pre_index});
    } else {
      base_.push_back(BaseEntry{e.prefix.address(),
                                static_cast<std::uint8_t>(e.prefix.length()),
                                e.next_hop, parent});
    }
  }
  if (base_.empty()) return;
  std::vector<WideNode> staging;
  build_nodes(staging);
  // Size-select the lookup layout: the packed 4-byte node iff every adr the
  // structure stores — child starts (< node count) and base-vector indexes —
  // fits the packed field (and the caller's test ceiling).
  const std::size_t limit = std::min<std::size_t>(packed_limit, Node::kAdrMask);
  if (staging.size() <= limit + 1 && base_.size() <= limit) {
    nodes_.reserve(staging.size());
    for (const WideNode& w : staging) {
      nodes_.push_back(Node::make(w.branch(), w.skip(), w.adr()));
    }
  } else {
    wide_nodes_ = std::move(staging);
  }
}

template <typename Addr>
int BasicLcTrie<Addr>::compute_branch(std::size_t first, std::size_t n,
                                      int pos, int* skip_out) const {
  // Path compression: bits shared by every entry in [first, first+n) from
  // `pos` on. Entries are sorted (with distinct bits) and share the node's
  // path below `pos`, so the common prefix of the first and last is the
  // common prefix of all.
  const int skip =
      net::common_prefix_bits(base_[first].bits, base_[first + n - 1].bits) -
      pos;
  *skip_out = skip;
  const int branch_pos = pos + skip;
  if (n == 2) return 1;
  // Level compression: grow the branch while the number of distinct bit
  // patterns keeps the children at least fill_factor full.
  int branch = 1;
  for (;;) {
    const int next = branch + 1;
    if (branch_pos + next > Addr::kBits || next > kMaxBranch) break;
    if (pos == 0 && next > max_root_branch_) break;
    if (static_cast<double>(n) <
        fill_factor_ * static_cast<double>(1u << next)) {
      break;
    }
    std::size_t patterns = 1;
    std::uint32_t prev = base_[first].bits.bits(branch_pos, next);
    for (std::size_t i = first + 1; i < first + n; ++i) {
      const std::uint32_t cur = base_[i].bits.bits(branch_pos, next);
      if (cur != prev) {
        ++patterns;
        prev = cur;
      }
    }
    if (static_cast<double>(patterns) <
        fill_factor_ * static_cast<double>(1u << next)) {
      break;
    }
    branch = next;
  }
  return branch;
}

template <typename Addr>
std::size_t BasicLcTrie<Addr>::empty_slot_neighbour(
    std::size_t first, std::size_t last, std::size_t p, int branch_pos,
    int branch, std::uint32_t pattern) const {
  if (p == first) return p;
  if (p == last) return p - 1;
  // Both neighbours share the slot's path below branch_pos and differ from
  // its pattern inside the branch field, so the longer shared prefix
  // belongs to the one whose field first differs in a lower bit.
  const auto differing_bits = [&](std::size_t q) {
    return std::bit_width(base_[q].bits.bits(branch_pos, branch) ^ pattern);
  };
  return differing_bits(p - 1) <= differing_bits(p) ? p - 1 : p;
}

template <typename Addr>
void BasicLcTrie<Addr>::build_at(std::vector<WideNode>& out,
                                 std::size_t node_index, std::size_t first,
                                 std::size_t n, int pos) const {
  if (n == 1) {
    out[node_index] = WideNode::make(0, 0, static_cast<std::uint32_t>(first));
    return;
  }
  int skip = 0;
  const int branch = compute_branch(first, n, pos, &skip);
  const std::size_t adr = out.size();
  out.resize(adr + (std::size_t{1} << branch));
  out[node_index] = WideNode::make(static_cast<std::uint32_t>(branch),
                                   static_cast<std::uint32_t>(skip),
                                   static_cast<std::uint32_t>(adr));
  const int branch_pos = pos + skip;
  const int child_pos = branch_pos + branch;
  std::size_t p = first;
  for (std::uint32_t pattern = 0; pattern < (1u << branch); ++pattern) {
    std::size_t k = 0;
    while (p + k < first + n &&
           base_[p + k].bits.bits(branch_pos, branch) == pattern) {
      ++k;
    }
    if (k == 0) {
      build_at(out, adr + pattern,
               empty_slot_neighbour(first, first + n, p, branch_pos, branch,
                                    pattern),
               1, child_pos);
    } else {
      build_at(out, adr + pattern, p, k, child_pos);
      p += k;
    }
  }
}

template <typename Addr>
void BasicLcTrie<Addr>::build_nodes(std::vector<WideNode>& out) const {
  out.clear();
  const std::size_t n = base_.size();
  if (n == 1) {
    out.push_back(WideNode::make(0, 0, 0));
    return;
  }
  // The sequential recursion lays the array out as [root][child slots
  // 0..2^branch) [descendants of child 0][descendants of child 1]... because
  // each root child's recursive call appends its entire subtree before the
  // next child's begins. Each child subtree touches only its own base-vector
  // subrange, so the subtrees build independently (in parallel for large
  // tables) into task-local arrays and splice back in child order with a
  // pure adr rebase — bit-for-bit the sequential array.
  int skip = 0;
  const int branch = compute_branch(0, n, 0, &skip);
  const std::size_t fan = std::size_t{1} << branch;
  const int child_pos = skip + branch;
  // Per-child base-vector subranges, plus the seed-identical neighbour
  // substitution for empty children (count == 0 => first is the neighbour).
  struct Task {
    std::size_t first = 0;
    std::size_t count = 0;
  };
  std::vector<Task> tasks(fan);
  std::size_t p = 0;
  for (std::uint32_t pattern = 0; pattern < fan; ++pattern) {
    std::size_t k = 0;
    while (p + k < n && base_[p + k].bits.bits(skip, branch) == pattern) ++k;
    if (k == 0) {
      tasks[pattern] =
          Task{empty_slot_neighbour(0, n, p, skip, branch, pattern), 0};
    } else {
      tasks[pattern] = Task{p, k};
      p += k;
    }
  }
  // Build each child subtree into a task-group-local array. Group results
  // keep per-child start offsets so the splice can rebase each subtree.
  struct GroupNodes {
    std::vector<WideNode> nodes;
    std::vector<std::size_t> start;
  };
  const std::size_t group_count = (fan + kPatternBatch - 1) / kPatternBatch;
  std::vector<std::size_t> group_ids(group_count);
  for (std::size_t g = 0; g < group_count; ++g) group_ids[g] = g;
  const int threads = n >= kParallelBuildMin ? 0 : 1;
  const auto groups = sim::parallel_sweep(
      group_ids,
      [&](std::size_t gi) {
        GroupNodes g;
        const std::size_t begin = gi * kPatternBatch;
        const std::size_t end = std::min(begin + kPatternBatch, fan);
        g.start.reserve(end - begin);
        for (std::size_t q = begin; q < end; ++q) {
          const std::size_t self = g.nodes.size();
          g.start.push_back(self);
          g.nodes.emplace_back();
          const std::size_t count = std::max<std::size_t>(tasks[q].count, 1);
          build_at(g.nodes, self, tasks[q].first, count, child_pos);
        }
        return g;
      },
      threads);
  // Exact final size: root + child slots + every subtree's descendants.
  std::size_t total = 1 + fan;
  for (const GroupNodes& g : groups) total += g.nodes.size() - g.start.size();
  out.reserve(total);
  out.resize(1 + fan);
  out[0] = WideNode::make(static_cast<std::uint32_t>(branch),
                          static_cast<std::uint32_t>(skip), 1);
  std::size_t pattern = 0;
  for (const GroupNodes& g : groups) {
    for (std::size_t q = 0; q < g.start.size(); ++q, ++pattern) {
      const std::size_t s = g.start[q];
      const std::size_t e =
          q + 1 < g.start.size() ? g.start[q + 1] : g.nodes.size();
      // Descendants of this child begin where the array currently ends;
      // local adr a (pointing past the local subtree root at s) lands at
      // desc_base + (a - s - 1).
      const std::size_t desc_base = out.size();
      const auto rebase = [&](WideNode w) {
        if (w.branch() != 0) {
          w.adr_ = static_cast<std::uint32_t>(desc_base + (w.adr() - s - 1));
        }
        return w;
      };
      out[1 + pattern] = rebase(g.nodes[s]);
      for (std::size_t a = s + 1; a < e; ++a) out.push_back(rebase(g.nodes[a]));
    }
  }
}

template <typename Addr>
template <bool kCounted, typename NodeT>
net::NextHop BasicLcTrie<Addr>::lookup_impl(const NodeT* nodes, Addr addr,
                                            MemAccessCounter* counter) const {
  if constexpr (kCounted) counter->record_arena(lc_detail::kArenaNodes);
  NodeT node = nodes[0];
  int pos = static_cast<int>(node.skip());
  while (node.branch() != 0) {
    if constexpr (kCounted) counter->record_arena(lc_detail::kArenaNodes);
    const int parent_branch = static_cast<int>(node.branch());
    node = nodes[node.adr() + addr.bits(pos, parent_branch)];
    // Consume the parent's branch bits plus the child's skipped bits.
    pos += parent_branch + static_cast<int>(node.skip());
  }
  if constexpr (kCounted) counter->record_arena(lc_detail::kArenaBase);
  const BaseEntry& base = base_[node.adr()];
  if (net::equal_prefix_bits(addr, base.bits, base.len)) return base.next_hop;
  // Explicit comparison failed; walk the chain of covering internal
  // prefixes (longest first). They share the base entry's bits up to their
  // own lengths, so the comparison reads those.
  std::int32_t pre = base.pre;
  while (pre >= 0) {
    if constexpr (kCounted) counter->record_arena(lc_detail::kArenaPre);
    const PreEntry& entry = pre_[static_cast<std::size_t>(pre)];
    if (net::equal_prefix_bits(addr, base.bits, entry.len)) return entry.next_hop;
    pre = entry.pre;
  }
  return net::kNoRoute;
}

template <typename Addr>
net::NextHop BasicLcTrie<Addr>::lookup(Addr addr) const {
  if (!wide_nodes_.empty()) {
    return lookup_impl<false>(wide_nodes_.data(), addr, nullptr);
  }
  if (nodes_.empty()) return net::kNoRoute;
  return lookup_impl<false>(nodes_.data(), addr, nullptr);
}

template <typename Addr>
void BasicLcTrie<Addr>::lookup_batch(const Addr* keys, std::size_t n,
                                     net::NextHop* out) const {
  if ((nodes_.empty() && wide_nodes_.empty()) || n < kMinWaveWidth) {
    for (std::size_t i = 0; i < n; ++i) out[i] = lookup(keys[i]);
    return;
  }
  // The AVX2 kernels gather the packed 4-byte layout; the wide layout
  // always takes the generic pipeline.
  if (wide_nodes_.empty() && resolved_simd_level() == SimdLevel::kAvx2) {
    lookup_batch_avx2(keys, n, out);
    return;
  }
  lookup_batch_generic(keys, n, out);
}

template <typename Addr>
void BasicLcTrie<Addr>::lookup_batch_generic(const Addr* keys, std::size_t n,
                                             net::NextHop* out) const {
  if (!wide_nodes_.empty()) {
    lookup_batch_pipeline(wide_nodes_.data(), keys, n, out);
  } else {
    lookup_batch_pipeline(nodes_.data(), keys, n, out);
  }
}

template <typename Addr>
template <typename NodeT>
void BasicLcTrie<Addr>::lookup_batch_pipeline(const NodeT* nodes,
                                              const Addr* keys, std::size_t n,
                                              net::NextHop* out) const {
  // Stage-synchronous pipeline (see LuleaTrie::lookup_batch for the model):
  // groups of G keys walk the trie in lockstep waves — every wave performs
  // one node read per still-walking lane, so the reads of a wave are
  // independent and overlap, and each lane prefetches the line its next
  // wave will read. Per-lane control flow is branch-free: the leaf/child
  // decision, the base-entry comparison and the covering-prefix chain all
  // compact their lane lists with arithmetic instead of predicted branches.
  constexpr std::size_t G = 2 * kLpmBatchLanes;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t g = i + G <= n ? G : n - i;
    const Addr* const s = keys + i;  // this group's keys
    std::uint32_t idx[G];  // node index while walking, base index at a leaf
    std::int32_t pre[G];   // current covering-prefix entry (-1 = none)
    int pos[G];            // address bits consumed
    std::uint8_t list_a[G];
    std::uint8_t list_b[G];

    std::uint8_t* walk = list_a;
    std::uint8_t* next_walk = list_b;
    std::size_t wn = g;
    for (std::size_t k = 0; k < g; ++k) {
      idx[k] = 0;
      pos[k] = 0;
      walk[k] = static_cast<std::uint8_t>(k);
    }
    // Node-walk waves: a lane whose node has branch == 0 found its leaf (its
    // child index is then just adr, the base-vector slot) and leaves the
    // walk list with the base entry's line prefetched.
    while (wn > 0) {
      std::size_t nw = 0;
      for (std::size_t c = 0; c < wn; ++c) {
        const std::size_t k = walk[c];
        const NodeT node = nodes[idx[k]];
        const int branch = static_cast<int>(node.branch());
        const int p = pos[k] + static_cast<int>(node.skip());
        idx[k] = node.adr() + field(s[k], p, branch);
        pos[k] = p + branch;
        next_walk[nw] = static_cast<std::uint8_t>(k);
        nw += branch != 0 ? 1 : 0;
        prefetch(branch != 0 ? static_cast<const void*>(nodes + idx[k])
                             : static_cast<const void*>(base_.data() + idx[k]));
      }
      std::swap(walk, next_walk);
      wn = nw;
    }
    // Base wave: explicit prefix comparison; mismatches queue for the
    // covering-prefix chain (kNoRoute is written provisionally and stands
    // if the chain is empty or exhausts).
    std::uint8_t chain[G];
    std::size_t cn = 0;
    for (std::size_t k = 0; k < g; ++k) {
      const BaseEntry& base = base_[idx[k]];
      const bool matched = net::equal_prefix_bits(s[k], base.bits, base.len);
      out[i + k] = matched ? base.next_hop : net::kNoRoute;
      pre[k] = matched ? -1 : base.pre;
      chain[cn] = static_cast<std::uint8_t>(k);
      cn += pre[k] >= 0 ? 1 : 0;
      prefetch(pre_.data() + (pre[k] >= 0 ? pre[k] : 0));
    }
    // Chain waves, longest covering prefix first, compared against the leaf's
    // base bits as the scalar path does. In-place compaction is safe: the
    // write index never passes the read index.
    while (cn > 0) {
      std::size_t nc = 0;
      for (std::size_t c = 0; c < cn; ++c) {
        const std::size_t k = chain[c];
        const PreEntry& entry = pre_[static_cast<std::size_t>(pre[k])];
        const bool matched =
            net::equal_prefix_bits(s[k], base_[idx[k]].bits, entry.len);
        out[i + k] = matched ? entry.next_hop : out[i + k];
        pre[k] = matched ? -1 : entry.pre;
        chain[nc] = static_cast<std::uint8_t>(k);
        nc += pre[k] >= 0 ? 1 : 0;
        prefetch(pre_.data() + (pre[k] >= 0 ? pre[k] : 0));
      }
      cn = nc;
    }
    i += g;
  }
}

template <typename Addr>
net::NextHop BasicLcTrie<Addr>::lookup_counted(Addr addr,
                                               MemAccessCounter& counter) const {
  if (!wide_nodes_.empty()) {
    return lookup_impl<true>(wide_nodes_.data(), addr, &counter);
  }
  if (nodes_.empty()) return net::kNoRoute;
  return lookup_impl<true>(nodes_.data(), addr, &counter);
}

template <typename Addr>
std::size_t BasicLcTrie<Addr>::storage_bytes() const {
  std::size_t bytes = 0;
  for (const ArenaSpan& arena : arenas()) bytes += arena.bytes;
  return bytes;
}

template <typename Addr>
std::vector<ArenaSpan> BasicLcTrie<Addr>::arenas() const {
  // Packed 4-byte trie nodes (5-bit branch, 7-bit skip, 20-bit adr) — or
  // 8-byte wide nodes past the 20-bit adr ceiling — base entries (address,
  // length, next hop, chain pointer) and 8-byte internal-prefix entries,
  // following the JSAC paper's layout.
  const std::size_t node_bytes =
      wide_nodes_.empty() ? nodes_.size() * 4 : wide_nodes_.size() * 8;
  return {{"nodes", node_bytes},
          {"base", base_.size() * kBaseEntryBytes<Addr>},
          {"pre", pre_.size() * 8}};
}

template class BasicLcTrie<net::Ipv4Addr>;
template class BasicLcTrie<net::Ipv6Addr>;

}  // namespace spal::trie
