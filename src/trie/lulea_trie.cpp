#include "trie/lulea_trie.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "sim/sweep.h"
#include "trie/simd_dispatch.h"

namespace spal::trie {
namespace lulea_detail {

std::uint16_t MapTable::intern(std::uint16_t mask) {
  const auto [it, inserted] =
      index_.try_emplace(mask, static_cast<std::uint16_t>(rows_.size()));
  if (inserted) {
    std::uint64_t row = 0;
    int running = 0;
    for (int pos = 0; pos < 16; ++pos) {
      // Exclusive rank: set bits strictly before `pos` (fits 4 bits); the
      // bit at `pos` itself is recovered from the mask in rank_inclusive().
      row |= static_cast<std::uint64_t>(running) << (pos * 4);
      running += (mask >> pos) & 1;
    }
    rows_.push_back(row);
    masks_.push_back(mask);
  }
  return it->second;
}

}  // namespace lulea_detail

using lulea_detail::ChunkRef;
using lulea_detail::Codeword;
using lulea_detail::DenseRef;
using lulea_detail::Pointer;

namespace {

/// Shared core of append_compressed: run-compresses `dense` into the given
/// arena vectors. `intern(mask)` supplies the codeword's maptable row — the
/// member path interns into the trie's maptable immediately, the bulk
/// builder's piece-local path records the raw mask for interning at splice
/// time (so maptable row ids are still assigned in global chunk order).
template <typename InternFn>
DenseRef append_compressed_into(std::vector<Codeword>& codewords,
                                std::vector<std::uint32_t>& bases,
                                std::vector<Pointer>& pointers,
                                InternFn&& intern,
                                const std::vector<std::uint32_t>& dense) {
  DenseRef ref{static_cast<std::uint32_t>(codewords.size()),
               static_cast<std::uint32_t>(pointers.size())};
  const std::size_t n = dense.size();
  const std::size_t num_masks = (n + 15) / 16;
  std::uint32_t total_heads = 0;
  std::uint32_t group_base = 0;
  for (std::size_t m = 0; m < num_masks; ++m) {
    if (m % 4 == 0) {
      group_base = total_heads;
      bases.push_back(group_base);
    }
    std::uint16_t mask = 0;
    const std::uint32_t group_offset = total_heads - group_base;
    for (std::size_t j = 0; j < 16 && m * 16 + j < n; ++j) {
      const std::size_t pos = m * 16 + j;
      const bool head = pos == 0 || dense[pos] != dense[pos - 1];
      if (head) {
        mask |= static_cast<std::uint16_t>(1u << j);
        pointers.push_back(Pointer{dense[pos]});
        ++total_heads;
      }
    }
    codewords.push_back(
        Codeword{intern(mask), static_cast<std::uint8_t>(group_offset)});
  }
  return ref;
}

/// Shared core of append_chunk; see append_compressed_into for InternFn.
template <typename InternFn>
ChunkRef append_chunk_into(std::vector<Codeword>& codewords,
                           std::vector<std::uint32_t>& bases,
                           std::vector<Pointer>& pointers,
                           std::vector<std::uint64_t>& sparse_heads,
                           InternFn&& intern, std::size_t sparse_limit,
                           const std::vector<std::uint32_t>& dense) {
  std::size_t heads = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (i == 0 || dense[i] != dense[i - 1]) ++heads;
  }
  if (heads > sparse_limit) {
    const DenseRef ref = append_compressed_into(
        codewords, bases, pointers, std::forward<InternFn>(intern), dense);
    return ChunkRef{ref.cw_base, ref.ptr_base};
  }
  // Sparse form: the ascending head offsets packed into one 8-byte block
  // (byte i = offset of head i), searched in a single read.
  ChunkRef ref{ChunkRef::kSparseFlag |
                   (static_cast<std::uint32_t>(heads - 1) << 27) |
                   static_cast<std::uint32_t>(sparse_heads.size()),
               static_cast<std::uint32_t>(pointers.size())};
  std::uint64_t block = 0;
  std::size_t slot = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (i == 0 || dense[i] != dense[i - 1]) {
      block |= static_cast<std::uint64_t>(i) << (8 * slot);
      ++slot;
      pointers.push_back(Pointer{dense[i]});
    }
  }
  sparse_heads.push_back(block);
  return ref;
}

}  // namespace

lulea_detail::DenseRef LuleaTrie::append_compressed(
    const std::vector<std::uint32_t>& dense) {
  return append_compressed_into(
      codewords_, bases_, pointers_,
      [this](std::uint16_t mask) { return maptable_.intern(mask); }, dense);
}

lulea_detail::ChunkRef LuleaTrie::append_chunk(
    const std::vector<std::uint32_t>& dense) {
  return append_chunk_into(
      codewords_, bases_, pointers_, sparse_heads_,
      [this](std::uint16_t mask) { return maptable_.intern(mask); },
      kSparseLimit, dense);
}

template <bool kCounted>
Pointer LuleaTrie::dense_lookup(const DenseRef& ref, std::uint32_t pos,
                                MemAccessCounter* counter) const {
  const std::uint32_t m = pos >> 4;
  const int low = static_cast<int>(pos & 15u);
  if constexpr (kCounted) {
    counter->record_arena(lulea_detail::kArenaCodewords);  // codeword read
  }
  const Codeword cw = codewords_[ref.cw_base + m];
  if constexpr (kCounted) {
    counter->record_arena(lulea_detail::kArenaBases);  // base-index read
  }
  // Every structure appends codewords in multiples of four masks, so its
  // base block always starts at cw_base / 4.
  const std::uint32_t base = bases_[(ref.cw_base >> 2) + (m >> 2)];
  if constexpr (kCounted) {
    counter->record_arena(lulea_detail::kArenaMaptable);  // maptable row read
  }
  // Inclusive rank of `pos`; every position is governed by some head, so
  // the rank is always >= 1.
  const std::uint32_t rank =
      base + cw.offset +
      static_cast<std::uint32_t>(maptable_.rank_inclusive(cw.row, low));
  if constexpr (kCounted) {
    counter->record_arena(lulea_detail::kArenaPointers);  // pointer read
  }
  return pointers_[ref.ptr_base + rank - 1];
}

template <bool kCounted>
Pointer LuleaTrie::chunk_lookup(const ChunkRef& chunk, std::uint32_t pos,
                                MemAccessCounter* counter) const {
  if (!chunk.is_sparse()) {
    return dense_lookup<kCounted>(DenseRef{chunk.meta & ~ChunkRef::kSparseFlag,
                                           chunk.ptr_base},
                                  pos, counter);
  }
  // Sparse form: the whole head block is one 8-byte read, the governing
  // pointer a second read.
  if constexpr (kCounted) {
    counter->record_arena(lulea_detail::kArenaSparseHeads);  // head block read
  }
  const std::uint64_t block = sparse_heads_[chunk.meta & ChunkRef::kHeadsMask];
  std::uint32_t index = (chunk.meta >> 27) & 7u;  // head_count - 1
  while (index > 0 && ((block >> (8 * index)) & 0xFF) > pos) --index;
  if constexpr (kCounted) {
    counter->record_arena(lulea_detail::kArenaPointers);  // pointer read
  }
  return pointers_[chunk.ptr_base + index];
}

LuleaTrie::LuleaTrie(const net::RouteTable& table, LuleaBuildMode mode) {
  if (mode == LuleaBuildMode::kBulk) {
    build_bulk(table);
  } else {
    build_reference(table);
  }
}

void LuleaTrie::build_reference(const net::RouteTable& table) {
  intern_next_hop(net::kNoRoute);  // index 0 = no route

  // Bucket prefixes by level.
  std::vector<net::RouteEntry> short_prefixes;           // len 0..16
  std::map<std::uint32_t, std::vector<net::RouteEntry>> mid;   // top16 -> len 17..24
  std::map<std::uint32_t, std::vector<net::RouteEntry>> lng;   // top24 -> len 25..32
  for (const net::RouteEntry& e : table.entries()) {
    if (e.prefix.length() <= 16) {
      short_prefixes.push_back(e);
    } else if (e.prefix.length() <= 24) {
      mid[e.prefix.bits() >> 16].push_back(e);
    } else {
      lng[e.prefix.bits() >> 8].push_back(e);
    }
  }
  auto by_length = [](const net::RouteEntry& a, const net::RouteEntry& b) {
    return a.prefix.length() < b.prefix.length();
  };
  std::stable_sort(short_prefixes.begin(), short_prefixes.end(), by_length);

  // Level-1 dense map: paint next hops shortest-first so longer prefixes
  // override (leaf pushing), then carve out chunk slots.
  std::vector<std::uint32_t> dense1(1u << 16, Pointer::next_hop(0).raw);
  for (const net::RouteEntry& e : short_prefixes) {
    const std::uint32_t first = e.prefix.bits() >> 16;
    const std::uint32_t last = e.prefix.range_last().value() >> 16;
    const std::uint32_t hop = intern_next_hop(e.next_hop);
    for (std::uint32_t s = first; s <= last; ++s) {
      dense1[s] = Pointer::next_hop(hop).raw;
    }
  }

  // The set of level-2 chunk roots: any 16-bit slot owning a longer prefix.
  std::map<std::uint32_t, std::vector<net::RouteEntry>> chunk_roots = mid;
  for (const auto& [top24, entries] : lng) {
    chunk_roots.try_emplace(top24 >> 8);  // ensure the slot exists
    (void)entries;
  }

  for (auto& [slot, entries] : chunk_roots) {
    std::stable_sort(entries.begin(), entries.end(), by_length);
    // Default for uncovered positions: the next hop level 1 painted here.
    const std::uint32_t default2 = dense1[slot];
    std::vector<std::uint32_t> dense2(256, default2);
    for (const net::RouteEntry& e : entries) {
      const std::uint32_t first = (e.prefix.bits() >> 8) & 0xffu;
      const std::uint32_t last = (e.prefix.range_last().value() >> 8) & 0xffu;
      const std::uint32_t hop = intern_next_hop(e.next_hop);
      for (std::uint32_t t = first; t <= last; ++t) {
        dense2[t] = Pointer::next_hop(hop).raw;
      }
    }
    // Level-3 chunks nested under this slot.
    const auto lo = lng.lower_bound(slot << 8);
    const auto hi = lng.upper_bound((slot << 8) | 0xffu);
    for (auto it = lo; it != hi; ++it) {
      auto long_entries = it->second;
      std::stable_sort(long_entries.begin(), long_entries.end(), by_length);
      const std::uint32_t t = it->first & 0xffu;
      const std::uint32_t default3 = dense2[t];
      std::vector<std::uint32_t> dense3(256, default3);
      for (const net::RouteEntry& e : long_entries) {
        const std::uint32_t first = e.prefix.bits() & 0xffu;
        const std::uint32_t last = e.prefix.range_last().value() & 0xffu;
        const std::uint32_t hop = intern_next_hop(e.next_hop);
        for (std::uint32_t u = first; u <= last; ++u) {
          dense3[u] = Pointer::next_hop(hop).raw;
        }
      }
      const std::uint32_t l3_id = static_cast<std::uint32_t>(level3_.size());
      level3_.push_back(append_chunk(dense3));
      dense2[t] = Pointer::chunk(l3_id).raw;
    }
    const std::uint32_t l2_id = static_cast<std::uint32_t>(level2_.size());
    level2_.push_back(append_chunk(dense2));
    dense1[slot] = Pointer::chunk(l2_id).raw;
  }

  level1_ = append_compressed(dense1);
}

void LuleaTrie::build_bulk(const net::RouteTable& table) {
  // Below this many entries the sweep-pool fan-out costs more than it buys;
  // the same code runs inline on one thread.
  constexpr std::size_t kBulkParallelMin = 65536;
  constexpr std::size_t kSlotBatch = 256;  // slots per worker task

  intern_next_hop(net::kNoRoute);  // index 0 = no route

  // One classifying pass. entries() is sorted by (bits, length), so the mids
  // arrive already grouped by ascending top-16 slot and the longs by
  // ascending top-24 group — within each group in exactly the order the
  // reference builder's per-slot std::map vectors held them.
  std::vector<net::RouteEntry> shorts, mids, longs;
  for (const net::RouteEntry& e : table.entries()) {
    if (e.prefix.length() <= 16) {
      shorts.push_back(e);
    } else if (e.prefix.length() <= 24) {
      mids.push_back(e);
    } else {
      longs.push_back(e);
    }
  }
  auto by_length = [](const net::RouteEntry& a, const net::RouteEntry& b) {
    return a.prefix.length() < b.prefix.length();
  };
  std::stable_sort(shorts.begin(), shorts.end(), by_length);

  // Level-1 dense map, painted shortest-first. Hop interning order is part
  // of the byte-identity contract with build_reference: kNoRoute, then the
  // shorts in paint order, then (below) the mid/long entries in ascending
  // slot order.
  std::vector<std::uint32_t> dense1(1u << 16, Pointer::next_hop(0).raw);
  for (const net::RouteEntry& e : shorts) {
    const std::uint32_t first = e.prefix.bits() >> 16;
    const std::uint32_t last = e.prefix.range_last().value() >> 16;
    const std::uint32_t hop = intern_next_hop(e.next_hop);
    for (std::uint32_t s = first; s <= last; ++s) {
      dense1[s] = Pointer::next_hop(hop).raw;
    }
  }

  // Slot directory: every 16-bit slot owning a longer prefix, with its mid
  // range in `mids` and its long groups (one per distinct top-24) in
  // `longs`. Built with one merge scan over the two sorted sequences.
  struct LongGroup {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  struct Slot {
    std::uint32_t slot = 0;
    std::size_t mid_begin = 0, mid_end = 0;
    std::size_t lg_begin = 0, lg_end = 0;  // range in long_groups
    std::uint32_t l3_base = 0;             // global id of first level-3 chunk
  };
  std::vector<LongGroup> long_groups;
  std::vector<Slot> slots;
  {
    std::size_t mi = 0, li = 0;
    while (mi < mids.size() || li < longs.size()) {
      std::uint32_t cur = 0xFFFFFFFFu;
      if (mi < mids.size()) cur = std::min(cur, mids[mi].prefix.bits() >> 16);
      if (li < longs.size()) cur = std::min(cur, longs[li].prefix.bits() >> 16);
      Slot s;
      s.slot = cur;
      s.mid_begin = mi;
      while (mi < mids.size() && (mids[mi].prefix.bits() >> 16) == cur) ++mi;
      s.mid_end = mi;
      s.lg_begin = long_groups.size();
      while (li < longs.size() && (longs[li].prefix.bits() >> 16) == cur) {
        const std::uint32_t top24 = longs[li].prefix.bits() >> 8;
        LongGroup g;
        g.begin = li;
        while (li < longs.size() && (longs[li].prefix.bits() >> 8) == top24) ++li;
        g.end = li;
        long_groups.push_back(g);
      }
      s.lg_end = long_groups.size();
      slots.push_back(s);
    }
  }
  std::uint32_t l3_total = 0;
  for (Slot& s : slots) {
    s.l3_base = l3_total;
    l3_total += static_cast<std::uint32_t>(s.lg_end - s.lg_begin);
  }

  const int threads = table.entries().size() >= kBulkParallelMin ? 0 : 1;
  std::vector<std::size_t> batches((slots.size() + kSlotBatch - 1) / kSlotBatch);
  for (std::size_t i = 0; i < batches.size(); ++i) batches[i] = i;

  // Parallel pass 1: the per-group stable length sorts (disjoint ranges).
  sim::parallel_sweep(
      batches,
      [&](std::size_t b) {
        const std::size_t lo = b * kSlotBatch;
        const std::size_t hi = std::min(lo + kSlotBatch, slots.size());
        for (std::size_t i = lo; i < hi; ++i) {
          const Slot& s = slots[i];
          std::stable_sort(mids.begin() + static_cast<std::ptrdiff_t>(s.mid_begin),
                           mids.begin() + static_cast<std::ptrdiff_t>(s.mid_end),
                           by_length);
          for (std::size_t g = s.lg_begin; g < s.lg_end; ++g) {
            std::stable_sort(
                longs.begin() + static_cast<std::ptrdiff_t>(long_groups[g].begin),
                longs.begin() + static_cast<std::ptrdiff_t>(long_groups[g].end),
                by_length);
          }
        }
        return 0;
      },
      threads);

  // Sequential hop-interning pre-pass in the reference paint order, so the
  // parallel painters below can resolve hop ids with read-only map lookups.
  for (const Slot& s : slots) {
    for (std::size_t i = s.mid_begin; i < s.mid_end; ++i) {
      intern_next_hop(mids[i].next_hop);
    }
    for (std::size_t g = s.lg_begin; g < s.lg_end; ++g) {
      for (std::size_t i = long_groups[g].begin; i < long_groups[g].end; ++i) {
        intern_next_hop(longs[i].next_hop);
      }
    }
  }

  // Parallel pass 2: per-slot chunk construction into piece-local arenas.
  // Chunk pointers are already global (the l3_base prefix sums); codeword
  // rows stay raw masks until the splice interns them in global chunk order.
  struct SlotPiece {
    std::vector<Codeword> codewords;
    std::vector<std::uint16_t> raw_masks;  // parallel to codewords
    std::vector<std::uint32_t> bases;
    std::vector<Pointer> pointers;
    std::vector<std::uint64_t> sparse_heads;
    std::vector<ChunkRef> chunks;  // piece-local offsets; last = level-2 chunk
  };
  auto hop_id = [this](net::NextHop hop) {
    return next_hop_index_.find(hop)->second;  // pre-interned above
  };
  const auto piece_batches = sim::parallel_sweep(
      batches,
      [&](std::size_t b) {
        std::vector<SlotPiece> out;
        const std::size_t lo = b * kSlotBatch;
        const std::size_t hi = std::min(lo + kSlotBatch, slots.size());
        out.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          const Slot& s = slots[i];
          SlotPiece piece;
          auto record_mask = [&piece](std::uint16_t mask) {
            piece.raw_masks.push_back(mask);
            return static_cast<std::uint16_t>(0);
          };
          std::vector<std::uint32_t> dense2(256, dense1[s.slot]);
          for (std::size_t m = s.mid_begin; m < s.mid_end; ++m) {
            const net::RouteEntry& e = mids[m];
            const std::uint32_t first = (e.prefix.bits() >> 8) & 0xffu;
            const std::uint32_t last =
                (e.prefix.range_last().value() >> 8) & 0xffu;
            const std::uint32_t hop = hop_id(e.next_hop);
            for (std::uint32_t t = first; t <= last; ++t) {
              dense2[t] = Pointer::next_hop(hop).raw;
            }
          }
          std::uint32_t l3 = 0;
          for (std::size_t g = s.lg_begin; g < s.lg_end; ++g) {
            const std::uint32_t t =
                (longs[long_groups[g].begin].prefix.bits() >> 8) & 0xffu;
            std::vector<std::uint32_t> dense3(256, dense2[t]);
            for (std::size_t j = long_groups[g].begin; j < long_groups[g].end;
                 ++j) {
              const net::RouteEntry& e = longs[j];
              const std::uint32_t first = e.prefix.bits() & 0xffu;
              const std::uint32_t last = e.prefix.range_last().value() & 0xffu;
              const std::uint32_t hop = hop_id(e.next_hop);
              for (std::uint32_t u = first; u <= last; ++u) {
                dense3[u] = Pointer::next_hop(hop).raw;
              }
            }
            piece.chunks.push_back(append_chunk_into(
                piece.codewords, piece.bases, piece.pointers,
                piece.sparse_heads, record_mask, kSparseLimit, dense3));
            dense2[t] = Pointer::chunk(s.l3_base + l3).raw;
            ++l3;
          }
          piece.chunks.push_back(append_chunk_into(
              piece.codewords, piece.bases, piece.pointers, piece.sparse_heads,
              record_mask, kSparseLimit, dense2));
          out.push_back(std::move(piece));
        }
        return out;
      },
      threads);

  // Counting pass totals -> exact arena pre-sizing, then the sequential
  // splice. Pieces land in ascending slot order, which is exactly the
  // reference append order, so offsets, maptable row ids and chunk ids all
  // come out identical.
  std::size_t cw_total = 0, base_total = 0, ptr_total = 0, sp_total = 0;
  for (const auto& batch : piece_batches) {
    for (const SlotPiece& piece : batch) {
      cw_total += piece.codewords.size();
      base_total += piece.bases.size();
      ptr_total += piece.pointers.size();
      sp_total += piece.sparse_heads.size();
    }
  }
  for (std::size_t r = 0; r < slots.size(); ++r) {
    dense1[slots[r].slot] = Pointer::chunk(static_cast<std::uint32_t>(r)).raw;
  }
  std::size_t l1_heads = 0;
  for (std::size_t p = 0; p < dense1.size(); ++p) {
    if (p == 0 || dense1[p] != dense1[p - 1]) ++l1_heads;
  }
  // Descriptor-width guards (the 32-bit overflow satellite): the dense meta
  // field must keep the sparse flag clear, sparse indexes fit 27 bits, and
  // chunk ids fit the 31-bit pointer payload. All are ~2^27+ chunks — far
  // beyond a 1M-prefix table — but silent wraparound would be a correctness
  // bug, so they fail loudly.
  if (sp_total > ChunkRef::kHeadsMask) {
    throw std::length_error("LuleaTrie: sparse-head arena exceeds the 27-bit index");
  }
  if (cw_total + (dense1.size() + 15) / 16 >= ChunkRef::kSparseFlag) {
    throw std::length_error("LuleaTrie: codeword arena exceeds the 31-bit base");
  }
  if (l3_total >= Pointer::kChunkFlag || slots.size() >= Pointer::kChunkFlag) {
    throw std::length_error("LuleaTrie: chunk count exceeds the 31-bit pointer payload");
  }
  codewords_.reserve(cw_total + (dense1.size() + 15) / 16);
  bases_.reserve(base_total + (dense1.size() + 63) / 64);
  pointers_.reserve(ptr_total + l1_heads);
  sparse_heads_.reserve(sp_total);
  level2_.reserve(slots.size());
  level3_.reserve(l3_total);

  for (const auto& batch : piece_batches) {
    for (const SlotPiece& piece : batch) {
      const auto cw_off = static_cast<std::uint32_t>(codewords_.size());
      const auto ptr_off = static_cast<std::uint32_t>(pointers_.size());
      const auto sp_off = static_cast<std::uint32_t>(sparse_heads_.size());
      for (std::size_t i = 0; i < piece.codewords.size(); ++i) {
        codewords_.push_back(Codeword{maptable_.intern(piece.raw_masks[i]),
                                      piece.codewords[i].offset});
      }
      bases_.insert(bases_.end(), piece.bases.begin(), piece.bases.end());
      pointers_.insert(pointers_.end(), piece.pointers.begin(),
                       piece.pointers.end());
      sparse_heads_.insert(sparse_heads_.end(), piece.sparse_heads.begin(),
                           piece.sparse_heads.end());
      for (std::size_t c = 0; c < piece.chunks.size(); ++c) {
        ChunkRef ch = piece.chunks[c];
        if (ch.is_sparse()) {
          ch.meta = (ch.meta & ~ChunkRef::kHeadsMask) |
                    ((ch.meta & ChunkRef::kHeadsMask) + sp_off);
        } else {
          ch.meta += cw_off;
        }
        ch.ptr_base += ptr_off;
        if (c + 1 == piece.chunks.size()) {
          level2_.push_back(ch);
        } else {
          level3_.push_back(ch);
        }
      }
    }
  }
  level1_ = append_compressed(dense1);
}

std::uint32_t LuleaTrie::intern_next_hop(net::NextHop hop) {
  const auto [it, inserted] = next_hop_index_.try_emplace(
      hop, static_cast<std::uint32_t>(next_hop_table_.size()));
  if (inserted) next_hop_table_.push_back(hop);
  return it->second;
}

template <bool kCounted>
net::NextHop LuleaTrie::lookup_impl(net::Ipv4Addr addr,
                                    MemAccessCounter* counter) const {
  Pointer p = dense_lookup<kCounted>(level1_, addr.value() >> 16, counter);
  if (p.is_chunk()) {
    p = chunk_lookup<kCounted>(level2_[p.value()], (addr.value() >> 8) & 0xffu,
                               counter);
    if (p.is_chunk()) {
      p = chunk_lookup<kCounted>(level3_[p.value()], addr.value() & 0xffu,
                                 counter);
    }
  }
  return next_hop_table_[p.value()];
}

net::NextHop LuleaTrie::lookup(net::Ipv4Addr addr) const {
  return lookup_impl<false>(addr, nullptr);
}

net::NextHop LuleaTrie::lookup_counted(net::Ipv4Addr addr,
                                       MemAccessCounter& counter) const {
  return lookup_impl<true>(addr, &counter);
}

namespace {

inline void prefetch(const void* address) { __builtin_prefetch(address, 0, 3); }

/// Branch-free sparse-chunk head scan: index of the last valid head offset
/// <= pos. The block holds `count_minus_1 + 1` ascending byte offsets
/// (byte 0 is always 0) padded with zero bytes, so counting *all* bytes
/// <= pos overcounts by exactly the number of padding bytes:
///   index = (#bytes <= pos) + (count - 8) - 1.
inline std::uint32_t sparse_head_index(std::uint64_t block,
                                       std::uint32_t count_minus_1,
                                       std::uint32_t pos) {
  std::uint32_t le = 0;
  for (int j = 0; j < 8; ++j) {
    le += ((block >> (8 * j)) & 0xFFu) <= pos ? 1u : 0u;
  }
  return le + count_minus_1 - 8;
}

}  // namespace

void LuleaTrie::lookup_batch(const net::Ipv4Addr* keys, std::size_t n,
                             net::NextHop* out) const {
  const SimdLevel level = resolved_simd_level();
  if (n < kMinWaveWidth) {
    // Pipeline setup costs more than the overlap wins below one wave, but
    // two cheaper levers still apply: prefetch the trailing keys' level-1
    // lines so their first dependent read overlaps the leading lookups, and
    // use the popcnt-rank scalars (no nibble-row read) at the SIMD levels.
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint32_t m = keys[i].value() >> 20;  // (addr >> 16) / 16
      prefetch(codewords_.data() + level1_.cw_base + m);
      prefetch(bases_.data() + (level1_.cw_base >> 2) + (m >> 2));
    }
    switch (level) {
      case SimdLevel::kAvx2:
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = lookup_scalar_bmi2(keys[i]);
        }
        return;
      case SimdLevel::kSse42:
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = lookup_scalar_popcnt(keys[i]);
        }
        return;
      case SimdLevel::kGeneric:
        for (std::size_t i = 0; i < n; ++i) out[i] = lookup(keys[i]);
        return;
    }
    return;
  }
  switch (level) {
    case SimdLevel::kAvx2: lookup_batch_avx2(keys, n, out); return;
    case SimdLevel::kSse42: lookup_batch_sse42(keys, n, out); return;
    case SimdLevel::kGeneric: break;
  }
  lookup_batch_generic(keys, n, out);
}

void LuleaTrie::lookup_batch_generic(const net::Ipv4Addr* keys, std::size_t n,
                                     net::NextHop* out) const {
  // Stage-synchronous pipeline over groups of kLpmBatchLanes keys: each
  // stage runs the *same* dependent access for every in-flight lane before
  // any lane advances, so the loads of one stage are independent of each
  // other and overlap in the memory system, and every line the next stage
  // needs is prefetched one stage ahead. The stages mirror the dependent
  // read chain the paper counts — codeword + base (no mutual dependency),
  // maptable row, pointer — repeated per level; lanes that resolve early
  // drop out of the compacted lane list. Control flow per stage is a plain
  // counted loop, so the scheduler adds no per-access branching.
  // Two API batch groups per wave: 16 in-flight lanes keep more independent
  // loads in the memory system than the G=8 call granularity alone.
  constexpr std::size_t G = 2 * kLpmBatchLanes;
  // Branch-free descriptor loads need a valid address even when a level has
  // no chunks at all (tables with no long prefixes).
  static constexpr ChunkRef kNoChunk{};
  const ChunkRef* const level2 = level2_.empty() ? &kNoChunk : level2_.data();
  const ChunkRef* const level3 = level3_.empty() ? &kNoChunk : level3_.data();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t g = i + G <= n ? G : n - i;
    std::uint32_t addr[G];     // full keys
    std::uint32_t pos[G];      // position within the lane's current structure
    std::uint32_t partial[G];  // base + codeword offset
    std::uint32_t pidx[G];     // absolute pointer-array index
    std::uint16_t row[G];      // codeword maptable row

    // Level 1, codeword + base wave.
    for (std::size_t k = 0; k < g; ++k) {
      addr[k] = keys[i + k].value();
      pos[k] = addr[k] >> 16;
      const std::uint32_t m = pos[k] >> 4;
      const Codeword cw = codewords_[level1_.cw_base + m];
      const std::uint32_t base = bases_[(level1_.cw_base >> 2) + (m >> 2)];
      partial[k] = base + cw.offset;
      row[k] = cw.row;
      prefetch(maptable_.row_addr(cw.row));
    }
    // Level 1, rank wave.
    for (std::size_t k = 0; k < g; ++k) {
      const std::uint32_t rank =
          partial[k] + static_cast<std::uint32_t>(maptable_.rank_inclusive(
                           row[k], static_cast<int>(pos[k] & 15u)));
      pidx[k] = level1_.ptr_base + rank - 1;
      prefetch(&pointers_[pidx[k]]);
    }
    // Level 1, pointer wave. Branch-free per lane: every lane writes a
    // (possibly provisional) result through a cmov-selected index, loads a
    // chunk descriptor, and conditionally appends itself to the level-2
    // sparse or dense lane list — descent is decided by arithmetic, not by
    // a data-dependent branch the predictor would have to guess.
    std::uint32_t cmeta[G];  // lane's current chunk descriptor
    std::uint32_t cptr[G];
    std::uint8_t dlane[G];   // dense chunk lanes
    std::uint8_t slane[G];   // sparse chunk lanes
    std::size_t dn = 0;
    std::size_t sn = 0;
    for (std::size_t k = 0; k < g; ++k) {
      const Pointer p = pointers_[pidx[k]];
      const bool descend = p.is_chunk();
      out[i + k] = next_hop_table_[descend ? 0u : p.value()];
      const ChunkRef ch = level2[descend ? p.value() : 0u];
      pos[k] = (addr[k] >> 8) & 0xffu;
      cmeta[k] = ch.meta;
      cptr[k] = ch.ptr_base;
      const bool sp = ch.is_sparse();
      dlane[dn] = static_cast<std::uint8_t>(k);
      dn += (descend && !sp) ? 1 : 0;
      slane[sn] = static_cast<std::uint8_t>(k);
      sn += (descend && sp) ? 1 : 0;
      prefetch(sp ? static_cast<const void*>(sparse_heads_.data() +
                                             (ch.meta & ChunkRef::kHeadsMask))
                  : static_cast<const void*>(codewords_.data() + ch.meta +
                                             (pos[k] >> 4)));
      prefetch(sp ? static_cast<const void*>(sparse_heads_.data() +
                                             (ch.meta & ChunkRef::kHeadsMask))
                  : static_cast<const void*>(bases_.data() + (ch.meta >> 2) +
                                             (pos[k] >> 6)));
    }

    for (int level = 2; level <= 3 && dn + sn > 0; ++level) {
      // Sparse wave: one head-block read resolves the pointer index (the
      // scan is the branch-free byte count of sparse_head_index).
      for (std::size_t c = 0; c < sn; ++c) {
        const std::size_t k = slane[c];
        const std::uint64_t block =
            sparse_heads_[cmeta[k] & ChunkRef::kHeadsMask];
        pidx[k] = cptr[k] +
                  sparse_head_index(block, (cmeta[k] >> 27) & 7u, pos[k]);
        prefetch(&pointers_[pidx[k]]);
      }
      // Dense codeword + base wave.
      for (std::size_t c = 0; c < dn; ++c) {
        const std::size_t k = dlane[c];
        const std::uint32_t m = pos[k] >> 4;
        const Codeword cw = codewords_[cmeta[k] + m];
        const std::uint32_t base = bases_[(cmeta[k] >> 2) + (m >> 2)];
        partial[k] = base + cw.offset;
        row[k] = cw.row;
        prefetch(maptable_.row_addr(cw.row));
      }
      // Dense rank wave.
      for (std::size_t c = 0; c < dn; ++c) {
        const std::size_t k = dlane[c];
        const std::uint32_t rank =
            partial[k] + static_cast<std::uint32_t>(maptable_.rank_inclusive(
                             row[k], static_cast<int>(pos[k] & 15u)));
        pidx[k] = cptr[k] + rank - 1;
        prefetch(&pointers_[pidx[k]]);
      }
      // Merged pointer wave: resolve, or queue the level-3 chunk. Level-3
      // pointers are always next hops (build invariant; the scalar path
      // reads them the same way), so nothing descends past level 3.
      std::uint8_t live[G];
      std::size_t ln = 0;
      for (std::size_t c = 0; c < dn; ++c) live[ln++] = dlane[c];
      for (std::size_t c = 0; c < sn; ++c) live[ln++] = slane[c];
      dn = 0;
      sn = 0;
      for (std::size_t c = 0; c < ln; ++c) {
        const std::size_t k = live[c];
        const Pointer p = pointers_[pidx[k]];
        const bool descend = level == 2 && p.is_chunk();
        out[i + k] = next_hop_table_[descend ? 0u : p.value()];
        const ChunkRef ch = level3[descend ? p.value() : 0u];
        pos[k] = addr[k] & 0xffu;
        cmeta[k] = ch.meta;
        cptr[k] = ch.ptr_base;
        const bool sp = ch.is_sparse();
        dlane[dn] = static_cast<std::uint8_t>(k);
        dn += (descend && !sp) ? 1 : 0;
        slane[sn] = static_cast<std::uint8_t>(k);
        sn += (descend && sp) ? 1 : 0;
        prefetch(sp ? static_cast<const void*>(
                          sparse_heads_.data() + (ch.meta & ChunkRef::kHeadsMask))
                    : static_cast<const void*>(codewords_.data() + ch.meta +
                                               (pos[k] >> 4)));
      }
    }
    i += g;
  }
}

std::size_t LuleaTrie::storage_bytes() const {
  // Codewords 2 B, base indexes 4 B, pointers 2 B (the original's 16-bit
  // pointer model), sparse head blocks 8 B, maptable rows 8 B — now also
  // the actual host layout, modulo the 4-byte Codeword/Pointer host types.
  return maptable_.storage_bytes() + codewords_.size() * 2 + bases_.size() * 4 +
         pointers_.size() * 2 + sparse_heads_.size() * 8 +
         next_hop_table_.size() * 4;
}

std::vector<ArenaSpan> LuleaTrie::arenas() const {
  // Hottest first (the dense_lookup read order); indexes match the
  // lulea_detail::LuleaArena constants the counted path records against.
  // The hop table is never charged an access by the paper's count, but its
  // bytes still occupy whatever tier they land in.
  return {{"codewords", codewords_.size() * 2},
          {"bases", bases_.size() * 4},
          {"maptable", maptable_.storage_bytes()},
          {"pointers", pointers_.size() * 2},
          {"sparse_heads", sparse_heads_.size() * 8},
          {"next_hops", next_hop_table_.size() * 4}};
}

std::size_t LuleaTrie::sparse_chunk_count() const {
  std::size_t count = 0;
  for (const auto& chunk : level2_) count += chunk.is_sparse() ? 1 : 0;
  for (const auto& chunk : level3_) count += chunk.is_sparse() ? 1 : 0;
  return count;
}

}  // namespace spal::trie
