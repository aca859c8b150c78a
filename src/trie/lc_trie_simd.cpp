// AVX2 tier of the IPv4 LcTrie::lookup_batch (dispatch contract in
// trie/simd_dispatch.h). The lockstep node walk becomes an 8-lane masked
// gather loop: every iteration gathers the packed 4-byte node for each
// still-walking lane, slices branch/skip/adr with shifts, and extracts the
// branch bits with variable shifts — the (32 - pos - count) & 31 clamp and
// the (1 << count) - 1 mask reproduce the generic pipeline's field()
// exactly (branch <= 31 by the 5-bit field). Lanes whose node is a leaf
// keep their base index via blend and drop out of the gather mask, so a
// retired lane performs no further memory access. The base-vector
// comparison is a 4-field gather wave; the covering-prefix chain (rare,
// data-dependent length) stays scalar per pending lane.
//
// Results are bit-identical to the scalar path; fuzzed per dispatch level
// in tests/test_lpm_batch.cpp.
#include <cstddef>
#include <cstdint>

#include "trie/lc_trie.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace spal::trie {

#pragma GCC push_options
#pragma GCC target("avx2,bmi2,popcnt")

namespace {

/// Scalar form of the field extraction, identical to the generic
/// pipeline's IPv4 field().
inline std::uint32_t bits_at(std::uint32_t word, int pos, int count) {
  const std::uint32_t mask =
      count >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << count) - 1u);
  return (word >> ((32 - pos - count) & 31)) & mask;
}

}  // namespace

template <>
void BasicLcTrie<net::Ipv4Addr>::lookup_batch_avx2(const net::Ipv4Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const {
  static_assert(sizeof(Node) == 4);
  static_assert(sizeof(BaseEntry) == 16 && offsetof(BaseEntry, bits) == 0 &&
                offsetof(BaseEntry, len) == 4 &&
                offsetof(BaseEntry, next_hop) == 8 &&
                offsetof(BaseEntry, pre) == 12);
  const int* const nodes = reinterpret_cast<const int*>(nodes_.data());
  const int* const bases = reinterpret_cast<const int*>(base_.data());

  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i v31 = _mm256_set1_epi32(31);
  const __m256i v32 = _mm256_set1_epi32(32);
  const __m256i vff = _mm256_set1_epi32(0xFF);
  const __m256i vskipmask = _mm256_set1_epi32((1 << Node::kSkipBits) - 1);
  const __m256i vadrmask =
      _mm256_set1_epi32(static_cast<int>(Node::kAdrMask));
  const __m256i vnoroute =
      _mm256_set1_epi32(static_cast<int>(net::kNoRoute));
  const __m256i vneg1 = _mm256_set1_epi32(-1);

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    __m256i vidx = vzero;
    __m256i vpos = vzero;
    __m256i vactive = vneg1;
    do {
      const __m256i vnode = _mm256_mask_i32gather_epi32(vzero, nodes, vidx,
                                                        vactive, 4);
      const __m256i vbranch =
          _mm256_srli_epi32(vnode, Node::kAdrBits + Node::kSkipBits);
      const __m256i vskip = _mm256_and_si256(
          _mm256_srli_epi32(vnode, Node::kAdrBits), vskipmask);
      const __m256i vadr = _mm256_and_si256(vnode, vadrmask);
      const __m256i vp = _mm256_add_epi32(vpos, vskip);
      // bits_at(s, p, branch), branchless: shift (32-p-branch) & 31, mask
      // (1 << branch) - 1 (branch == 0 lanes get mask 0, so a leaf's child
      // index is just adr — the base-vector slot, as in the generic path).
      const __m256i vshift = _mm256_and_si256(
          _mm256_sub_epi32(v32, _mm256_add_epi32(vp, vbranch)), v31);
      const __m256i vbits = _mm256_and_si256(
          _mm256_srlv_epi32(vs, vshift),
          _mm256_sub_epi32(_mm256_sllv_epi32(vone, vbranch), vone));
      vidx = _mm256_blendv_epi8(vidx, _mm256_add_epi32(vadr, vbits), vactive);
      vpos =
          _mm256_blendv_epi8(vpos, _mm256_add_epi32(vp, vbranch), vactive);
      // Inactive lanes gathered node 0; their branch slice is 0 there, so
      // they stay retired without extra masking.
      vactive = _mm256_andnot_si256(_mm256_cmpeq_epi32(vbranch, vzero),
                                    vactive);
    } while (!_mm256_testz_si256(vactive, vactive));

    // Base wave: four 4-byte field gathers per lane (bits, len, next_hop,
    // pre), then the explicit prefix comparison. len is the low byte of its
    // word; len == 32 yields the all-ones mask via the shift-out-to-zero
    // of sllv, len == 0 matches everything (mask 0), both as in extract().
    const __m256i vbi = _mm256_slli_epi32(vidx, 2);
    const __m256i vbbits = _mm256_i32gather_epi32(bases, vbi, 4);
    const __m256i vlen = _mm256_and_si256(
        _mm256_i32gather_epi32(bases, _mm256_add_epi32(vbi, vone), 4), vff);
    const __m256i vhop = _mm256_i32gather_epi32(
        bases, _mm256_add_epi32(vbi, _mm256_set1_epi32(2)), 4);
    __m256i vpre = _mm256_i32gather_epi32(
        bases, _mm256_add_epi32(vbi, _mm256_set1_epi32(3)), 4);
    const __m256i vdiff = _mm256_xor_si256(vbbits, vs);
    const __m256i vlenshift =
        _mm256_and_si256(_mm256_sub_epi32(v32, vlen), v31);
    const __m256i vlenmask =
        _mm256_sub_epi32(_mm256_sllv_epi32(vone, vlen), vone);
    const __m256i vmatched = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_srlv_epi32(vdiff, vlenshift), vlenmask),
        vzero);
    const __m256i vout = _mm256_blendv_epi8(vnoroute, vhop, vmatched);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), vout);
    vpre = _mm256_blendv_epi8(vpre, vneg1, vmatched);

    // Covering-prefix chains: rare and of data-dependent length, walked
    // scalar per pending lane (same comparisons as the generic chain wave).
    int pending =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vpre, vneg1)));
    if (pending != 0) {
      alignas(32) std::uint32_t diff[8];
      alignas(32) std::int32_t pre[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(diff), vdiff);
      _mm256_store_si256(reinterpret_cast<__m256i*>(pre), vpre);
      while (pending != 0) {
        const int k = __builtin_ctz(static_cast<unsigned>(pending));
        pending &= pending - 1;
        std::int32_t p = pre[k];
        while (p >= 0) {
          const PreEntry& entry = pre_[static_cast<std::size_t>(p)];
          if (bits_at(diff[k], 0, entry.len) == 0) {
            out[i + k] = entry.next_hop;
            break;
          }
          p = entry.pre;
        }
      }
    }
  }
  for (; i < n; ++i) out[i] = lookup(keys[i]);
}

#pragma GCC pop_options

}  // namespace spal::trie

#else  // !x86: the dispatcher never selects this, but it must link.

namespace spal::trie {

template <>
void BasicLcTrie<net::Ipv4Addr>::lookup_batch_avx2(const net::Ipv4Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const {
  lookup_batch_generic(keys, n, out);
}

}  // namespace spal::trie

#endif
