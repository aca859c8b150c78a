// AVX2 tier of the IPv6 LcTrie6::lookup_batch (dispatch contract in
// trie/simd_dispatch.h): four 128-bit keys per vector, held as split
// hi/lo 64-bit lanes. The node walk gathers packed 4-byte nodes through
// 64-bit indices (masked, so retired lanes make no access) and extracts the
// branch bit-field with a branchless three-term formula
//   ((hi >> (64-p-c)) | (hi << (p+c-64)) | (lo >> (128-p-c))) & ((1<<c)-1)
// whose out-of-range shifts vanish under the variable-shift semantics
// (sllv/srlv yield 0 for counts >= 64), reproducing Ipv6Addr::bits for all
// three cases — field in hi, field in lo, and straddling the halves. The
// base comparison builds the hi/lo prefix masks the same way
// (~(~0 >> len) and ~0 << (128-len)), matching equal_prefix_bits for every
// len in [0, 128]. The covering-prefix chain stays scalar per pending lane.
//
// Results are bit-identical to the scalar path; fuzzed per dispatch level
// in tests/test_lpm_batch.cpp.
#include <cstddef>
#include <cstdint>

#include "trie/lc_trie.h"

#if defined(__x86_64__) || defined(__i386__)

#include <array>
#include <bit>
#include <immintrin.h>

namespace spal::trie {

#pragma GCC push_options
#pragma GCC target("avx2,bmi2,popcnt")

template <>
void BasicLcTrie<net::Ipv6Addr>::lookup_batch_avx2(const net::Ipv6Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const {
  static_assert(sizeof(Node) == 4);
  static_assert(sizeof(net::Ipv6Addr) == 16);
  // The gathers read hi at entry offset 0 and lo at offset 8.
  static_assert(
      std::bit_cast<std::array<std::uint64_t, 2>>(net::Ipv6Addr{1, 2})[0] == 1);
  static_assert(sizeof(BaseEntry) == 32 && offsetof(BaseEntry, bits) == 0 &&
                offsetof(BaseEntry, len) == 16 &&
                offsetof(BaseEntry, next_hop) == 20 &&
                offsetof(BaseEntry, pre) == 24);
  const int* const nodes = reinterpret_cast<const int*>(nodes_.data());
  const long long* const bases =
      reinterpret_cast<const long long*>(base_.data());

  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi64x(1);
  const __m256i v64 = _mm256_set1_epi64x(64);
  const __m256i v128 = _mm256_set1_epi64x(128);
  const __m256i vff = _mm256_set1_epi64x(0xFF);
  const __m256i vneg1 = _mm256_set1_epi64x(-1);
  const __m256i vskipmask = _mm256_set1_epi64x((1 << Node::kSkipBits) - 1);
  const __m256i vadrmask = _mm256_set1_epi64x(Node::kAdrMask);
  const __m256i vnoroute = _mm256_set1_epi64x(net::kNoRoute);
  // Lane selectors: low dwords of the four 64-bit lanes (for packing 32-bit
  // results out) and high dwords (for deriving the 32-bit gather mask).
  const __m256i vpacklow = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i vpackhigh = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vhi = _mm256_setr_epi64x(
        static_cast<long long>(keys[i].hi()),
        static_cast<long long>(keys[i + 1].hi()),
        static_cast<long long>(keys[i + 2].hi()),
        static_cast<long long>(keys[i + 3].hi()));
    const __m256i vlo = _mm256_setr_epi64x(
        static_cast<long long>(keys[i].lo()),
        static_cast<long long>(keys[i + 1].lo()),
        static_cast<long long>(keys[i + 2].lo()),
        static_cast<long long>(keys[i + 3].lo()));
    __m256i vidx = vzero;
    __m256i vpos = vzero;
    __m256i vactive = vneg1;
    do {
      const __m128i vmask32 = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(vactive, vpackhigh));
      const __m256i vnode = _mm256_cvtepu32_epi64(_mm256_mask_i64gather_epi32(
          _mm_setzero_si128(), nodes, vidx, vmask32, 4));
      const __m256i vbranch =
          _mm256_srli_epi64(vnode, Node::kAdrBits + Node::kSkipBits);
      const __m256i vskip = _mm256_and_si256(
          _mm256_srli_epi64(vnode, Node::kAdrBits), vskipmask);
      const __m256i vadr = _mm256_and_si256(vnode, vadrmask);
      const __m256i vpc =
          _mm256_add_epi64(_mm256_add_epi64(vpos, vskip), vbranch);
      const __m256i vbits = _mm256_and_si256(
          _mm256_or_si256(
              _mm256_or_si256(
                  _mm256_srlv_epi64(vhi, _mm256_sub_epi64(v64, vpc)),
                  _mm256_sllv_epi64(vhi, _mm256_sub_epi64(vpc, v64))),
              _mm256_srlv_epi64(vlo, _mm256_sub_epi64(v128, vpc))),
          _mm256_sub_epi64(_mm256_sllv_epi64(vone, vbranch), vone));
      vidx = _mm256_blendv_epi8(vidx, _mm256_add_epi64(vadr, vbits), vactive);
      vpos = _mm256_blendv_epi8(vpos, vpc, vactive);
      // Retired lanes gathered node 0 (branch slice 0) and stay retired.
      vactive = _mm256_andnot_si256(_mm256_cmpeq_epi64(vbranch, vzero),
                                    vactive);
    } while (!_mm256_testz_si256(vactive, vactive));

    // Base wave: 32-byte entries gathered as qwords — bits.hi, bits.lo,
    // then [len | next_hop] and [pre | pad].
    const __m256i vbi = _mm256_slli_epi64(vidx, 2);
    const __m256i vbhi = _mm256_i64gather_epi64(bases, vbi, 8);
    const __m256i vblo =
        _mm256_i64gather_epi64(bases, _mm256_add_epi64(vbi, vone), 8);
    const __m256i vmeta = _mm256_i64gather_epi64(
        bases, _mm256_add_epi64(vbi, _mm256_set1_epi64x(2)), 8);
    const __m256i vpre = _mm256_i64gather_epi64(
        bases, _mm256_add_epi64(vbi, _mm256_set1_epi64x(3)), 8);
    const __m256i vlen = _mm256_and_si256(vmeta, vff);
    const __m256i vhop = _mm256_srli_epi64(vmeta, 32);
    const __m256i vmaskhi = _mm256_xor_si256(
        _mm256_srlv_epi64(vneg1, vlen), vneg1);
    const __m256i vmasklo =
        _mm256_sllv_epi64(vneg1, _mm256_sub_epi64(v128, vlen));
    const __m256i vmatched = _mm256_and_si256(
        _mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_xor_si256(vhi, vbhi), vmaskhi), vzero),
        _mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_xor_si256(vlo, vblo), vmasklo), vzero));
    const __m256i vout = _mm256_blendv_epi8(vnoroute, vhop, vmatched);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(out + i),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(vout, vpacklow)));

    // Covering-prefix chains, scalar per pending lane; the comparison uses
    // the leaf's base bits exactly as the generic chain wave does. The pre
    // gather's high dword is struct padding, so test the int32 sign bit by
    // shifting it up to the qword sign position.
    const __m256i vpreneg =
        _mm256_cmpgt_epi64(vzero, _mm256_slli_epi64(vpre, 32));
    const __m256i vpending =
        _mm256_andnot_si256(_mm256_or_si256(vmatched, vpreneg), vneg1);
    if (!_mm256_testz_si256(vpending, vpending)) {
      alignas(32) std::int64_t pre[4];
      alignas(32) std::int64_t idx[4];
      alignas(32) std::int64_t matched[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(pre), vpre);
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx), vidx);
      _mm256_store_si256(reinterpret_cast<__m256i*>(matched), vmatched);
      for (int k = 0; k < 4; ++k) {
        std::int32_t p = static_cast<std::int32_t>(pre[k]);
        if (matched[k] != 0 || p < 0) continue;
        const net::Ipv6Addr& leaf_bits =
            base_[static_cast<std::size_t>(idx[k])].bits;
        while (p >= 0) {
          const PreEntry& entry = pre_[static_cast<std::size_t>(p)];
          if (net::equal_prefix_bits(keys[i + k], leaf_bits, entry.len)) {
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
void BasicLcTrie<net::Ipv6Addr>::lookup_batch_avx2(const net::Ipv6Addr* keys,
                                                   std::size_t n,
                                                   net::NextHop* out) const {
  lookup_batch_generic(keys, n, out);
}

}  // namespace spal::trie

#endif
