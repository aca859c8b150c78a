// Differential fuzz for the batched lookup pipeline: for every LPM index
// kind, lookup_batch must be bit-identical to the scalar lookup() — which in
// turn must agree with a BinaryTrie oracle — over random keys, adversarial
// shared-prefix bursts, and every batch-size shape (1, sub-lane, exactly one
// lane group, many groups, odd tails). The IPv6 LcTrie6 pipeline gets the
// same batch-vs-scalar treatment. The SIMD-dispatched pipelines (Lulea,
// LC, LC6 — trie/simd_dispatch.h) are additionally fuzzed at every dispatch
// level the CPU can run, including unaligned batch buffers and a forced
// generic run; the process-wide mode is restored after each test so a CI
// leg running under SPAL_SIMD keeps its pinned level.
#include "trie/lpm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "net/table_gen.h"
#include "trie/binary_trie.h"
#include "trie/lc_trie.h"
#include "trie/simd_dispatch.h"

namespace {

using namespace spal;
using trie::TrieKind;

constexpr TrieKind kAllKinds[] = {TrieKind::kBinary, TrieKind::kDp,
                                  TrieKind::kLulea,  TrieKind::kLc,
                                  TrieKind::kGupta,  TrieKind::kStride};

// Batch shapes: scalar fallback, below one lane group, exactly the API lane
// count, a multiple of it, and sizes that leave odd tails.
constexpr std::size_t kBatchSizes[] = {1, 7, trie::kLpmBatchLanes, 64};

net::RouteTable fuzz_table(std::size_t size, std::uint64_t seed) {
  net::TableGenConfig config;
  config.size = size;
  config.seed = seed;
  return net::generate_table(config);
}

/// Random keys matched to table prefixes plus uniform (often unrouted)
/// addresses and the corner addresses.
std::vector<net::Ipv4Addr> random_keys(const net::RouteTable& table,
                                       std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  std::uniform_int_distribution<std::uint32_t> any;
  std::vector<net::Ipv4Addr> keys;
  keys.reserve(count + 2);
  keys.push_back(net::Ipv4Addr{0});
  keys.push_back(net::Ipv4Addr{~std::uint32_t{0}});
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 3 == 0) {
      keys.push_back(net::Ipv4Addr{any(rng)});
    } else {
      keys.push_back(
          net::random_address_in(table.entries()[pick(rng)].prefix, rng));
    }
  }
  return keys;
}

/// Adversarial stream: long bursts of keys under one prefix, so every lane
/// of a batch group walks the same chunk/subtrie (shared lines, shared
/// chain walks), switching prefix between bursts.
std::vector<net::Ipv4Addr> burst_keys(const net::RouteTable& table,
                                      std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  std::vector<net::Ipv4Addr> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    const net::Prefix prefix = table.entries()[pick(rng)].prefix;
    for (std::size_t j = 0; j < 24 && keys.size() < count; ++j) {
      keys.push_back(net::random_address_in(prefix, rng));
    }
  }
  return keys;
}

void expect_batch_matches(const trie::LpmIndex& index,
                          const trie::BinaryTrie& oracle,
                          const std::vector<net::Ipv4Addr>& keys) {
  const std::size_t n = keys.size();
  std::vector<net::NextHop> scalar(n);
  for (std::size_t i = 0; i < n; ++i) {
    scalar[i] = index.lookup(keys[i]);
    ASSERT_EQ(scalar[i], oracle.lookup(keys[i]))
        << index.name() << " scalar diverges from oracle at key " << i;
  }
  for (const std::size_t batch : kBatchSizes) {
    std::vector<net::NextHop> batched(n, net::kNoRoute - 1);  // poison
    for (std::size_t i = 0; i < n; i += batch) {
      index.lookup_batch(keys.data() + i, std::min(batch, n - i),
                         batched.data() + i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], scalar[i])
          << index.name() << " batch=" << batch << " diverges at key " << i;
    }
  }
}

TEST(LpmBatch, AllKindsMatchScalarAndOracleOnRandomKeys) {
  const net::RouteTable table = fuzz_table(6'000, 0xfeed'0001);
  const trie::BinaryTrie oracle(table);
  const auto keys = random_keys(table, 4'000, 0xabc1);
  for (const TrieKind kind : kAllKinds) {
    const auto index = trie::build_lpm(kind, table);
    expect_batch_matches(*index, oracle, keys);
  }
}

TEST(LpmBatch, PipelinedKindsSurviveSharedPrefixBursts) {
  const net::RouteTable table = fuzz_table(12'000, 0xfeed'0002);
  const trie::BinaryTrie oracle(table);
  const auto keys = burst_keys(table, 4'096, 0xabc2);
  // The two overridden pipelines plus dp as a default-path control.
  for (const TrieKind kind : {TrieKind::kLulea, TrieKind::kLc, TrieKind::kDp}) {
    const auto index = trie::build_lpm(kind, table);
    expect_batch_matches(*index, oracle, keys);
  }
}

TEST(LpmBatch, OddTailsAndTinyBatches) {
  const net::RouteTable table = fuzz_table(2'000, 0xfeed'0003);
  const trie::BinaryTrie oracle(table);
  const auto index = trie::build_lpm(TrieKind::kLulea, table);
  const auto lc = trie::build_lpm(TrieKind::kLc, table);
  const auto keys = random_keys(table, 509, 0xabc3);  // prime-ish length
  // Every n in [0, 2*lanes+3) as a single call, including n = 0.
  for (std::size_t n = 0; n < 2 * trie::kLpmBatchLanes + 3; ++n) {
    std::vector<net::NextHop> batched(n + 1, net::kNoRoute - 1);
    index->lookup_batch(keys.data(), n, batched.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], index->lookup(keys[i])) << "lulea n=" << n;
    }
    lc->lookup_batch(keys.data(), n, batched.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], lc->lookup(keys[i])) << "lc n=" << n;
    }
  }
  expect_batch_matches(*index, oracle, keys);
}

TEST(LpmBatch, EmptyAndDefaultRouteTables) {
  net::RouteTable empty;
  net::RouteTable default_only;
  default_only.add(net::Prefix(net::Ipv4Addr{0}, 0), 7);
  std::mt19937_64 rng(17);
  std::vector<net::Ipv4Addr> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(net::Ipv4Addr{static_cast<std::uint32_t>(rng())});
  }
  for (const net::RouteTable* table : {&empty, &default_only}) {
    const trie::BinaryTrie oracle(*table);
    for (const TrieKind kind : kAllKinds) {
      const auto index = trie::build_lpm(kind, *table);
      expect_batch_matches(*index, oracle, keys);
    }
  }
}

/// Restores the process-wide SIMD mode on scope exit, so the per-level
/// tests below don't leak their override into the rest of the suite (a CI
/// leg may be running everything under SPAL_SIMD=generic, and that setting
/// must survive).
struct SimdModeGuard {
  trie::SimdMode saved = trie::simd_mode();
  ~SimdModeGuard() { trie::set_simd_mode(saved); }
};

/// Every dispatch level this build can actually run: generic up to the
/// CPUID-detected level.
std::vector<trie::SimdMode> runnable_levels() {
  std::vector<trie::SimdMode> levels;
  for (int l = 0; l <= static_cast<int>(trie::detected_simd_level()); ++l) {
    levels.push_back(static_cast<trie::SimdMode>(l));
  }
  return levels;
}

TEST(LpmBatch, EveryDispatchLevelMatchesOracle) {
  SimdModeGuard guard;
  const net::RouteTable table = fuzz_table(8'000, 0xfeed'0004);
  const trie::BinaryTrie oracle(table);
  const auto random = random_keys(table, 3'000, 0xabc4);
  const auto bursts = burst_keys(table, 2'048, 0xabc5);
  for (const trie::SimdMode mode : runnable_levels()) {
    const trie::SimdLevel level = trie::set_simd_mode(mode);
    ASSERT_EQ(static_cast<int>(level), static_cast<int>(mode));
    // The SIMD-overridden pipelines plus dp as a dispatch-independent
    // control.
    for (const TrieKind kind :
         {TrieKind::kLulea, TrieKind::kLc, TrieKind::kDp}) {
      SCOPED_TRACE(std::string("simd=") + std::string(trie::to_string(level)));
      const auto index = trie::build_lpm(kind, table);
      expect_batch_matches(*index, oracle, random);
      expect_batch_matches(*index, oracle, bursts);
    }
  }
}

TEST(LpmBatch, UnalignedBatchBuffersAtEveryLevel) {
  SimdModeGuard guard;
  const net::RouteTable table = fuzz_table(4'000, 0xfeed'0005);
  const auto keys = random_keys(table, 600, 0xabc7);
  const auto lulea = trie::build_lpm(TrieKind::kLulea, table);
  const auto lc = trie::build_lpm(TrieKind::kLc, table);
  for (const trie::SimdMode mode : runnable_levels()) {
    trie::set_simd_mode(mode);
    for (const auto* index : {lulea.get(), lc.get()}) {
      // Start the batch at every sub-vector offset into the key array and
      // write through an offset output pointer: the kernels' vector
      // loads/stores must not assume 32-byte alignment.
      for (std::size_t off = 0; off < 9; ++off) {
        const std::size_t n = keys.size() - off - 3;
        std::vector<net::NextHop> batched(n + off, net::kNoRoute - 1);
        index->lookup_batch(keys.data() + off, n, batched.data() + off);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(batched[off + i], index->lookup(keys[off + i]))
              << index->name() << " simd=" << static_cast<int>(mode)
              << " off=" << off << " key " << i;
        }
      }
    }
  }
}

TEST(LpmBatch, ForcedGenericResolvesAndMatches) {
  SimdModeGuard guard;
  const trie::SimdLevel level = trie::set_simd_mode(trie::SimdMode::kGeneric);
  ASSERT_EQ(level, trie::SimdLevel::kGeneric);
  ASSERT_EQ(trie::resolved_simd_level(), trie::SimdLevel::kGeneric);
  const net::RouteTable table = fuzz_table(2'000, 0xfeed'0007);
  const trie::BinaryTrie oracle(table);
  const auto keys = random_keys(table, 1'000, 0xabc8);
  for (const TrieKind kind : {TrieKind::kLulea, TrieKind::kLc}) {
    const auto index = trie::build_lpm(kind, table);
    expect_batch_matches(*index, oracle, keys);
  }
}

TEST(LpmBatch6, LcTrie6MatchesScalarAndOracle) {
  net::TableGen6Config config;
  config.size = 4'000;
  config.seed = 0xfeed'0006;
  const net::RouteTable6 table = net::generate_table6(config);
  const trie::LcTrie6 index(table);
  const trie::BinaryTrie6 oracle(table);
  std::mt19937_64 rng(0xabc6);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  std::vector<net::Ipv6Addr> keys;
  for (std::size_t i = 0; i < 3'000; ++i) {
    if (i % 3 == 0) {
      keys.push_back(net::Ipv6Addr{rng(), rng()});
    } else {
      keys.push_back(
          net::random_address_in(table.entries()[pick(rng)].prefix, rng));
    }
  }
  const std::size_t n = keys.size();
  std::vector<net::NextHop> scalar(n);
  for (std::size_t i = 0; i < n; ++i) {
    scalar[i] = index.lookup(keys[i]);
    ASSERT_EQ(scalar[i], oracle.lookup(keys[i])) << "v6 scalar vs oracle " << i;
  }
  SimdModeGuard guard;
  for (const trie::SimdMode mode : runnable_levels()) {
    trie::set_simd_mode(mode);
    for (const std::size_t batch : kBatchSizes) {
      std::vector<net::NextHop> batched(n, net::kNoRoute - 1);
      for (std::size_t i = 0; i < n; i += batch) {
        index.lookup_batch(keys.data() + i, std::min(batch, n - i),
                           batched.data() + i);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(batched[i], scalar[i])
            << "v6 simd=" << static_cast<int>(mode) << " batch=" << batch
            << " key " << i;
      }
    }
    // Unaligned start offsets: the 4-lane kernel's stores go through an
    // unaligned 128-bit write.
    for (std::size_t off = 1; off < 5; ++off) {
      const std::size_t m = n - off - 1;
      std::vector<net::NextHop> batched(n, net::kNoRoute - 1);
      index.lookup_batch(keys.data() + off, m, batched.data() + off);
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(batched[off + i], scalar[off + i])
            << "v6 simd=" << static_cast<int>(mode) << " off=" << off
            << " key " << i;
      }
    }
  }
}

}  // namespace
