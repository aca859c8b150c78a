// Internet-scale table tests: the 1M-prefix IPv4 generator (histogram
// fidelity, uniqueness, seed reproducibility), differential lookup fuzz on
// sampled slices for every trie kind in both families, and the
// wide-layout regressions for the structures whose paper-era formats
// overflow at this scale (LC-trie 20-bit adr, Gupta 15-bit payload).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <type_traits>
#include <vector>

#include "net/table_gen.h"
#include "trie/binary_trie.h"
#include "trie/dp_trie.h"
#include "trie/gupta_trie.h"
#include "trie/lc_trie.h"
#include "trie/lpm.h"
#include "trie/lulea_trie.h"

namespace {

using namespace spal;

constexpr std::size_t kInternetSize = 1'000'000;

/// The 1M-prefix table, generated once and shared by every test in this
/// file (generation is seconds-scale under sanitizers).
const net::RouteTable& internet_table() {
  static const net::RouteTable table = net::make_rt_internet(kInternetSize);
  return table;
}

/// The 220k-prefix IPv6 table, generated once like internet_table().
const net::RouteTable6& internet_table6() {
  static const net::RouteTable6 table = net::make_rt6_internet(220'000);
  return table;
}

/// Every `stride`-th entry — a sampled slice that keeps per-kind build
/// cost test-sized while exercising the table's actual prefix mix.
template <typename Table>
Table sampled_slice(const Table& table, std::size_t stride) {
  std::vector<std::decay_t<decltype(table.entries()[0])>> entries;
  entries.reserve(table.size() / stride + 1);
  for (std::size_t i = 0; i < table.entries().size(); i += stride) {
    entries.push_back(table.entries()[i]);
  }
  return Table(std::move(entries));
}

// --- Generator properties at 1M ---

TEST(ScaleTableGen, SizeAndCountAreExact) {
  EXPECT_EQ(internet_table().size(), kInternetSize);
}

// The per-length histogram must track the capacity-capped model the
// generator samples from (effective_length_weights): multinomial noise at
// N = 1M is ~0.05% per bucket, so a 1% absolute tolerance is generous
// while still pinning the /24-dominated shape.
TEST(ScaleTableGen, HistogramMatchesEffectiveWeights) {
  net::TableGenConfig config;
  config.size = kInternetSize;
  config.seed = 0x5eed'0010;  // make_rt_internet's configuration
  config.next_hops = 64;
  const auto weights = net::effective_length_weights(config);
  double weight_sum = 0.0;
  for (const double w : weights) weight_sum += w;
  ASSERT_GT(weight_sum, 0.0);
  std::array<std::size_t, net::Prefix::kMaxLength + 1> histogram{};
  for (const auto& entry : internet_table().entries()) {
    ++histogram[static_cast<std::size_t>(entry.prefix.length())];
  }
  for (int len = 0; len <= net::Prefix::kMaxLength; ++len) {
    const double expected = weights[static_cast<std::size_t>(len)] / weight_sum;
    const double observed =
        static_cast<double>(histogram[static_cast<std::size_t>(len)]) /
        static_cast<double>(kInternetSize);
    EXPECT_NEAR(observed, expected, 0.01) << "length /" << len;
  }
  // The BGP-shaped mass concentration survives the capacity caps.
  EXPECT_GT(histogram[24], kInternetSize / 2);
}

TEST(ScaleTableGen, NoDuplicatePrefixes) {
  std::vector<std::uint64_t> keys;
  keys.reserve(kInternetSize);
  for (const auto& entry : internet_table().entries()) {
    keys.push_back((std::uint64_t{entry.prefix.bits()} << 6) |
                   static_cast<std::uint64_t>(entry.prefix.length()));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(ScaleTableGen, SeedReproducibleAtOneMillion) {
  EXPECT_EQ(net::make_rt_internet(kInternetSize), internet_table());
}

// --- Differential lookup fuzz on a sampled slice, every trie kind ---

TEST(ScaleDifferential, SampledSliceAllV4Kinds) {
  const net::RouteTable slice = sampled_slice(internet_table(), 20);
  const auto oracle = trie::build_lpm(trie::TrieKind::kBinary, slice);
  const trie::TrieKind kinds[] = {trie::TrieKind::kDp, trie::TrieKind::kLulea,
                                  trie::TrieKind::kLc, trie::TrieKind::kGupta,
                                  trie::TrieKind::kStride};
  std::vector<net::Ipv4Addr> addrs;
  std::mt19937_64 rng(0x5ca1e);
  std::uniform_int_distribution<std::size_t> pick(0, slice.size() - 1);
  for (int i = 0; i < 10'000; ++i) {
    // Half the probes land inside sampled prefixes (deep matches), half
    // are uniform (mostly default-route territory at a 50k slice).
    addrs.push_back(i % 2 == 0
                        ? net::random_address_in(
                              slice.entries()[pick(rng)].prefix, rng)
                        : net::Ipv4Addr{static_cast<std::uint32_t>(rng())});
  }
  for (const trie::TrieKind kind : kinds) {
    const auto trie = trie::build_lpm(kind, slice);
    for (const net::Ipv4Addr addr : addrs) {
      ASSERT_EQ(trie->lookup(addr), oracle->lookup(addr))
          << trie->name() << " addr=" << addr.value();
    }
  }
}

TEST(ScaleDifferential, SampledSliceV6Kinds) {
  ASSERT_EQ(internet_table6().size(), 220'000u);
  const net::RouteTable6 slice = sampled_slice(internet_table6(), 10);
  const trie::BinaryTrie6 oracle(slice);
  const trie::LcTrie6 lc(slice);
  const trie::DpTrie6 dp(slice);
  std::mt19937_64 rng(0x5ca1e6);
  std::uniform_int_distribution<std::size_t> pick(0, slice.size() - 1);
  for (int i = 0; i < 10'000; ++i) {
    const net::Ipv6Addr addr =
        i % 2 == 0
            ? net::random_address_in6(slice.entries()[pick(rng)].prefix, rng)
            : net::Ipv6Addr{rng(), rng()};
    const net::NextHop expected = oracle.lookup(addr);
    ASSERT_EQ(lc.lookup(addr), expected);
    ASSERT_EQ(dp.lookup(addr), expected);
  }
}

// --- Bulk builders must reproduce the per-entry structures exactly ---

TEST(ScaleBulkBuild, DpSpineBuildMatchesShuffledInserts) {
  const net::RouteTable slice = sampled_slice(internet_table(), 50);
  const trie::DpTrie bulk(slice);
  trie::DpTrie incremental{net::RouteTable{}};
  std::vector<net::RouteEntry> feed(slice.entries().begin(),
                                    slice.entries().end());
  std::mt19937_64 rng(0xfeed);
  std::shuffle(feed.begin(), feed.end(), rng);
  for (const auto& entry : feed) {
    incremental.insert(entry.prefix, entry.next_hop);
  }
  // The compressed structure is canonical, so both paths must agree on
  // node count (same nodes, different arena order) and on every lookup.
  EXPECT_EQ(bulk.node_count(), incremental.node_count());
  std::uniform_int_distribution<std::size_t> pick(0, slice.size() - 1);
  for (int i = 0; i < 10'000; ++i) {
    const net::Ipv4Addr addr =
        i % 2 == 0
            ? net::random_address_in(slice.entries()[pick(rng)].prefix, rng)
            : net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(bulk.lookup(addr), incremental.lookup(addr));
  }
  // The same over 128-bit keys: an IPv6 slice.
  const net::RouteTable6 slice6 = sampled_slice(internet_table6(), 10);
  const trie::DpTrie6 bulk6(slice6);
  trie::DpTrie6 incremental6{net::RouteTable6{}};
  std::vector<net::RouteEntry6> feed6(slice6.entries().begin(),
                                      slice6.entries().end());
  std::shuffle(feed6.begin(), feed6.end(), rng);
  for (const auto& entry : feed6) {
    incremental6.insert(entry.prefix, entry.next_hop);
  }
  EXPECT_EQ(bulk6.node_count(), incremental6.node_count());
  std::uniform_int_distribution<std::size_t> pick6(0, slice6.size() - 1);
  for (int i = 0; i < 10'000; ++i) {
    const net::Ipv6Addr addr =
        i % 2 == 0
            ? net::random_address_in6(slice6.entries()[pick6(rng)].prefix, rng)
            : net::Ipv6Addr{rng(), rng()};
    ASSERT_EQ(bulk6.lookup(addr), incremental6.lookup(addr));
  }
}

TEST(ScaleBulkBuild, LuleaBulkMatchesReferencePaint) {
  const net::RouteTable slice = sampled_slice(internet_table(), 50);
  const trie::LuleaTrie bulk(slice, trie::LuleaBuildMode::kBulk);
  const trie::LuleaTrie reference(slice, trie::LuleaBuildMode::kReference);
  EXPECT_EQ(bulk.storage_bytes(), reference.storage_bytes());
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const net::Ipv4Addr addr{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(bulk.lookup(addr), reference.lookup(addr));
  }
}

// --- Wide-layout regressions ---

// The packed 4-byte LC node caps adr at 20 bits; at 1M+ prefixes the node
// array overflows it and the build must size-select the 8-byte wide
// layout. `packed_limit` shrinks the ceiling so the wide path is
// exercised without a million-node build; both layouts must agree.
TEST(ScaleWideLayout, LcTrieWidePathMatchesPacked) {
  const net::RouteTable slice = sampled_slice(internet_table(), 500);
  const trie::LcTrie packed(slice);
  const trie::LcTrie wide(slice, 0.25, 16, /*packed_limit=*/64);
  EXPECT_FALSE(packed.wide_layout());
  ASSERT_TRUE(wide.wide_layout());
  EXPECT_EQ(wide.node_count(), packed.node_count());
  // 8-byte nodes double the node arena relative to the packed 4-byte one.
  EXPECT_GT(wide.storage_bytes(), packed.storage_bytes());
  std::mt19937_64 rng(9);
  std::vector<net::Ipv4Addr> addrs;
  for (int i = 0; i < 10'000; ++i) {
    addrs.push_back(net::Ipv4Addr{static_cast<std::uint32_t>(rng())});
  }
  std::vector<net::NextHop> from_packed(addrs.size()), from_wide(addrs.size());
  packed.lookup_batch(addrs.data(), addrs.size(), from_packed.data());
  wide.lookup_batch(addrs.data(), addrs.size(), from_wide.data());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    ASSERT_EQ(from_wide[i], from_packed[i]) << addrs[i].value();
    ASSERT_EQ(packed.lookup(addrs[i]), from_packed[i]);
    ASSERT_EQ(wide.lookup(addrs[i]), from_packed[i]);
  }
  // IPv6 takes the same size selection.
  const net::RouteTable6 slice6 = sampled_slice(internet_table6(), 50);
  const trie::LcTrie6 packed6(slice6);
  const trie::LcTrie6 wide6(slice6, 0.25, 16, /*packed_limit=*/64);
  EXPECT_FALSE(packed6.wide_layout());
  ASSERT_TRUE(wide6.wide_layout());
  EXPECT_EQ(wide6.node_count(), packed6.node_count());
  EXPECT_GT(wide6.storage_bytes(), packed6.storage_bytes());
  std::uniform_int_distribution<std::size_t> pick6(0, slice6.size() - 1);
  std::vector<net::Ipv6Addr> addrs6;
  for (int i = 0; i < 10'000; ++i) {
    addrs6.push_back(
        i % 2 == 0
            ? net::random_address_in6(slice6.entries()[pick6(rng)].prefix, rng)
            : net::Ipv6Addr{rng(), rng()});
  }
  std::vector<net::NextHop> from_packed6(addrs6.size());
  std::vector<net::NextHop> from_wide6(addrs6.size());
  packed6.lookup_batch(addrs6.data(), addrs6.size(), from_packed6.data());
  wide6.lookup_batch(addrs6.data(), addrs6.size(), from_wide6.data());
  for (std::size_t i = 0; i < addrs6.size(); ++i) {
    ASSERT_EQ(from_wide6[i], from_packed6[i]) << addrs6[i].to_string();
    ASSERT_EQ(packed6.lookup(addrs6[i]), from_packed6[i]);
    ASSERT_EQ(wide6.lookup(addrs6[i]), from_packed6[i]);
  }
}

// The 16-bit Gupta entry holds 15-bit next-hop ids; a table with 2^15+
// distinct hops (internet-scale peering) must select the 32-bit layout
// and still resolve correctly. The pre-widening code threw length_error
// here — this is the overflow regression.
TEST(ScaleWideLayout, GuptaWideEntriesHoldLargeNextHopSpace) {
  std::vector<net::RouteEntry> entries;
  constexpr std::uint32_t kPrefixes = 40'000;  // > 2^15 - 1 distinct hops
  entries.reserve(kPrefixes);
  for (std::uint32_t i = 0; i < kPrefixes; ++i) {
    const std::uint32_t bits = (std::uint32_t{10} << 24) | (i << 8);
    entries.push_back(
        net::RouteEntry{net::Prefix(net::Ipv4Addr{bits}, 24), i + 1});
  }
  const net::RouteTable table(std::move(entries));
  const trie::GuptaTrie gupta(table);
  ASSERT_TRUE(gupta.wide_layout());
  const auto oracle = trie::build_lpm(trie::TrieKind::kBinary, table);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint32_t in_range =
        (std::uint32_t{10} << 24) |
        (static_cast<std::uint32_t>(rng()) & 0x00ffffffu);
    const net::Ipv4Addr addr{i % 4 == 0 ? static_cast<std::uint32_t>(rng())
                                        : in_range};
    ASSERT_EQ(gupta.lookup(addr), oracle->lookup(addr)) << addr.value();
  }
}

// A paper-sized table must keep the original 16-bit entries (and thus the
// paper's 32 MB level-1 figure) — widening is strictly opt-in by size.
TEST(ScaleWideLayout, PaperSizedGuptaStaysNarrow) {
  net::TableGenConfig config;
  config.size = 3'000;
  config.seed = 702;
  const trie::GuptaTrie gupta(net::generate_table(config));
  EXPECT_FALSE(gupta.wide_layout());
}

}  // namespace
