#include "trie/dp_trie.h"

#include <gtest/gtest.h>

#include <random>

#include "net/table_gen.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using net::Ipv6Addr;
using net::Prefix6;
using net::RouteTable6;
using trie::DpTrie6;

Prefix6 p6(std::uint64_t hi, std::uint64_t lo, int len) {
  return Prefix6(Ipv6Addr{hi, lo}, len);
}

TEST(DpTrie6, EmptyTable) {
  const DpTrie6 trie{RouteTable6{}};
  EXPECT_EQ(trie.lookup(Ipv6Addr{1, 2}), net::kNoRoute);
}

TEST(DpTrie6, LongestMatchAcrossHalves) {
  RouteTable6 table;
  table.add(p6(0x2001000000000000ULL, 0, 16), 1);
  table.add(p6(0x20010DB800000000ULL, 0, 32), 2);
  table.add(p6(0x20010DB800000000ULL, 0xAB00000000000000ULL, 72), 3);
  const DpTrie6 trie(table);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB800000000ULL, 0xAB00000000000001ULL}), 3u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB800000000ULL, 0xAC00000000000000ULL}), 2u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x2001FFFF00000000ULL, 0}), 1u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x3000000000000000ULL, 0}), net::kNoRoute);
}

TEST(DpTrie6, SkippedBitMismatchFallsToAncestor) {
  RouteTable6 table;
  table.add(p6(0x2000000000000000ULL, 0, 8), 1);
  table.add(p6(0x20FFFFFF00000000ULL, 0, 48), 2);  // lone deep descendant
  const DpTrie6 trie(table);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20FFFFFF00000001ULL, 0}), 2u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x2012345600000000ULL, 0}), 1u);
}

TEST(DpTrie6, AgreesWithOracleOnGeneratedTables) {
  net::TableGen6Config config;
  config.size = 8'000;
  config.seed = 801;
  const RouteTable6 table = net::generate_table6(config);
  const trie::BinaryTrie6 oracle(table);
  const DpTrie6 trie(table);
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (int i = 0; i < 20'000; ++i) {
    const Ipv6Addr addr =
        (i % 2 == 0)
            ? Ipv6Addr{rng() | 0x2000000000000000ULL, rng()}
            : net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    ASSERT_EQ(trie.lookup(addr), oracle.lookup(addr)) << addr.to_string();
  }
}

TEST(DpTrie6, NodeCountBounded) {
  net::TableGen6Config config;
  config.size = 8'000;
  config.seed = 802;
  const RouteTable6 table = net::generate_table6(config);
  const DpTrie6 trie(table);
  EXPECT_LE(trie.node_count(), 2 * table.size() + 1);
  EXPECT_EQ(trie.storage_bytes(), trie.node_count() * 37);
}

TEST(DpTrie6, FarFewerAccessesThanBinaryWalk) {
  net::TableGen6Config config;
  config.size = 8'000;
  config.seed = 803;
  const RouteTable6 table = net::generate_table6(config);
  const trie::BinaryTrie6 binary(table);
  const DpTrie6 compressed(table);
  std::mt19937_64 rng(6);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  trie::MemAccessCounter binary_counter, dp_counter;
  for (int i = 0; i < 3'000; ++i) {
    const auto addr =
        net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    ASSERT_EQ(compressed.lookup_counted(addr, dp_counter),
              binary.lookup_counted(addr, binary_counter));
  }
  // Path compression bounds the walk by the prefix population (tens of
  // levels), not the 128-bit address width.
  EXPECT_LT(dp_counter.total() * 2, binary_counter.total());
}

TEST(DpTrie6, InsertThenLookup) {
  DpTrie6 trie{RouteTable6{}};
  trie.insert(p6(0x2001000000000000ULL, 0, 16), 1);
  trie.insert(p6(0x20010DB800000000ULL, 0, 32), 2);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB800000000ULL, 1}), 2u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x2001FF0000000000ULL, 1}), 1u);
  trie.insert(p6(0x20010DB800000000ULL, 0, 32), 5);  // replace in place
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB800000000ULL, 1}), 5u);
}

TEST(DpTrie6, RemoveFallsBackToAncestor) {
  RouteTable6 table;
  table.add(p6(0x2001000000000000ULL, 0, 16), 1);
  table.add(p6(0x20010DB800000000ULL, 0, 32), 2);
  DpTrie6 trie(table);
  EXPECT_TRUE(trie.remove(p6(0x20010DB800000000ULL, 0, 32)));
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB800000000ULL, 1}), 1u);
  EXPECT_FALSE(trie.remove(p6(0x20010DB800000000ULL, 0, 32)));
  // A prefix that only exists as an interior path is not removable.
  EXPECT_FALSE(trie.remove(p6(0x2001000000000000ULL, 0, 24)));
}

TEST(DpTrie6, SpliceReusesFreedNodes) {
  DpTrie6 trie{RouteTable6{}};
  const std::size_t baseline = trie.node_count();
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      trie.insert(p6(0x2001000000000000ULL | (i << 16), 0, 48), i + 1);
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(trie.remove(p6(0x2001000000000000ULL | (i << 16), 0, 48)));
    }
    EXPECT_EQ(trie.node_count(), baseline);
  }
  EXPECT_EQ(trie.storage_bytes(), baseline * 37);
}

TEST(DpTrie6, CountedMatchesPlain) {
  RouteTable6 table;
  table.add(p6(0x20010DB800000000ULL, 0, 32), 1);
  const DpTrie6 trie(table);
  trie::MemAccessCounter counter;
  const Ipv6Addr addr{0x20010DB800000000ULL, 7};
  EXPECT_EQ(trie.lookup_counted(addr, counter), trie.lookup(addr));
  EXPECT_GT(counter.total(), 0u);
  EXPECT_LT(counter.total(), 10u);
}

}  // namespace
