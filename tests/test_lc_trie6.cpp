#include "trie/lc_trie.h"

#include <gtest/gtest.h>

#include <random>

#include "net/table_gen.h"
#include "trie/binary_trie.h"
#include "trie/dp_trie.h"

namespace {

using namespace spal;
using net::Ipv6Addr;
using net::Prefix6;
using net::RouteTable6;
using trie::LcTrie6;

Prefix6 p6(std::uint64_t hi, std::uint64_t lo, int len) {
  return Prefix6(Ipv6Addr{hi, lo}, len);
}

TEST(Ipv6AddrBits, ExtractsWithinAndAcrossHalves) {
  const Ipv6Addr addr{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  EXPECT_EQ(addr.bits(0, 8), 0x01u);
  EXPECT_EQ(addr.bits(8, 16), 0x2345u);
  EXPECT_EQ(addr.bits(56, 8), 0xEFu);       // tail of hi
  EXPECT_EQ(addr.bits(64, 8), 0xFEu);       // head of lo
  EXPECT_EQ(addr.bits(60, 8), 0xFFu);       // straddle: F | FE's top nibble
  EXPECT_EQ(addr.bits(48, 32), 0xCDEFFEDCu);  // 16 from hi + 16 from lo
  EXPECT_EQ(addr.bits(120, 8), 0x10u);
  EXPECT_EQ(addr.bits(5, 0), 0u);
}

TEST(Prefix6Helpers, EqualPrefixBitsAndCommonPrefix) {
  const Ipv6Addr a{0x2001000000000000ULL, 0xFF00000000000000ULL};
  const Ipv6Addr b{0x2001000000000000ULL, 0x0F00000000000000ULL};
  EXPECT_TRUE(net::equal_prefix_bits(a, b, 64));
  EXPECT_FALSE(net::equal_prefix_bits(a, b, 65));
  EXPECT_EQ(net::common_prefix_bits(a, b), 64);
  EXPECT_EQ(net::common_prefix_bits(a, a), 128);
  EXPECT_EQ(net::common_prefix_bits(Ipv6Addr{0, 0}, Ipv6Addr{1ULL << 63, 0}), 0);
}

TEST(LcTrie6, ChainServesCoveredAddresses) {
  RouteTable6 table;
  table.add(p6(0x2001000000000000ULL, 0, 16), 1);
  table.add(p6(0x20010DB800000000ULL, 0, 32), 2);
  table.add(p6(0x20010DB8AAAA0000ULL, 0, 48), 3);
  const LcTrie6 trie(table);
  EXPECT_EQ(trie.internal_count(), 2u);
  EXPECT_EQ(trie.base_count(), 1u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB8AAAA0001ULL, 0}), 3u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB8BBBB0000ULL, 0}), 2u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x2001FFFF00000000ULL, 0}), 1u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x3000000000000000ULL, 0}), net::kNoRoute);
}

TEST(LcTrie6, SingleEntryAndEmpty) {
  EXPECT_EQ(LcTrie6{RouteTable6{}}.lookup(Ipv6Addr{1, 1}), net::kNoRoute);
  RouteTable6 table;
  table.add(p6(0x20010DB800000000ULL, 0, 32), 5);
  const LcTrie6 trie(table);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB800000000ULL, 99}), 5u);
  EXPECT_EQ(trie.lookup(Ipv6Addr{0x20010DB900000000ULL, 0}), net::kNoRoute);
}

class LcTrie6FillTest : public ::testing::TestWithParam<double> {};

TEST_P(LcTrie6FillTest, OracleAgreement) {
  net::TableGen6Config config;
  config.size = 8'000;
  config.seed = 811;
  const RouteTable6 table = net::generate_table6(config);
  const trie::BinaryTrie6 oracle(table);
  const LcTrie6 trie(table, GetParam());
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (int i = 0; i < 15'000; ++i) {
    const Ipv6Addr addr =
        (i % 2 == 0)
            ? Ipv6Addr{rng() | 0x2000000000000000ULL, rng()}
            : net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    ASSERT_EQ(trie.lookup(addr), oracle.lookup(addr))
        << "fill=" << GetParam() << " " << addr.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(FillFactors, LcTrie6FillTest,
                         ::testing::Values(0.125, 0.25, 0.5, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "fill_" +
                                  std::to_string(static_cast<int>(info.param * 1000));
                         });

TEST(LcTrie6, FewerAccessesThanDpAndFarFewerThanBinary) {
  net::TableGen6Config config;
  config.size = 8'000;
  config.seed = 812;
  const RouteTable6 table = net::generate_table6(config);
  const trie::BinaryTrie6 binary(table);
  const trie::DpTrie6 dp(table);
  const LcTrie6 lc(table);
  std::mt19937_64 rng(10);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  trie::MemAccessCounter binary_counter, dp_counter, lc_counter;
  for (int i = 0; i < 3'000; ++i) {
    const auto addr =
        net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    const auto expected = binary.lookup_counted(addr, binary_counter);
    ASSERT_EQ(dp.lookup_counted(addr, dp_counter), expected);
    ASSERT_EQ(lc.lookup_counted(addr, lc_counter), expected);
  }
  EXPECT_LT(lc_counter.total(), dp_counter.total());
  EXPECT_LT(dp_counter.total(), binary_counter.total());
}

TEST(LcTrie6, BiggerStorageThanIpv4AtSamePrefixCount) {
  // The Sec. 2.1 remark: the same software structure over 128-bit strings
  // costs more storage. Compare per-entry footprints.
  net::TableGen6Config config6;
  config6.size = 8'000;
  config6.seed = 813;
  const LcTrie6 v6(net::generate_table6(config6));
  EXPECT_EQ(v6.storage_bytes(),
            v6.node_count() * 4 + v6.base_count() * 24 + v6.internal_count() * 8);
  EXPECT_GT(v6.storage_bytes(), 8'000u * 10);  // > 10 B per prefix at 128 bits
}

}  // namespace
