// IPv6 extension tests (paper Sec. 6): 128-bit prefixes, table generation,
// binary-trie LPM, and SPAL partitioning over v6 tables.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <stdexcept>

#include "net/table_gen.h"
#include "partition/rot_partition.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using net::Ipv6Addr;
using net::Prefix6;
using net::RouteTable6;

Prefix6 p6(std::uint64_t hi, std::uint64_t lo, int len) {
  return Prefix6(Ipv6Addr{hi, lo}, len);
}

TEST(Prefix6, MasksHostBitsInHighHalf) {
  const Prefix6 prefix = p6(0x20010DB8FFFFFFFFULL, ~0ULL, 32);
  EXPECT_EQ(prefix.address().hi(), 0x20010DB800000000ULL);
  EXPECT_EQ(prefix.address().lo(), 0ULL);
}

TEST(Prefix6, MasksHostBitsInLowHalf) {
  const Prefix6 prefix = p6(0x20010DB800000000ULL, 0xFFFFFFFFFFFFFFFFULL, 96);
  EXPECT_EQ(prefix.address().lo(), 0xFFFFFFFF00000000ULL);
}

TEST(Prefix6, LengthBoundaries) {
  EXPECT_EQ(p6(~0ULL, ~0ULL, 0).address(), Ipv6Addr(0, 0));
  EXPECT_EQ(p6(~0ULL, ~0ULL, 64).address(), Ipv6Addr(~0ULL, 0));
  EXPECT_EQ(p6(~0ULL, ~0ULL, 128).address(), Ipv6Addr(~0ULL, ~0ULL));
}

TEST(Prefix6, TriStateBits) {
  const Prefix6 prefix = p6(0x8000000000000000ULL, 0, 3);
  EXPECT_EQ(prefix.bit(0), net::PrefixBit::kOne);
  EXPECT_EQ(prefix.bit(1), net::PrefixBit::kZero);
  EXPECT_EQ(prefix.bit(3), net::PrefixBit::kStar);
  EXPECT_EQ(prefix.bit(127), net::PrefixBit::kStar);
}

TEST(Prefix6, MatchesAcrossTheHalfBoundary) {
  const Prefix6 prefix = p6(0x20010DB800000000ULL, 0xAB00000000000000ULL, 72);
  EXPECT_TRUE(prefix.matches(Ipv6Addr{0x20010DB800000000ULL, 0xAB12345678ULL << 24}));
  EXPECT_FALSE(prefix.matches(Ipv6Addr{0x20010DB800000000ULL, 0xAC00000000000000ULL}));
  EXPECT_FALSE(prefix.matches(Ipv6Addr{0x20010DB900000000ULL, 0xAB00000000000000ULL}));
}

TEST(Prefix6, CoversNesting) {
  EXPECT_TRUE(p6(0x2001000000000000ULL, 0, 16).covers(p6(0x20010DB800000000ULL, 0, 32)));
  EXPECT_FALSE(p6(0x20010DB800000000ULL, 0, 32).covers(p6(0x2001000000000000ULL, 0, 16)));
}

TEST(Prefix6, RangeEndpoints) {
  const Prefix6 prefix = p6(0x20010DB8FFFFFFFFULL, ~0ULL, 32);
  EXPECT_EQ(prefix.range_first(), Ipv6Addr(0x20010DB800000000ULL, 0));
  EXPECT_EQ(prefix.range_last(), Ipv6Addr(0x20010DB8FFFFFFFFULL, ~0ULL));
  EXPECT_EQ(p6(0x20010DB800000000ULL, 0xAB00000000000000ULL, 72).range_last(),
            Ipv6Addr(0x20010DB800000000ULL, 0xABFFFFFFFFFFFFFFULL));
  EXPECT_EQ(p6(~0ULL, ~0ULL, 0).range_last(), Ipv6Addr(~0ULL, ~0ULL));
  EXPECT_EQ(p6(1, 2, 128).range_last(), Ipv6Addr(1, 2));
}

TEST(RouteTable6, AddDedupAndLookup) {
  RouteTable6 table;
  table.add(p6(0x2001000000000000ULL, 0, 16), 1);
  table.add(p6(0x20010DB800000000ULL, 0, 32), 2);
  table.add(p6(0x20010DB800000000ULL, 0, 32), 3);  // replaces
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.lookup_linear(Ipv6Addr{0x20010DB800000001ULL, 5}), 3u);
  EXPECT_EQ(table.lookup_linear(Ipv6Addr{0x2001FFFF00000000ULL, 0}), 1u);
  EXPECT_EQ(table.lookup_linear(Ipv6Addr{0x3001000000000000ULL, 0}), net::kNoRoute);
}

TEST(Prefix6, ParseRoundTripsToString) {
  for (const Prefix6 prefix :
       {p6(0x20010DB800000000ULL, 0, 32), p6(0x2000000000000000ULL, 0, 3),
        p6(0x20010DB8000000FFULL, 0xFFFF000000000000ULL, 80),
        p6(~0ULL, ~0ULL, 128)}) {
    const auto parsed = Prefix6::parse(prefix.to_string());
    ASSERT_TRUE(parsed.has_value()) << prefix.to_string();
    EXPECT_EQ(*parsed, prefix);
  }
}

TEST(Prefix6, ParseRejectsMalformed) {
  EXPECT_FALSE(Prefix6::parse("2001:db8::/32").has_value());  // compressed form
  EXPECT_FALSE(Prefix6::parse("2001:0db8:0000:0000:0000:0000:0000:0001").has_value());
  EXPECT_FALSE(Prefix6::parse("2001:0db8:0000:0000:0000:0000:0000:0001/129").has_value());
  EXPECT_FALSE(Prefix6::parse("2001:0db8:0000:0000:0000:0000:0001/64").has_value());
  EXPECT_FALSE(Prefix6::parse("").has_value());
}

TEST(RouteTable6, SaveLoadRoundTrip) {
  net::TableGen6Config config;
  config.size = 500;
  config.seed = 77;
  const RouteTable6 table = net::generate_table6(config);
  std::stringstream stream;
  table.save(stream);
  const auto loaded = RouteTable6::load(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, table);
}

TEST(RouteTable6, LoadRejectsMalformed) {
  std::stringstream bad("2001:0db8/32 1\n");
  EXPECT_FALSE(RouteTable6::load(bad).has_value());
  // Negative or sentinel next hops and trailing fields, as on IPv4.
  const std::string prefix = "2001:0db8:0000:0000:0000:0000:0000:0000/32";
  for (const char* hop : {" -1 junk\n", " -5\n", " 4294967295\n",
                          " 5 junk\n", " 5x\n"}) {
    std::stringstream line(prefix + hop);
    EXPECT_FALSE(RouteTable6::load(line).has_value()) << hop;
  }
  std::stringstream good(prefix + " 5\n");
  const auto loaded = RouteTable6::load(good);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->entries()[0].next_hop, 5u);
}

TEST(TableGen6, SizeSeedAndSpace) {
  net::TableGen6Config config;
  config.size = 5'000;
  config.seed = 3;
  const RouteTable6 table = net::generate_table6(config);
  EXPECT_EQ(table.size(), 5'000u);
  EXPECT_EQ(table, net::generate_table6(config));
  // All prefixes live in global unicast 2000::/3.
  for (const net::RouteEntry6& e : table.entries()) {
    EXPECT_EQ(e.prefix.address().hi() >> 61, 1u) << e.prefix.to_string();
  }
}

TEST(TableGen6, Slash48Dominates) {
  net::TableGen6Config config;
  config.size = 20'000;
  config.seed = 4;
  const auto hist = net::generate_table6(config).length_histogram();
  for (int len = 0; len <= 128; ++len) {
    if (len != 48) {
      EXPECT_GE(hist[48], hist[static_cast<std::size_t>(len)]) << len;
    }
  }
}

TEST(TableGen6, RandomAddressStaysInside) {
  std::mt19937_64 rng(1);
  const Prefix6 prefix = p6(0x20010DB800000000ULL, 0, 48);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(prefix.matches(net::random_address_in(prefix, rng)));
  }
}

TEST(BinaryTrie6, AgreesWithLinearOracle) {
  net::TableGen6Config config;
  config.size = 3'000;
  config.seed = 5;
  const RouteTable6 table = net::generate_table6(config);
  const trie::BinaryTrie6 trie(table);
  std::mt19937_64 rng(6);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (int i = 0; i < 2'000; ++i) {
    const auto addr =
        net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    ASSERT_EQ(trie.lookup(addr), table.lookup_linear(addr));
  }
}

TEST(BinaryTrie6, CountedMatchesPlain) {
  RouteTable6 table;
  table.add(p6(0x20010DB800000000ULL, 0, 32), 1);
  const trie::BinaryTrie6 trie(table);
  trie::MemAccessCounter counter;
  const Ipv6Addr addr{0x20010DB800000000ULL, 7};
  EXPECT_EQ(trie.lookup_counted(addr, counter), trie.lookup(addr));
  EXPECT_EQ(counter.total(), 33u);  // root + 32 levels
}

TEST(Partition6, BitStatsCountTriState) {
  RouteTable6 table;
  table.add(p6(0x2000000000000000ULL, 0, 4), 1);  // bit 3 = 0
  table.add(p6(0x3000000000000000ULL, 0, 4), 2);  // bit 3 = 1
  table.add(p6(0x2000000000000000ULL, 0, 3), 3);  // bit 3 = *
  const auto stats = partition::compute_bit_stats(table.entries(), 3);
  EXPECT_EQ(stats.phi0, 1u);
  EXPECT_EQ(stats.phi1, 1u);
  EXPECT_EQ(stats.phi_star, 1u);
}

class Partition6InvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(Partition6InvariantTest, HomeLookupEqualsFullLookup) {
  const int num_lcs = GetParam();
  net::TableGen6Config config;
  config.size = 4'000;
  config.seed = 7;
  const RouteTable6 table = net::generate_table6(config);
  const partition::RotPartition6 rot(table, num_lcs);
  std::vector<trie::BinaryTrie6> tries;
  tries.reserve(static_cast<std::size_t>(num_lcs));
  for (int lc = 0; lc < num_lcs; ++lc) tries.emplace_back(rot.table_of(lc));
  const trie::BinaryTrie6 oracle(table);
  std::mt19937_64 rng(8);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (int i = 0; i < 3'000; ++i) {
    const auto addr =
        net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    const int home = rot.home_of(addr);
    ASSERT_EQ(tries[static_cast<std::size_t>(home)].lookup(addr), oracle.lookup(addr))
        << "psi=" << num_lcs;
  }
}

INSTANTIATE_TEST_SUITE_P(PsiSweep, Partition6InvariantTest,
                         ::testing::Values(2, 3, 4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "psi_" + std::to_string(info.param);
                         });

TEST(Partition6, ShrinksPerLcTables) {
  net::TableGen6Config config;
  config.size = 20'000;
  config.seed = 9;
  const RouteTable6 table = net::generate_table6(config);
  const partition::RotPartition6 rot(table, 16);
  for (const std::size_t size : rot.partition_sizes()) {
    EXPECT_LT(static_cast<double>(size), 0.25 * static_cast<double>(table.size()));
  }
}

TEST(Partition6, ControlBitsStayLowForV6Tables) {
  // /48-heavy tables make bits past 48 mostly "*"; Criterion (1) must keep
  // the chosen bits well below that.
  net::TableGen6Config config;
  config.size = 20'000;
  config.seed = 10;
  const RouteTable6 table = net::generate_table6(config);
  for (const int bit : partition::select_control_bits(table, 4)) {
    EXPECT_LT(bit, 48);
  }
}

// The IPv6 partitioner rejects explicit control bits past bit 127 the same
// way.
TEST(Partition6, RejectsOutOfRangeControlBits) {
  net::TableGen6Config config;
  config.size = 200;
  config.seed = 617;
  const net::RouteTable6 table = net::generate_table6(config);
  partition::Partition6Config partition_config;
  partition_config.control_bits = {128};
  EXPECT_THROW(partition::RotPartition6(table, 2, partition_config),
               std::invalid_argument);
  partition_config.control_bits = {127};
  EXPECT_NO_THROW(partition::RotPartition6(table, 2, partition_config));
}

TEST(Partition6, SramReductionExceedsIpv4Ratio) {
  // The paper's Sec. 4 remark: the per-LC storage reduction is much larger
  // under IPv6 (tries are several times bigger, and partitioning removes
  // the same fraction of a bigger structure).
  net::TableGen6Config config;
  config.size = 20'000;
  config.seed = 11;
  const RouteTable6 table = net::generate_table6(config);
  const trie::BinaryTrie6 whole(table);
  const partition::RotPartition6 rot(table, 4);
  for (int lc = 0; lc < 4; ++lc) {
    const trie::BinaryTrie6 part(rot.table_of(lc));
    EXPECT_LT(static_cast<double>(part.storage_bytes()),
              0.55 * static_cast<double>(whole.storage_bytes()));
  }
}

}  // namespace
