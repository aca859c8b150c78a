#include "partition/rot_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "net/table_gen.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using net::Ipv4Addr;
using net::Prefix;
using net::RouteTable;
using partition::PartitionConfig;
using partition::RotPartition;

RouteTable test_table(std::size_t size, std::uint64_t seed) {
  net::TableGenConfig config;
  config.size = size;
  config.seed = seed;
  return net::generate_table(config);
}

// --- The paper's worked example, explicit control bits {b2, b4} ---

RouteTable paper_example_table() {
  RouteTable table;
  table.add(Prefix(Ipv4Addr{0xA0000000u}, 3), 1);  // P1 = 101*
  table.add(Prefix(Ipv4Addr{0xB0000000u}, 4), 2);  // P2 = 1011*
  table.add(Prefix(Ipv4Addr{0x40000000u}, 2), 3);  // P3 = 01*
  table.add(Prefix(Ipv4Addr{0x38000000u}, 6), 4);  // P4 = 001110*
  table.add(Prefix(Ipv4Addr{0x93000000u}, 8), 5);  // P5 = 10010011
  table.add(Prefix(Ipv4Addr{0x98000000u}, 5), 6);  // P6 = 10011*
  table.add(Prefix(Ipv4Addr{0x64000000u}, 6), 7);  // P7 = 011001*
  return table;
}

TEST(RotPartition, PaperExamplePartitionContentsB2B4) {
  PartitionConfig config;
  config.control_bits = {2, 4};
  const RotPartition rot(paper_example_table(), 4, config);
  // Paper: {P3,P5}, {P3,P6}, {P1,P2,P3,P7}, {P1,P2,P3,P4}.
  EXPECT_EQ(rot.table_of(0).size(), 2u);
  EXPECT_EQ(rot.table_of(1).size(), 2u);
  EXPECT_EQ(rot.table_of(2).size(), 4u);
  EXPECT_EQ(rot.table_of(3).size(), 4u);
  // P3 (01*) is * at both control bits: present in every partition.
  for (int lc = 0; lc < 4; ++lc) {
    EXPECT_TRUE(rot.table_of(lc).find(Prefix(Ipv4Addr{0x40000000u}, 2)).has_value())
        << "P3 missing from partition " << lc;
  }
  // P5 = 10010011 has b2=0, b4=0: only in partition 0.
  EXPECT_TRUE(rot.table_of(0).find(Prefix(Ipv4Addr{0x93000000u}, 8)).has_value());
  EXPECT_FALSE(rot.table_of(1).find(Prefix(Ipv4Addr{0x93000000u}, 8)).has_value());
}

TEST(RotPartition, PaperExamplePartitionContentsB0B4) {
  PartitionConfig config;
  config.control_bits = {0, 4};
  const RotPartition rot(paper_example_table(), 4, config);
  // Paper: {P3,P7}, {P3,P4}, {P1,P2,P5}, {P1,P2,P6}.
  EXPECT_EQ(rot.table_of(0).size(), 2u);
  EXPECT_EQ(rot.table_of(1).size(), 2u);
  EXPECT_EQ(rot.table_of(2).size(), 3u);
  EXPECT_EQ(rot.table_of(3).size(), 3u);
}

TEST(RotPartition, PaperExampleHomeFollowsControlBits) {
  PartitionConfig config;
  config.control_bits = {2, 4};
  const RotPartition rot(paper_example_table(), 4, config);
  // Address 10010011... has b2=0, b4=0 -> home LC 0.
  EXPECT_EQ(rot.home_of(Ipv4Addr{0x93000000u}), 0);
  // b2=0, b4=1 -> LC 1 (e.g. 10001000...).
  EXPECT_EQ(rot.home_of(Ipv4Addr{0x88000000u}), 1);
  // b2=1, b4=0 -> LC 2 (e.g. 00100000...).
  EXPECT_EQ(rot.home_of(Ipv4Addr{0x20000000u}), 2);
  // b2=1, b4=1 -> LC 3 (e.g. 00101000...).
  EXPECT_EQ(rot.home_of(Ipv4Addr{0x28000000u}), 3);
}

// --- The central SPAL invariant: looking up an address in its home LC's
// --- forwarding table gives exactly the full-table LPM result.

class RotInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(RotInvariantTest, HomeLookupEqualsFullTableLookup) {
  const int num_lcs = GetParam();
  const RouteTable table = test_table(8'000, 81);
  const RotPartition rot(table, num_lcs);
  const trie::BinaryTrie oracle(table);
  std::vector<trie::BinaryTrie> partition_tries;
  partition_tries.reserve(static_cast<std::size_t>(num_lcs));
  for (int lc = 0; lc < num_lcs; ++lc) partition_tries.emplace_back(rot.table_of(lc));
  std::mt19937_64 rng(0x1234);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (int i = 0; i < 10'000; ++i) {
    // Half uniform, half matched addresses.
    const Ipv4Addr addr =
        (i % 2 == 0)
            ? Ipv4Addr{static_cast<std::uint32_t>(rng())}
            : net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    const int home = rot.home_of(addr);
    ASSERT_GE(home, 0);
    ASSERT_LT(home, num_lcs);
    ASSERT_EQ(partition_tries[static_cast<std::size_t>(home)].lookup(addr),
              oracle.lookup(addr))
        << "psi=" << num_lcs << " addr=" << addr.to_string();
  }
}

TEST_P(RotInvariantTest, EveryPrefixLandsInEveryMatchingGroup) {
  const int num_lcs = GetParam();
  const RouteTable table = test_table(2'000, 82);
  const RotPartition rot(table, num_lcs);
  // Union of partitions must cover the table.
  std::size_t total = 0;
  for (int lc = 0; lc < num_lcs; ++lc) total += rot.table_of(lc).size();
  EXPECT_GE(total, table.size());
}

INSTANTIATE_TEST_SUITE_P(PsiSweep, RotInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "psi_" + std::to_string(info.param);
                         });

TEST(RotPartition, SingleLcKeepsWholeTable) {
  const RouteTable table = test_table(1'000, 83);
  const RotPartition rot(table, 1);
  EXPECT_EQ(rot.num_lcs(), 1);
  EXPECT_TRUE(rot.control_bits().empty());
  EXPECT_EQ(rot.table_of(0).size(), table.size());
  EXPECT_EQ(rot.home_of(Ipv4Addr{0xDEADBEEFu}), 0);
}

TEST(RotPartition, PowerOfTwoMappingIsIdentity) {
  const RouteTable table = test_table(4'000, 84);
  const RotPartition rot(table, 8);
  const auto mapping = rot.group_to_lc();
  ASSERT_EQ(mapping.size(), 8u);
  for (int g = 0; g < 8; ++g) EXPECT_EQ(mapping[static_cast<std::size_t>(g)], g);
}

TEST(RotPartition, NonPowerOfTwoBalancesLoads) {
  const RouteTable table = test_table(12'000, 85);
  for (const int psi : {3, 5, 6, 7}) {
    const RotPartition rot(table, psi);
    const auto sizes = rot.partition_sizes();
    ASSERT_EQ(sizes.size(), static_cast<std::size_t>(psi));
    const auto [min_it, max_it] = std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_GT(*min_it, 0u) << "psi=" << psi;
    // LPT packing of 2^ceil(log2 psi) groups onto psi LCs: spread bounded.
    EXPECT_LT(static_cast<double>(*max_it), 2.5 * static_cast<double>(*min_it))
        << "psi=" << psi;
  }
}

TEST(RotPartition, GroupCountIsPowerOfTwoCeiling) {
  const RouteTable table = test_table(2'000, 86);
  EXPECT_EQ(RotPartition(table, 3).group_to_lc().size(), 4u);
  EXPECT_EQ(RotPartition(table, 5).group_to_lc().size(), 8u);
  EXPECT_EQ(RotPartition(table, 16).group_to_lc().size(), 16u);
}

TEST(RotPartition, PartitionShrinksPerLcTable) {
  // The paper's storage argument: per-LC prefix counts drop roughly by ψ.
  const RouteTable table = test_table(40'000, 87);
  const RotPartition rot(table, 16);
  for (const std::size_t size : rot.partition_sizes()) {
    EXPECT_LT(static_cast<double>(size),
              0.25 * static_cast<double>(table.size()));
  }
}

TEST(RotPartition, ExplicitControlBitsRespected) {
  const RouteTable table = test_table(1'000, 88);
  PartitionConfig config;
  config.control_bits = {3, 9};
  const RotPartition rot(table, 4, config);
  ASSERT_EQ(rot.control_bits().size(), 2u);
  EXPECT_EQ(rot.control_bits()[0], 3);
  EXPECT_EQ(rot.control_bits()[1], 9);
}

// An explicit control bit outside the 32-bit address would reach
// Ipv4Addr::bit() as a shift past the word; the constructor rejects it
// before grouping.
TEST(RotPartition, RejectsOutOfRangeControlBits) {
  const RouteTable table = test_table(200, 89);
  for (const std::vector<int>& bits :
       {std::vector<int>{32}, std::vector<int>{-1}, std::vector<int>{3, 32}}) {
    PartitionConfig config;
    config.control_bits = bits;
    EXPECT_THROW(RotPartition(table, 2, config), std::invalid_argument);
  }
  PartitionConfig config;
  config.control_bits = {31};
  EXPECT_NO_THROW(RotPartition(table, 2, config));
}

TEST(PartitionByLength, GroupsAreByExactLength) {
  const RouteTable table = test_table(5'000, 89);
  const auto buckets = partition::partition_by_length(table);
  ASSERT_EQ(buckets.size(), 33u);
  std::size_t total = 0;
  for (int len = 0; len <= 32; ++len) {
    for (const net::RouteEntry& e : buckets[static_cast<std::size_t>(len)].entries()) {
      EXPECT_EQ(e.prefix.length(), len);
    }
    total += buckets[static_cast<std::size_t>(len)].size();
  }
  EXPECT_EQ(total, table.size());  // no replication in the [1] baseline
}

TEST(PartitionByLength, SizesAreHighlySkewed) {
  // Sec. 2.3's critique of the [1] baseline: /24 dominates, so per-length
  // subsets are wildly unequal — unlike SPAL's ROT-partitions.
  const RouteTable table = test_table(20'000, 90);
  const auto buckets = partition::partition_by_length(table);
  const std::size_t biggest = buckets[24].size();
  EXPECT_GT(static_cast<double>(biggest), 0.3 * static_cast<double>(table.size()));
}

}  // namespace
