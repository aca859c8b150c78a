#include "trie/lc_trie.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <stdexcept>

#include "net/prefix6.h"
#include "net/table_gen.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using net::Ipv4Addr;
using net::Prefix;
using net::RouteTable;
using trie::LcTrie;

Prefix p(const char* text) { return *Prefix::parse(text); }

TEST(LcTrie, SplitsInternalPrefixesOut) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 1);    // covers the two below -> internal
  table.add(p("10.1.0.0/16"), 2);   // covers the /24 -> internal
  table.add(p("10.1.2.0/24"), 3);
  table.add(p("192.0.2.0/24"), 4);
  const LcTrie trie(table);
  EXPECT_EQ(trie.internal_count(), 2u);
  EXPECT_EQ(trie.base_count(), 2u);
}

TEST(LcTrie, PrefixChainServesCoveredAddresses) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 1);
  table.add(p("10.1.0.0/16"), 2);
  table.add(p("10.1.2.0/24"), 3);
  const LcTrie trie(table);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x0A010201u}), 3u);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x0A01FF00u}), 2u);  // chain hop 1
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x0AFF0000u}), 1u);  // chain hop 2
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x0B000000u}), net::kNoRoute);
}

TEST(LcTrie, EmptyChildLeafIsRejectedByComparison) {
  // Sparse sibling set under a wide branch: addresses falling into empty
  // children must not return the neighbouring leaf's next hop.
  RouteTable table;
  table.add(p("0.0.0.0/8"), 1);
  table.add(p("255.0.0.0/8"), 2);
  const LcTrie trie(table, /*fill_factor=*/0.1);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x00000001u}), 1u);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0xFF000001u}), 2u);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x80000001u}), net::kNoRoute);
}

class LcTrieFillFactorTest : public ::testing::TestWithParam<double> {};

TEST_P(LcTrieFillFactorTest, OracleAgreementAcrossFillFactors) {
  net::TableGenConfig config;
  config.size = 8'000;
  config.seed = 51;
  const RouteTable table = net::generate_table(config);
  const trie::BinaryTrie oracle(table);
  const LcTrie trie(table, GetParam());
  std::mt19937_64 rng(6);
  for (int i = 0; i < 10'000; ++i) {
    const Ipv4Addr addr{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(trie.lookup(addr), oracle.lookup(addr))
        << "fill=" << GetParam() << " at " << addr.to_string();
  }
}

TEST_P(LcTrieFillFactorTest, NodeCountShrinksRelativeToBinary) {
  net::TableGenConfig config;
  config.size = 8'000;
  config.seed = 51;
  const RouteTable table = net::generate_table(config);
  const trie::BinaryTrie binary(table);
  const LcTrie trie(table, GetParam());
  EXPECT_LT(trie.node_count(), binary.node_count());
}

INSTANTIATE_TEST_SUITE_P(FillFactors, LcTrieFillFactorTest,
                         ::testing::Values(0.125, 0.25, 0.5, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "fill_" +
                                  std::to_string(static_cast<int>(info.param * 1000));
                         });

TEST(LcTrie, LowerFillFactorGivesWiderBranchesFewerLevels) {
  net::TableGenConfig config;
  config.size = 20'000;
  config.seed = 52;
  const RouteTable table = net::generate_table(config);
  const LcTrie dense(table, 1.0);
  const LcTrie sparse(table, 0.25);
  // A lower fill factor trades nodes for depth: fewer mean accesses.
  const double dense_accesses = trie::mean_accesses_per_lookup(dense, table, 3'000, 1);
  const double sparse_accesses = trie::mean_accesses_per_lookup(sparse, table, 3'000, 1);
  EXPECT_LT(sparse_accesses, dense_accesses);
  EXPECT_GE(sparse.node_count(), dense.node_count());
}

TEST(LcTrie, StorageModelMatchesComponentCounts) {
  net::TableGenConfig config;
  config.size = 1'000;
  config.seed = 53;
  const LcTrie trie(net::generate_table(config));
  EXPECT_EQ(trie.storage_bytes(),
            trie.node_count() * 4 + trie.base_count() * 12 + trie.internal_count() * 8);
}

TEST(LcTrie, SingleEntryTable) {
  RouteTable table;
  table.add(p("10.1.2.0/24"), 1);
  const LcTrie trie(table);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x0A010201u}), 1u);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x0A010301u}), net::kNoRoute);
}

TEST(LcTrie, DefaultRouteOnlyTable) {
  RouteTable table;
  table.add(p("0.0.0.0/0"), 7);
  const LcTrie trie(table);
  EXPECT_EQ(trie.lookup(Ipv4Addr{0x12345678u}), 7u);
}

TEST(LcTrie, NameIsLc) {
  EXPECT_EQ(LcTrie(RouteTable{}).name(), "lc");
}

// Under a fill factor that is not > 0 the fill test never fails, so every
// node of three or more entries would widen until a cap stops it. Both
// families reject it, and build_lpm passes the rejection through.
TEST(LcTrie, RejectsFillFactorNotAboveZero) {
  net::TableGenConfig config;
  config.size = 300;
  config.seed = 54;
  const RouteTable table = net::generate_table(config);
  net::TableGen6Config config6;
  config6.size = 300;
  config6.seed = 55;
  const net::RouteTable6 table6 = net::generate_table6(config6);
  for (const double fill :
       {0.0, -0.25, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(LcTrie(table, fill), std::invalid_argument) << fill;
    EXPECT_THROW(trie::LcTrie6(table6, fill), std::invalid_argument) << fill;
    trie::LpmBuildOptions options;
    options.lc_fill_factor = fill;
    EXPECT_THROW(trie::build_lpm(trie::TrieKind::kLc, table, options),
                 std::invalid_argument)
        << fill;
  }
}

}  // namespace
