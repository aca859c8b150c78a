// Configuration factories, result helpers, and the family policies'
// individual pieces.
#include <gtest/gtest.h>

#include "core/router_sim.h"
#include "core/router_sim6.h"
#include "net/table_gen.h"

namespace {

using namespace spal;

TEST(ConfigFactories, SpalDefaultsMatchThePaper) {
  const core::RouterConfig config = core::spal_default_config(16);
  EXPECT_EQ(config.num_lcs, 16);
  EXPECT_EQ(config.cache.blocks, 4096u);      // β = 4K
  EXPECT_EQ(config.cache.associativity, 4u);  // 4-way
  EXPECT_DOUBLE_EQ(config.cache.remote_fraction, 0.5);  // γ = 50%
  EXPECT_EQ(config.cache.victim_blocks, 8u);
  EXPECT_DOUBLE_EQ(config.line_rate_gbps, 40.0);
  EXPECT_EQ(config.fe_service_cycles, 40);    // Lulea matching time
  EXPECT_EQ(config.trie, trie::TrieKind::kLulea);
  EXPECT_TRUE(config.partition);
  EXPECT_TRUE(config.use_lr_cache);
  EXPECT_TRUE(config.early_reservation);
}

TEST(ConfigFactories, ConventionalDisablesBothMechanisms) {
  const core::RouterConfig config = core::conventional_config(8);
  EXPECT_FALSE(config.partition);
  EXPECT_FALSE(config.use_lr_cache);
  EXPECT_EQ(config.num_lcs, 8);
}

TEST(ConfigFactories, CacheOnlyKeepsTheCache) {
  const core::RouterConfig config = core::cache_only_config(8);
  EXPECT_FALSE(config.partition);
  EXPECT_TRUE(config.use_lr_cache);
}

TEST(RouterResult, RateHelpersFollowTheArithmetic) {
  core::RouterResult result;
  for (int i = 0; i < 100; ++i) result.latency.record(10);  // 10 cycles = 50 ns
  EXPECT_DOUBLE_EQ(result.mean_lookup_cycles(), 10.0);
  EXPECT_EQ(result.worst_lookup_cycles(), 10u);
  // 20 Mpps per LC at 50 ns/lookup; x16 LCs = 320 Mpps.
  EXPECT_NEAR(result.router_packets_per_second(16), 320e6, 1e3);
}

TEST(V4Family, HashBitsIsTheAddress) {
  EXPECT_EQ(core::V4Family::hash_bits(net::Ipv4Addr{0xDEADBEEFu}), 0xDEADBEEFu);
}

TEST(V6Family, HashBitsMixesBothHalves) {
  const net::Ipv6Addr a{1, 0}, b{0, 1}, c{1, 1};
  EXPECT_NE(core::V6Family::hash_bits(a), core::V6Family::hash_bits(b));
  EXPECT_NE(core::V6Family::hash_bits(a), core::V6Family::hash_bits(c));
}

TEST(V4Family, BuildFeHonoursTrieKind) {
  net::RouteTable table;
  table.add(*net::Prefix::parse("10.0.0.0/8"), 1);
  core::RouterConfig config = core::spal_default_config(1);
  config.trie = trie::TrieKind::kLc;
  const auto fe = core::V4Family::build_fe(table, config);
  EXPECT_EQ(fe->name(), "lc");
  EXPECT_EQ(fe->lookup(net::Ipv4Addr{0x0A000001u}), 1u);
  EXPECT_GT(fe->storage_bytes(), 0u);
}

TEST(V6Family, FeAndOracleAgree) {
  net::TableGen6Config table_config;
  table_config.size = 500;
  table_config.seed = 901;
  const net::RouteTable6 table = net::generate_table6(table_config);
  const core::RouterConfig config = core::spal_default_config(1);
  const auto fe = core::V6Family::build_fe(table, config);
  const trie::BinaryTrie6 oracle(table);
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (int i = 0; i < 500; ++i) {
    const auto addr =
        net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    EXPECT_EQ(fe->lookup(addr), oracle.lookup(addr));
  }
}

}  // namespace
