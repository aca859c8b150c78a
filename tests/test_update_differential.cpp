// Differential update-vs-oracle harness: every trie kind must agree with an
// incrementally updated binary-trie oracle across long seeded streams of
// interleaved announces / withdraws / hop changes and lookups — the dynamic
// tries (DP) via in-place insert/remove, the immutable structures (Lulea,
// LC, Gupta, stride) via epoch rebuilds over the churned table. Both
// address families are covered, plus the two structurally nasty edge cases:
// withdrawing the default route (the root node is never spliced) and
// announcing a prefix that splits a path-compressed edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "net/table_gen.h"
#include "net/update_stream.h"
#include "trie/binary_trie.h"
#include "trie/dp_trie.h"
#include "trie/lc_trie.h"
#include "trie/lpm.h"

namespace {

using namespace spal;
using net::Ipv4Addr;
using net::Ipv6Addr;
using net::kNoRoute;
using net::Prefix;
using net::Prefix6;
using net::UpdateKind;

Prefix p(const char* text) { return *Prefix::parse(text); }

// Prefix6::parse only accepts the full eight-group form; numeric
// construction is clearer for the handful of fixed v6 prefixes here.
Prefix6 p6(std::uint64_t hi, std::uint64_t lo, int length) {
  return Prefix6(Ipv6Addr{hi, lo}, length);
}

net::RouteTable v4_base() {
  net::TableGenConfig config;
  config.size = 2'000;
  config.seed = 811;
  return net::generate_table(config);
}

net::RouteTable6 v6_base() {
  net::TableGen6Config config;
  config.size = 2'000;
  config.seed = 907;
  return net::generate_table6(config);
}

std::vector<net::TableUpdate> v4_stream(const net::RouteTable& initial,
                                        std::uint64_t seed) {
  net::UpdateStreamConfig config;
  config.count = 10'000;
  config.seed = seed;
  return net::generate_update_stream(initial, config);
}

std::vector<net::TableUpdate6> v6_stream(const net::RouteTable6& initial,
                                         std::uint64_t seed) {
  net::UpdateStreamConfig config;
  config.count = 10'000;
  config.seed = seed;
  return net::generate_update_stream6(initial, config);
}

/// Applies one update to any structure exposing insert(prefix, hop) /
/// remove(prefix) — LpmIndex subclasses, BinaryTrie6, DpTrie6.
template <typename Index, typename Update>
void apply_to_index(Index& index, const Update& update) {
  if (update.kind == UpdateKind::kWithdraw) {
    ASSERT_TRUE(index.remove(update.prefix));
  } else {
    index.insert(update.prefix, update.next_hop);
  }
}

// --- IPv4: incremental DP trie vs incremental binary-trie oracle ---------

TEST(UpdateDifferential, V4DpIncrementalTracksBinaryOracle) {
  const net::RouteTable base = v4_base();
  net::RouteTable working = base;
  trie::DpTrie dp(base);
  trie::BinaryTrie oracle(base);
  const auto updates = v4_stream(base, 97);
  std::mt19937_64 rng(5);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto& update = updates[i];
    ASSERT_TRUE(net::apply_update(working, update));
    apply_to_index(dp, update);
    apply_to_index(oracle, update);
    // Interleaved lookups: one uniform address, one under the just-touched
    // prefix (the spot most likely to expose a bad split or splice).
    const Ipv4Addr uniform{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(dp.lookup(uniform), oracle.lookup(uniform)) << "update " << i;
    const Ipv4Addr covered = net::random_address_in(update.prefix, rng);
    ASSERT_EQ(dp.lookup(covered), oracle.lookup(covered)) << "update " << i;
    if ((i + 1) % 1'000 == 0) {
      // Batch boundary: sweep an address under every live prefix.
      for (const auto& entry : working.entries()) {
        const Ipv4Addr addr = net::random_address_in(entry.prefix, rng);
        ASSERT_EQ(dp.lookup(addr), oracle.lookup(addr))
            << "batch after update " << i;
      }
    }
  }
  // The churned trie must be indistinguishable from one rebuilt from the
  // final table, and both must agree with the linear-scan ground truth.
  const trie::DpTrie rebuilt(working);
  EXPECT_EQ(dp.node_count(), rebuilt.node_count());
  for (int i = 0; i < 2'000; ++i) {
    const Ipv4Addr addr{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(dp.lookup(addr), rebuilt.lookup(addr));
    ASSERT_EQ(dp.lookup(addr), working.lookup_linear(addr));
  }
}

// --- IPv4: epoch-rebuild kinds vs incremental binary-trie oracle ---------

class EpochRebuildTest : public ::testing::TestWithParam<trie::TrieKind> {};

TEST_P(EpochRebuildTest, V4EpochRebuildTracksBinaryOracle) {
  const trie::TrieKind kind = GetParam();
  const net::RouteTable base = v4_base();
  net::RouteTable working = base;
  trie::BinaryTrie oracle(base);
  const auto updates = v4_stream(base, 131);
  std::mt19937_64 rng(6);
  const std::size_t batch = 500;
  for (std::size_t start = 0; start < updates.size(); start += batch) {
    const std::size_t end = std::min(start + batch, updates.size());
    for (std::size_t i = start; i < end; ++i) {
      ASSERT_TRUE(net::apply_update(working, updates[i]));
      apply_to_index(oracle, updates[i]);
    }
    const std::unique_ptr<trie::LpmIndex> fe = trie::build_lpm(kind, working);
    std::uniform_int_distribution<std::size_t> pick(0, working.size() - 1);
    for (int j = 0; j < 200; ++j) {
      const Ipv4Addr uniform{static_cast<std::uint32_t>(rng())};
      ASSERT_EQ(fe->lookup(uniform), oracle.lookup(uniform))
          << "epoch after update " << end;
      const Ipv4Addr covered = net::random_address_in(
          working.entries()[pick(rng)].prefix, rng);
      ASSERT_EQ(fe->lookup(covered), oracle.lookup(covered))
          << "epoch after update " << end;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EpochRebuildTest,
    ::testing::Values(trie::TrieKind::kDp, trie::TrieKind::kLulea,
                      trie::TrieKind::kLc, trie::TrieKind::kGupta,
                      trie::TrieKind::kStride),
    [](const ::testing::TestParamInfo<trie::TrieKind>& info) {
      return std::string(trie::to_string(info.param));
    });

// --- IPv6: incremental DP trie vs incremental binary-trie oracle ---------

TEST(UpdateDifferential, V6DpIncrementalTracksBinaryOracle) {
  const net::RouteTable6 base = v6_base();
  net::RouteTable6 working = base;
  trie::DpTrie6 dp(base);
  trie::BinaryTrie6 oracle(base);
  const auto updates = v6_stream(base, 211);
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto& update = updates[i];
    ASSERT_TRUE(net::apply_update(working, update));
    apply_to_index(dp, update);
    apply_to_index(oracle, update);
    const Ipv6Addr uniform{rng(), rng()};
    ASSERT_EQ(dp.lookup(uniform), oracle.lookup(uniform)) << "update " << i;
    const Ipv6Addr covered = net::random_address_in(update.prefix, rng);
    ASSERT_EQ(dp.lookup(covered), oracle.lookup(covered)) << "update " << i;
    if ((i + 1) % 1'000 == 0) {
      for (const auto& entry : working.entries()) {
        const Ipv6Addr addr = net::random_address_in(entry.prefix, rng);
        ASSERT_EQ(dp.lookup(addr), oracle.lookup(addr))
            << "batch after update " << i;
      }
    }
  }
  const trie::DpTrie6 rebuilt(working);
  EXPECT_EQ(dp.node_count(), rebuilt.node_count());
  for (int i = 0; i < 2'000; ++i) {
    const Ipv6Addr addr{rng(), rng()};
    ASSERT_EQ(dp.lookup(addr), rebuilt.lookup(addr));
  }
}

// --- IPv6: epoch rebuild (LC-trie) vs incremental oracle -----------------

TEST(UpdateDifferential, V6LcTrieEpochRebuildTracksBinaryOracle) {
  const net::RouteTable6 base = v6_base();
  net::RouteTable6 working = base;
  trie::BinaryTrie6 oracle(base);
  const auto updates = v6_stream(base, 257);
  std::mt19937_64 rng(8);
  const std::size_t batch = 500;
  for (std::size_t start = 0; start < updates.size(); start += batch) {
    const std::size_t end = std::min(start + batch, updates.size());
    for (std::size_t i = start; i < end; ++i) {
      ASSERT_TRUE(net::apply_update(working, updates[i]));
      apply_to_index(oracle, updates[i]);
    }
    const trie::LcTrie6 fe(working);
    std::uniform_int_distribution<std::size_t> pick(0, working.size() - 1);
    for (int j = 0; j < 200; ++j) {
      const Ipv6Addr uniform{rng(), rng()};
      ASSERT_EQ(fe.lookup(uniform), oracle.lookup(uniform))
          << "epoch after update " << end;
      const Ipv6Addr covered = net::random_address_in(
          working.entries()[pick(rng)].prefix, rng);
      ASSERT_EQ(fe.lookup(covered), oracle.lookup(covered))
          << "epoch after update " << end;
    }
  }
}

// --- Edge case: withdrawing the default route ----------------------------
// The root node backs the zero-length prefix and is never spliced away;
// withdrawing it must clear the hop without disturbing longer matches.

TEST(UpdateDifferential, V4WithdrawOfDefaultRoute) {
  net::RouteTable table;
  table.add(p("0.0.0.0/0"), 7);
  table.add(p("10.0.0.0/8"), 1);
  trie::DpTrie dp(table);
  trie::BinaryTrie oracle(table);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0B000000u}), 7u);
  EXPECT_TRUE(dp.remove(p("0.0.0.0/0")));
  EXPECT_TRUE(oracle.remove(p("0.0.0.0/0")));
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0B000000u}), kNoRoute);
  EXPECT_EQ(oracle.lookup(Ipv4Addr{0x0B000000u}), kNoRoute);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0A000001u}), 1u);
  // Withdrawing it twice is a no-op, and re-announcing restores coverage.
  EXPECT_FALSE(dp.remove(p("0.0.0.0/0")));
  dp.insert(p("0.0.0.0/0"), 9);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0B000000u}), 9u);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0A000001u}), 1u);
}

TEST(UpdateDifferential, V6WithdrawOfDefaultRoute) {
  const Prefix6 def = p6(0, 0, 0);                          // ::/0
  const Prefix6 doc = p6(0x20010DB800000000ULL, 0, 32);     // 2001:db8::/32
  net::RouteTable6 table;
  table.add(def, 7);
  table.add(doc, 1);
  trie::DpTrie6 dp(table);
  trie::BinaryTrie6 oracle(table);
  const Ipv6Addr outside{0x3000000000000000ULL, 1};
  const Ipv6Addr inside{0x20010DB800000000ULL, 1};
  EXPECT_EQ(dp.lookup(outside), 7u);
  EXPECT_TRUE(dp.remove(def));
  EXPECT_TRUE(oracle.remove(def));
  EXPECT_EQ(dp.lookup(outside), kNoRoute);
  EXPECT_EQ(oracle.lookup(outside), kNoRoute);
  EXPECT_EQ(dp.lookup(inside), 1u);
  EXPECT_FALSE(dp.remove(def));
  dp.insert(def, 9);
  EXPECT_EQ(dp.lookup(outside), 9u);
  EXPECT_EQ(dp.lookup(inside), 1u);
}

// --- Edge case: an announce that splits a compressed path ----------------
// 10.0.0.0/8 -> 10.255.255.0/24 is one compressed edge skipping bits 8..23.
// Announcing a prefix that diverges inside the skipped run must introduce a
// branch node; announcing one that lies on the run must introduce a prefix
// node; withdrawing either must splice the path back together.

TEST(UpdateDifferential, V4AnnounceSplitsCompressedPath) {
  net::RouteTable table;
  table.add(p("10.0.0.0/8"), 1);
  table.add(p("10.255.255.0/24"), 2);
  trie::DpTrie dp(table);
  const std::size_t compressed_nodes = dp.node_count();

  // Diverges from 10.255.255.0/24 at bit 9 (0x40 vs 0xFF in octet two).
  dp.insert(p("10.64.0.0/16"), 3);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0A400001u}), 3u);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0AFFFF01u}), 2u);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0AC80000u}), 1u);  // 10.200.0.0 -> the /8

  // Lies on the compressed run: a proper prefix of the /24.
  dp.insert(p("10.255.0.0/16"), 4);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0AFF0101u}), 4u);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0AFFFF01u}), 2u);

  // Withdrawals splice both splits back out; the node count returns to the
  // original compressed shape (no leaked pass-through nodes).
  EXPECT_TRUE(dp.remove(p("10.255.0.0/16")));
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0AFF0101u}), 1u);
  EXPECT_TRUE(dp.remove(p("10.64.0.0/16")));
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0A400001u}), 1u);
  EXPECT_EQ(dp.node_count(), compressed_nodes);
  EXPECT_EQ(dp.lookup(Ipv4Addr{0x0AFFFF01u}), 2u);
}

TEST(UpdateDifferential, V6AnnounceSplitsCompressedPath) {
  const Prefix6 wide = p6(0x2000000000000000ULL, 0, 8);      // 2000::/8
  const Prefix6 deep_p = p6(0x20FFFFFF00000000ULL, 0, 32);   // 20ff:ffff::/32
  net::RouteTable6 table;
  table.add(wide, 1);
  table.add(deep_p, 2);
  trie::DpTrie6 dp(table);
  const std::size_t compressed_nodes = dp.node_count();

  const Ipv6Addr deep{0x20FFFFFF00000000ULL, 1};
  const Ipv6Addr divergent{0x2040000000000000ULL, 1};
  const Ipv6Addr run{0x20FF010100000000ULL, 1};

  const Prefix6 branch = p6(0x2040000000000000ULL, 0, 16);   // 2040::/16
  dp.insert(branch, 3);  // splits the edge with a branch node
  EXPECT_EQ(dp.lookup(divergent), 3u);
  EXPECT_EQ(dp.lookup(deep), 2u);

  const Prefix6 on_run = p6(0x20FF000000000000ULL, 0, 16);   // 20ff::/16
  dp.insert(on_run, 4);  // prefix node on the compressed run
  EXPECT_EQ(dp.lookup(run), 4u);
  EXPECT_EQ(dp.lookup(deep), 2u);

  EXPECT_TRUE(dp.remove(on_run));
  EXPECT_EQ(dp.lookup(run), 1u);
  EXPECT_TRUE(dp.remove(branch));
  EXPECT_EQ(dp.lookup(divergent), 1u);
  EXPECT_EQ(dp.node_count(), compressed_nodes);
  EXPECT_EQ(dp.lookup(deep), 2u);
}

// --- Churn must not leak nodes -------------------------------------------
// Insert a large batch of distinct prefixes into an empty trie, remove them
// all again: every split node must be spliced back onto the free list and
// the node count must return exactly to the empty-trie baseline.

TEST(UpdateDifferential, V4ChurnReclaimsAllNodes) {
  trie::DpTrie dp(net::RouteTable{});
  trie::BinaryTrie oracle;
  const std::size_t empty_nodes = dp.node_count();
  std::mt19937_64 rng(17);
  std::vector<Prefix> inserted;
  while (inserted.size() < 1'000) {
    const int length = 8 + static_cast<int>(rng() % 25);  // 8..32
    const Prefix prefix(Ipv4Addr{static_cast<std::uint32_t>(rng())}, length);
    bool duplicate = false;
    for (const Prefix& seen : inserted) duplicate |= (seen == prefix);
    if (duplicate) continue;
    inserted.push_back(prefix);
    dp.insert(prefix, static_cast<net::NextHop>(inserted.size()));
    oracle.insert(prefix, static_cast<net::NextHop>(inserted.size()));
  }
  for (int i = 0; i < 2'000; ++i) {
    const Ipv4Addr addr{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(dp.lookup(addr), oracle.lookup(addr));
  }
  std::shuffle(inserted.begin(), inserted.end(), rng);
  for (const Prefix& prefix : inserted) {
    ASSERT_TRUE(dp.remove(prefix));
  }
  EXPECT_EQ(dp.node_count(), empty_nodes);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(dp.lookup(Ipv4Addr{static_cast<std::uint32_t>(rng())}), kNoRoute);
  }
}

TEST(UpdateDifferential, V6ChurnReclaimsAllNodes) {
  trie::DpTrie6 dp(net::RouteTable6{});
  trie::BinaryTrie6 oracle;
  const std::size_t empty_nodes = dp.node_count();
  std::mt19937_64 rng(19);
  std::vector<Prefix6> inserted;
  while (inserted.size() < 1'000) {
    const int length = 16 + static_cast<int>(rng() % 49);  // 16..64
    const Prefix6 prefix(Ipv6Addr{rng(), rng()}, length);
    bool duplicate = false;
    for (const Prefix6& seen : inserted) duplicate |= (seen == prefix);
    if (duplicate) continue;
    inserted.push_back(prefix);
    dp.insert(prefix, static_cast<net::NextHop>(inserted.size()));
    oracle.insert(prefix, static_cast<net::NextHop>(inserted.size()));
  }
  for (int i = 0; i < 2'000; ++i) {
    const Ipv6Addr addr{rng(), rng()};
    ASSERT_EQ(dp.lookup(addr), oracle.lookup(addr));
  }
  std::shuffle(inserted.begin(), inserted.end(), rng);
  for (const Prefix6& prefix : inserted) {
    ASSERT_TRUE(dp.remove(prefix));
  }
  EXPECT_EQ(dp.node_count(), empty_nodes);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(dp.lookup(Ipv6Addr{rng(), rng()}), kNoRoute);
  }
}

}  // namespace
