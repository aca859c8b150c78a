#include "net/update_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/table_gen.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using net::RouteTable;
using net::TableUpdate;
using net::UpdateKind;
using net::UpdateStreamConfig;

RouteTable base_table(std::size_t size = 3'000) {
  net::TableGenConfig config;
  config.size = size;
  config.seed = 701;
  return net::generate_table(config);
}

// FNV-1a over each update's kind, prefix address and length, and hop.
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
std::uint64_t fnv_mix(std::uint64_t hash, net::Ipv4Addr addr) {
  return fnv_mix(hash, std::uint64_t{addr.value()});
}
std::uint64_t fnv_mix(std::uint64_t hash, const net::Ipv6Addr& addr) {
  return fnv_mix(fnv_mix(hash, addr.hi()), addr.lo());
}

template <typename Addr>
std::uint64_t stream_digest(const std::vector<net::BasicTableUpdate<Addr>>& updates) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& update : updates) {
    hash = fnv_mix(hash, static_cast<std::uint64_t>(update.kind));
    hash = fnv_mix(hash, update.prefix.address());
    hash = fnv_mix(hash, static_cast<std::uint64_t>(update.prefix.length()));
    hash = fnv_mix(hash, std::uint64_t{update.next_hop});
  }
  return hash;
}

/// 5,000 updates at the given mix, seed 43.
UpdateStreamConfig pinned_config(double announce, double withdraw) {
  UpdateStreamConfig config;
  config.count = 5'000;
  config.seed = 43;
  config.announce_fraction = announce;
  config.withdraw_fraction = withdraw;
  return config;
}

TEST(UpdateStream, DeterministicPerSeed) {
  const RouteTable table = base_table();
  UpdateStreamConfig config;
  config.count = 500;
  config.seed = 3;
  EXPECT_EQ(net::generate_update_stream(table, config),
            net::generate_update_stream(table, config));
  config.seed = 4;
  EXPECT_NE(net::generate_update_stream(table, UpdateStreamConfig{500, 3}),
            net::generate_update_stream(table, config));
}

TEST(UpdateStream, EveryUpdateAppliesCleanly) {
  RouteTable table = base_table();
  UpdateStreamConfig config;
  config.count = 2'000;
  for (const TableUpdate& update : net::generate_update_stream(table, config)) {
    EXPECT_TRUE(net::apply_update(table, update));
  }
}

TEST(UpdateStream, KindMixTracksConfiguredFractions) {
  const RouteTable table = base_table();
  UpdateStreamConfig config;
  config.count = 5'000;
  config.announce_fraction = 0.2;
  config.withdraw_fraction = 0.3;
  std::size_t announces = 0, withdraws = 0, changes = 0;
  for (const TableUpdate& update : net::generate_update_stream(table, config)) {
    switch (update.kind) {
      case UpdateKind::kAnnounce: ++announces; break;
      case UpdateKind::kWithdraw: ++withdraws; break;
      case UpdateKind::kHopChange: ++changes; break;
    }
  }
  EXPECT_NEAR(static_cast<double>(announces) / 5'000.0, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(withdraws) / 5'000.0, 0.3, 0.03);
  EXPECT_NEAR(static_cast<double>(changes) / 5'000.0, 0.5, 0.03);
}

TEST(UpdateStream, TableSizeEvolvesByAnnouncesMinusWithdraws) {
  RouteTable table = base_table();
  const std::size_t initial = table.size();
  UpdateStreamConfig config;
  config.count = 1'000;
  std::int64_t delta = 0;
  for (const TableUpdate& update : net::generate_update_stream(table, config)) {
    if (update.kind == UpdateKind::kAnnounce) ++delta;
    if (update.kind == UpdateKind::kWithdraw) --delta;
    net::apply_update(table, update);
  }
  EXPECT_EQ(static_cast<std::int64_t>(table.size()),
            static_cast<std::int64_t>(initial) + delta);
}

TEST(UpdateStream, WithdrawalsNameLivePrefixesOnly) {
  RouteTable table = base_table();
  for (const TableUpdate& update :
       net::generate_update_stream(table, UpdateStreamConfig{3'000, 9})) {
    if (update.kind == UpdateKind::kWithdraw) {
      EXPECT_TRUE(table.find(update.prefix).has_value())
          << update.prefix.to_string();
    }
    net::apply_update(table, update);
  }
}

TEST(UpdateStream, AnnouncementsAreNewPrefixes) {
  RouteTable table = base_table();
  for (const TableUpdate& update :
       net::generate_update_stream(table, UpdateStreamConfig{3'000, 10})) {
    if (update.kind == UpdateKind::kAnnounce) {
      EXPECT_FALSE(table.find(update.prefix).has_value())
          << update.prefix.to_string();
    }
    net::apply_update(table, update);
  }
}

TEST(UpdateStream, IncrementalBinaryTrieMatchesRebuild) {
  // Strong equivalence: applying the stream incrementally to a binary trie
  // gives the same LPM behaviour as rebuilding from the updated table.
  RouteTable table = base_table();
  trie::BinaryTrie incremental(table);
  const auto updates = net::generate_update_stream(table, UpdateStreamConfig{1'000, 11});
  for (const TableUpdate& update : updates) {
    net::apply_update(table, update);
    switch (update.kind) {
      case UpdateKind::kAnnounce:
      case UpdateKind::kHopChange:
        incremental.insert(update.prefix, update.next_hop);
        break;
      case UpdateKind::kWithdraw:
        EXPECT_TRUE(incremental.remove(update.prefix));
        break;
    }
  }
  const trie::BinaryTrie rebuilt(table);
  std::mt19937_64 rng(12);
  std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
  for (int i = 0; i < 5'000; ++i) {
    const auto addr =
        net::random_address_in(table.entries()[pick(rng)].prefix, rng);
    ASSERT_EQ(incremental.lookup(addr), rebuilt.lookup(addr));
  }
}

TEST(UpdateStream, EmptyInitialTableStillGeneratesAnnounces) {
  const auto updates =
      net::generate_update_stream(RouteTable{}, UpdateStreamConfig{100, 13});
  EXPECT_EQ(updates.size(), 100u);
  EXPECT_EQ(updates.front().kind, UpdateKind::kAnnounce);
}

TEST(UpdateStream, KindMixTracksCustomFractions) {
  const RouteTable table = base_table();
  UpdateStreamConfig config;
  config.count = 10'000;
  config.seed = 23;
  config.announce_fraction = 0.2;
  config.withdraw_fraction = 0.5;
  std::size_t announces = 0, withdraws = 0, changes = 0;
  for (const TableUpdate& update : net::generate_update_stream(table, config)) {
    switch (update.kind) {
      case UpdateKind::kAnnounce: ++announces; break;
      case UpdateKind::kWithdraw: ++withdraws; break;
      case UpdateKind::kHopChange: ++changes; break;
    }
  }
  const double n = static_cast<double>(config.count);
  EXPECT_NEAR(static_cast<double>(announces) / n, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(withdraws) / n, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(changes) / n, 0.3, 0.02);
}

TEST(UpdateStream, AnnouncedLengthsFollowTableModel) {
  // Announcement lengths reuse the table generator's weights (floored at
  // /8), so the table keeps its BGP shape as it churns: /24 stays the
  // dominant length and nothing shorter than /8 appears.
  const RouteTable table = base_table();
  UpdateStreamConfig config;
  config.count = 10'000;
  config.seed = 29;
  config.announce_fraction = 1.0;
  config.withdraw_fraction = 0.0;
  std::array<std::size_t, net::Prefix::kMaxLength + 1> histogram{};
  for (const TableUpdate& update : net::generate_update_stream(table, config)) {
    ASSERT_EQ(update.kind, UpdateKind::kAnnounce);
    ASSERT_GE(update.prefix.length(), 8);
    ASSERT_LE(update.prefix.length(), net::Prefix::kMaxLength);
    ++histogram[static_cast<std::size_t>(update.prefix.length())];
  }
  const std::size_t modal = static_cast<std::size_t>(
      std::max_element(histogram.begin(), histogram.end()) -
      histogram.begin());
  EXPECT_EQ(modal, 24u);
  EXPECT_GT(std::count_if(histogram.begin(), histogram.end(),
                          [](std::size_t c) { return c > 0; }),
            5);
}

// The exact draws: digests of the streams as first generated, so a change
// to any announce, withdrawal or hop changes them. On the 50-prefix table
// at 0.25/0.5 most withdrawals name prefixes the stream itself announced.
TEST(UpdateStream, DrawsArePinned) {
  EXPECT_EQ(stream_digest(net::generate_update_stream(
                base_table(), pinned_config(0.25, 0.25))),
            0x9bddf9e65e821dc8ULL);
  EXPECT_EQ(stream_digest(net::generate_update_stream(
                base_table(50), pinned_config(0.25, 0.5))),
            0xa1fc3deaedcc44c7ULL);
}

// A withdrawn prefix of the initial table is no longer in the table, so the
// stream may announce it again. Over a table of every /16, one announce in
// about thirteen draws a /16, and it is new only if the stream withdrew it.
TEST(UpdateStream, ReannouncesWithdrawnInitialPrefixes) {
  std::vector<net::RouteEntry> entries;
  for (std::uint32_t high = 0; high < (1u << 16); ++high) {
    entries.push_back({net::Prefix(net::Ipv4Addr{high << 16}, 16), 0});
  }
  RouteTable table(std::move(entries));
  const RouteTable initial = table;
  std::size_t reannounced = 0;
  for (const TableUpdate& update :
       net::generate_update_stream(initial, pinned_config(0.5, 0.5))) {
    if (update.kind == UpdateKind::kAnnounce) {
      ASSERT_FALSE(table.find(update.prefix).has_value())
          << update.prefix.to_string();
      if (initial.find(update.prefix).has_value()) ++reannounced;
    } else {
      ASSERT_TRUE(table.find(update.prefix).has_value())
          << update.prefix.to_string();
    }
    net::apply_update(table, update);
  }
  EXPECT_GT(reannounced, 0u);
}

// A mix the generator cannot draw as given is rejected: a pair summing
// above 1 would silently drop hop changes and cut withdrawals, and a
// negative or NaN fraction would be used as is.
TEST(UpdateStream, RejectsAMixItCannotDraw) {
  const RouteTable table = base_table(50);
  const auto generate = [&](double announce, double withdraw) {
    UpdateStreamConfig config = pinned_config(announce, withdraw);
    config.count = 100;
    return net::generate_update_stream(table, config);
  };
  EXPECT_THROW(generate(0.8, 0.5), std::invalid_argument);
  EXPECT_THROW(generate(-0.1, 0.2), std::invalid_argument);
  EXPECT_THROW(generate(std::nan(""), 0.0), std::invalid_argument);
  EXPECT_NO_THROW(generate(1.0, 0.0));
  EXPECT_NO_THROW(generate(0.0, 1.0));
  EXPECT_NO_THROW(generate(0.25, 0.25));
}

// --- IPv6 stream ---------------------------------------------------------

net::RouteTable6 base_table6(std::size_t size = 3'000) {
  net::TableGen6Config config;
  config.size = size;
  config.seed = 709;
  return net::generate_table6(config);
}

TEST(UpdateStream6, DrawsArePinned) {
  EXPECT_EQ(stream_digest(net::generate_update_stream(
                base_table6(), pinned_config(0.25, 0.25))),
            0x07717c1316f30d9fULL);
  EXPECT_EQ(stream_digest(net::generate_update_stream(
                base_table6(50), pinned_config(0.25, 0.5))),
            0x064960d412ce5f7fULL);
}

TEST(UpdateStream6, DeterministicPerSeed) {
  const net::RouteTable6 table = base_table6();
  UpdateStreamConfig config;
  config.count = 500;
  config.seed = 3;
  EXPECT_EQ(net::generate_update_stream6(table, config),
            net::generate_update_stream6(table, config));
  config.seed = 4;
  EXPECT_NE(net::generate_update_stream6(table, UpdateStreamConfig{500, 3}),
            net::generate_update_stream6(table, config));
}

TEST(UpdateStream6, EveryUpdateAppliesCleanly) {
  net::RouteTable6 table = base_table6();
  UpdateStreamConfig config;
  config.count = 2'000;
  for (const net::TableUpdate6& update :
       net::generate_update_stream6(base_table6(), config)) {
    EXPECT_TRUE(net::apply_update(table, update));
  }
}

TEST(UpdateStream6, WithdrawalsNameLivePrefixesOnly) {
  net::RouteTable6 table = base_table6();
  UpdateStreamConfig config;
  config.count = 2'000;
  config.seed = 31;
  for (const net::TableUpdate6& update :
       net::generate_update_stream6(base_table6(), config)) {
    if (update.kind == UpdateKind::kWithdraw) {
      EXPECT_TRUE(table.find(update.prefix).has_value());
    }
    net::apply_update(table, update);
  }
}

TEST(UpdateStream6, AnnouncementsAreNewGlobalUnicastPrefixes) {
  net::RouteTable6 table = base_table6();
  UpdateStreamConfig config;
  config.count = 2'000;
  config.seed = 37;
  for (const net::TableUpdate6& update :
       net::generate_update_stream6(base_table6(), config)) {
    if (update.kind == UpdateKind::kAnnounce) {
      EXPECT_FALSE(table.find(update.prefix).has_value());
      // Inside 2000::/3, at least /16, per the v6 table generator's model.
      EXPECT_EQ(update.prefix.address().hi() >> 61, 1u);
      EXPECT_GE(update.prefix.length(), 16);
      EXPECT_LE(update.prefix.length(), net::Prefix6::kMaxLength);
    }
    net::apply_update(table, update);
  }
}

TEST(UpdateStream6, AnnouncedLengthsFollow48DominantModel) {
  UpdateStreamConfig config;
  config.count = 10'000;
  config.seed = 41;
  config.announce_fraction = 1.0;
  config.withdraw_fraction = 0.0;
  std::array<std::size_t, net::Prefix6::kMaxLength + 1> histogram{};
  for (const net::TableUpdate6& update :
       net::generate_update_stream6(base_table6(), config)) {
    ASSERT_EQ(update.kind, UpdateKind::kAnnounce);
    ++histogram[static_cast<std::size_t>(update.prefix.length())];
  }
  const std::size_t modal = static_cast<std::size_t>(
      std::max_element(histogram.begin(), histogram.end()) -
      histogram.begin());
  EXPECT_EQ(modal, 48u);
  EXPECT_GT(histogram[32], histogram[40]);  // the RIR-allocation spike
}

}  // namespace
