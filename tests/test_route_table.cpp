#include "net/route_table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using spal::net::Ipv4Addr;
using spal::net::kNoRoute;
using spal::net::Prefix;
using spal::net::RouteEntry;
using spal::net::RouteTable;

Prefix p(const char* text) { return *Prefix::parse(text); }

TEST(RouteTable, StartsEmpty) {
  const RouteTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
}

TEST(RouteTable, AddAndFind) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 3);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(p("10.0.0.0/8")), std::optional<spal::net::NextHop>(3));
  EXPECT_FALSE(table.find(p("10.0.0.0/9")).has_value());
}

TEST(RouteTable, AddReplacesExisting) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 3);
  table.add(p("10.0.0.0/8"), 7);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(*table.find(p("10.0.0.0/8")), 7u);
}

TEST(RouteTable, ConstructorDeduplicatesLastWins) {
  const RouteTable table({{p("10.0.0.0/8"), 1},
                          {p("10.0.0.0/8"), 2},
                          {p("192.0.2.0/24"), 3}});
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(*table.find(p("10.0.0.0/8")), 2u);
}

TEST(RouteTable, EntriesSortedByBitsThenLength) {
  const RouteTable table({{p("192.0.2.0/24"), 1},
                          {p("10.0.0.0/8"), 2},
                          {p("10.0.0.0/16"), 3}});
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].prefix, p("10.0.0.0/8"));
  EXPECT_EQ(entries[1].prefix, p("10.0.0.0/16"));
  EXPECT_EQ(entries[2].prefix, p("192.0.2.0/24"));
}

TEST(RouteTable, RemovePresentAndAbsent) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 1);
  EXPECT_FALSE(table.remove(p("10.0.0.0/9")));
  EXPECT_TRUE(table.remove(p("10.0.0.0/8")));
  EXPECT_FALSE(table.remove(p("10.0.0.0/8")));
  EXPECT_TRUE(table.empty());
}

TEST(RouteTable, LookupLinearLongestWins) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 1);
  table.add(p("10.1.0.0/16"), 2);
  table.add(p("10.1.2.0/24"), 3);
  EXPECT_EQ(table.lookup_linear(Ipv4Addr{0x0A010203u}), 3u);
  EXPECT_EQ(table.lookup_linear(Ipv4Addr{0x0A01FF00u}), 2u);
  EXPECT_EQ(table.lookup_linear(Ipv4Addr{0x0AFF0000u}), 1u);
  EXPECT_EQ(table.lookup_linear(Ipv4Addr{0x0B000000u}), kNoRoute);
}

TEST(RouteTable, LookupLinearDefaultRouteCatchesAll) {
  RouteTable table;
  table.add(p("0.0.0.0/0"), 9);
  table.add(p("10.0.0.0/8"), 1);
  EXPECT_EQ(table.lookup_linear(Ipv4Addr{0x0A000001u}), 1u);
  EXPECT_EQ(table.lookup_linear(Ipv4Addr{0xC0000001u}), 9u);
}

TEST(RouteTable, LookupLinearEmptyTable) {
  EXPECT_EQ(RouteTable{}.lookup_linear(Ipv4Addr{42u}), kNoRoute);
}

TEST(RouteTable, LengthHistogram) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 1);
  table.add(p("10.1.0.0/16"), 2);
  table.add(p("10.2.0.0/16"), 3);
  table.add(p("1.2.3.4/32"), 4);
  const auto hist = table.length_histogram();
  EXPECT_EQ(hist[8], 1u);
  EXPECT_EQ(hist[16], 2u);
  EXPECT_EQ(hist[32], 1u);
  EXPECT_EQ(hist[24], 0u);
}

TEST(RouteTable, CountLengthAtMost) {
  RouteTable table;
  table.add(p("10.0.0.0/8"), 1);
  table.add(p("10.1.0.0/16"), 2);
  table.add(p("1.2.3.4/32"), 3);
  EXPECT_EQ(table.count_length_at_most(8), 1u);
  EXPECT_EQ(table.count_length_at_most(24), 2u);
  EXPECT_EQ(table.count_length_at_most(32), 3u);
  EXPECT_EQ(table.count_length_at_most(0), 0u);
}

TEST(RouteTable, SaveLoadRoundTrip) {
  RouteTable table;
  table.add(p("0.0.0.0/0"), 0);
  table.add(p("10.0.0.0/8"), 1);
  table.add(p("192.0.2.0/24"), 2);
  table.add(p("1.2.3.4/32"), 3);
  std::stringstream stream;
  table.save(stream);
  const auto loaded = RouteTable::load(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, table);
}

TEST(RouteTable, LoadSkipsCommentsAndBlankLines) {
  std::stringstream stream("# comment\n\n10.0.0.0/8 5\n");
  const auto loaded = RouteTable::load(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(*loaded->find(p("10.0.0.0/8")), 5u);
}

TEST(RouteTable, LoadRejectsMalformedLines) {
  std::stringstream bad_prefix("10.0.0/8 5\n");
  EXPECT_FALSE(RouteTable::load(bad_prefix).has_value());
  std::stringstream missing_hop("10.0.0.0/8\n");
  EXPECT_FALSE(RouteTable::load(missing_hop).has_value());
  // A negative hop must not wrap around to kNoRoute (or next to it), the
  // sentinel itself is no next hop, and a line has exactly two fields.
  for (const char* line : {"10.0.0.0/8 -1 junk\n", "10.1.0.0/16 -5\n",
                           "10.0.0.0/8 4294967295\n", "10.0.0.0/8 5 junk\n",
                           "10.0.0.0/8 5x\n", "10.0.0.0/8 4294967296\n"}) {
    std::stringstream bad(line);
    EXPECT_FALSE(RouteTable::load(bad).has_value()) << line;
  }
  std::stringstream top_hop("10.0.0.0/8 4294967294\n");
  const auto loaded = RouteTable::load(top_hop);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->find(p("10.0.0.0/8")), 4'294'967'294u);
}

TEST(RouteTable, EqualityComparesContents) {
  RouteTable a, b;
  a.add(p("10.0.0.0/8"), 1);
  b.add(p("10.0.0.0/8"), 1);
  EXPECT_EQ(a, b);
  b.add(p("192.0.2.0/24"), 2);
  EXPECT_NE(a, b);
}

}  // namespace
