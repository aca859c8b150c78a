#include "trace/trace_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "net/table_gen.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using trace::TraceGenerator;
using trace::WorkloadProfile;

net::RouteTable test_table() {
  net::TableGenConfig config;
  config.size = 5'000;
  config.seed = 101;
  return net::generate_table(config);
}

TEST(TraceGen, GeneratesRequestedCount) {
  const TraceGenerator gen(trace::profile_d75(), test_table());
  EXPECT_EQ(gen.generate(0, 1'000).size(), 1'000u);
  EXPECT_EQ(gen.generate(0, 0).size(), 0u);
}

TEST(TraceGen, DeterministicPerLc) {
  const TraceGenerator gen(trace::profile_d75(), test_table());
  EXPECT_EQ(gen.generate(3, 500), gen.generate(3, 500));
}

TEST(TraceGen, DifferentLcsGetDifferentStreams) {
  const TraceGenerator gen(trace::profile_d75(), test_table());
  EXPECT_NE(gen.generate(0, 500), gen.generate(1, 500));
}

TEST(TraceGen, SharedFlowPopulationAcrossLcs) {
  // Hot destinations recur across LCs — the property SPAL's remote-result
  // caching depends on.
  const TraceGenerator gen(trace::profile_d75(), test_table());
  const auto a = gen.generate(0, 5'000);
  const auto b = gen.generate(1, 5'000);
  std::set<std::uint32_t> set_a;
  for (const auto addr : a) set_a.insert(addr.value());
  std::size_t shared = 0;
  for (const auto addr : b) {
    if (set_a.count(addr.value()) > 0) ++shared;
  }
  EXPECT_GT(static_cast<double>(shared), 0.3 * static_cast<double>(b.size()));
}

TEST(TraceGen, EveryDestinationMatchesTheTable) {
  const net::RouteTable table = test_table();
  const trie::BinaryTrie oracle(table);
  const TraceGenerator gen(trace::profile_l92_0(), table);
  for (const auto addr : gen.generate(0, 2'000)) {
    EXPECT_NE(oracle.lookup(addr), net::kNoRoute) << addr.to_string();
  }
}

TEST(TraceGen, BurstinessProducesRepeats) {
  WorkloadProfile profile = trace::profile_d75();
  profile.burst_mean = 8.0;
  const TraceGenerator gen(profile, test_table());
  const auto stream = gen.generate(0, 10'000);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    if (stream[i] == stream[i - 1]) ++repeats;
  }
  // Mean train length 8 => ~7/8 of packets repeat the previous destination.
  EXPECT_GT(static_cast<double>(repeats), 0.8 * static_cast<double>(stream.size()));
}

TEST(TraceGen, BurstMeanOneNeverForcesRepeatStructure) {
  WorkloadProfile profile = trace::profile_d75();
  profile.burst_mean = 1.0;
  const TraceGenerator gen(profile, test_table());
  const auto stream = gen.generate(0, 10'000);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    if (stream[i] == stream[i - 1]) ++repeats;
  }
  // Repeats now only happen via Zipf re-draws of hot flows.
  EXPECT_LT(static_cast<double>(repeats), 0.5 * static_cast<double>(stream.size()));
}

TEST(TraceGen, ZipfHeadCarriesTraffic) {
  // The Estan-Varghese-style skew the paper cites: a small fraction of
  // flows carries a large fraction of packets.
  const TraceGenerator gen(trace::profile_d75(), test_table());
  const auto stats = trace::analyze_trace(gen.generate(0, 100'000));
  const std::size_t head = std::max<std::size_t>(1, stats.distinct / 10);
  EXPECT_GT(stats.concentration(head), 0.6);
}

TEST(TraceGen, EmptyTableYieldsEmptyStream) {
  const TraceGenerator gen(trace::profile_d75(), net::RouteTable{});
  EXPECT_TRUE(gen.generate(0, 100).empty());
}

TEST(TraceGen, AllProfilesAreDistinctAndNamed) {
  const auto profiles = trace::all_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  EXPECT_EQ(profiles[0].name, "D_75");
  EXPECT_EQ(profiles[1].name, "D_81");
  EXPECT_EQ(profiles[2].name, "L_92-0");
  EXPECT_EQ(profiles[3].name, "L_92-1");
  EXPECT_EQ(profiles[4].name, "B_L");
  std::set<std::uint64_t> seeds;
  for (const auto& p : profiles) seeds.insert(p.seed);
  EXPECT_EQ(seeds.size(), 5u);
}

// The stream shapes and prefix_weights() over both address families.
net::RouteTable family_table(net::Ipv4Addr) {
  net::TableGenConfig config;
  config.size = 5'000;
  config.seed = 3;
  return net::generate_table(config);
}
net::RouteTable6 family_table(net::Ipv6Addr) {
  net::TableGen6Config config;
  config.size = 5'000;
  config.seed = 3;
  return net::generate_table6(config);
}

template <typename Addr>
class TraceGenFamily : public ::testing::Test {};

struct FamilyName {
  template <typename Addr>
  static std::string GetName(int) {
    return Addr::kBits == 32 ? "V4" : "V6";
  }
};

using Families = ::testing::Types<net::Ipv4Addr, net::Ipv6Addr>;
TYPED_TEST_SUITE(TraceGenFamily, Families, FamilyName);

TYPED_TEST(TraceGenFamily, ScanSweepsTheFlowPopulation) {
  WorkloadProfile profile = trace::profile_scan();
  profile.flows = 2'000;
  const trace::BasicTraceGenerator<TypeParam> gen(profile,
                                                  family_table(TypeParam{}));
  const auto stream = gen.generate(1, 5'000);
  ASSERT_EQ(stream.size(), 5'000u);
  for (std::size_t i = profile.flows; i < stream.size(); ++i) {
    ASSERT_EQ(stream[i], stream[i - profile.flows]) << i;
  }
  // One period visits every flow once: (nearly) all distinct, where a
  // stationary stream over the same population repeats its hot head.
  const std::set<TypeParam> period(stream.begin(),
                                   stream.begin() + profile.flows);
  EXPECT_GT(period.size(), profile.flows * 95 / 100);
}

TYPED_TEST(TraceGenFamily, FlashCrowdConcentratesOnTheHotSet) {
  const WorkloadProfile profile = trace::profile_flash_crowd();
  const trace::BasicTraceGenerator<TypeParam> gen(profile,
                                                  family_table(TypeParam{}));
  const std::size_t count = 20'000;
  const auto stream = gen.generate(1, count);
  const auto onset =
      static_cast<std::ptrdiff_t>(profile.flash_start * static_cast<double>(count));
  // Share of a stretch carried by its `flash_flows` most frequent addresses.
  const auto head_share = [&](auto first, auto last) {
    std::map<TypeParam, std::size_t> counts;
    for (auto it = first; it != last; ++it) ++counts[*it];
    std::vector<std::size_t> sorted;
    for (const auto& [addr, n] : counts) sorted.push_back(n);
    std::sort(sorted.rbegin(), sorted.rend());
    const std::size_t head = std::min(profile.flash_flows, sorted.size());
    return static_cast<double>(std::accumulate(
               sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(head),
               std::size_t{0})) /
           static_cast<double>(last - first);
  };
  // Before onset the hot set carries only its Zipf mass (about 0.19 here);
  // after it, flash_share plus that mass of the rest (0.666 on IPv4).
  EXPECT_LT(head_share(stream.begin(), stream.begin() + onset), 0.3);
  const double after = head_share(stream.begin() + onset, stream.end());
  EXPECT_GT(after, profile.flash_share - 0.05);
  EXPECT_LT(after, 0.8);
}

TYPED_TEST(TraceGenFamily, PrefixWeightsParallelTheTableAndSumToOne) {
  const auto table = family_table(TypeParam{});
  const trace::BasicTraceGenerator<TypeParam> gen(trace::profile_d75(), table);
  const std::vector<double> weights = gen.prefix_weights();
  ASSERT_EQ(weights.size(), table.size());
  EXPECT_NEAR(std::accumulate(weights.begin(), weights.end(), 0.0), 1.0, 1e-12);
  for (const double w : weights) EXPECT_GE(w, 0.0);

  const trace::BasicTraceGenerator<TypeParam> empty(
      trace::profile_d75(), net::BasicRouteTable<TypeParam>{});
  EXPECT_TRUE(empty.prefix_weights().empty());
  EXPECT_EQ(empty.flow_count(), 0u);
}

TEST(AnalyzeTrace, CountsDistinctAndMass) {
  std::vector<net::Ipv4Addr> stream;
  for (int i = 0; i < 90; ++i) stream.emplace_back(1u);
  for (int i = 0; i < 10; ++i) stream.emplace_back(static_cast<std::uint32_t>(100 + i));
  const auto stats = trace::analyze_trace(stream);
  EXPECT_EQ(stats.packets, 100u);
  EXPECT_EQ(stats.distinct, 11u);
  EXPECT_DOUBLE_EQ(stats.concentration(1), 0.9);
  EXPECT_DOUBLE_EQ(stats.concentration(11), 1.0);
  EXPECT_DOUBLE_EQ(stats.concentration(999), 1.0);
}

TEST(AnalyzeTrace, EmptyStream) {
  const auto stats = trace::analyze_trace({});
  EXPECT_EQ(stats.packets, 0u);
  EXPECT_EQ(stats.distinct, 0u);
}

}  // namespace
