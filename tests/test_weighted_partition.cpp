// Property suite for the traffic-aware partitioner (partition/weighted.h):
//   (a) uniform / zero / empty weight vectors reproduce the count-balanced
//       partition bit-for-bit (same control bits, same group→LC map, same
//       fragment contents) — the weighted path is a strict superset;
//   (b) well-formedness under random weight vectors: every prefix lives in
//       exactly its home fragments, fragment sizes conserve replica counts,
//       and home-LC LPM agrees with the full-table oracle;
//   (c) the weighted assignment's max per-LC expected load never exceeds
//       the count-balanced assignment's under skewed (Zipf) weights, fuzzed
//       across ψ ∈ {4, 8, 16} up to make_rt_internet(100k) — and expected
//       loads conserve total weight (the partition_balance rule).
#include "partition/weighted.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "net/prefix6.h"
#include "net/table_gen.h"
#include "partition/rot_partition.h"
#include "trie/binary_trie.h"

namespace {

using namespace spal;
using net::RouteTable;
using net::RouteTable6;
using partition::Partition6Config;
using partition::PartitionConfig;
using partition::RotPartition;
using partition::RotPartition6;

RouteTable test_table(std::size_t size, std::uint64_t seed) {
  net::TableGenConfig config;
  config.size = size;
  config.seed = seed;
  return net::generate_table(config);
}

std::vector<int> to_vec(std::span<const int> s) {
  return std::vector<int>(s.begin(), s.end());
}

/// Zipf(alpha) mass assigned to entries in a random order — the skewed
/// weight shape TraceGenerator::prefix_weights() produces in practice.
std::vector<double> zipf_weights(std::size_t n, double alpha,
                                 std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> weights(n, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const double w = 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    weights[order[r]] = w;
    total += w;
  }
  for (double& w : weights) w /= total;
  return weights;
}

std::vector<double> random_weights(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> weights(n);
  for (double& w : weights) w = unit(rng);
  return weights;
}

double sum(std::span<const double> v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double max_of(std::span<const double> v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, x);
  return m;
}

// --- (a) uniform weights are the count-balanced degenerate case ---

TEST(WeightedPartition, UniformWeightsReproduceCountBalancedV4) {
  const RouteTable table = test_table(5'000, 42);
  for (const int psi : {4, 8, 16}) {
    const RotPartition base(table, psi);
    const std::vector<std::vector<double>> degenerate = {
        {},                                        // empty
        std::vector<double>(table.size(), 1.0),    // uniform
        std::vector<double>(table.size(), 0.0),    // all-zero
        std::vector<double>(table.size(), 0.37),   // uniform, non-unit
    };
    for (const auto& weights : degenerate) {
      PartitionConfig config;
      config.weights = weights;
      const RotPartition weighted(table, psi, config);
      EXPECT_EQ(to_vec(weighted.control_bits()), to_vec(base.control_bits()))
          << "psi=" << psi;
      EXPECT_EQ(to_vec(weighted.group_to_lc()), to_vec(base.group_to_lc()))
          << "psi=" << psi;
      for (int lc = 0; lc < psi; ++lc) {
        EXPECT_EQ(weighted.table_of(lc), base.table_of(lc))
            << "psi=" << psi << " lc=" << lc;
      }
    }
  }
}

TEST(WeightedPartition, UniformWeightsReproduceCountBalancedV6) {
  const RouteTable6 table = net::make_rt6_internet(4'000);
  for (const int psi : {4, 8, 16}) {
    const RotPartition6 base(table, psi);
    for (const auto& weights :
         {std::vector<double>{}, std::vector<double>(table.size(), 2.5)}) {
      Partition6Config config;
      config.weights = weights;
      const RotPartition6 weighted(table, psi, config);
      EXPECT_EQ(to_vec(weighted.control_bits()), to_vec(base.control_bits()))
          << "psi=" << psi;
      EXPECT_EQ(to_vec(weighted.group_to_lc()), to_vec(base.group_to_lc()))
          << "psi=" << psi;
      for (int lc = 0; lc < psi; ++lc) {
        EXPECT_EQ(weighted.table_of(lc), base.table_of(lc))
            << "psi=" << psi << " lc=" << lc;
      }
    }
  }
}

// --- (b) well-formedness under arbitrary weight vectors ---

TEST(WeightedPartition, RandomWeightsKeepPartitionWellFormedV4) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const RouteTable table = test_table(3'000, 907 + seed);
    const std::vector<double> weights = random_weights(table.size(), seed);
    for (const int psi : {4, 8, 16}) {
      PartitionConfig config;
      config.weights = weights;
      const RotPartition rot(table, psi, config);

      // η control bits cover all 2^η groups; every group maps to a valid LC.
      const std::size_t eta = rot.control_bits().size();
      ASSERT_EQ(std::size_t{1} << eta, rot.group_to_lc().size());
      for (const int lc : rot.group_to_lc()) {
        EXPECT_GE(lc, 0);
        EXPECT_LT(lc, psi);
      }

      // Each prefix lives in exactly its home fragments, nowhere else, with
      // its next hop intact; fragment sizes conserve the replica count.
      std::size_t total_replicas = 0;
      for (const auto& entry : table.entries()) {
        const std::vector<int> homes = rot.homes_of(entry.prefix);
        ASSERT_FALSE(homes.empty());
        total_replicas += homes.size();
        for (int lc = 0; lc < psi; ++lc) {
          const bool is_home =
              std::find(homes.begin(), homes.end(), lc) != homes.end();
          const auto found = rot.table_of(lc).find(entry.prefix);
          EXPECT_EQ(found.has_value(), is_home)
              << "psi=" << psi << " lc=" << lc;
          if (found) {
            EXPECT_EQ(*found, entry.next_hop);
          }
        }
      }
      const auto sizes = rot.partition_sizes();
      EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
                total_replicas);

      // Home-LC LPM matches the full-table oracle for random addresses.
      const trie::BinaryTrie oracle(table);
      std::vector<trie::BinaryTrie> fragments;
      fragments.reserve(static_cast<std::size_t>(psi));
      for (int lc = 0; lc < psi; ++lc) fragments.emplace_back(rot.table_of(lc));
      std::mt19937_64 rng(0xabcd0000 + seed);
      std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
      for (int i = 0; i < 2'000; ++i) {
        const auto& prefix = table.entries()[pick(rng)].prefix;
        const net::Ipv4Addr addr = net::random_address_in(prefix, rng);
        const int home = rot.home_of(addr);
        ASSERT_GE(home, 0);
        ASSERT_LT(home, psi);
        EXPECT_EQ(fragments[static_cast<std::size_t>(home)].lookup(addr),
                  oracle.lookup(addr));
      }
    }
  }
}

TEST(WeightedPartition, RandomWeightsKeepPartitionWellFormedV6) {
  const RouteTable6 table = net::make_rt6_internet(2'000);
  const std::vector<double> weights = random_weights(table.size(), 7);
  for (const int psi : {4, 16}) {
    Partition6Config config;
    config.weights = weights;
    const RotPartition6 rot(table, psi, config);

    for (const auto& entry : table.entries()) {
      const std::vector<int> homes = rot.homes_of(entry.prefix);
      ASSERT_FALSE(homes.empty());
      for (int lc = 0; lc < psi; ++lc) {
        const bool is_home =
            std::find(homes.begin(), homes.end(), lc) != homes.end();
        EXPECT_EQ(rot.table_of(lc).find(entry.prefix).has_value(), is_home)
            << "psi=" << psi << " lc=" << lc;
      }
    }

    const trie::BinaryTrie6 oracle(table);
    std::vector<trie::BinaryTrie6> fragments;
    fragments.reserve(static_cast<std::size_t>(psi));
    for (int lc = 0; lc < psi; ++lc) fragments.emplace_back(rot.table_of(lc));
    std::mt19937_64 rng(0x6666);
    std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
    for (int i = 0; i < 1'000; ++i) {
      const auto& prefix = table.entries()[pick(rng)].prefix;
      const net::Ipv6Addr addr = net::random_address_in6(prefix, rng);
      const int home = rot.home_of(addr);
      ASSERT_GE(home, 0);
      ASSERT_LT(home, psi);
      EXPECT_EQ(fragments[static_cast<std::size_t>(home)].lookup(addr),
                oracle.lookup(addr));
    }
  }
}

// --- (c) weighted max expected load never exceeds count-balanced ---

void expect_weighted_no_worse(const RouteTable& table,
                              std::span<const double> weights, int psi) {
  const RotPartition count_balanced(table, psi);
  PartitionConfig config;
  config.weights.assign(weights.begin(), weights.end());
  const RotPartition weighted(table, psi, config);

  const std::vector<double> loads_cb =
      partition::expected_loads(count_balanced, table, weights);
  const std::vector<double> loads_w =
      partition::expected_loads(weighted, table, weights);

  // Conservation: Σ per-LC expected loads == total trace weight (the
  // partition_balance rule spal_report --check enforces).
  const double total = sum(weights);
  EXPECT_NEAR(sum(loads_cb), total, 1e-9 * std::max(1.0, total));
  EXPECT_NEAR(sum(loads_w), total, 1e-9 * std::max(1.0, total));

  EXPECT_LE(max_of(loads_w), max_of(loads_cb) + 1e-9 * std::max(1.0, total))
      << "psi=" << psi << " table=" << table.size();
}

TEST(WeightedPartition, SkewedWeightsNeverWorseThanCountBalancedV4) {
  for (const std::uint64_t seed : {21u, 22u}) {
    for (const std::size_t size : {2'000u, 20'000u}) {
      const RouteTable table = test_table(size, 500 + seed);
      const std::vector<double> weights =
          zipf_weights(table.size(), 1.0, seed);
      for (const int psi : {4, 8, 16}) {
        expect_weighted_no_worse(table, weights, psi);
      }
    }
  }
}

TEST(WeightedPartition, SkewedWeightsNeverWorseInternet100k) {
  const RouteTable table = net::make_rt_internet(100'000);
  const std::vector<double> weights = zipf_weights(table.size(), 1.0, 99);
  for (const int psi : {4, 8, 16}) {
    expect_weighted_no_worse(table, weights, psi);
  }
}

TEST(WeightedPartition, SkewedWeightsNeverWorseThanCountBalancedV6) {
  const RouteTable6 table = net::make_rt6_internet(20'000);
  const std::vector<double> weights = zipf_weights(table.size(), 1.0, 17);
  for (const int psi : {4, 8, 16}) {
    const RotPartition6 count_balanced(table, psi);
    Partition6Config config;
    config.weights = weights;
    const RotPartition6 weighted(table, psi, config);

    const std::vector<double> loads_cb =
        partition::expected_loads(count_balanced, table, weights);
    const std::vector<double> loads_w =
        partition::expected_loads(weighted, table, weights);

    const double total = sum(weights);
    EXPECT_NEAR(sum(loads_cb), total, 1e-9);
    EXPECT_NEAR(sum(loads_w), total, 1e-9);
    EXPECT_LE(max_of(loads_w), max_of(loads_cb) + 1e-9) << "psi=" << psi;
  }
}

// --- fairness helpers behave at the boundaries ---

TEST(WeightedPartition, FairnessHelpers) {
  const std::vector<double> balanced = {1.0, 1.0, 1.0, 1.0};
  EXPECT_NEAR(partition::jain_fairness(balanced), 1.0, 1e-12);
  EXPECT_NEAR(partition::max_share(balanced), 0.25, 1e-12);

  const std::vector<double> pinned = {4.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(partition::jain_fairness(pinned), 0.25, 1e-12);
  EXPECT_NEAR(partition::max_share(pinned), 1.0, 1e-12);

  EXPECT_EQ(partition::jain_fairness(std::vector<double>{}), 1.0);
  EXPECT_EQ(partition::max_share(std::vector<double>{}), 0.0);
  EXPECT_TRUE(partition::uniform_weights(std::vector<double>{}));
  EXPECT_TRUE(partition::uniform_weights(std::vector<double>{2.0, 2.0}));
  EXPECT_FALSE(partition::uniform_weights(std::vector<double>{2.0, 1.0}));
}

}  // namespace
