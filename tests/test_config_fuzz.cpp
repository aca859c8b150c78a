// Configuration-space fuzzing: random-but-deterministic router
// configurations (ψ, β, γ, associativity, line rate, FE time, trie,
// feature flags, update policy) run under full oracle verification. Each
// draw also samples the whole-router features — live route updates, fault
// injection with an outage window, replication, the memory-tier model, and
// at most one of operator migration and the rebalancer — wherever
// RouterConfig accepts them. Any interaction bug between the cache quotas,
// W-bit waiting lists, fabric timing, update handling, partitioning,
// failover and fragment migration shows up here as a mismatch, an
// unresolved packet or an exception.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "core/router_sim.h"
#include "core/router_sim6.h"
#include "net/table_gen.h"

namespace {

using namespace spal;

core::RouterConfig random_config(std::mt19937_64& rng) {
  core::RouterConfig config;
  const int psi_choices[] = {1, 2, 3, 4, 5, 6, 7, 8, 12, 16};
  config.num_lcs = psi_choices[rng() % std::size(psi_choices)];
  const std::size_t beta_choices[] = {64, 128, 256, 1024, 4096};
  config.cache.blocks = beta_choices[rng() % std::size(beta_choices)];
  const std::size_t assoc_choices[] = {1, 2, 4, 8};
  config.cache.associativity = assoc_choices[rng() % std::size(assoc_choices)];
  // Keep the set count a power of two.
  while (config.cache.blocks % config.cache.associativity != 0) {
    config.cache.blocks *= 2;
  }
  const double gamma_choices[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  config.cache.remote_fraction = gamma_choices[rng() % std::size(gamma_choices)];
  config.cache.victim_blocks = (rng() % 2) * 8;
  const cache::Replacement policies[] = {cache::Replacement::kLru,
                                         cache::Replacement::kFifo,
                                         cache::Replacement::kRandom};
  config.cache.replacement = policies[rng() % 3];
  config.line_rate_gbps = (rng() % 2) ? 40.0 : 10.0;
  config.fe_service_cycles = 20 + static_cast<int>(rng() % 60);
  config.fe_parallelism = 1 + static_cast<int>(rng() % 3);
  const trie::TrieKind kinds[] = {trie::TrieKind::kBinary, trie::TrieKind::kDp,
                                  trie::TrieKind::kLulea, trie::TrieKind::kLc,
                                  trie::TrieKind::kStride};
  config.trie = kinds[rng() % std::size(kinds)];
  config.partition = (rng() % 4) != 0;
  config.use_lr_cache = (rng() % 4) != 0;
  config.early_reservation = (rng() % 4) != 0;
  // Live route updates at the default count and seed, under either
  // invalidation policy (the block below may redraw them all).
  if (rng() % 3 == 0) {
    config.update.interval_cycles = 500 + rng() % 5'000;
    config.update_policy =
        (rng() % 2) ? core::RouterConfig::UpdatePolicy::kSelectiveInvalidate
                    : core::RouterConfig::UpdatePolicy::kFlushAll;
  }
  config.packets_per_lc = 1'500;
  config.seed = rng();
  // Live route updates at a drawn count and seed, under either policy.
  if (rng() % 2 == 0) {
    config.update.interval_cycles = 500 + rng() % 4'000;
    config.update.count = 20 + rng() % 100;
    config.update.seed = rng();
    config.update_policy =
        (rng() % 2) ? core::RouterConfig::UpdatePolicy::kSelectiveInvalidate
                    : core::RouterConfig::UpdatePolicy::kFlushAll;
  }
  // Fault injection: message drops plus one port outage window.
  if (rng() % 3 == 0) {
    config.fault.enabled = true;
    config.fault.drop_probability = 0.001 * static_cast<double>(rng() % 30);
    config.fault.seed = rng();
    const int port =
        static_cast<int>(rng() % static_cast<unsigned>(config.num_lcs));
    const std::uint64_t start = 2'000 + rng() % 20'000;
    config.fault.outages.push_back(
        fabric::OutageWindow{port, start, start + 1'000 + rng() % 20'000});
  }
  // The memory-tier model with a random SRAM budget (4 KiB .. 2 MiB).
  if (rng() % 3 == 0) {
    config.memory.enabled = true;
    config.memory.tiers = {{"sram", std::uint64_t{4'096} << (rng() % 10), 2},
                           {"dram", 0, 70}};
  }
  // Replication and fragment moves need fragments and somewhere to put
  // them: a partitioned router with ψ >= 2.
  if (config.partition && config.num_lcs >= 2) {
    const auto lcs = static_cast<unsigned>(config.num_lcs);
    if (rng() % 3 == 0) {
      config.replication.replicas = 1 + static_cast<int>(rng() % 2);
    }
    switch (rng() % 3) {
      case 0:
        config.migration.enabled = true;
        config.migration.from = static_cast<int>(rng() % lcs);
        config.migration.to = static_cast<int>(
            (static_cast<unsigned>(config.migration.from) + 1 +
             rng() % (lcs - 1)) % lcs);
        config.migration.start_cycle = rng() % 20'000;
        config.migration.chunk_prefixes = std::size_t{32} << (rng() % 5);
        config.migration.chunk_interval_cycles = 8 + rng() % 200;
        break;
      case 1:
        config.rebalancer.enabled = true;
        config.rebalancer.window_cycles = 2'000 + rng() % 6'000;
        config.rebalancer.skew_threshold =
            1.0 + 0.1 * static_cast<double>(rng() % 6);
        config.rebalancer.max_migrations = 1 + static_cast<int>(rng() % 8);
        break;
      default:
        break;
    }
  }
  return config;
}

/// The drawn knobs, for failure messages.
std::string describe(const core::RouterConfig& config) {
  std::ostringstream out;
  out << "psi=" << config.num_lcs << " beta=" << config.cache.blocks
      << " gamma=" << config.cache.remote_fraction
      << " trie=" << trie::to_string(config.trie)
      << " partition=" << config.partition
      << " updates=" << config.update.count << "@"
      << config.update.interval_cycles << " faults=" << config.fault.enabled
      << " replicas=" << config.replication.replicas
      << " memory=" << config.memory.enabled
      << " migration=" << config.migration.enabled
      << " rebalancer=" << config.rebalancer.enabled;
  return out.str();
}

trace::WorkloadProfile random_profile(std::mt19937_64& rng) {
  trace::WorkloadProfile profile;
  profile.name = "fuzz";
  profile.flows = 200 + rng() % 20'000;
  profile.zipf_alpha = 0.8 + 0.001 * static_cast<double>(rng() % 600);
  profile.burst_mean = 1.0 + 0.01 * static_cast<double>(rng() % 900);
  profile.seed = rng();
  return profile;
}

class FuzzV4Test : public ::testing::TestWithParam<int> {};

TEST_P(FuzzV4Test, RandomConfigResolvesEverythingCorrectly) {
  std::mt19937_64 rng(0xf022'0000u + static_cast<unsigned>(GetParam()));
  net::TableGenConfig table_config;
  table_config.size = 500 + rng() % 4'000;
  table_config.seed = rng();
  table_config.nested_fraction = 0.1 * static_cast<double>(rng() % 9);
  const net::RouteTable table = net::generate_table(table_config);
  const core::RouterConfig config = random_config(rng);
  core::RouterSim router(table, config);
  SCOPED_TRACE(describe(config));
  const auto result = router.run_workload(random_profile(rng), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets,
            static_cast<std::uint64_t>(config.num_lcs) * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.latency.count(), result.resolved_packets);
}

INSTANTIATE_TEST_SUITE_P(TwentyConfigs, FuzzV4Test, ::testing::Range(0, 20));
INSTANTIATE_TEST_SUITE_P(TwentyMoreConfigs, FuzzV4Test,
                         ::testing::Range(20, 40));

class FuzzV6Test : public ::testing::TestWithParam<int> {};

TEST_P(FuzzV6Test, RandomConfigResolvesEverythingCorrectly) {
  std::mt19937_64 rng(0xf066'0000u + static_cast<unsigned>(GetParam()));
  net::TableGen6Config table_config;
  table_config.size = 500 + rng() % 3'000;
  table_config.seed = rng();
  const net::RouteTable6 table = net::generate_table6(table_config);
  const core::RouterConfig config = random_config(rng);
  core::RouterSim6 router(table, config);
  SCOPED_TRACE(describe(config));
  const auto result = router.run_workload(random_profile(rng), /*verify=*/true);
  EXPECT_EQ(result.resolved_packets,
            static_cast<std::uint64_t>(config.num_lcs) * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  EXPECT_EQ(result.latency.count(), result.resolved_packets);
}

INSTANTIATE_TEST_SUITE_P(TenConfigs, FuzzV6Test, ::testing::Range(0, 10));
INSTANTIATE_TEST_SUITE_P(TenMoreConfigs, FuzzV6Test, ::testing::Range(10, 20));

}  // namespace
