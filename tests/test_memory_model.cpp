// Tests for the CRAM-lens memory-tier cost model: paper calibration (the
// flat 40/62-cycle constants fall out of the default tiers), spill
// placement, charge conservation, and the router integration that feeds
// the per-tier ledger audited by `spal_report --check`.
#include "core/memory_model.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "core/router_sim.h"
#include "net/table_gen.h"
#include "trie/dp_trie.h"
#include "trie/lulea_trie.h"

namespace {

using namespace spal;
using core::MemoryCounters;
using core::MemoryModel;
using core::MemoryModelConfig;
using core::MemoryTier;

net::RouteTable paper_table() {
  net::TableGenConfig config;
  config.size = 3'000;
  config.seed = 701;
  return net::generate_table(config);
}

// --- Calibration: default tiers on a paper-sized table ---

// With the whole structure resident in the 2-cycle first tier, the model
// prices a lookup at 24 + 2 * accesses — the paper's flat constants for
// the observed access counts (~8 for Lulea => ~40, ~19 for DP => ~62).
TEST(MemoryModel, DefaultTiersReproducePaperConstants) {
  const net::RouteTable table = paper_table();
  const trie::LuleaTrie lulea(table);
  const trie::DpTrie dp(table);
  const MemoryModelConfig config;  // defaults: sram 2 MiB @ 2 cycles first
  const MemoryModel lulea_model(config, lulea.arenas());
  const MemoryModel dp_model(config, dp.arenas());
  // A paper-sized table fits the first tier entirely.
  for (const auto& p : lulea_model.placements()) EXPECT_EQ(p.tier, 0u);
  for (const auto& p : dp_model.placements()) EXPECT_EQ(p.tier, 0u);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 1'000; ++i) {
    const net::Ipv4Addr addr{static_cast<std::uint32_t>(rng())};
    trie::MemAccessCounter lc, dc;
    (void)lulea.lookup_counted(addr, lc);
    (void)dp.lookup_counted(addr, dc);
    EXPECT_EQ(lulea_model.lookup_cycles(lc), 24 + 2 * lc.total());
    EXPECT_EQ(dp_model.lookup_cycles(dc), 24 + 2 * dc.total());
  }
}

TEST(MemoryModel, DefaultTierTableMatchesDocumentedHierarchy) {
  const auto tiers = MemoryModelConfig::default_tiers();
  ASSERT_EQ(tiers.size(), 4u);
  EXPECT_EQ(tiers[0].name, "sram");
  EXPECT_EQ(tiers[0].capacity_bytes, std::uint64_t{2} << 20);
  EXPECT_EQ(tiers[0].access_cycles, 2u);
  EXPECT_EQ(tiers[1].name, "l2");
  EXPECT_EQ(tiers[2].name, "llc");
  EXPECT_EQ(tiers[3].name, "dram");
  EXPECT_EQ(tiers[3].capacity_bytes, 0u);  // unbounded backing tier
  EXPECT_EQ(tiers[3].access_cycles, 70u);
}

// --- Placement: arenas pack whole, hottest first, by cumulative offset ---

TEST(MemoryModel, ArenasSpillByCumulativeEndOffset) {
  MemoryModelConfig config;
  config.enabled = true;
  config.tiers = {{"fast", 100, 1}, {"slow", 0, 10}};
  const std::vector<trie::ArenaSpan> arenas = {{"hot", 60}, {"cold", 60}};
  const MemoryModel model(config, arenas);
  ASSERT_EQ(model.placements().size(), 2u);
  // "hot" ends at offset 60 <= 100: resident. "cold" would end at 120:
  // the whole arena spills (arenas are never split across tiers).
  EXPECT_EQ(model.placements()[0].tier, 0u);
  EXPECT_EQ(model.placements()[1].tier, 1u);
  EXPECT_EQ(model.placed_bytes(), 120u);
}

TEST(MemoryModel, SpilledArenaChargesSlowTierCycles) {
  MemoryModelConfig config;
  config.matching_overhead_cycles = 5;
  config.tiers = {{"fast", 100, 1}, {"slow", 0, 10}};
  const std::vector<trie::ArenaSpan> arenas = {{"hot", 60}, {"cold", 60}};
  const MemoryModel model(config, arenas);
  trie::MemAccessCounter counter;
  counter.record_arena(0, 3);  // resident arena
  counter.record_arena(1, 2);  // spilled arena
  EXPECT_EQ(model.lookup_cycles(counter), 5u + 3u * 1u + 2u * 10u);
}

TEST(MemoryModel, ChargeAccumulatesPerTierCounters) {
  MemoryModelConfig config;
  config.matching_overhead_cycles = 5;
  config.tiers = {{"fast", 100, 1}, {"slow", 0, 10}};
  const MemoryModel model(config, {{"hot", 60}, {"cold", 60}});
  MemoryCounters out;
  trie::MemAccessCounter counter;
  counter.record_arena(0, 3);
  counter.record_arena(1, 2);
  const std::uint64_t first = model.charge(counter, out);
  const std::uint64_t second = model.charge(counter, out);
  EXPECT_EQ(first, second);
  EXPECT_EQ(out.lookups, 2u);
  EXPECT_EQ(out.tier_accesses[0], 6u);
  EXPECT_EQ(out.tier_accesses[1], 4u);
  EXPECT_EQ(out.tier_cycles[0], 6u);
  EXPECT_EQ(out.tier_cycles[1], 40u);
  // Conservation: charged == lookups * overhead + per-tier cycles.
  EXPECT_EQ(out.charged_cycles,
            out.lookups * 5u + out.tier_cycles[0] + out.tier_cycles[1]);
}

TEST(MemoryModel, RejectsEmptyAndOversizedTierLists) {
  const std::vector<trie::ArenaSpan> arenas = {{"a", 16}};
  MemoryModelConfig empty;
  empty.tiers.clear();
  EXPECT_THROW(MemoryModel(empty, arenas), std::invalid_argument);
  MemoryModelConfig oversized;
  oversized.tiers.assign(core::kMaxMemoryTiers + 1, {"t", 0, 1});
  EXPECT_THROW(MemoryModel(oversized, arenas), std::invalid_argument);
}

// --- Router integration: the ledger spal_report audits ---

TEST(MemoryModelRouter, EnabledRunKeepsConservationLedger) {
  const net::RouteTable table = paper_table();
  core::RouterConfig config = core::spal_default_config(4);
  config.packets_per_lc = 2'000;
  config.memory.enabled = true;
  core::RouterSim router(table, config);
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 1'000;
  const core::RouterResult result =
      router.run_workload(profile, /*verify=*/true);
  EXPECT_EQ(result.verify_mismatches, 0u);
  const core::MemoryStats& mem = result.memory;
  ASSERT_TRUE(mem.enabled);
  EXPECT_EQ(mem.lookups, result.fe_lookups);
  EXPECT_EQ(mem.matching_cycles, mem.lookups * mem.matching_overhead_cycles);
  std::uint64_t tier_cycles = 0, placed = 0;
  for (const auto& tier : mem.tiers) {
    tier_cycles += tier.cycles;
    placed += tier.placed_bytes;
  }
  EXPECT_EQ(mem.charged_cycles, mem.matching_cycles + tier_cycles);
  EXPECT_EQ(placed, mem.storage_bytes);
  std::uint64_t busy = 0;
  for (const auto& lc : result.per_lc) busy += lc.fe_busy_cycles;
  EXPECT_EQ(busy, mem.charged_cycles + result.update.update_cost_cycles);
  EXPECT_NE(result.to_json().find("\"memory\""), std::string::npos);
}

// Non-home structures — replica copies, a migration's staged structure,
// rebalancer-hosted fragments — pack into their LC's hierarchy behind the
// bytes already resident there. On RT_2 at ψ = 8 with a 1 MiB SRAM tier
// the own FEs fill SRAM and every non-home structure lands in l2, so a
// change to the placement order moves bytes (and priced accesses) between
// tiers. The figures below pin that order for the three features that
// create non-home structures.
struct TierFigures {
  std::uint64_t placed_bytes;
  std::uint64_t placed_arenas;
  std::uint64_t accesses;
  std::uint64_t cycles;
};

core::RouterConfig non_home_config() {
  core::RouterConfig config = core::spal_default_config(8);
  config.trie = trie::TrieKind::kDp;
  config.packets_per_lc = 5'000;
  config.memory.enabled = true;
  config.memory.tiers = {{"sram", std::uint64_t{1} << 20, 2},
                         {"l2", std::uint64_t{2} << 20, 8},
                         {"dram", 0, 70}};
  config.update.interval_cycles = 200;
  config.update.count = 250;
  config.update_policy = core::RouterConfig::UpdatePolicy::kSelectiveInvalidate;
  return config;
}

void expect_placement(const core::RouterConfig& config,
                      const trace::WorkloadProfile& profile,
                      const std::vector<TierFigures>& expected) {
  static const net::RouteTable table = net::make_rt2();
  core::RouterSim router(table, config);
  const core::RouterResult result =
      router.run_workload(profile, /*verify=*/true);
  EXPECT_EQ(result.resolved_packets,
            static_cast<std::uint64_t>(config.num_lcs) * config.packets_per_lc);
  EXPECT_EQ(result.verify_mismatches, 0u);
  const core::MemoryStats& mem = result.memory;
  ASSERT_TRUE(mem.enabled);
  EXPECT_EQ(mem.lookups, result.fe_lookups);
  EXPECT_EQ(mem.matching_cycles, mem.lookups * mem.matching_overhead_cycles);
  std::uint64_t tier_cycles = 0, placed = 0;
  for (const auto& tier : mem.tiers) {
    tier_cycles += tier.cycles;
    placed += tier.placed_bytes;
  }
  EXPECT_EQ(mem.charged_cycles, mem.matching_cycles + tier_cycles);
  EXPECT_EQ(placed, mem.storage_bytes);
  std::uint64_t busy = 0;
  for (const auto& lc : result.per_lc) busy += lc.fe_busy_cycles;
  EXPECT_EQ(busy, mem.charged_cycles + result.update.update_cost_cycles);
  ASSERT_EQ(mem.tiers.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    SCOPED_TRACE(mem.tiers[t].name);
    EXPECT_EQ(mem.tiers[t].placed_bytes, expected[t].placed_bytes);
    EXPECT_EQ(mem.tiers[t].placed_arenas, expected[t].placed_arenas);
    EXPECT_EQ(mem.tiers[t].accesses, expected[t].accesses);
    EXPECT_EQ(mem.tiers[t].cycles, expected[t].cycles);
  }
}

TEST(MemoryModelRouter, ReplicaCopiesPackBehindTheOwnFe) {
  core::RouterConfig config = non_home_config();
  config.replication.replicas = 1;
  config.fault.enabled = true;
  config.fault.outages.push_back(fabric::OutageWindow{1, 10'000, 30'000});
  expect_placement(config, trace::profile_d75(),
                   {{4'969'020, 8, 21'020, 42'040},
                    {4'969'020, 8, 4'167, 33'336},
                    {0, 0, 0, 0}});
}

TEST(MemoryModelRouter, StagedMigrationPacksBehindTheTargetsResidents) {
  core::RouterConfig config = non_home_config();
  config.migration.enabled = true;
  config.migration.from = 1;
  config.migration.to = 2;
  config.migration.start_cycle = 3'000;
  config.migration.chunk_interval_cycles = 50;
  expect_placement(config, trace::profile_d75(),
                   {{4'969'104, 8, 20'400, 40'800},
                    {634'032, 1, 2'356, 18'848},
                    {0, 0, 0, 0}});
}

TEST(MemoryModelRouter, HostedFragmentsPackBehindTheHostsResidents) {
  core::RouterConfig config = non_home_config();
  config.rebalancer.enabled = true;
  config.rebalancer.window_cycles = 6'000;
  config.rebalancer.skew_threshold = 1.1;
  config.rebalancer.max_migrations = 8;
  expect_placement(config, trace::profile_zipf1(),
                   {{4'969'146, 8, 74'064, 148'128},
                    {4'962'636, 8, 12'077, 96'616},
                    {0, 0, 0, 0}});
}

// A Lulea FE cannot update in place: each update rebuilds its fragment's
// FE, and the LC re-packs its residents around the rebuilt one before the
// next job is priced. The other router tests here all use the DP trie,
// which updates in place; these figures pin the rebuilt-FE path.
TEST(MemoryModelRouter, EpochRebuiltFesRepackOnEveryUpdate) {
  core::RouterConfig config = non_home_config();
  config.trie = trie::TrieKind::kLulea;
  expect_placement(config, trace::profile_d75(),
                   {{1'615'554, 48, 8'524, 17'048},
                    {0, 0, 0, 0},
                    {0, 0, 0, 0}});
}

// A disabled model must leave the report schema untouched — existing-size
// figures stay byte-identical to a build without the model.
TEST(MemoryModelRouter, DisabledRunEmitsNoMemoryObject) {
  const net::RouteTable table = paper_table();
  core::RouterConfig config = core::spal_default_config(4);
  config.packets_per_lc = 1'000;
  core::RouterSim router(table, config);
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 500;
  const core::RouterResult result = router.run_workload(profile);
  EXPECT_FALSE(result.memory.enabled);
  EXPECT_EQ(result.to_json().find("\"memory\""), std::string::npos);
}

// Tight SRAM budgets must price lookups strictly higher than roomy ones —
// the tier-curve cliff bench_scale sweeps at full scale.
TEST(MemoryModelRouter, TightSramBudgetRaisesMeanLatency) {
  const net::RouteTable table = paper_table();
  trace::WorkloadProfile profile = trace::profile_d81();
  profile.flows = 1'000;
  auto mean_with_budget = [&](std::uint64_t budget) {
    core::RouterConfig config = core::spal_default_config(4);
    config.packets_per_lc = 2'000;
    config.memory.enabled = true;
    config.memory.tiers = {{"sram", budget, 2}, {"dram", 0, 70}};
    core::RouterSim router(table, config);
    const core::RouterResult result = router.run_workload(profile);
    return result.memory.charged_cycles /
           static_cast<double>(result.memory.lookups);
  };
  // 1 KiB forces every arena into DRAM; 16 MiB keeps everything in SRAM.
  EXPECT_GT(mean_with_budget(1024), mean_with_budget(std::uint64_t{16} << 20));
}

}  // namespace
