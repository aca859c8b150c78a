// Internet-scale extension: bulk-build timing at 1M IPv4 / 220k IPv6
// prefixes, the router sweep with the CRAM-lens memory model on, and a
// Fig. 3-style SRAM-budget curve at 1M (DESIGN.md "Memory tiers").
//
// Sections (first CSV column; unused columns are 0):
//   build      bulk-build wall time per trie kind and table size, plus the
//              per-entry/reference baseline and its speedup where the kind
//              has one (dp: the insert() loop; lulea: the kReference
//              std::map builder).
//   router     full simulation with config.memory.enabled over table size ×
//              ψ × trie kind. While every per-LC fragment still fits the
//              first tier the priced lookups reproduce the paper's flat
//              constants (40 cycles Lulea, 62 DP); at 1M the DP fragments
//              outgrow SRAM and the mean climbs.
//   tier       ψ = 16 Lulea fragments of the 1M table under a swept per-LC
//              SRAM budget with a {sram(B), dram} hierarchy: the
//              lookup-cycle cliff where the hot arenas stop fitting.
//   provision  partition::min_lcs_for_budget — the smallest ψ whose largest
//              fragment fits each budget (the Fig. 3 question inverted).
//
// Sections run sequentially on purpose: the build rows are wall-clock
// measurements and the bulk builders already parallelize internally, so a
// concurrent sweep would only add contention noise.
#include <algorithm>
#include <chrono>
#include <memory>
#include <random>

#include "bench_util.h"

using namespace spal;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One "build" row + scale_build JSON point.
struct BuildPoint {
  const char* family;
  std::string trie;
  std::size_t table_size;
  double build_ms;
  double baseline_ms;  ///< 0 when the kind has no per-entry/reference path
  std::size_t storage_bytes;
};

bench::PointOutput render_build(const bench::BenchArgs& args,
                                const BuildPoint& p) {
  const double speedup =
      p.baseline_ms > 0.0 ? p.baseline_ms / p.build_ms : 0.0;
  bench::PointOutput out;
  out.row = bench::rowf(
      "build,%s,%s,%zu,0,0,%.3f,%.3f,%.3f,%zu,0\n", p.family, p.trie.c_str(),
      p.table_size, p.build_ms, p.baseline_ms, speedup, p.storage_bytes);
  if (args.json) {
    out.json = bench::rowf(
        "{\"label\":\"build,family=%s,trie=%s,size=%zu\",\"result\":"
        "{\"kind\":\"scale_build\",\"trie\":\"%s\",\"table_size\":%zu,"
        "\"build_ms\":%.3f,\"baseline_ms\":%.3f,\"speedup\":%.3f,"
        "\"storage_bytes\":%zu}}",
        p.family, p.trie.c_str(), p.table_size, p.trie.c_str(), p.table_size,
        p.build_ms, p.baseline_ms, speedup, p.storage_bytes);
  }
  return out;
}

/// Times the per-entry DP baseline: an empty trie grown by insert(), the
/// path the paper's incremental-update argument is about. The feed is
/// shuffled (fixed seed) because a per-entry load receives routes in
/// arrival order — handing the insert loop pre-sorted input would credit
/// it with the sort that is exactly what the bulk path performs.
double time_dp_insert_loop(const net::RouteTable& table) {
  std::vector<net::RouteEntry> feed(table.entries().begin(),
                                    table.entries().end());
  std::mt19937_64 rng(0xfeedu);
  std::shuffle(feed.begin(), feed.end(), rng);
  const auto start = std::chrono::steady_clock::now();
  trie::DpTrie dp{net::RouteTable{}};
  for (const net::RouteEntry& e : feed) {
    dp.insert(e.prefix, e.next_hop);
  }
  return ms_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Internet scale: 1M-prefix bulk builds + memory-tier cost model",
      "section,family,trie,table_size,psi,budget_bytes,build_ms,baseline_ms,"
      "speedup,storage_bytes,mean_cycles");
  std::vector<std::string> entries;

  // --table-size scales the whole bench down (ctest smoke, sanitizer jobs);
  // the default is the ~1M-route modern DFZ the extension targets.
  const std::size_t base_size =
      args.table_size_set ? args.table_size : 1'000'000;
  const std::vector<std::size_t> v4_sizes{std::max<std::size_t>(base_size / 4,
                                                                1),
                                          base_size};
  const std::size_t v6_size =
      args.table_size_set ? std::max<std::size_t>(base_size / 4, 1) : 220'000;
  std::vector<net::RouteTable> v4_tables;
  for (const std::size_t size : v4_sizes) {
    v4_tables.push_back(net::make_rt_internet(size));
  }

  // --- build ---------------------------------------------------------------
  const trie::TrieKind kinds[] = {trie::TrieKind::kDp, trie::TrieKind::kLulea,
                                  trie::TrieKind::kLc, trie::TrieKind::kGupta,
                                  trie::TrieKind::kStride};
  // Untimed warmup so the first timed build does not absorb the process's
  // allocator and page-fault cold start.
  trie::build_lpm(trie::TrieKind::kDp, v4_tables.front());
  for (std::size_t i = 0; i < v4_sizes.size(); ++i) {
    const net::RouteTable& table = v4_tables[i];
    for (const trie::TrieKind kind : kinds) {
      BuildPoint p{"v4", std::string(trie::to_string(kind)), v4_sizes[i],
                   0.0, 0.0, 0};
      const auto start = std::chrono::steady_clock::now();
      const auto index = trie::build_lpm(kind, table);
      p.build_ms = ms_since(start);
      p.storage_bytes = index->storage_bytes();
      if (kind == trie::TrieKind::kDp) {
        p.baseline_ms = time_dp_insert_loop(table);
      } else if (kind == trie::TrieKind::kLulea) {
        const auto ref_start = std::chrono::steady_clock::now();
        const trie::LuleaTrie reference(table,
                                        trie::LuleaBuildMode::kReference);
        p.baseline_ms = ms_since(ref_start);
      }
      const auto out = render_build(args, p);
      std::fputs(out.row.c_str(), stdout);
      if (args.json) entries.push_back(out.json);
    }
  }
  {
    // IPv6 at the ~220k-prefix scale of the mid-2020s DFZ.
    const net::RouteTable6 table6 = net::make_rt6_internet(v6_size);
    {
      BuildPoint p{"v6", "lc6", table6.size(), 0.0, 0.0, 0};
      const auto start = std::chrono::steady_clock::now();
      const trie::LcTrie6 lc6(table6);
      p.build_ms = ms_since(start);
      p.storage_bytes = lc6.storage_bytes();
      const auto out = render_build(args, p);
      std::fputs(out.row.c_str(), stdout);
      if (args.json) entries.push_back(out.json);
    }
    {
      BuildPoint p{"v6", "dp6", table6.size(), 0.0, 0.0, 0};
      const auto start = std::chrono::steady_clock::now();
      const trie::DpTrie6 dp6(table6);
      p.build_ms = ms_since(start);
      p.storage_bytes = dp6.storage_bytes();
      const auto out = render_build(args, p);
      std::fputs(out.row.c_str(), stdout);
      if (args.json) entries.push_back(out.json);
    }
  }

  // --- router --------------------------------------------------------------
  const std::vector<int> psis{4, 16};
  const trie::TrieKind sim_kinds[] = {trie::TrieKind::kLulea,
                                      trie::TrieKind::kDp};
  const auto profile = trace::profile_d75();
  for (std::size_t i = 0; i < v4_sizes.size(); ++i) {
    for (const int psi : psis) {
      for (const trie::TrieKind kind : sim_kinds) {
        core::RouterConfig config =
            bench::figure_config(psi, args.packets_per_lc);
        config.trie = kind;
        config.memory.enabled = true;
        core::RouterSim router(v4_tables[i], config);
        const auto result = router.run_workload(profile);
        std::printf("router,v4,%s,%zu,%d,0,0,0,0,%llu,%.3f\n",
                    std::string(trie::to_string(kind)).c_str(), v4_sizes[i],
                    psi,
                    static_cast<unsigned long long>(result.memory.storage_bytes),
                    result.mean_lookup_cycles());
        if (args.json) {
          entries.push_back(bench::json_point(
              bench::rowf("router,trie=%s,size=%zu,psi=%d",
                          std::string(trie::to_string(kind)).c_str(),
                          v4_sizes[i], psi),
              result));
        }
      }
    }
  }

  // --- tier + provision ----------------------------------------------------
  {
    const net::RouteTable& table = v4_tables.back();
    const std::size_t table_size = v4_sizes.back();
    constexpr int kPsi = 16;
    const partition::RotPartition partition(table, kPsi);
    std::vector<std::unique_ptr<trie::LpmIndex>> fes;
    std::size_t total_bytes = 0, per_lc_min = 0, per_lc_max = 0;
    for (int lc = 0; lc < kPsi; ++lc) {
      fes.push_back(
          trie::build_lpm(trie::TrieKind::kLulea, partition.table_of(lc)));
      const std::size_t bytes = fes.back()->storage_bytes();
      total_bytes += bytes;
      per_lc_min = lc == 0 ? bytes : std::min(per_lc_min, bytes);
      per_lc_max = std::max(per_lc_max, bytes);
    }
    // Deterministic sample of matched destinations for the priced lookups.
    const std::size_t samples = std::min<std::size_t>(args.packets_per_lc,
                                                      50'000);
    std::mt19937_64 rng(0x5ca1eu);
    std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
    std::vector<net::Ipv4Addr> addrs;
    addrs.reserve(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      addrs.push_back(
          net::random_address_in(table.entries()[pick(rng)].prefix, rng));
    }
    const std::vector<std::uint64_t> budgets{
        128u << 10, 256u << 10, 512u << 10, 1u << 20, 2u << 20, 4u << 20};
    for (const std::uint64_t budget : budgets) {
      core::MemoryModelConfig model_config;
      model_config.enabled = true;
      model_config.tiers = {{"sram", budget, 2}, {"dram", 0, 70}};
      std::vector<core::MemoryModel> models;
      std::uint64_t sram_placed = 0, dram_placed = 0;
      for (const auto& fe : fes) {
        models.emplace_back(model_config, fe->arenas());
        for (const core::ArenaPlacement& placement :
             models.back().placements()) {
          (placement.tier == 0 ? sram_placed : dram_placed) += placement.bytes;
        }
      }
      std::uint64_t total_cycles = 0;
      for (const net::Ipv4Addr addr : addrs) {
        const int lc = partition.home_of(addr);
        trie::MemAccessCounter counter;
        fes[static_cast<std::size_t>(lc)]->lookup_counted(addr, counter);
        total_cycles += models[static_cast<std::size_t>(lc)].lookup_cycles(
            counter);
      }
      const double mean_cycles =
          static_cast<double>(total_cycles) / static_cast<double>(samples);
      std::printf("tier,v4,lulea,%zu,%d,%llu,0,0,0,%zu,%.3f\n", table_size,
                  kPsi, static_cast<unsigned long long>(budget), total_bytes,
                  mean_cycles);
      if (args.json) {
        entries.push_back(bench::rowf(
            "{\"label\":\"tier,budget=%llu\",\"result\":"
            "{\"kind\":\"tier_curve\",\"table_size\":%zu,\"psi\":%d,"
            "\"sram_budget_bytes\":%llu,\"storage_bytes\":%zu,"
            "\"per_lc_bytes_min\":%zu,\"per_lc_bytes_max\":%zu,"
            "\"matching_overhead_cycles\":%u,\"mean_lookup_cycles\":%.3f,"
            "\"tiers\":[{\"name\":\"sram\",\"capacity_bytes\":%llu,"
            "\"access_cycles\":2,\"placed_bytes\":%llu},"
            "{\"name\":\"dram\",\"capacity_bytes\":0,\"access_cycles\":70,"
            "\"placed_bytes\":%llu}]}}",
            static_cast<unsigned long long>(budget), table_size, kPsi,
            static_cast<unsigned long long>(budget), total_bytes, per_lc_min,
            per_lc_max, model_config.matching_overhead_cycles, mean_cycles,
            static_cast<unsigned long long>(budget),
            static_cast<unsigned long long>(sram_placed),
            static_cast<unsigned long long>(dram_placed)));
      }
    }
    // Provisioning: how many LCs until every Lulea fragment of the 1M table
    // fits the budget, estimated from the whole-table bytes/prefix ratio.
    const auto whole = trie::build_lpm(trie::TrieKind::kLulea, table);
    const double bytes_per_prefix =
        static_cast<double>(whole->storage_bytes()) /
        static_cast<double>(table.size());
    for (const std::uint64_t budget :
         {std::uint64_t{1} << 20, std::uint64_t{2} << 20}) {
      const int min_psi = partition::min_lcs_for_budget(
          table, budget, bytes_per_prefix, /*max_lcs=*/32);
      std::printf("provision,v4,lulea,%zu,%d,%llu,0,0,0,0,0\n", table_size,
                  min_psi, static_cast<unsigned long long>(budget));
    }
  }

  bench::write_json_report(args, "scale", entries);
  return 0;
}
