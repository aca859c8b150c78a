#include "trace/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "net/table_gen.h"

namespace spal::trace {

WorkloadProfile profile_d75() {
  return WorkloadProfile{"D_75", 35'000, 1.25, 6.0, 0x7501};
}
WorkloadProfile profile_d81() {
  return WorkloadProfile{"D_81", 60'000, 1.15, 5.0, 0x8101};
}
WorkloadProfile profile_l92_0() {
  return WorkloadProfile{"L_92-0", 150'000, 1.05, 3.5, 0x9200};
}
WorkloadProfile profile_l92_1() {
  return WorkloadProfile{"L_92-1", 120'000, 1.10, 3.0, 0x9201};
}
WorkloadProfile profile_bell_labs() {
  return WorkloadProfile{"B_L", 50'000, 1.25, 8.0, 0xb111};
}

std::vector<WorkloadProfile> all_profiles() {
  return {profile_d75(), profile_d81(), profile_l92_0(), profile_l92_1(),
          profile_bell_labs()};
}

WorkloadProfile profile_uniform() {
  WorkloadProfile p{"uniform", 30'000, 0.0, 2.0, 0xfa1'0001};
  return p;
}
WorkloadProfile profile_zipf1() {
  WorkloadProfile p{"zipf-1.0", 30'000, 1.0, 3.0, 0xfa1'0002};
  return p;
}
WorkloadProfile profile_flash_crowd() {
  WorkloadProfile p{"flash-crowd", 30'000, 1.0, 3.0, 0xfa1'0003};
  p.shape = StreamShape::kFlashCrowd;
  return p;
}
WorkloadProfile profile_scan() {
  WorkloadProfile p{"scan", 30'000, 0.0, 1.0, 0xfa1'0004};
  p.shape = StreamShape::kScan;
  return p;
}

template <typename Addr>
BasicTraceGenerator<Addr>::BasicTraceGenerator(
    const WorkloadProfile& profile, const net::BasicRouteTable<Addr>& table)
    : profile_(profile), table_size_(table.size()) {
  std::mt19937_64 rng(profile.seed);
  // Flow population: destinations drawn from the table's own prefixes so
  // every packet exercises a real LPM path.
  flow_addresses_.reserve(profile.flows);
  flow_entries_.reserve(profile.flows);
  if (!table.empty()) {
    std::uniform_int_distribution<std::size_t> pick(0, table.size() - 1);
    for (std::size_t i = 0; i < profile.flows; ++i) {
      const std::size_t entry = pick(rng);
      const net::BasicPrefix<Addr>& prefix = table.entries()[entry].prefix;
      flow_addresses_.push_back(net::random_address_in(prefix, rng));
      flow_entries_.push_back(entry);
    }
  }
  // Zipf CDF over popularity ranks: weight of rank r is 1 / r^alpha.
  popularity_cdf_.reserve(flow_addresses_.size());
  double total = 0.0;
  for (std::size_t r = 0; r < flow_addresses_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), profile.zipf_alpha);
    popularity_cdf_.push_back(total);
  }
  for (double& v : popularity_cdf_) v /= total;
}

template <typename Addr>
std::vector<Addr> BasicTraceGenerator<Addr>::generate(int lc,
                                                      std::size_t count) const {
  std::vector<Addr> destinations;
  destinations.reserve(count);
  if (flow_addresses_.empty()) return destinations;
  if (profile_.shape == StreamShape::kScan) {
    // Deterministic sweep over the flow population, each LC starting at its
    // own offset: no reuse at all, so every packet is a cold LPM.
    const std::size_t start =
        (static_cast<std::size_t>(lc) * 7919) % flow_addresses_.size();
    for (std::size_t i = 0; i < count; ++i) {
      destinations.push_back(
          flow_addresses_[(start + i) % flow_addresses_.size()]);
    }
    return destinations;
  }
  // Distinct per-LC stream over the shared flow population.
  std::mt19937_64 rng(profile_.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(lc + 1)));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double p_new = profile_.burst_mean <= 1.0 ? 1.0 : 1.0 / profile_.burst_mean;
  const bool flash = profile_.shape == StreamShape::kFlashCrowd;
  const std::size_t onset =
      flash ? static_cast<std::size_t>(profile_.flash_start *
                                       static_cast<double>(count))
            : count;
  const std::size_t hot_set =
      std::max<std::size_t>(1, std::min(profile_.flash_flows,
                                        flow_addresses_.size()));
  Addr current = flow_addresses_.front();
  bool have_current = false;
  for (std::size_t i = 0; i < count; ++i) {
    if (!have_current || unit(rng) < p_new) {
      std::size_t rank;
      if (flash && i >= onset && unit(rng) < profile_.flash_share) {
        // Flash crowd: the hot set is the head of the rank order, so its
        // traffic concentrates on whichever LCs home those prefixes.
        rank = std::min(static_cast<std::size_t>(
                            unit(rng) * static_cast<double>(hot_set)),
                        hot_set - 1);
      } else {
        const double u = unit(rng);
        const auto it = std::lower_bound(popularity_cdf_.begin(),
                                         popularity_cdf_.end(), u);
        rank = std::min(static_cast<std::size_t>(it - popularity_cdf_.begin()),
                        flow_addresses_.size() - 1);
      }
      current = flow_addresses_[rank];
      have_current = true;
    }
    destinations.push_back(current);
  }
  return destinations;
}

template <typename Addr>
std::vector<double> BasicTraceGenerator<Addr>::prefix_weights() const {
  std::vector<double> weights(table_size_, 0.0);
  for (std::size_t r = 0; r < flow_entries_.size(); ++r) {
    const double mass =
        popularity_cdf_[r] - (r == 0 ? 0.0 : popularity_cdf_[r - 1]);
    weights[flow_entries_[r]] += mass;
  }
  return weights;
}

template class BasicTraceGenerator<net::Ipv4Addr>;
template class BasicTraceGenerator<net::Ipv6Addr>;

TraceStats analyze_trace(const std::vector<net::Ipv4Addr>& destinations) {
  TraceStats stats;
  stats.packets = destinations.size();
  std::unordered_map<std::uint32_t, std::size_t> counts;
  for (const net::Ipv4Addr addr : destinations) ++counts[addr.value()];
  stats.distinct = counts.size();
  std::vector<std::size_t> sorted;
  sorted.reserve(counts.size());
  for (const auto& [addr, n] : counts) sorted.push_back(n);
  std::sort(sorted.rbegin(), sorted.rend());
  stats.head_mass.reserve(sorted.size() + 1);
  stats.head_mass.push_back(0.0);
  double running = 0.0;
  for (const std::size_t n : sorted) {
    running += static_cast<double>(n);
    stats.head_mass.push_back(
        stats.packets == 0 ? 0.0 : running / static_cast<double>(stats.packets));
  }
  return stats;
}

}  // namespace spal::trace
