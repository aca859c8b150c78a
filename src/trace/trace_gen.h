// Synthetic destination-stream generation (paper Sec. 5.1 substitution).
//
// The paper drives its simulator with destination addresses from the
// WorldCup98 archive (traces D_75, D_81), the PMA Long Traces archive
// (Abilene-I L_92-0 / L_92-1) and Bell Labs-I (B_L). Those archives are not
// available here, so this module synthesizes streams with the two properties
// the paper itself identifies as what makes LR-caches work:
//   * heavy-tailed flow popularity — a small percentage of flows accounts
//     for a large share of traffic (the paper cites Estan & Varghese's
//     9%-of-flows/90%-of-traffic observation) — modelled as a Zipf
//     distribution over a fixed flow population, and
//   * packet trains — consecutive packets frequently repeat the previous
//     destination — modelled as geometric bursts.
// Flow destinations are sampled from the routing table itself (a random
// entry with randomized host bits), so every destination exercises real LPM
// paths. The flow population is shared by all LCs while each LC draws its
// own packet sequence, giving the cross-LC reuse that SPAL's remote-result
// caching exploits.
//
// The five profiles below differ in population size, skew and burstiness,
// tuned so a 4K-block 4-way LR-cache lands in the >=0.93 hit-rate band the
// paper reports for its traces. One generator serves both address families.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/route_table.h"

namespace spal::trace {

/// Temporal shape of the destination stream. kStationary is the paper's
/// model (fixed Zipf popularity, geometric trains). The other two model the
/// skew transients the load rebalancer reacts to: a flash crowd
/// concentrates traffic onto a few hot flows partway through the stream,
/// and a scan sweeps the flow population with no reuse at all (worst case
/// for the LR-cache, flat offered load).
enum class StreamShape { kStationary, kFlashCrowd, kScan };

struct WorkloadProfile {
  std::string name;
  std::size_t flows = 100'000;  ///< distinct destination addresses
  double zipf_alpha = 1.0;      ///< popularity skew (larger = hotter head)
  double burst_mean = 3.0;      ///< mean packet-train length (geometric)
  std::uint64_t seed = 1;
  StreamShape shape = StreamShape::kStationary;
  double flash_start = 0.5;      ///< kFlashCrowd: stream fraction before onset
  double flash_share = 0.6;      ///< kFlashCrowd: post-onset hot-set traffic share
  std::size_t flash_flows = 4;   ///< kFlashCrowd: flows in the hot set
};

/// WorldCup98 July 9, 1998 stand-in: web-server clients, hot head.
WorkloadProfile profile_d75();
/// WorldCup98 July 15, 1998 stand-in.
WorkloadProfile profile_d81();
/// Abilene-I stand-ins: backbone traffic, larger population, flatter.
WorkloadProfile profile_l92_0();
WorkloadProfile profile_l92_1();
/// Bell Labs-I stand-in: small edge link, strongest locality.
WorkloadProfile profile_bell_labs();

/// All five, in the order the paper's figures plot them.
std::vector<WorkloadProfile> all_profiles();

/// Load-balance sweep workloads (bench_loadbalance): flat popularity …
WorkloadProfile profile_uniform();
/// … the canonical Zipf(1.0) skew the acceptance sweeps use …
WorkloadProfile profile_zipf1();
/// … a mid-stream flash crowd onto a handful of flows …
WorkloadProfile profile_flash_crowd();
/// … and an address-space scan with no reuse.
WorkloadProfile profile_scan();

/// Generates per-LC destination streams for one workload over one table of
/// address family `Addr` (Ipv4Addr or Ipv6Addr).
template <typename Addr>
class BasicTraceGenerator {
 public:
  BasicTraceGenerator(const WorkloadProfile& profile,
                      const net::BasicRouteTable<Addr>& table);

  /// `count` destinations for line card `lc`. Deterministic in
  /// (profile.seed, lc); different lc values give different sequences over
  /// the same flow population.
  std::vector<Addr> generate(int lc, std::size_t count) const;

  const WorkloadProfile& profile() const { return profile_; }
  std::size_t flow_count() const { return flow_addresses_.size(); }

  /// Per-prefix popularity weights, parallel to the source table's entries:
  /// each flow's Zipf probability mass accumulates onto the table entry its
  /// destination was drawn from, so Σ weights == 1 (0 for a table whose
  /// entries attracted no flow). This is the weight vector
  /// PartitionConfig::weights expects for traffic-aware partitioning.
  std::vector<double> prefix_weights() const;

 private:
  WorkloadProfile profile_;
  std::size_t table_size_ = 0;
  std::vector<Addr> flow_addresses_;       ///< rank-ordered (hottest first)
  std::vector<std::size_t> flow_entries_;  ///< source table entry per flow
  std::vector<double> popularity_cdf_;     ///< Zipf CDF over ranks
};

extern template class BasicTraceGenerator<net::Ipv4Addr>;
extern template class BasicTraceGenerator<net::Ipv6Addr>;

using TraceGenerator = BasicTraceGenerator<net::Ipv4Addr>;
using TraceGenerator6 = BasicTraceGenerator<net::Ipv6Addr>;

/// Stream summary used by tests and the trace_locality example.
struct TraceStats {
  std::size_t packets = 0;
  std::size_t distinct = 0;
  /// Fraction of packets covered by the hottest `head` distinct addresses.
  double concentration(std::size_t head) const {
    return head_mass.empty() ? 0.0
           : head >= head_mass.size()
               ? 1.0
               : head_mass[head];
  }
  std::vector<double> head_mass;  ///< cumulative share by popularity rank
};

TraceStats analyze_trace(const std::vector<net::Ipv4Addr>& destinations);

}  // namespace spal::trace
