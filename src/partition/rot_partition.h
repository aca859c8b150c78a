// ROT-partitions: the per-line-card forwarding tables SPAL fragments a
// routing table into, plus the address → home-LC mapping (paper Secs. 3.1,
// 4).
//
// With η = ⌈log2 ψ⌉ control bits there are 2^η bit-pattern groups. When ψ is
// a power of two, group κ simply lives on LCκ. The paper allows any integer
// ψ ("3, 5, 6, 7, etc.") without spelling out the mapping; here the 2^η
// groups are packed onto ψ LCs by longest-processing-time greedy so that
// per-LC prefix counts stay balanced (documented in DESIGN.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/route_table.h"
#include "partition/bit_selector.h"

namespace spal::partition {

template <typename Addr>
struct BasicPartitionConfig {
  /// Explicit control bits, each in [0, Addr::kBits); if empty they are
  /// selected by select_control_bits() per the paper's two criteria.
  std::vector<int> control_bits;
  BasicBitSelectorConfig<Addr> selector;
  /// Per-prefix popularity weights, parallel to the input table's entries
  /// (e.g. TraceGenerator::prefix_weights()). Empty or uniform weights take
  /// the count-balanced path exactly; otherwise control-bit selection and
  /// group→LC placement minimize max per-LC *expected load* (weighted.h),
  /// never exceeding the count-balanced assignment's max load.
  std::vector<double> weights;
};

using PartitionConfig = BasicPartitionConfig<net::Ipv4Addr>;
using Partition6Config = BasicPartitionConfig<net::Ipv6Addr>;

/// A fragmented routing table: one forwarding table per LC plus the mapping
/// machinery the FIL's LR1 detector implements in hardware. RotPartition
/// fragments IPv4 tables, RotPartition6 IPv6 ones (the paper's Sec. 6
/// extension: same criteria and semantics over 128-bit prefixes).
template <typename Addr>
class BasicRotPartition {
 public:
  using Prefix = net::BasicPrefix<Addr>;
  using Table = net::BasicRouteTable<Addr>;

  /// Fragments `table` for a router with `num_lcs` line cards (any integer
  /// >= 1). With num_lcs == 1 there is a single partition equal to `table`
  /// and no control bits. Throws std::invalid_argument for an explicit
  /// control bit outside [0, Addr::kBits), or for weights that do not
  /// parallel the table's entries.
  BasicRotPartition(const Table& table, int num_lcs,
                    const BasicPartitionConfig<Addr>& config = {});

  int num_lcs() const { return static_cast<int>(tables_.size()); }
  std::span<const int> control_bits() const { return control_bits_; }

  /// The η-bit group pattern of an address (its control bits, in selection
  /// order, packed MSB-first).
  std::uint32_t group_of(const Addr& addr) const {
    std::uint32_t group = 0;
    for (const int bit : control_bits_) {
      group = (group << 1) | static_cast<std::uint32_t>(addr.bit(bit));
    }
    return group;
  }

  /// Home LC of an address: where its lookup is performed on an LR-cache
  /// miss. This is what LR1 computes from the destination address.
  int home_of(const Addr& addr) const { return group_to_lc_[group_of(addr)]; }

  /// Forwarding table of one LC.
  const Table& table_of(int lc) const {
    return tables_[static_cast<std::size_t>(lc)];
  }
  std::span<const Table> tables() const { return tables_; }

  /// Which LC each of the 2^η groups is assigned to.
  std::span<const int> group_to_lc() const { return group_to_lc_; }

  /// Home LCs of a *prefix*: every LC whose fragment holds (a copy of) it.
  /// A prefix replicates into each group compatible with its tri-state
  /// control bits (a kStar control bit matches both groups), mirroring how
  /// the fragmenter assigns entries. Result is sorted and de-duplicated.
  std::vector<int> homes_of(const Prefix& prefix) const;

  /// Per-LC prefix counts (the partition sizes Sec. 4 reports).
  std::vector<std::size_t> partition_sizes() const;

 private:
  std::vector<int> control_bits_;
  std::vector<int> group_to_lc_;  // size 2^η
  std::vector<Table> tables_;     // size ψ
};

extern template class BasicRotPartition<net::Ipv4Addr>;
extern template class BasicRotPartition<net::Ipv6Addr>;

using RotPartition = BasicRotPartition<net::Ipv4Addr>;
using RotPartition6 = BasicRotPartition<net::Ipv6Addr>;

/// Fragment-sizing summary of a partition (what Sec. 4 reads off its
/// partition-size tables): the per-LC fragment extremes plus the replication
/// overhead that kStar control bits introduce by copying a prefix into every
/// compatible group.
struct FragmentSizing {
  std::size_t input_prefixes = 0;  ///< prefixes in the unfragmented table
  std::size_t total_prefixes = 0;  ///< Σ fragment sizes (replicas included)
  std::size_t min_prefixes = 0;    ///< smallest fragment
  std::size_t max_prefixes = 0;    ///< largest fragment (sizes the SRAM)
  double replication = 1.0;        ///< total / input (>= 1)
  // Failover replication (assign_replicas) footprint — zeros when R = 0.
  int replicas = 0;                      ///< R replica copies per fragment
  std::size_t replica_prefixes = 0;      ///< Σ prefixes held as failover copies
  std::size_t max_prefixes_with_replicas = 0;  ///< worst per-LC residency
};

FragmentSizing fragment_sizing(const RotPartition& partition,
                               std::size_t input_prefixes, int replicas = 0);

/// Failover replica placement: fragment f's primary stays on LC f and its
/// R copies live on LCs (f + 1) .. (f + R) mod ψ — a rotation, so every LC
/// hosts exactly R foreign copies and losing any single LC leaves R live
/// copies of its fragment elsewhere. R is clamped to ψ - 1 (more copies than
/// other LCs is meaningless). Returns, per fragment, the ordered replica LC
/// list (primaries excluded); all lists empty when R <= 0 or ψ <= 1.
std::vector<std::vector<int>> assign_replicas(int num_lcs, int replicas);

/// Smallest ψ in [1, max_lcs] whose *largest* fragment fits a per-LC memory
/// budget, estimating a fragment's trie footprint as prefix count ×
/// `bytes_per_prefix` (measure that ratio on the unfragmented table first).
/// This is the provisioning question behind the paper's Fig. 3: how many
/// line cards until each ROT-partition drops into on-chip SRAM. Returns 0
/// when even ψ = max_lcs overflows the budget.
int min_lcs_for_budget(const net::RouteTable& table,
                       std::size_t budget_bytes, double bytes_per_prefix,
                       int max_lcs = 64, const PartitionConfig& config = {});

/// Baseline of Sec. 2.3 (Akhbarizadeh & Nourani [1]): group prefixes by
/// *length*. Subset sizes vary wildly (≈50% of a backbone table is /24) and
/// every LC keeps all subsets, so per-LC storage does not shrink with ψ.
/// Returns the 33 per-length tables (index = prefix length).
std::vector<net::RouteTable> partition_by_length(const net::RouteTable& table);

}  // namespace spal::partition
