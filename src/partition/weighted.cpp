#include "partition/weighted.h"

namespace spal::partition {
namespace {

template <typename Partition, typename Table>
std::vector<double> expected_loads_impl(const Partition& partition,
                                        const Table& table,
                                        std::span<const double> weights) {
  if (weights.size() != table.size()) {
    throw std::invalid_argument(
        "expected_loads: weights must parallel table entries");
  }
  std::vector<double> loads(static_cast<std::size_t>(partition.num_lcs()),
                            0.0);
  if (partition.control_bits().empty()) {
    double total = 0.0;
    for (const double w : weights) total += w;
    if (!loads.empty()) loads[0] = total;
    return loads;
  }
  const std::vector<double> per_group = generic::group_loads(
      table.entries(), weights, partition.control_bits());
  const auto group_to_lc = partition.group_to_lc();
  for (std::size_t g = 0; g < per_group.size(); ++g) {
    loads[static_cast<std::size_t>(group_to_lc[g])] += per_group[g];
  }
  return loads;
}

template <typename Table, typename Config>
std::vector<int> select_control_bits_weighted_impl(
    const Table& table, std::span<const double> weights, int count,
    const Config& config) {
  if (uniform_weights(weights)) {
    return select_control_bits(table, count, config);
  }
  if (weights.size() != table.size()) {
    throw std::invalid_argument(
        "select_control_bits_weighted: weights must parallel table entries");
  }
  return generic::select_control_bits_weighted(table, weights, count,
                                               config.max_bit);
}

}  // namespace

std::vector<int> select_control_bits_weighted(const net::RouteTable& table,
                                              std::span<const double> weights,
                                              int count,
                                              const BitSelectorConfig& config) {
  return select_control_bits_weighted_impl(table, weights, count, config);
}

std::vector<int> select_control_bits_weighted(const net::RouteTable6& table,
                                              std::span<const double> weights,
                                              int count,
                                              const BitSelector6Config& config) {
  return select_control_bits_weighted_impl(table, weights, count, config);
}

std::vector<double> expected_loads(const RotPartition& partition,
                                   const net::RouteTable& table,
                                   std::span<const double> weights) {
  return expected_loads_impl(partition, table, weights);
}

std::vector<double> expected_loads(const RotPartition6& partition,
                                   const net::RouteTable6& table,
                                   std::span<const double> weights) {
  return expected_loads_impl(partition, table, weights);
}

}  // namespace spal::partition
