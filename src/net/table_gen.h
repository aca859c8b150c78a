// Synthetic BGP-like routing-table generators, one model per address
// family (the IPv6 one is described at TableGen6Config).
//
// The paper evaluates on two real tables: RT_1 (FUNET, 41,709 prefixes) and
// RT_2 (an AS1221 snapshot, 140,838 prefixes). Neither is shipped here, so
// this generator produces tables with the structural properties the paper's
// experiments depend on:
//   * the published prefix-length distribution (mass concentrated on /24,
//     heavy /16-/24 body, >83% of prefixes no longer than /24, and a tail of
//     /25-/32 "exception" prefixes including host routes);
//   * aggregation structure: a fraction of prefixes are more-specific
//     exceptions nested inside shorter covering prefixes, which is what
//     exercises LPM backtracking and the partitioner's Φ* replication; and
//   * first-octet mass concentrated in the historically allocated ranges.
// See DESIGN.md ("Substitutions") for the full rationale.
#pragma once

#include <array>
#include <cstdint>
#include <random>

#include "net/route_table.h"

namespace spal::net {

/// Tuning knobs for the generator. Defaults reproduce a 2003-era backbone
/// table shape.
struct TableGenConfig {
  std::size_t size = 100'000;   ///< exact number of distinct prefixes
  std::uint64_t seed = 1;       ///< deterministic output per seed
  std::uint32_t next_hops = 16; ///< next hops drawn uniformly from [0, next_hops)
  /// Probability that a new prefix is generated as a more-specific exception
  /// nested inside an already-generated shorter prefix.
  double nested_fraction = 0.35;
  /// Per-length weights, index = prefix length 0..32. Normalized internally.
  std::array<double, Prefix::kMaxLength + 1> length_weights = default_length_weights();

  static std::array<double, Prefix::kMaxLength + 1> default_length_weights();
};

/// Generates a synthetic routing table per `config`. Deterministic in
/// (size, seed, next_hops, nested_fraction, length_weights).
///
/// At internet scale the per-length weights are capacity-capped (see
/// effective_length_weights) so the rejection loop cannot stall on a length
/// whose whole generatable population is smaller than its nominal share;
/// the cap never engages at the paper's table sizes, so those tables are
/// bit-identical to earlier versions.
RouteTable generate_table(const TableGenConfig& config);

/// The per-length weights generate_table actually samples from: the
/// configured weights, with each length capped so its expected count stays
/// at or below half its generatable population (usable first octets times
/// 2^(len-8)). This is the histogram model large-N tests check against.
std::array<double, Prefix::kMaxLength + 1> effective_length_weights(
    const TableGenConfig& config);

/// RT_1 stand-in: 41,709 prefixes (the FUNET table size the paper uses).
RouteTable make_rt1();

/// RT_2 stand-in: 140,838 prefixes (the AS1221 snapshot size the paper uses).
RouteTable make_rt2();

/// Modern-internet stand-in: `size` prefixes (default the ~1M-route IPv4
/// table of the mid-2020s BGP default-free zone), same structural model as
/// the paper-era tables with the weight caps active.
RouteTable make_rt_internet(std::size_t size = 1'000'000);

/// Synthetic IPv6 BGP-like table: mass concentrated on /48 and /32 with the
/// /29-/44 body and a /64+ tail observed in global v6 tables, within the
/// 2000::/3 global-unicast space.
struct TableGen6Config {
  std::size_t size = 20'000;
  std::uint64_t seed = 1;
  std::uint32_t next_hops = 16;
  double nested_fraction = 0.30;

  /// Per-length weights, index = prefix length 0..128: /48 dominates, /32
  /// spikes (RIR allocations), body over /29-/44, thin /64+ tail. IPv6
  /// update streams announce with the same weights.
  static std::array<double, Prefix6::kMaxLength + 1> default_length_weights();
};

RouteTable6 generate_table6(const TableGen6Config& config);

/// Modern-internet stand-in: `size` prefixes (default the ~220k-route IPv6
/// table of the mid-2020s BGP default-free zone).
RouteTable6 make_rt6_internet(std::size_t size = 220'000);

/// Uniformly random address inside `prefix` (host bits randomized).
Ipv4Addr random_address_in(const Prefix& prefix, std::mt19937_64& rng);
Ipv6Addr random_address_in(const Prefix6& prefix, std::mt19937_64& rng);

}  // namespace spal::net
