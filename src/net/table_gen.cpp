#include "net/table_gen.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace spal::net {
namespace {

/// First-octet weights: concentrates address mass where 2003-era BGP tables
/// had it (former class A legacy blocks, 24/8 cable space, 6x-8x, the class B
/// 128-191 range and the heavily announced 192-220 class C space).
double first_octet_weight(int octet) {
  if (octet == 0 || octet == 10 || octet == 127 || octet >= 224) return 0.0;  // reserved
  if (octet >= 24 && octet <= 24) return 4.0;
  if (octet >= 60 && octet <= 90) return 2.5;
  if (octet >= 128 && octet <= 170) return 2.0;
  if (octet >= 192 && octet <= 220) return 3.0;
  return 1.0;
}

}  // namespace

std::array<double, Prefix::kMaxLength + 1> TableGenConfig::default_length_weights() {
  std::array<double, Prefix::kMaxLength + 1> w{};
  // Percent mass per length, shaped after the distributions in Huston's
  // "Analyzing the Internet's BGP Routing Table" and the potaroo.net
  // AS1221 snapshots the paper cites: /24 dominates, /16 spikes, and a thin
  // /25-/32 exception tail (including /32 host routes, which the paper calls
  // out as forcing range granularity down to 1).
  w[8] = 0.02;  w[9] = 0.03;  w[10] = 0.05; w[11] = 0.10; w[12] = 0.20;
  w[13] = 0.40; w[14] = 0.70; w[15] = 0.90; w[16] = 7.50; w[17] = 1.50;
  w[18] = 2.50; w[19] = 4.50; w[20] = 3.50; w[21] = 3.50; w[22] = 5.00;
  w[23] = 5.50; w[24] = 58.0; w[25] = 0.70; w[26] = 0.90; w[27] = 0.60;
  w[28] = 0.50; w[29] = 0.70; w[30] = 1.00; w[31] = 0.05; w[32] = 1.60;
  return w;
}

std::array<double, Prefix::kMaxLength + 1> effective_length_weights(
    const TableGenConfig& config) {
  // Distinct prefixes the non-nested path can produce at length len:
  // one usable first octet (first_octet_weight > 0) times the remaining
  // len - 8 free bits (lengths below 8 are bumped to 8 when drawn).
  std::size_t usable_octets = 0;
  for (int octet = 0; octet < 256; ++octet) {
    if (first_octet_weight(octet) > 0.0) ++usable_octets;
  }
  double sum = 0.0;
  for (const double w : config.length_weights) sum += w;
  std::array<double, Prefix::kMaxLength + 1> weights = config.length_weights;
  if (sum <= 0.0) return weights;
  for (int len = 0; len <= Prefix::kMaxLength; ++len) {
    const int free_bits = std::max(len, 8) - 8;
    const double population =
        static_cast<double>(usable_octets) *
        static_cast<double>(std::uint64_t{1} << free_bits);
    // Expected count at or below half the population keeps the duplicate
    // rejection loop fast; weights below the cap are left untouched (not
    // renormalized), so sub-cap configurations sample the exact same
    // distribution as before.
    const double cap =
        0.5 * population / static_cast<double>(config.size) * sum;
    if (weights[static_cast<std::size_t>(len)] > cap) {
      weights[static_cast<std::size_t>(len)] = cap;
    }
  }
  return weights;
}

RouteTable generate_table(const TableGenConfig& config) {
  std::mt19937_64 rng(config.seed);
  const auto weights = effective_length_weights(config);
  std::discrete_distribution<int> length_dist(weights.begin(), weights.end());
  std::vector<double> octet_weights(256);
  for (int i = 0; i < 256; ++i) octet_weights[static_cast<std::size_t>(i)] = first_octet_weight(i);
  std::discrete_distribution<int> octet_dist(octet_weights.begin(), octet_weights.end());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> word;
  std::uniform_int_distribution<NextHop> hop_dist(0, config.next_hops == 0 ? 0 : config.next_hops - 1);

  std::unordered_set<std::uint64_t> seen;  // (bits << 6) | length
  std::vector<RouteEntry> entries;
  entries.reserve(config.size);
  // Prefixes shorter than /24, candidates for hosting nested exceptions.
  std::vector<Prefix> nestable;

  auto key_of = [](const Prefix& p) {
    return (std::uint64_t{p.bits()} << 6) | static_cast<std::uint64_t>(p.length());
  };

  while (entries.size() < config.size) {
    int length = length_dist(rng);
    std::uint32_t bits = 0;
    // More-specific exception: extend an existing shorter prefix. A parent
    // shorter than the sampled target length is searched for (a few random
    // draws) so the length histogram stays exactly the sampled distribution.
    const Prefix* parent = nullptr;
    if (!nestable.empty() && unit(rng) < config.nested_fraction) {
      for (int attempt = 0; attempt < 4 && parent == nullptr; ++attempt) {
        const Prefix& candidate = nestable[std::uniform_int_distribution<std::size_t>(
            0, nestable.size() - 1)(rng)];
        if (candidate.length() < length) parent = &candidate;
      }
    }
    if (parent != nullptr) {
      // Keep the parent's fixed bits; randomize only the extension bits.
      const std::uint32_t parent_mask =
          parent->length() == 0 ? 0 : (~std::uint32_t{0} << (32 - parent->length()));
      bits = (parent->bits() & parent_mask) | (word(rng) & ~parent_mask);
    } else {
      if (length < 8) length = 8;
      const std::uint32_t octet = static_cast<std::uint32_t>(octet_dist(rng));
      bits = (octet << 24) | (word(rng) & 0x00ffffffu);
    }
    const Prefix prefix(Ipv4Addr{bits}, length);
    if (!seen.insert(key_of(prefix)).second) continue;
    entries.push_back(RouteEntry{prefix, hop_dist(rng)});
    if (prefix.length() <= 24) nestable.push_back(prefix);
  }
  return RouteTable(std::move(entries));
}

RouteTable make_rt1() {
  TableGenConfig config;
  config.size = 41'709;
  config.seed = 0x5eed'0001;
  return generate_table(config);
}

RouteTable make_rt2() {
  TableGenConfig config;
  config.size = 140'838;
  config.seed = 0x5eed'0002;
  return generate_table(config);
}

RouteTable make_rt_internet(std::size_t size) {
  TableGenConfig config;
  config.size = size;
  config.seed = 0x5eed'0010;
  config.next_hops = 64;  // a modern default-free zone peers widely
  return generate_table(config);
}

std::array<double, Prefix6::kMaxLength + 1> TableGen6Config::default_length_weights() {
  std::array<double, Prefix6::kMaxLength + 1> weights{};
  weights[29] = 2.0;
  weights[32] = 22.0;
  weights[36] = 4.0;
  weights[40] = 5.0;
  weights[44] = 6.0;
  weights[48] = 48.0;
  weights[52] = 2.0;
  weights[56] = 4.0;
  weights[64] = 6.0;
  for (int len = 30; len < 48; ++len) {
    if (weights[static_cast<std::size_t>(len)] == 0.0) {
      weights[static_cast<std::size_t>(len)] = 0.3;
    }
  }
  return weights;
}

RouteTable6 generate_table6(const TableGen6Config& config) {
  std::mt19937_64 rng(config.seed);
  const auto weights = TableGen6Config::default_length_weights();
  std::discrete_distribution<int> length_dist(weights.begin(), weights.end());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::uint64_t> word;
  std::uniform_int_distribution<NextHop> hop_dist(
      0, config.next_hops == 0 ? 0 : config.next_hops - 1);

  std::vector<RouteEntry6> entries;
  entries.reserve(config.size);
  std::vector<Prefix6> nestable;
  // Hash on (hi, lo, len) for dedup.
  struct Key {
    std::uint64_t hi, lo;
    int len;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(k.hi * 0x9e3779b97f4a7c15ULL ^ k.lo) ^
             std::hash<int>{}(k.len);
    }
  };
  std::unordered_set<Key, KeyHash> seen;

  while (entries.size() < config.size) {
    const int length = length_dist(rng);
    Ipv6Addr addr;
    const Prefix6* parent = nullptr;
    if (!nestable.empty() && unit(rng) < config.nested_fraction) {
      for (int attempt = 0; attempt < 4 && parent == nullptr; ++attempt) {
        const Prefix6& candidate = nestable[std::uniform_int_distribution<std::size_t>(
            0, nestable.size() - 1)(rng)];
        if (candidate.length() < length) parent = &candidate;
      }
    }
    if (parent != nullptr) {
      addr = random_address_in(*parent, rng);
    } else {
      // Global unicast 2000::/3.
      const std::uint64_t hi = (word(rng) & 0x1fffffffffffffffULL) | 0x2000000000000000ULL;
      addr = Ipv6Addr{hi, word(rng)};
    }
    const Prefix6 prefix(addr, length);
    const Key key{prefix.address().hi(), prefix.address().lo(), prefix.length()};
    if (!seen.insert(key).second) continue;
    entries.push_back(RouteEntry6{prefix, hop_dist(rng)});
    if (prefix.length() <= 48) nestable.push_back(prefix);
  }
  return RouteTable6(std::move(entries));
}

RouteTable6 make_rt6_internet(std::size_t size) {
  TableGen6Config config;
  config.size = size;
  config.seed = 0x5eed'0011;
  config.next_hops = 64;
  return generate_table6(config);
}

Ipv4Addr random_address_in(const Prefix& prefix, std::mt19937_64& rng) {
  const Ipv4Addr host{static_cast<std::uint32_t>(rng())};
  return prefix.address() | (host & ~Ipv4Addr::netmask(prefix.length()));
}

Ipv6Addr random_address_in(const Prefix6& prefix, std::mt19937_64& rng) {
  const std::uint64_t hi = rng();
  const Ipv6Addr host{hi, rng()};
  return prefix.address() | (host & ~Ipv6Addr::netmask(prefix.length()));
}

}  // namespace spal::net
