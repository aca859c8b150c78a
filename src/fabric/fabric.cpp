#include "fabric/fabric.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace spal::fabric {

namespace {
/// Decorrelates the per-source-port RNG streams. Source port 0 keeps the
/// bare seed, so single-source fault sequences match the pre-split fabric
/// whose one global RNG was seeded with `faults.seed` directly.
std::uint64_t port_seed(std::uint64_t seed, int src) {
  return seed ^ (static_cast<std::uint64_t>(src) * 0x9e3779b97f4a7c15ULL);
}
}  // namespace

int fabric_stages(int ports, int radix) {
  if (ports < 1 || radix < 2) throw std::invalid_argument("fabric_stages: bad sizes");
  if (ports <= radix) return 1;
  int stages = 1;
  long long reach = radix;
  while (reach < ports) {
    reach *= radix;
    ++stages;
  }
  return stages;
}

double fabric_latency_cycles(const FabricConfig& config) {
  return config.base_latency_cycles +
         config.per_stage_cycles *
             static_cast<double>(fabric_stages(config.ports, config.radix));
}

void FaultConfig::validate(int ports) const {
  if (drop_probability < 0.0 || drop_probability > 1.0) {
    throw std::invalid_argument("FaultConfig: drop_probability outside [0,1]");
  }
  if (jitter_probability < 0.0 || jitter_probability > 1.0) {
    throw std::invalid_argument("FaultConfig: jitter_probability outside [0,1]");
  }
  if (jitter_probability > 0.0 && max_jitter_cycles == 0) {
    throw std::invalid_argument(
        "FaultConfig: jitter_probability > 0 needs max_jitter_cycles >= 1");
  }
  for (const OutageWindow& window : outages) {
    if (window.port < 0 || window.port >= ports) {
      throw std::invalid_argument("FaultConfig: outage port out of range");
    }
    if (window.end_cycle <= window.start_cycle) {
      throw std::invalid_argument("FaultConfig: outage window end <= start");
    }
  }
}

std::uint64_t FaultConfig::outage_cycles(int port) const {
  // Measure of the union of this port's windows: overlapping, nested, and
  // abutting spans collapse into one before summing, so a cycle covered by
  // two windows is counted once.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const OutageWindow& window : outages) {
    if (window.port == port) spans.emplace_back(window.start_cycle, window.end_cycle);
  }
  std::sort(spans.begin(), spans.end());
  std::uint64_t total = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool open = false;
  for (const auto& [start, stop] : spans) {
    if (open && start <= end) {
      end = std::max(end, stop);
    } else {
      if (open) total += end - begin;
      begin = start;
      end = stop;
      open = true;
    }
  }
  if (open) total += end - begin;
  return total;
}

bool FaultConfig::port_down(int port, std::uint64_t now) const {
  for (const OutageWindow& window : outages) {
    if (window.port == port && now >= window.start_cycle &&
        now < window.end_cycle) {
      return true;
    }
  }
  return false;
}

Fabric::Fabric(const FabricConfig& config, const FaultConfig& faults)
    : config_(config),
      faults_(faults),
      latency_(fabric_latency_cycles(config)),
      min_lookahead_(static_cast<std::uint64_t>(std::llround(latency_))),
      egress_(static_cast<std::size_t>(config.ports)),
      ingress_(static_cast<std::size_t>(config.ports)) {
  if (config.ports < 1) throw std::invalid_argument("Fabric: ports must be >= 1");
  faults_.validate(config.ports);
  reset_ports();
}

void Fabric::reset_ports() {
  for (std::size_t src = 0; src < egress_.size(); ++src) {
    egress_[src] = EgressPort{};
    egress_[src].rng.seed(port_seed(faults_.seed, static_cast<int>(src)));
  }
  for (IngressPort& port : ingress_) port = IngressPort{};
}

void Fabric::reset() { reset_ports(); }

void Fabric::reconfigure(const FabricConfig& config, const FaultConfig& faults) {
  // Validate before touching any member so a throwing reconfigure leaves
  // the fabric in its previous, consistent state.
  const double latency = fabric_latency_cycles(config);  // throws on bad sizes
  faults.validate(config.ports);
  config_ = config;
  faults_ = faults;
  latency_ = latency;
  min_lookahead_ = static_cast<std::uint64_t>(std::llround(latency_));
  egress_.resize(static_cast<std::size_t>(config.ports));
  ingress_.resize(static_cast<std::size_t>(config.ports));
  reset_ports();
}

Egress Fabric::egress(int src, std::uint64_t now) {
  EgressPort& port = egress_[static_cast<std::size_t>(src)];
  // The event loop hands out non-decreasing times and callers inject at
  // `now` or `now + 1`, so legal injection times regress by at most one
  // cycle per source port. Anything further back is an
  // out-of-order caller whose waits would silently inflate the queueing
  // statistics — reject it.
  if (now + 1 < port.last_injection) {
    throw std::logic_error(
        "Fabric::egress: injection time regressed (per-port calls must be "
        "in non-decreasing `now` order)");
  }
  port.last_injection = std::max(port.last_injection, now);
  const std::uint64_t depart = std::max(now, port.free);
  port.free = depart + 1;  // one message per cycle per source port
  std::uint64_t raw_arrival = depart + min_lookahead_;
  if (faults_.enabled && faults_.jitter_probability > 0.0) {
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    if (uniform(port.rng) < faults_.jitter_probability) {
      const std::uint64_t extra = std::uniform_int_distribution<std::uint64_t>(
          1, faults_.max_jitter_cycles)(port.rng);
      raw_arrival += extra;
      ++port.jitter_events;
      port.jitter_cycles += extra;
    }
  }
  ++port.sent;
  port.queue_cycles += depart - now;
  return Egress{true, raw_arrival};
}

Egress Fabric::egress_lossy(int src, int dst, std::uint64_t now) {
  if (faults_.enabled) {
    EgressPort& port = egress_[static_cast<std::size_t>(src)];
    // A message injected while either endpoint is down vanishes: it never
    // occupies a port slot, so surviving traffic is timed exactly as if the
    // lost message had not been sent.
    if (port_down(src, now) || port_down(dst, now)) {
      ++port.dropped;
      ++port.outage_dropped;
      return Egress{false, 0};
    }
    if (faults_.drop_probability > 0.0) {
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      if (uniform(port.rng) < faults_.drop_probability) {
        ++port.dropped;
        return Egress{false, 0};
      }
    }
  }
  return egress(src, now);
}

std::uint64_t Fabric::ingress_commit(int dst, std::uint64_t raw_arrival) {
  IngressPort& port = ingress_[static_cast<std::size_t>(dst)];
  const std::uint64_t arrival = std::max(raw_arrival, port.free);
  port.free = arrival + 1;  // one message per cycle per destination port
  ++port.received;
  port.queue_cycles += arrival - raw_arrival;
  return arrival;
}

std::uint64_t Fabric::deliver(int src, int dst, std::uint64_t now) {
  return ingress_commit(dst, egress(src, now).raw_arrival);
}

Delivery Fabric::try_deliver(int src, int dst, std::uint64_t now) {
  const Egress out = egress_lossy(src, dst, now);
  if (!out.delivered) return Delivery{false, 0};
  return Delivery{true, ingress_commit(dst, out.raw_arrival)};
}

FabricStats Fabric::stats() const {
  FabricStats stats;
  stats.ports.resize(egress_.size());
  for (std::size_t i = 0; i < egress_.size(); ++i) {
    const EgressPort& out = egress_[i];
    const IngressPort& in = ingress_[i];
    FabricPortStats& port = stats.ports[i];
    port.sent = out.sent;
    port.received = in.received;
    port.egress_queue_cycles = out.queue_cycles;
    port.ingress_queue_cycles = in.queue_cycles;
    port.dropped = out.dropped;
    stats.messages += out.sent;
    stats.total_queueing_cycles += out.queue_cycles + in.queue_cycles;
    stats.dropped += out.dropped;
    stats.outage_dropped += out.outage_dropped;
    stats.jitter_events += out.jitter_events;
    stats.jitter_cycles += out.jitter_cycles;
  }
  return stats;
}

}  // namespace spal::fabric
