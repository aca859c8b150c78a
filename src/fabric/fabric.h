// Switching-fabric model (paper Secs. 1, 3).
//
// SPAL assumes a low-latency fabric — a shared bus for small ψ, a crossbar,
// or a multistage network of small crossbars for larger routers — with
// packet latency around 10 ns (two 5 ns cycles). The paper deliberately
// abstracts fabric details and lets latency depend on fabric size; this
// model does the same:
//   * traversal latency = per_stage_cycles × (number of crossbar stages for
//     `ports` endpoints at the given radix) + base_latency_cycles, and
//   * each port serializes: one message per cycle in each direction.
// Message timing is computed analytically (no per-cycle simulation), which
// the event-driven router simulator consumes directly.
//
// Fault injection: a seeded FaultConfig makes the fabric lossy — messages
// can be dropped at random (per-message drop probability), delayed by
// latency jitter, or lost wholesale while a port is inside a scheduled
// outage window (a dead line card). try_deliver() reports the loss to the
// caller; the router core layers a timeout/retry protocol on top so no
// lookup is ever stranded (basic_router_sim.h). With faults disabled (the
// default) the fault RNG is never consumed and try_deliver() is
// bit-identical to deliver().
//
// Two-phase delivery: a message's timing decomposes into a source half
// (egress serialization, traversal latency, the fault draws) and a
// destination half (ingress serialization). egress() / egress_lossy() touch
// only source-port state and ingress_commit() only destination-port state.
// The router core runs egress when a handler sends and holds the message
// until it commits ingress in a canonical (raw arrival, origin LC, origin
// sequence) order, so each destination port's queueing does not depend on
// the order handlers happened to send in. The fault RNG is one stream per
// source port, so draw order is a deterministic per-source sequence.
// deliver()/try_deliver() remain as the direct composition of the two
// phases.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace spal::fabric {

struct FabricConfig {
  int ports = 16;
  int radix = 16;                  ///< crossbar size used to build stages
  double base_latency_cycles = 1.0;
  double per_stage_cycles = 1.0;   ///< a modern small crossbar switches in ~5 ns
};

/// A scheduled per-port outage: every message injected while `port` is its
/// source or destination during [start_cycle, end_cycle) is lost. Models an
/// LC going down (and coming back) mid-run.
struct OutageWindow {
  int port = 0;
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;  ///< exclusive
};

/// Deterministic, seeded fault model applied per message. Disabled by
/// default; validate() rejects out-of-range probabilities and windows.
struct FaultConfig {
  bool enabled = false;
  double drop_probability = 0.0;     ///< per-message loss chance in [0, 1]
  double jitter_probability = 0.0;   ///< chance of extra traversal latency
  std::uint64_t max_jitter_cycles = 0;  ///< jittered messages gain U[1, max]
  std::vector<OutageWindow> outages;
  std::uint64_t seed = 0xfa17;

  /// Throws std::invalid_argument on probabilities outside [0,1], a jittered
  /// config with max_jitter_cycles == 0, or an outage with end <= start.
  void validate(int ports) const;

  /// Total configured outage cycles for `port`. Overlapping, nested, and
  /// abutting windows are merged first, so the result is the measure of the
  /// union of the port's windows — a window covered twice is counted once.
  std::uint64_t outage_cycles(int port) const;

  /// True when `now` falls inside any outage window scheduled for `port`.
  /// Pure config (no RNG), so the router core can consult it to steer
  /// traffic away from dead LCs without perturbing the fault stream.
  bool port_down(int port, std::uint64_t now) const;
};

/// Number of crossbar stages needed to connect `ports` endpoints with
/// crossbars of the given radix (1 stage when ports <= radix).
int fabric_stages(int ports, int radix);

/// End-to-end traversal latency in cycles for the configured fabric.
double fabric_latency_cycles(const FabricConfig& config);

/// Per-port occupancy and queueing breakdown (one entry per LC port), one
/// X(name) per counter in report order; the JSON key is the name.
#define SPAL_FABRIC_PORT_COUNTERS(X)                                         \
  X(sent)                 /* messages injected at this port */               \
  X(received)             /* messages delivered to this port */              \
  X(egress_queue_cycles)  /* injection serialization waits */                \
  X(ingress_queue_cycles) /* delivery serialization waits */                 \
  X(dropped)              /* injections lost (src attribution) */

struct FabricPortStats {
#define SPAL_COUNTER_MEMBER(name) std::uint64_t name = 0;
  SPAL_FABRIC_PORT_COUNTERS(SPAL_COUNTER_MEMBER)
#undef SPAL_COUNTER_MEMBER
};

struct FabricStats {
  std::uint64_t messages = 0;               ///< delivered messages only
  std::uint64_t total_queueing_cycles = 0;  ///< cycles spent blocked on ports
  std::uint64_t dropped = 0;          ///< messages lost (random + outage)
  std::uint64_t outage_dropped = 0;   ///< subset of dropped: port was down
  std::uint64_t jitter_events = 0;    ///< delivered messages that were jittered
  std::uint64_t jitter_cycles = 0;    ///< extra traversal cycles added
  std::vector<FabricPortStats> ports;       ///< indexed by port (= LC) id
};

/// Outcome of try_deliver(): `delivered` is false when the fault layer lost
/// the message (arrival is meaningless then).
struct Delivery {
  bool delivered = true;
  std::uint64_t arrival = 0;
};

/// Outcome of the source-side half of a delivery. `raw_arrival` is when the
/// message reaches the destination port (traversal + any jitter), before
/// ingress serialization; feed it to ingress_commit() to finish delivery.
struct Egress {
  bool delivered = true;
  std::uint64_t raw_arrival = 0;
};

/// Stateful port-contention model: deliver() returns the arrival time of a
/// message injected at `now`, accounting for egress/ingress serialization.
/// Per source port, calls must be made in non-decreasing `now` order; the
/// DES event loop guarantees time order, and the router's request path
/// injects at `now + 1`, so injection times may step back by at most one
/// cycle between calls. egress() enforces that bound explicitly (throws
/// std::logic_error) instead of silently folding a time regression into the
/// queueing statistics. Per destination port, ingress_commit() must see
/// non-decreasing raw arrivals — the router core guarantees this by
/// committing in-flight messages in canonical arrival order.
class Fabric {
 public:
  explicit Fabric(const FabricConfig& config, const FaultConfig& faults = {});

  /// Source-side half: egress serialization at `src`, traversal latency,
  /// and the jitter draw (from src's own RNG stream). Touches only
  /// src-owned state; always delivers.
  Egress egress(int src, std::uint64_t now);

  /// egress() with the loss layer applied first: the message may vanish to
  /// an outage window covering `now` at either endpoint or to a random drop
  /// (charged to src). Touches only src-port state (outage windows are
  /// immutable config).
  Egress egress_lossy(int src, int dst, std::uint64_t now);

  /// Destination-side half: ingress serialization at `dst`. Returns the
  /// final arrival cycle. Touches only dst-owned state.
  std::uint64_t ingress_commit(int dst, std::uint64_t raw_arrival);

  /// Schedules a message src -> dst injected at cycle `now`; returns its
  /// arrival cycle at dst. Never drops — faults are ignored on this path
  /// (the pre-fault API; the router core uses try_deliver).
  std::uint64_t deliver(int src, int dst, std::uint64_t now);

  /// deliver() with the fault layer applied: the message may be lost to a
  /// random drop or an outage window covering `now` at either endpoint, and
  /// delivered messages may arrive late by the configured jitter. With
  /// faults disabled this is exactly deliver().
  Delivery try_deliver(int src, int dst, std::uint64_t now);

  /// Clears port occupancy, statistics, and the per-port fault RNGs
  /// (between independent runs).
  void reset();

  /// Rebuilds the fabric for a new configuration: revalidates, recomputes
  /// the latency, resizes every per-port vector (occupancy and statistics)
  /// to the new port count, and resets all state. Lets one Fabric be reused
  /// across runs whose `ports` differ without stale or missized per-port
  /// entries.
  void reconfigure(const FabricConfig& config, const FaultConfig& faults = {});

  double latency_cycles() const { return latency_; }

  /// Minimum cycles between a message's injection and its raw arrival
  /// (jitter and queueing only push arrivals later).
  std::uint64_t min_lookahead() const { return min_lookahead_; }

  /// Aggregates the per-port counters into the legacy global view.
  FabricStats stats() const;

  const FabricConfig& config() const { return config_; }
  const FaultConfig& faults() const { return faults_; }
  bool faults_enabled() const { return faults_.enabled; }

 private:
  /// All mutable source-side state of one port. Cache-line aligned: the
  /// eight counters below then fill exactly one line.
  struct alignas(64) EgressPort {
    std::uint64_t free = 0;            ///< next free injection cycle
    std::uint64_t last_injection = 0;  ///< monotonicity guard (slack 1)
    std::uint64_t sent = 0;
    std::uint64_t queue_cycles = 0;
    std::uint64_t dropped = 0;
    std::uint64_t outage_dropped = 0;
    std::uint64_t jitter_events = 0;
    std::uint64_t jitter_cycles = 0;
    std::mt19937_64 rng;
  };

  struct alignas(64) IngressPort {
    std::uint64_t free = 0;  ///< next free delivery cycle
    std::uint64_t received = 0;
    std::uint64_t queue_cycles = 0;
  };

  bool port_down(int port, std::uint64_t now) const {
    return faults_.port_down(port, now);
  }
  void reset_ports();

  FabricConfig config_;
  FaultConfig faults_;
  double latency_;
  std::uint64_t min_lookahead_ = 0;
  std::vector<EgressPort> egress_;
  std::vector<IngressPort> ingress_;
};

}  // namespace spal::fabric
