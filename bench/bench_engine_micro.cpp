// Event-engine micro bench: per-event cost of the binary-heap EventQueue vs
// the CalendarQueue across the schedule patterns the router simulation
// actually produces. Emits one machine-readable JSON document on stdout so
// future PRs can track the perf trajectory:
//
//   {"bench":"engine_micro","events":N,"results":[
//     {"engine":"heap","pattern":"hold","ns_per_event":31.2,"checksum":...},
//     ...,
//     {"engine":"calendar","pattern":"streamed_arrivals","psi":16,...},
//     ...]}
//
// Patterns:
//   hold            classic hold model: steady population, pop-one/push-one
//                   within a bounded horizon (the DES steady state)
//   same_cycle      bursty: each pop pushes a batch at one shared future
//                   cycle (waiting-list release storms)
//   streamed_arrivals
//                   the router's loop: ψ arrival lanes at 40 Gbps merged
//                   with a hold-model in-flight population of 8 events per
//                   lane (1-64 cycles out) that runs while arrivals remain,
//                   at the e2e workloads' ψ = 4 and ψ = 16 (the rows carry
//                   "psi"). Per lane, ψ = 4 spans 4x the cycles of ψ = 16,
//                   so the same total arrivals meet about the same number
//                   of in-flight events at both. The calendar streams the
//                   arrivals from an ArrivalLane over a reserved seq range;
//                   the heap is fed every arrival up front, which pops the
//                   same order.
//   far_future      bimodal: 1/8 of pushes land ~1M cycles out (overflow
//                   heap path)
//
// Both engines are also cross-checked: each pattern's pop sequence must be
// identical (time and payload), which doubles as a fast equivalence check.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/engine.h"
#include "sim/packet_source.h"

using namespace spal;

namespace {

struct Payload {
  std::uint64_t id;
  std::uint64_t tag;
};

/// A deterministic op tape: replaying the same tape against both engines
/// yields comparable timings and identical pop sequences.
struct Op {
  std::uint64_t delta;  ///< schedule offset from the last popped time
  int pushes;           ///< events to push after this pop (0 = drain only)
};

std::vector<Op> make_tape(const char* pattern, std::size_t events,
                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Op> tape;
  tape.reserve(events);
  if (std::strcmp(pattern, "hold") == 0) {
    for (std::size_t i = 0; i < events; ++i) {
      tape.push_back({1 + rng() % 512, 1});
    }
  } else if (std::strcmp(pattern, "same_cycle") == 0) {
    // One shared release cycle per 8-burst, mimicking waiting-list storms.
    for (std::size_t i = 0; i < events; ++i) {
      tape.push_back({64 + rng() % 64, (i % 8 == 0) ? 8 : 0});
    }
  } else if (std::strcmp(pattern, "streamed_arrivals") == 0) {
    for (std::size_t i = 0; i < events; ++i) tape.push_back({1 + rng() % 64, 1});
  } else {  // far_future
    for (std::size_t i = 0; i < events; ++i) {
      tape.push_back({(i % 8 == 7) ? 1'000'000 + rng() % 4096 : 1 + rng() % 256, 1});
    }
  }
  return tape;
}

/// What one replay popped: an order-sensitive checksum (so runs can be
/// compared) and the event count.
struct Replay {
  std::uint64_t checksum = 0;
  std::uint64_t pops = 0;

  void record(std::uint64_t time, std::uint64_t id) {
    checksum = checksum * 0x9e3779b97f4a7c15ULL + (id ^ time);
    ++pops;
  }
};

/// Replays one tape: prefill, then pop/push per the tape.
template <typename Queue>
Replay replay(Queue& queue, const std::vector<Op>& tape) {
  std::uint64_t id = 0;
  // Steady-state population of 4K events.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 4096; ++i) {
    queue.schedule(rng() % 4096, Payload{id, id});
    ++id;
  }
  Replay out;
  std::size_t op_index = 0;
  while (!queue.empty()) {
    auto [now, payload] = queue.pop();
    out.record(now, payload.id);
    if (op_index < tape.size()) {
      const Op& op = tape[op_index++];
      for (int p = 0; p < op.pushes; ++p) {
        queue.schedule(now + op.delta, Payload{id, id ^ now});
        ++id;
      }
    }
  }
  return out;
}

/// The streamed_arrivals pattern's input: `arrivals` packets over `psi`
/// lanes at 40 Gbps, LC-major, with each lane's first packet id.
struct Lanes {
  std::vector<std::uint64_t> times;
  std::vector<std::size_t> first{0};
};

Lanes make_lanes(std::size_t arrivals, int psi) {
  Lanes lanes;
  for (int lc = 0; lc < psi; ++lc) {
    const auto times = sim::generate_arrival_times(
        40.0, arrivals / static_cast<std::size_t>(psi),
        42 ^ static_cast<std::uint64_t>(lc));
    lanes.times.insert(lanes.times.end(), times.begin(), times.end());
    lanes.first.push_back(lanes.times.size());
  }
  return lanes;
}

/// The streamed_arrivals pattern (see the file comment): while arrivals
/// remain, every in-flight pop pushes one successor at the tape's next
/// delta.
template <typename Queue>
Replay replay_streamed(Queue& queue, const std::vector<Op>& tape,
                       const Lanes& lanes) {
  constexpr std::uint64_t kArrival = std::uint64_t{1} << 63;
  const std::vector<std::uint64_t>& times = lanes.times;
  std::uint64_t id = 0;
  std::mt19937_64 rng(7);
  const std::size_t in_flight = 8 * (lanes.first.size() - 1);
  for (std::size_t i = 0; i < in_flight; ++i) {
    queue.schedule(rng() % 64, Payload{id, id});
    ++id;
  }
  constexpr bool kStreams = requires(Queue& q) { q.reserve_seqs(std::uint64_t{}); };
  sim::ArrivalLane lane;
  std::uint64_t arrival_seq = 0;
  if constexpr (kStreams) {
    arrival_seq = queue.reserve_seqs(times.size());
    lane = sim::ArrivalLane(times, lanes.first);
  } else {
    for (std::size_t p = 0; p < times.size(); ++p) {
      queue.schedule(times[p], Payload{kArrival | p, p});
    }
  }
  Replay out;
  std::size_t arrivals_left = times.size();
  std::size_t op_index = 0;
  for (;;) {
    std::uint64_t now = 0;
    Payload payload{};
    if constexpr (kStreams) {
      const bool from_lane =
          !lane.empty() &&
          (queue.empty() ||
           !queue.head_before(lane.next_time(), arrival_seq + lane.next_packet()));
      if (from_lane) {
        now = lane.next_time();
        const std::size_t p = lane.pop().packet;
        payload = Payload{kArrival | p, p};
      } else if (!queue.empty()) {
        std::tie(now, payload) = queue.pop();
      } else {
        break;
      }
    } else {
      if (queue.empty()) break;
      std::tie(now, payload) = queue.pop();
    }
    out.record(now, payload.id);
    if ((payload.id & kArrival) != 0) {
      --arrivals_left;
    } else if (arrivals_left != 0) {
      const Op& op = tape[op_index++ % tape.size()];
      queue.schedule(now + op.delta, Payload{id, id ^ now});
      ++id;
    }
  }
  return out;
}

struct Measurement {
  double ns_per_event;
  std::uint64_t events_processed;
  std::uint64_t checksum;
};

/// `psi` is the streamed_arrivals lane count; the other patterns have none.
template <typename Queue>
Measurement measure(const char* pattern, int psi, std::size_t events) {
  const std::vector<Op> tape = make_tape(pattern, events, /*seed=*/42);
  const bool streamed = psi != 0;
  const Lanes lanes = streamed ? make_lanes(events, psi) : Lanes{};
  Queue queue;
  const auto start = std::chrono::steady_clock::now();
  const Replay run = streamed ? replay_streamed(queue, tape, lanes)
                              : replay(queue, tape);
  const auto stop = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(stop - start).count();
  return {ns / static_cast<double>(run.pops), run.pops, run.checksum};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t events = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--events=", 9) == 0) {
      events = static_cast<std::size_t>(std::atoll(argv[i] + 9));
    }
  }
  struct Run {
    const char* pattern;
    int psi;  ///< arrival lanes; 0 for the patterns without any
  };
  const Run runs[] = {{"hold", 0},
                      {"same_cycle", 0},
                      {"streamed_arrivals", 4},
                      {"streamed_arrivals", 16},
                      {"far_future", 0}};
  std::printf("{\"bench\":\"engine_micro\",\"events\":%zu,\"results\":[", events);
  bool first = true;
  int mismatches = 0;
  for (const auto& [pattern, psi] : runs) {
    const Measurement heap =
        measure<sim::EventQueue<Payload>>(pattern, psi, events);
    const Measurement calendar =
        measure<sim::CalendarQueue<Payload>>(pattern, psi, events);
    if (heap.checksum != calendar.checksum) ++mismatches;
    const std::string lanes =
        psi != 0 ? ",\"psi\":" + std::to_string(psi) : std::string();
    std::printf("%s{\"engine\":\"heap\",\"pattern\":\"%s\"%s,\"ns_per_event\":%.2f,"
                "\"events_processed\":%llu,\"checksum\":%llu}",
                first ? "" : ",", pattern, lanes.c_str(), heap.ns_per_event,
                static_cast<unsigned long long>(heap.events_processed),
                static_cast<unsigned long long>(heap.checksum));
    std::printf(",{\"engine\":\"calendar\",\"pattern\":\"%s\"%s,\"ns_per_event\":%.2f,"
                "\"events_processed\":%llu,\"checksum\":%llu,\"speedup\":%.2f}",
                pattern, lanes.c_str(), calendar.ns_per_event,
                static_cast<unsigned long long>(calendar.events_processed),
                static_cast<unsigned long long>(calendar.checksum),
                heap.ns_per_event / calendar.ns_per_event);
    first = false;
  }
  std::printf("],\"order_mismatches\":%d}\n", mismatches);
  // A checksum mismatch means the engines popped different sequences — that
  // is a correctness bug, not a perf result.
  return mismatches == 0 ? 0 : 1;
}
