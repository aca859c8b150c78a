// SPAL — speedy packet lookup for high-performance routers.
//
// Umbrella header for the public API. Typical use:
//
//   #include "core/spal.h"
//
//   auto table = spal::net::make_rt2();                       // routing table
//   auto config = spal::core::spal_default_config(/*ψ=*/16);  // paper defaults
//   spal::core::RouterSim router(table, config);
//   auto result = router.run_workload(spal::trace::profile_d75());
//   std::cout << result.mean_lookup_cycles() << " cycles/lookup\n";
//
// Layers (each usable on its own):
//   net/        addresses, prefixes, routing tables, synthetic BGP tables
//   trie/       LPM indexes: binary, DP, Lulea, LC tries (+ memory models)
//   partition/  SPAL's control-bit selection and ROT-partitions
//   cache/      the LR-cache (M/W bits, γ mix, victim cache)
//   fabric/     switching-fabric latency / port-contention model
//   trace/      synthetic destination streams with tunable locality
//   sim/        event queue, packet timing, latency metrics
//   core/       the assembled router simulation and baselines
#pragma once

#include "cache/lr_cache.h"
#include "core/router_config.h"
#include "core/router_sim.h"
#include "core/router_sim6.h"
#include "fabric/fabric.h"
#include "fabric/queues.h"
#include "net/ip_addr.h"
#include "net/prefix.h"
#include "net/prefix6.h"
#include "net/route_table.h"
#include "net/table_gen.h"
#include "net/update_stream.h"
#include "partition/bit_selector.h"
#include "partition/rot_partition.h"
#include "sim/calendar_queue.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/packet_source.h"
#include "sim/sweep.h"
#include "trace/trace_gen.h"
#include "trie/binary_trie.h"
#include "trie/dp_trie.h"
#include "trie/gupta_trie.h"
#include "trie/lc_trie.h"
#include "trie/lpm.h"
#include "trie/lulea_trie.h"
#include "trie/stride_trie.h"
