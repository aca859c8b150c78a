// spal_report: validate and diff the JSON reports the benches emit with
// --json[=path] (schema in DESIGN.md, "JSON report schema").
//
// Usage:
//   spal_report --check report.json
//       Verify every cross-component invariant of a report: per-LC latency
//       counts sum to the router total, per-LC cache counters sum to
//       cache_total, the hit breakdown is consistent, fabric messages plus
//       dropped messages equal remote requests + replies, the fan-out
//       matrix sums to the request count, the update ledger balances (and
//       every block a cache invalidated is on the update or the migration
//       ledger), and the fault-recovery ledger balances (every timeout is a
//       retransmit or a degraded fallback, recovery actions cover every
//       dropped message, every degraded fallback resolves at least one
//       packet). Exit 0 when all points hold, 1 otherwise — CI runs this
//       on a small bench so a broken counter fails the build.
//       Points whose result carries `"kind": "lpm_batch"` (bench_lpm_batch)
//       are checked against that schema instead: positive timings, rate and
//       speedup consistent with ns_per_lookup, batch == scalar results, and
//       a non-empty `simd` dispatch level on every point.
//       bench_scale points carry their own kinds: `"kind": "scale_build"`
//       (positive table_size/build_ms/storage, speedup == baseline/build)
//       and `"kind": "tier_curve"` (per-LC byte bounds ordered, mean
//       cycles >= matching overhead, tier placed_bytes summing to
//       storage_bytes). Router points that carry a `memory` object get the
//       memory-tier ledger checked too: lookups == fe_lookups, charged ==
//       matching + per-tier cycles, placed bytes == storage bytes, and FE
//       busy cycles == charged + update cycles. Points that carry a
//       `failover` object (replication/migration runs) get the failover
//       ledger checked too: control messages decompose into the protocol's
//       message kinds, cutovers == migrations + resync cutovers, the probe
//       and rejoin orderings hold, and the generalized update conservation
//       rules (update messages == applications - resync entries, the
//       acting-primary invalidation fan-out) balance.
//       bench_loadbalance points carrying `"kind": "partition_balance"`
//       check the traffic-aware partitioning conservation rule instead:
//       the per-LC expected loads sum to the total trace weight and the
//       Jain/max-share fairness metrics match their inputs. Router points
//       that carry a `rebalancer` object get the online-rebalancer ledger
//       checked: every skew detection is acted on or accounted to exactly
//       one skipped_* counter, completed + aborted migrations never exceed
//       the triggered count, and the failover block's migration count
//       equals completed_migrations.
//
//   spal_report base.json new.json [--tolerance=PCT]
//       Diff two reports point-by-point (matched by label): flags points
//       whose mean/p99 lookup cycles rose or whose hit rate fell by more
//       than PCT percent (default 2). Timing points are only compared when
//       both sides ran at the same `simd` level; mismatched pairs are
//       skipped. Exit 1 when any regression is found.
//
// The parser below is a deliberately small recursive-descent reader for the
// reports' fixed schema — the toolchain has no JSON library, and the tool
// must not grow a dependency the benches don't have. The LR-cache counter
// list comes from a header that needs only the standard library, so the
// tool links no SPAL library.
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "cache/lr_cache_stats.h"

namespace {

// --- minimal JSON value + parser -----------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const char* key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Returns false (with a message in error()) on malformed input.
  bool parse(JsonValue& out) {
    pos_ = 0;
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing bytes after document");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const char* message) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer, "%s (offset %zu)", message, pos_);
    error_ = buffer;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' in object");
      }
      ++pos_;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          default: return fail("unsupported escape in string");
        }
        continue;
      }
      out += c;
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue& out) {
    out.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("expected boolean");
  }

  bool parse_null(JsonValue& out) {
    out.kind = JsonValue::Kind::kNull;
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return fail("expected null");
  }

  bool parse_number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out.number = std::strtod(start, &end);
    if (end == start) return fail("expected number");
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// --- report access helpers ------------------------------------------------

/// Fetches a numeric field along an object path, failing loudly: a missing
/// counter in a report is a schema bug, not a zero.
bool get_number(const JsonValue& root, std::initializer_list<const char*> path,
                double& out, std::string& where) {
  const JsonValue* node = &root;
  where.clear();
  for (const char* key : path) {
    if (!where.empty()) where += '.';
    where += key;
    node = node->find(key);
    if (node == nullptr) return false;
  }
  if (node->kind != JsonValue::Kind::kNumber) return false;
  out = node->number;
  return true;
}

bool load_file(const char* path, std::string& out) {
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) return false;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    out.append(buffer, n);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

// --- invariant checking (--check) ----------------------------------------

struct CheckContext {
  const char* file = nullptr;
  std::string label;
  int failures = 0;

  void fail(const char* fmt, ...) {
    std::fprintf(stderr, "%s [%s]: ", file, label.c_str());
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    ++failures;
  }
};

/// Exact equality between counters parsed from the report. Counts are
/// integers well below 2^53, so double comparison is exact.
void expect_eq(CheckContext& ctx, const char* what, double actual,
               double expected) {
  if (actual != expected) {
    ctx.fail("%s: %.0f != %.0f", what, actual, expected);
  }
}

void expect_le(CheckContext& ctx, const char* what, double lhs, double rhs) {
  if (lhs > rhs) {
    ctx.fail("%s: %.0f > %.0f", what, lhs, rhs);
  }
}

double require(CheckContext& ctx, const JsonValue& result,
               std::initializer_list<const char*> path) {
  double value = 0.0;
  std::string where;
  if (!get_number(result, path, value, where)) {
    ctx.fail("missing numeric field '%s'", where.c_str());
  }
  return value;
}

/// Sums `key` across every per-LC cache object.
double per_lc_cache_sum(const JsonValue& per_lc, const char* key) {
  double sum = 0.0;
  for (const JsonValue& lc : per_lc.array) {
    const JsonValue* cache = lc.find("cache");
    if (cache == nullptr) continue;
    const JsonValue* field = cache->find(key);
    if (field != nullptr) sum += field->number;
  }
  return sum;
}

void check_result(CheckContext& ctx, const JsonValue& result) {
  const double resolved = require(ctx, result, {"resolved_packets"});
  const double latency_count = require(ctx, result, {"latency", "count"});
  expect_eq(ctx, "latency.count vs resolved_packets", latency_count, resolved);

  // Hit breakdown: every completed hit is LOC- or REM-homed; victim hits
  // are a subset; probes split into hits, misses, and waiting matches.
  const double hits = require(ctx, result, {"cache_total", "hits"});
  const double loc = require(ctx, result, {"cache_total", "loc_hits"});
  const double rem = require(ctx, result, {"cache_total", "rem_hits"});
  const double victim = require(ctx, result, {"cache_total", "victim_hits"});
  const double waiting = require(ctx, result, {"cache_total", "waiting_hits"});
  const double misses = require(ctx, result, {"cache_total", "misses"});
  const double probes = require(ctx, result, {"cache_total", "probes"});
  expect_eq(ctx, "cache_total.hits vs loc_hits+rem_hits", hits, loc + rem);
  expect_le(ctx, "cache_total.victim_hits vs hits", victim, hits);
  expect_eq(ctx, "cache_total.probes vs hits+misses+waiting_hits", probes,
            hits + misses + waiting);

  // Fabric: requests and replies count transmission attempts; a message
  // either traverses the fabric (messages) or is lost at injection
  // (dropped). Delivered messages leave one port and enter another; drops
  // are charged to the injecting port.
  const double remote_requests = require(ctx, result, {"remote_requests"});
  const double remote_replies = require(ctx, result, {"remote_replies"});
  const double messages = require(ctx, result, {"fabric", "messages"});
  const double dropped = require(ctx, result, {"fabric", "dropped"});
  const double update_messages = require(ctx, result, {"update", "update_messages"});
  const double invalidation_messages =
      require(ctx, result, {"update", "invalidation_messages"});
  // Failover ledger (optional block: present when replication or migration
  // was configured). Its control traffic rides the same fabric, and its
  // deferral/resync machinery generalizes the update conservation rules;
  // with the block absent every failover term below is zero and the rules
  // reduce to their pre-failover forms.
  const JsonValue* failover = result.find("failover");
  double fo_control = 0.0, fo_resync_entries = 0.0, fo_replica_apps = 0.0,
         fo_acting = 0.0, fo_probes_sent = 0.0, fo_probe_replies_sent = 0.0,
         fo_migration_invalidated = 0.0;
  if (failover != nullptr) {
    fo_control = require(ctx, *failover, {"control_messages"});
    fo_resync_entries = require(ctx, *failover, {"resync_entries"});
    fo_replica_apps = require(ctx, *failover, {"replica_update_applications"});
    fo_acting = require(ctx, *failover, {"acting_primary_applications"});
    fo_probes_sent = require(ctx, *failover, {"probes_sent"});
    fo_probe_replies_sent = require(ctx, *failover, {"probe_replies_sent"});
    fo_migration_invalidated =
        require(ctx, *failover, {"migration_invalidated_blocks"});
  }
  expect_eq(ctx,
            "fabric.messages+dropped vs remote_requests+remote_replies"
            "+update_messages+invalidation_messages+control_messages",
            messages + dropped,
            remote_requests + remote_replies + update_messages +
                invalidation_messages + fo_control);

  // Live route-update ledger. All zero with the pipeline off, so these
  // hold for every router point.
  const double u_applied = require(ctx, result, {"update", "applied"});
  const double u_announces = require(ctx, result, {"update", "announces"});
  const double u_withdraws = require(ctx, result, {"update", "withdraws"});
  const double u_hop_changes = require(ctx, result, {"update", "hop_changes"});
  const double u_applications = require(ctx, result, {"update", "applications"});
  const double u_incremental = require(ctx, result, {"update", "fe_incremental"});
  const double u_rebuilds = require(ctx, result, {"update", "fe_rebuilds"});
  const double u_invalidated =
      require(ctx, result, {"update", "blocks_invalidated"});
  expect_eq(ctx, "update.applied vs announces+withdraws+hop_changes", u_applied,
            u_announces + u_withdraws + u_hop_changes);
  expect_eq(ctx, "update.applications vs fe_incremental+fe_rebuilds",
            u_applications, u_incremental + u_rebuilds);
  // A prefix with star control bits replicates into several fragments, so
  // each update applies at one or more home LCs.
  expect_le(ctx, "update.applied vs update.applications", u_applied,
            u_applications);
  // Resync re-applies arrive bundled inside resync chunks (control
  // messages), not as per-application update messages.
  expect_eq(ctx, "update.update_messages vs applications-resync_entries",
            update_messages, u_applications - fo_resync_entries);
  // Every application invalidates on the other ψ−1 LCs (when caches exist)
  // — except replica-copy applications (the primary's own broadcast already
  // covers the router) and resync re-applies (local invalidate only), while
  // an acting replica standing in for a dead primary broadcasts for it.
  const double psi = static_cast<double>(
      result.find("per_lc") != nullptr ? result.find("per_lc")->array.size() : 0);
  if (probes > 0 && psi > 0) {
    expect_eq(ctx,
              "update.invalidation_messages vs (applications-replica-resync"
              "+acting)*(psi-1)",
              invalidation_messages,
              (u_applications - fo_replica_apps - fo_resync_entries +
               fo_acting) *
                  (psi - 1));
  } else {
    expect_eq(ctx, "update.invalidation_messages (no caches)",
              invalidation_messages, 0.0);
  }
  // invalidated_blocks counts blocks dropped one by one (a flush counts in
  // `flushes`): by an update's selective invalidation or by a migration
  // cutover, each of which adds them to its own ledger.
  expect_eq(ctx,
            "cache_total.invalidated_blocks vs update.blocks_invalidated"
            "+failover.migration_invalidated_blocks",
            require(ctx, result, {"cache_total", "invalidated_blocks"}),
            u_invalidated + fo_migration_invalidated);
  if (const JsonValue* ports = result.find("fabric")
                                   ? result.find("fabric")->find("ports")
                                   : nullptr) {
    double sent = 0.0, received = 0.0, port_dropped = 0.0;
    for (const JsonValue& port : ports->array) {
      if (const JsonValue* v = port.find("sent")) sent += v->number;
      if (const JsonValue* v = port.find("received")) received += v->number;
      if (const JsonValue* v = port.find("dropped")) port_dropped += v->number;
    }
    expect_eq(ctx, "sum(ports.sent) vs fabric.messages", sent, messages);
    expect_eq(ctx, "sum(ports.received) vs fabric.messages", received,
              messages);
    expect_eq(ctx, "sum(ports.dropped) vs fabric.dropped", port_dropped,
              dropped);
  } else {
    ctx.fail("missing fabric.ports array");
  }

  // Fault-recovery ledger, against the fabric's losses. All zero in a
  // fault-free run, so the invariants hold (and are checked) for every
  // router point.
  const double timeouts = require(ctx, result, {"fault", "timeouts"});
  const double retransmits = require(ctx, result, {"fault", "retransmits"});
  const double fallbacks =
      require(ctx, result, {"fault", "degraded_fallbacks"});
  const double degraded = require(ctx, result, {"fault", "degraded_lookups"});
  const double reclaimed =
      require(ctx, result, {"fault", "reclaimed_waiting_blocks"});
  expect_le(ctx, "fabric.outage_dropped vs fabric.dropped",
            require(ctx, result, {"fabric", "outage_dropped"}), dropped);
  // Every non-stale timeout is answered: a retransmit while the retry
  // budget lasts, a degraded fallback when it is exhausted.
  expect_eq(ctx, "fault.timeouts vs retransmits+degraded_fallbacks", timeouts,
            retransmits + fallbacks);
  // Every dropped message belongs to some attempt of some request, and a
  // lost attempt always times out into a retransmit or a fallback — except
  // probes and probe replies, which are fire-and-forget and may be lost
  // without any recovery action (their terms are zero without failover).
  expect_le(ctx,
            "fabric.dropped vs retransmits+degraded_fallbacks+probes"
            "+probe_replies_sent",
            dropped,
            retransmits + fallbacks + fo_probes_sent + fo_probe_replies_sent);
  // Each fallback resolves at least the request's own packet (plus any
  // packets parked behind its block).
  expect_le(ctx, "fault.degraded_fallbacks vs degraded_lookups", fallbacks,
            degraded);
  // cancel_waiting() is only invoked by the fallback path, so the router's
  // reclaim counter and the caches' cancellation counter must agree.
  expect_eq(ctx,
            "fault.reclaimed_waiting_blocks vs "
            "cache_total.cancelled_reservations",
            reclaimed,
            require(ctx, result, {"cache_total", "cancelled_reservations"}));
  expect_le(ctx, "fault.reclaimed_waiting_blocks vs degraded_fallbacks",
            reclaimed, fallbacks);

  // Failover-internal conservation: control messages decompose exactly into
  // the protocol's message kinds, every cutover is a migration or a resync
  // completing, probe replies can't outnumber probes, a rejoin needs both a
  // probe reply and a recovery, reaching down passes through suspect, and
  // re-applied entries never exceed the deferrals that produced them.
  if (failover != nullptr) {
    const double probe_replies = require(ctx, *failover, {"probe_replies"});
    const double suspects = require(ctx, *failover, {"suspect_transitions"});
    const double downs = require(ctx, *failover, {"down_transitions"});
    const double recoveries = require(ctx, *failover, {"recoveries"});
    const double rejoins = require(ctx, *failover, {"rejoins"});
    const double missed = require(ctx, *failover, {"missed_updates"});
    const double resync_fetches = require(ctx, *failover, {"resync_fetches"});
    const double resync_chunks = require(ctx, *failover, {"resync_chunks"});
    const double resync_cutovers =
        require(ctx, *failover, {"resync_cutovers"});
    const double migrations = require(ctx, *failover, {"migrations"});
    const double migration_chunks =
        require(ctx, *failover, {"migration_chunks"});
    const double doubled =
        require(ctx, *failover, {"double_delivered_updates"});
    const double cutover_msgs = require(ctx, *failover, {"cutover_messages"});
    const double cutovers = require(ctx, *failover, {"cutovers"});
    const double rerouted = require(ctx, *failover, {"rerouted_requests"});
    const double replica_lookups =
        require(ctx, *failover, {"replica_lookups"});
    const double local_serves =
        require(ctx, *failover, {"local_replica_serves"});
    expect_eq(ctx,
              "failover.control_messages vs probes+probe_replies_sent"
              "+resync_fetches+resync_chunks+migration_chunks"
              "+double_delivered+cutover_messages",
              fo_control,
              fo_probes_sent + fo_probe_replies_sent + resync_fetches +
                  resync_chunks + migration_chunks + doubled + cutover_msgs);
    expect_eq(ctx, "failover.cutovers vs migrations+resync_cutovers",
              cutovers, migrations + resync_cutovers);
    expect_le(ctx, "failover.probe_replies vs probe_replies_sent",
              probe_replies, fo_probe_replies_sent);
    expect_le(ctx, "failover.probe_replies_sent vs probes_sent",
              fo_probe_replies_sent, fo_probes_sent);
    expect_le(ctx, "failover.rejoins vs probe_replies", rejoins,
              probe_replies);
    expect_le(ctx, "failover.rejoins vs recoveries", rejoins, recoveries);
    expect_le(ctx, "failover.down_transitions vs suspect_transitions", downs,
              suspects);
    expect_le(ctx, "failover.resync_entries vs missed_updates",
              fo_resync_entries, missed);
    // A fetch only starts with deferred entries queued, so its chain always
    // ships at least one chunk.
    expect_le(ctx, "failover.resync_fetches vs resync_chunks", resync_fetches,
              resync_chunks);
    expect_le(ctx, "failover.rerouted_requests vs remote_requests", rerouted,
              remote_requests);
    expect_le(ctx, "failover.local_replica_serves vs replica_lookups",
              local_serves, replica_lookups);
    expect_le(ctx, "failover.acting_primary_applications vs replica applies",
              fo_acting, fo_replica_apps);
  }

  // Online-rebalancer ledger (optional block: present when the rebalancer
  // was enabled). Every skew detection is acted on or accounted to exactly
  // one skipped_* counter; a migration that finished (or rolled back) was
  // first triggered; and — the rebalancer being the only migration driver
  // when enabled — the failover block's migration count must agree.
  if (const JsonValue* rebalancer = result.find("rebalancer")) {
    const double windows = require(ctx, *rebalancer, {"windows"});
    const double detections = require(ctx, *rebalancer, {"skew_detections"});
    const double triggered =
        require(ctx, *rebalancer, {"migrations_triggered"});
    const double in_flight = require(ctx, *rebalancer, {"skipped_in_flight"});
    const double no_target = require(ctx, *rebalancer, {"skipped_no_target"});
    const double budget = require(ctx, *rebalancer, {"skipped_budget"});
    const double completed =
        require(ctx, *rebalancer, {"completed_migrations"});
    const double aborted = require(ctx, *rebalancer, {"aborted_migrations"});
    expect_le(ctx, "rebalancer.skew_detections vs windows", detections,
              windows);
    expect_eq(ctx,
              "rebalancer.skew_detections vs triggered+skipped_in_flight"
              "+skipped_no_target+skipped_budget",
              detections, triggered + in_flight + no_target + budget);
    expect_le(ctx, "rebalancer.completed+aborted vs migrations_triggered",
              completed + aborted, triggered);
    if (failover != nullptr) {
      expect_eq(ctx, "failover.migrations vs rebalancer.completed_migrations",
                require(ctx, *failover, {"migrations"}), completed);
    } else {
      ctx.fail("rebalancer block without a failover block");
    }
  }

  // Outage-window latency is a restriction of the full latency histogram.
  if (const JsonValue* outage_latency = result.find("outage_latency")) {
    expect_le(ctx, "outage_latency.count vs latency.count",
              require(ctx, *outage_latency, {"count"}), latency_count);
  }

  // Fan-out matrix: one cell increment per remote request.
  if (const JsonValue* fanout = result.find("remote_fanout")) {
    double sum = 0.0;
    for (const JsonValue& row : fanout->array) {
      for (const JsonValue& cell : row.array) sum += cell.number;
    }
    expect_eq(ctx, "sum(remote_fanout) vs remote_requests", sum,
              remote_requests);
  } else {
    ctx.fail("missing remote_fanout matrix");
  }

  // Per-LC decomposition: latency counts, cache counters, and FE lookups
  // all sum to the router-wide totals.
  const JsonValue* per_lc = result.find("per_lc");
  if (per_lc == nullptr || per_lc->kind != JsonValue::Kind::kArray ||
      per_lc->array.empty()) {
    ctx.fail("missing per_lc array");
    return;
  }
  double lc_latency = 0.0, lc_fe = 0.0, lc_busy = 0.0;
  for (const JsonValue& lc : per_lc->array) {
    if (const JsonValue* latency = lc.find("latency")) {
      if (const JsonValue* count = latency->find("count")) {
        lc_latency += count->number;
      }
    }
    if (const JsonValue* fe = lc.find("fe")) {
      if (const JsonValue* lookups = fe->find("lookups")) {
        lc_fe += lookups->number;
      }
      if (const JsonValue* busy = fe->find("busy_cycles")) {
        lc_busy += busy->number;
      }
    }
  }
  expect_eq(ctx, "sum(per_lc.latency.count) vs latency.count", lc_latency,
            latency_count);
  expect_eq(ctx, "sum(per_lc.fe.lookups) vs fe_lookups", lc_fe,
            require(ctx, result, {"fe_lookups"}));
#define SPAL_COUNTER_KEY(name) #name,
  static const char* kCacheCounters[] = {SPAL_LR_CACHE_COUNTERS(SPAL_COUNTER_KEY)};
#undef SPAL_COUNTER_KEY
  for (const char* counter : kCacheCounters) {
    char what[96];
    std::snprintf(what, sizeof what, "sum(per_lc.cache.%s) vs cache_total.%s",
                  counter, counter);
    expect_eq(ctx, what, per_lc_cache_sum(*per_lc, counter),
              require(ctx, result, {"cache_total", counter}));
  }

  // Memory-tier ledger — present only when the run priced FE jobs with the
  // CRAM-lens model. Every FE job is a priced counted lookup, the charged
  // cycles decompose exactly into matching overhead plus per-tier access
  // cycles, the placed bytes cover the FEs' whole storage, and all FE busy
  // time is either priced lookups or update applications.
  if (const JsonValue* memory = result.find("memory")) {
    const double m_lookups = require(ctx, *memory, {"lookups"});
    const double m_overhead =
        require(ctx, *memory, {"matching_overhead_cycles"});
    const double m_matching = require(ctx, *memory, {"matching_cycles"});
    const double m_charged = require(ctx, *memory, {"charged_cycles"});
    const double m_storage = require(ctx, *memory, {"storage_bytes"});
    expect_eq(ctx, "memory.lookups vs fe_lookups", m_lookups,
              require(ctx, result, {"fe_lookups"}));
    expect_eq(ctx, "memory.matching_cycles vs lookups*overhead", m_matching,
              m_lookups * m_overhead);
    const JsonValue* tiers = memory->find("tiers");
    if (tiers == nullptr || tiers->kind != JsonValue::Kind::kArray ||
        tiers->array.empty()) {
      ctx.fail("missing memory.tiers array");
    } else {
      double placed = 0.0, tier_cycles = 0.0;
      for (const JsonValue& tier : tiers->array) {
        if (const JsonValue* v = tier.find("placed_bytes")) placed += v->number;
        if (const JsonValue* v = tier.find("cycles")) tier_cycles += v->number;
      }
      expect_eq(ctx, "sum(memory.tiers.placed_bytes) vs memory.storage_bytes",
                placed, m_storage);
      expect_eq(ctx, "memory.charged_cycles vs matching+tier cycles",
                m_charged, m_matching + tier_cycles);
      // Cumulative capacity: the packing never overfills a bounded tier
      // prefix (the last, unbounded tier absorbs any spill). Capacities are
      // per LC, so the budget scales with ψ.
      double capacity_prefix = 0.0, placed_prefix = 0.0;
      bool bounded = true;
      for (std::size_t t = 0; t + 1 < tiers->array.size() && bounded; ++t) {
        const JsonValue& tier = tiers->array[t];
        const double capacity = require(ctx, tier, {"capacity_bytes"});
        if (capacity <= 0.0) {
          bounded = false;
          break;
        }
        capacity_prefix += capacity;
        placed_prefix += require(ctx, tier, {"placed_bytes"});
        char what[96];
        std::snprintf(what, sizeof what,
                      "memory tier prefix 0..%zu placed vs psi*capacity", t);
        expect_le(ctx, what, placed_prefix, psi * capacity_prefix);
      }
    }
    expect_eq(ctx, "sum(per_lc.fe.busy_cycles) vs memory+update cycles",
              lc_busy,
              m_charged + require(ctx, result, {"update", "update_cost_cycles"}));
  }
}

/// Relative-tolerance comparison for derived metrics a bench emits alongside
/// their inputs (rounded independently when printed).
void expect_close(CheckContext& ctx, const char* what, double actual,
                  double expected, double rel_tolerance) {
  const double scale = expected < 0 ? -expected : expected;
  const double diff = actual - expected;
  if ((diff < 0 ? -diff : diff) > rel_tolerance * (scale > 1.0 ? scale : 1.0)) {
    ctx.fail("%s: %g not within %.2g%% of %g", what, actual,
             100.0 * rel_tolerance, expected);
  }
}

/// bench_lpm_batch point ("kind": "lpm_batch"): host-side timing sanity and
/// the batch-equals-scalar guarantee.
void check_lpm_result(CheckContext& ctx, const JsonValue& result) {
  const double lookups = require(ctx, result, {"lookups"});
  const double batch = require(ctx, result, {"batch"});
  const double table_size = require(ctx, result, {"table_size"});
  const double storage = require(ctx, result, {"storage_bytes"});
  const double ns = require(ctx, result, {"ns_per_lookup"});
  const double rate = require(ctx, result, {"lookups_per_second"});
  const double scalar_ns = require(ctx, result, {"scalar_ns_per_lookup"});
  const double speedup = require(ctx, result, {"speedup_vs_scalar"});
  if (lookups <= 0) ctx.fail("lookups: %.0f not positive", lookups);
  if (batch < 1) ctx.fail("batch: %.0f below 1", batch);
  if (table_size <= 0) ctx.fail("table_size: %.0f not positive", table_size);
  if (storage <= 0) ctx.fail("storage_bytes: %.0f not positive", storage);
  if (ns <= 0.0 || scalar_ns <= 0.0) {
    ctx.fail("ns_per_lookup: %g / scalar %g not positive", ns, scalar_ns);
  } else {
    expect_close(ctx, "lookups_per_second vs 1e9/ns_per_lookup", rate, 1e9 / ns,
                 0.01);
    expect_close(ctx, "speedup_vs_scalar vs scalar_ns/ns", speedup,
                 scalar_ns / ns, 0.01);
  }
  const JsonValue* match = result.find("match");
  if (match == nullptr || match->kind != JsonValue::Kind::kBool) {
    ctx.fail("missing boolean 'match'");
  } else if (!match->boolean) {
    ctx.fail("batch/scalar next-hop divergence (match == false)");
  }
  // Every timing point must name the dispatch level it ran at — perf
  // numbers from different SIMD tiers are not comparable.
  const JsonValue* simd = result.find("simd");
  if (simd == nullptr || simd->kind != JsonValue::Kind::kString ||
      simd->string.empty()) {
    ctx.fail("missing string 'simd' (batch-lookup dispatch level)");
  }
}

/// bench_scale build point ("kind": "scale_build"): bulk-build timing for
/// one trie kind at one table size, with the per-entry baseline and its
/// speedup when that kind has a per-entry path (baseline_ms == 0 otherwise).
void check_scale_build(CheckContext& ctx, const JsonValue& result) {
  const double table_size = require(ctx, result, {"table_size"});
  const double build_ms = require(ctx, result, {"build_ms"});
  const double baseline_ms = require(ctx, result, {"baseline_ms"});
  const double speedup = require(ctx, result, {"speedup"});
  const double storage = require(ctx, result, {"storage_bytes"});
  if (table_size <= 0) ctx.fail("table_size: %.0f not positive", table_size);
  if (build_ms <= 0.0) ctx.fail("build_ms: %g not positive", build_ms);
  if (storage <= 0) ctx.fail("storage_bytes: %.0f not positive", storage);
  if (baseline_ms > 0.0) {
    expect_close(ctx, "speedup vs baseline_ms/build_ms", speedup,
                 baseline_ms / build_ms, 0.01);
  } else {
    expect_eq(ctx, "speedup (no per-entry baseline)", speedup, 0.0);
  }
  const JsonValue* trie = result.find("trie");
  if (trie == nullptr || trie->kind != JsonValue::Kind::kString ||
      trie->string.empty()) {
    ctx.fail("missing string 'trie'");
  }
}

/// bench_scale SRAM-budget point ("kind": "tier_curve"): arena placement of
/// the per-LC fragments under one SRAM budget, plus the mean priced lookup.
/// The placed bytes must cover the fragments' whole storage and the mean
/// cycles can never dip below the fixed matching overhead.
void check_tier_curve(CheckContext& ctx, const JsonValue& result) {
  const double table_size = require(ctx, result, {"table_size"});
  const double psi = require(ctx, result, {"psi"});
  const double budget = require(ctx, result, {"sram_budget_bytes"});
  const double storage = require(ctx, result, {"storage_bytes"});
  const double per_lc_min = require(ctx, result, {"per_lc_bytes_min"});
  const double per_lc_max = require(ctx, result, {"per_lc_bytes_max"});
  const double overhead = require(ctx, result, {"matching_overhead_cycles"});
  const double mean_cycles = require(ctx, result, {"mean_lookup_cycles"});
  if (table_size <= 0) ctx.fail("table_size: %.0f not positive", table_size);
  if (psi < 1) ctx.fail("psi: %.0f below 1", psi);
  if (budget <= 0) ctx.fail("sram_budget_bytes: %.0f not positive", budget);
  expect_le(ctx, "per_lc_bytes_min vs per_lc_bytes_max", per_lc_min,
            per_lc_max);
  expect_le(ctx, "per_lc_bytes_max vs storage_bytes", per_lc_max, storage);
  expect_le(ctx, "matching overhead vs mean_lookup_cycles", overhead,
            mean_cycles);
  const JsonValue* tiers = result.find("tiers");
  if (tiers == nullptr || tiers->kind != JsonValue::Kind::kArray ||
      tiers->array.empty()) {
    ctx.fail("missing tiers array");
    return;
  }
  double placed = 0.0;
  for (const JsonValue& tier : tiers->array) {
    placed += require(ctx, tier, {"placed_bytes"});
  }
  expect_eq(ctx, "sum(tiers.placed_bytes) vs storage_bytes", placed, storage);
}

/// bench_loadbalance partition point ("kind": "partition_balance"): the
/// per-LC expected loads of one partitioning policy under one workload's
/// traffic weights. Conservation: the loads sum to the total trace weight
/// (a prefix replicated by star control bits splits its traffic, never
/// duplicates it), and the derived fairness metrics match their inputs.
void check_partition_balance(CheckContext& ctx, const JsonValue& result) {
  const double psi = require(ctx, result, {"psi"});
  const double total = require(ctx, result, {"total_weight"});
  const double jain = require(ctx, result, {"jain_fairness"});
  const double max_share = require(ctx, result, {"max_share"});
  if (psi < 1) ctx.fail("psi: %.0f below 1", psi);
  if (total <= 0.0) ctx.fail("total_weight: %g not positive", total);
  const JsonValue* loads = result.find("per_lc_loads");
  if (loads == nullptr || loads->kind != JsonValue::Kind::kArray) {
    ctx.fail("missing per_lc_loads array");
    return;
  }
  if (static_cast<double>(loads->array.size()) != psi) {
    ctx.fail("per_lc_loads has %zu entries, psi is %.0f",
             loads->array.size(), psi);
    return;
  }
  double sum = 0.0, sum_sq = 0.0, max_load = 0.0;
  for (const JsonValue& load : loads->array) {
    if (load.kind != JsonValue::Kind::kNumber || load.number < 0.0) {
      ctx.fail("per_lc_loads entry not a non-negative number");
      return;
    }
    sum += load.number;
    sum_sq += load.number * load.number;
    if (load.number > max_load) max_load = load.number;
  }
  expect_close(ctx, "sum(per_lc_loads) vs total_weight", sum, total, 1e-6);
  if (sum_sq > 0.0) {
    expect_close(ctx, "jain_fairness vs (sum^2)/(psi*sum_sq)", jain,
                 sum * sum / (psi * sum_sq), 1e-6);
  }
  if (sum > 0.0) {
    expect_close(ctx, "max_share vs max(per_lc_loads)/sum", max_share,
                 max_load / sum, 1e-6);
    // 1/psi (perfect balance) bounds the share from below.
    if (max_share * psi < 1.0 - 1e-6) {
      ctx.fail("max_share %g below 1/psi", max_share);
    }
  }
  const JsonValue* balance = result.find("balance");
  if (balance == nullptr || balance->kind != JsonValue::Kind::kString ||
      (balance->string != "count" && balance->string != "traffic")) {
    ctx.fail("missing or invalid 'balance' (expected count|traffic)");
  }
}

bool load_report(const char* path, JsonValue& out) {
  std::string text;
  if (!load_file(path, text)) {
    std::fprintf(stderr, "spal_report: cannot read '%s'\n", path);
    return false;
  }
  JsonParser parser(text);
  if (!parser.parse(out)) {
    std::fprintf(stderr, "spal_report: %s: %s\n", path, parser.error().c_str());
    return false;
  }
  if (out.find("points") == nullptr ||
      out.find("points")->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "spal_report: %s: no 'points' array\n", path);
    return false;
  }
  return true;
}

int run_check(const char* path) {
  JsonValue report;
  if (!load_report(path, report)) return 1;
  const JsonValue* points = report.find("points");
  if (points->array.empty()) {
    std::fprintf(stderr, "spal_report: %s: empty 'points' array\n", path);
    return 1;
  }
  CheckContext ctx;
  ctx.file = path;
  for (const JsonValue& point : points->array) {
    const JsonValue* label = point.find("label");
    const JsonValue* result = point.find("result");
    ctx.label = label != nullptr ? label->string : "<unlabelled>";
    if (result == nullptr) {
      ctx.fail("point has no 'result' object");
      continue;
    }
    const JsonValue* kind = result->find("kind");
    if (kind != nullptr && kind->string == "lpm_batch") {
      check_lpm_result(ctx, *result);
    } else if (kind != nullptr && kind->string == "scale_build") {
      check_scale_build(ctx, *result);
    } else if (kind != nullptr && kind->string == "tier_curve") {
      check_tier_curve(ctx, *result);
    } else if (kind != nullptr && kind->string == "partition_balance") {
      check_partition_balance(ctx, *result);
    } else {
      check_result(ctx, *result);
    }
  }
  if (ctx.failures > 0) {
    std::fprintf(stderr, "spal_report: %d invariant failure(s) in %s\n",
                 ctx.failures, path);
    return 1;
  }
  std::printf("spal_report: %zu point(s) in %s satisfy all invariants\n",
              points->array.size(), path);
  return 0;
}

// --- regression diff ------------------------------------------------------

const JsonValue* find_point(const JsonValue& report, const std::string& label) {
  for (const JsonValue& point : report.find("points")->array) {
    const JsonValue* l = point.find("label");
    if (l != nullptr && l->string == label) return &point;
  }
  return nullptr;
}

int run_diff(const char* base_path, const char* new_path, double tolerance_pct) {
  JsonValue base, next;
  if (!load_report(base_path, base) || !load_report(new_path, next)) return 1;

  // Metric, path into result, and direction (+1: an increase is a
  // regression; -1: a decrease is).
  struct Metric {
    const char* name;
    std::initializer_list<const char*> path;
    int bad_direction;
  };
  static const Metric kMetrics[] = {
      {"mean_cycles", {"latency", "mean_cycles"}, +1},
      {"p99_cycles", {"latency", "p99"}, +1},
      {"worst_cycles", {"latency", "worst_cycles"}, +1},
      {"hit_rate", {"cache_total", "hit_rate"}, -1},
      // lpm_batch points (router points skip these: the fields are absent).
      {"ns_per_lookup", {"ns_per_lookup"}, +1},
      {"speedup_vs_scalar", {"speedup_vs_scalar"}, -1},
  };

  int regressions = 0;
  int compared = 0;
  for (const JsonValue& point : next.find("points")->array) {
    const JsonValue* label = point.find("label");
    const JsonValue* result = point.find("result");
    if (label == nullptr || result == nullptr) continue;
    const JsonValue* base_point = find_point(base, label->string);
    if (base_point == nullptr) {
      std::printf("  new point (no baseline): %s\n", label->string.c_str());
      continue;
    }
    const JsonValue* base_result = base_point->find("result");
    if (base_result == nullptr) continue;
    // Timing points are only comparable at the same SIMD dispatch level:
    // skip pairs whose levels differ or where only one side records one
    // (labels normally encode the level, so this guards edited reports).
    const JsonValue* base_simd = base_result->find("simd");
    const JsonValue* new_simd = result->find("simd");
    const bool base_has_simd =
        base_simd != nullptr && base_simd->kind == JsonValue::Kind::kString;
    const bool new_has_simd =
        new_simd != nullptr && new_simd->kind == JsonValue::Kind::kString;
    if (base_has_simd != new_has_simd ||
        (base_has_simd && base_simd->string != new_simd->string)) {
      std::printf("  skipped (simd level mismatch): %s\n",
                  label->string.c_str());
      continue;
    }
    ++compared;
    for (const Metric& metric : kMetrics) {
      double before = 0.0, after = 0.0;
      std::string where;
      if (!get_number(*base_result, metric.path, before, where) ||
          !get_number(*result, metric.path, after, where)) {
        continue;
      }
      if (before == 0.0) continue;
      const double change_pct = 100.0 * (after - before) / before;
      if (change_pct * metric.bad_direction > tolerance_pct) {
        std::printf("REGRESSION %s: %s %.6g -> %.6g (%+.2f%%)\n",
                    label->string.c_str(), metric.name, before, after,
                    change_pct);
        ++regressions;
      }
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "spal_report: no shared labels between %s and %s\n",
                 base_path, new_path);
    return 1;
  }
  if (regressions > 0) {
    std::printf("spal_report: %d regression(s) beyond %.2f%% across %d "
                "shared point(s)\n",
                regressions, tolerance_pct, compared);
    return 1;
  }
  std::printf("spal_report: no regressions beyond %.2f%% across %d shared "
              "point(s)\n",
              tolerance_pct, compared);
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: spal_report --check report.json\n"
               "       spal_report base.json new.json [--tolerance=PCT]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--check") == 0) {
    if (argc != 3) usage();
    return run_check(argv[2]);
  }
  if (argc >= 3 && argv[1][0] != '-' && argv[2][0] != '-') {
    double tolerance = 2.0;
    for (int i = 3; i < argc; ++i) {
      if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
        char* end = nullptr;
        tolerance = std::strtod(argv[i] + 12, &end);
        if (end == argv[i] + 12 || *end != '\0' || tolerance < 0.0) usage();
      } else {
        usage();
      }
    }
    return run_diff(argv[1], argv[2], tolerance);
  }
  usage();
}
