#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

using Snapshot = nonrep::obs::Registry::Snapshot;

double counter(const Snapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double gauge_max(const Snapshot& s, const char* name) {
  auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : static_cast<double>(it->second.max);
}

nonrep::obs::HistogramStats hist(const Snapshot& s, const char* name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nonrep::obs::HistogramStats{} : it->second;
}

struct Layer {
  std::vector<double> dur_us;
  std::vector<double> self_us;
  double self_ns = 0.0;
};

}  // namespace

Metrics layer_metrics(const TracedRun& t) {
  Metrics m;
  const Window& serve = *t.serve;
  const double ops = std::max<double>(1.0, static_cast<double>(serve.finished()));

  // ---- spans: calls, durations, self times --------------------------------
  const std::vector<std::uint64_t> self = self_times(t.spans);
  std::map<std::string, Layer> layers;
  std::unordered_map<std::uint64_t, std::size_t> client_of;  // trace -> client span
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRec& s = t.spans[i];
    Layer& l = layers[s.name];
    l.dur_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    l.self_us.push_back(static_cast<double>(self[i]) * 1e-3);
    l.self_ns += static_cast<double>(self[i]);
    if (std::string_view(s.name) == "core.client") client_of[s.trace] = i;
  }
  // A client span's self time splits into what its thread spent on the CPU
  // (its own work: verification, codecs) and what it spent blocked with no
  // handler of its request running: network hand-offs and, on journal-backed
  // fleets, its own journal barriers.
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < t.spans.size(); ++i) by_id[t.spans[i].id] = i;
  std::vector<std::uint64_t> child_cpu(t.spans.size(), 0);
  for (const SpanRec& s : t.spans) {
    auto p = by_id.find(s.parent);
    if (p != by_id.end() && t.spans[p->second].thread == s.thread) child_cpu[p->second] += s.cpu_ns;
  }
  std::vector<double> client_busy_us;
  double client_busy_ns = 0.0;
  double blocked_ns = 0.0;
  for (const auto& [trace, i] : client_of) {
    const SpanRec& c = t.spans[i];
    const double busy =
        static_cast<double>(c.cpu_ns > child_cpu[i] ? c.cpu_ns - child_cpu[i] : 0);
    const double self_wall = static_cast<double>(self[i]);
    client_busy_us.push_back(std::min(busy, self_wall) * 1e-3);
    client_busy_ns += std::min(busy, self_wall);
    blocked_ns += std::max(0.0, self_wall - busy);
  }

  auto calls = [&](const char* name) {
    return static_cast<double>(layers[name].dur_us.size()) / ops;
  };
  auto self_ms = [&](const char* name) { return layers[name].self_ns * 1e-6 / ops; };

  // Attribution: each span's self time counts towards its request's latency
  // for the part of it that falls inside the request's client span.
  std::unordered_map<std::uint64_t, double> attributed_ns;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRec& s = t.spans[i];
    auto c = client_of.find(s.trace);
    if (s.trace == 0 || c == client_of.end() || s.end_ns <= s.start_ns) continue;
    const SpanRec& client = t.spans[c->second];
    const std::uint64_t lo = std::max(s.start_ns, client.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, client.end_ns);
    if (hi <= lo) continue;
    attributed_ns[s.trace] += static_cast<double>(self[i]) * static_cast<double>(hi - lo) /
                              static_cast<double>(s.end_ns - s.start_ns);
  }
  double e2e_ns = 0.0;
  double queue_ns = 0.0;
  double unattributed_ns = 0.0;
  std::vector<double> lag_us;
  std::vector<double> service_us;
  std::size_t failed = 0;
  for (const Request& r : serve.requests) {
    const double e2e = static_cast<double>(r.done_ns - r.scheduled_ns);
    auto c = client_of.find(r.index + 1);
    const std::uint64_t begin = c == client_of.end() ? r.woke_ns : t.spans[c->second].start_ns;
    const double queue = static_cast<double>(begin - r.scheduled_ns);
    e2e_ns += e2e;
    queue_ns += queue;
    unattributed_ns += e2e - queue - attributed_ns[r.index + 1];
    lag_us.push_back(static_cast<double>(r.woke_ns - r.scheduled_ns) * 1e-3);
    service_us.push_back(static_cast<double>(r.done_ns - r.woke_ns) * 1e-3);
    failed += r.outcome == Outcome::kFailed;
  }

  const Snapshot& so = t.serve_obs;
  const Snapshot& ro = t.read_obs;

  // crypto
  m["crypto.sign.calls_per_op"] = {calls("crypto.sign"), "1/op"};
  m["crypto.sign.us_p50"] = {percentile(layers["crypto.sign"].dur_us, 50), "us"};
  m["crypto.sign.us_p99"] = {percentile(layers["crypto.sign"].dur_us, 99), "us"};
  m["crypto.sign.self_ms_per_op"] = {self_ms("crypto.sign"), "ms"};
  const double vhits = counter(so, "crypto.verifier_cache_hits");
  const double vmiss = counter(so, "crypto.verifier_cache_misses");
  m["crypto.verify.calls_per_op"] = {(vhits + vmiss) / ops, "1/op"};
  m["crypto.verifier_cache.hit_ratio"] = {ratio(vhits, vhits + vmiss), "ratio"};

  // tsa
  m["tsa.countersign.calls_per_op"] = {calls("tsa.countersign"), "1/op"};
  m["tsa.countersign.us_p50"] = {percentile(layers["tsa.countersign"].dur_us, 50), "us"};
  m["tsa.countersign.us_p99"] = {percentile(layers["tsa.countersign"].dur_us, 99), "us"};
  m["tsa.countersign.self_ms_per_op"] = {self_ms("tsa.countersign"), "ms"};

  // pki, on the read side: per recovered record audited
  double records = 0.0;
  double restart_s = 0.0;
  std::vector<double> cold_ms, memo_ms, bundle_us, adjudicate_us;
  double segments = 0.0;
  double memoized = 0.0;
  for (const ReadRep& r : t.reps) {
    records += static_cast<double>(r.records);
    restart_s += r.restart_s;
    cold_ms.push_back(r.audit_cold_s * 1e3);
    memo_ms.push_back(r.audit_memo_s * 1e3);
    bundle_us.insert(bundle_us.end(), r.bundle_us.begin(), r.bundle_us.end());
    adjudicate_us.insert(adjudicate_us.end(), r.adjudicate_us.begin(), r.adjudicate_us.end());
    segments += static_cast<double>(r.segments);
    memoized += static_cast<double>(r.segments_memoized);
  }
  const double memo_hits = counter(ro, "pki.memo_hits");
  const double object_verifies = counter(ro, "pki.object_verifies");
  m["pki.memo.hit_ratio"] = {ratio(memo_hits, memo_hits + object_verifies), "ratio"};
  m["pki.object_verifies_per_op"] = {ratio(object_verifies, records), "1/op"};
  m["pki.chain_cache_hits_per_op"] = {ratio(counter(ro, "pki.chain_cache_hits"), records),
                                      "1/op"};

  // store
  m["store.log_append.calls_per_op"] = {calls("store.log_append"), "1/op"};
  m["store.log_append.us_p50"] = {percentile(layers["store.log_append"].dur_us, 50), "us"};
  m["store.log_append.us_p99"] = {percentile(layers["store.log_append"].dur_us, 99), "us"};
  m["store.log_append.self_ms_per_op"] = {self_ms("store.log_append"), "ms"};
  const double puts = counter(so, "store.object_puts");
  m["store.object_puts_per_op"] = {puts / ops, "1/op"};
  m["store.dedup_ratio"] = {ratio(counter(so, "store.dedup_hits"), puts), "ratio"};
  m["store.disk_bytes_per_op"] = {
      ratio(t.evidence_bytes, static_cast<double>(t.logged_exchanges)), "B/op"};

  // journal
  m["journal.appends_per_op"] = {counter(so, "journal.appends") / ops, "1/op"};
  m["journal.syncs_per_op"] = {counter(so, "journal.syncs") / ops, "1/op"};
  m["journal.fsync_us_p50"] = {hist(so, "journal.fsync_ns").p50 * 1e-3, "us"};
  m["journal.fsync_us_p99"] = {hist(so, "journal.fsync_ns").p99 * 1e-3, "us"};
  m["journal.batch_records_p50"] = {static_cast<double>(hist(so, "journal.batch_records").p50),
                                    "count"};
  m["journal.ticket_wait_us_p50"] = {hist(so, "journal.pipeline.ticket_wait_ns").p50 * 1e-3,
                                     "us"};
  m["journal.ticket_wait_us_p99"] = {hist(so, "journal.pipeline.ticket_wait_ns").p99 * 1e-3,
                                     "us"};
  m["journal.barrier_wait_us_p99"] = {hist(so, "journal.barrier_wait_ns").p99 * 1e-3, "us"};
  m["journal.pipeline.depth_max"] = {gauge_max(so, "journal.pipeline.depth"), "count"};
  m["journal.backpressure_waits_per_op"] = {
      counter(so, "journal.pipeline.backpressure_waits") / ops, "1/op"};
  m["journal.coalesced_per_op"] = {counter(so, "journal.pipeline.coalesced") / ops, "1/op"};
  m["journal.recovery_records_per_s"] = {t.journal ? ratio(records, restart_s) : 0.0, "1/s"};

  // net
  m["net.delivered_per_op"] = {counter(so, "net.delivered") / ops, "1/op"};
  m["net.dropped_per_op"] = {counter(so, "net.dropped") / ops, "1/op"};
  m["net.yields_per_op"] = {counter(so, "net.yields") / ops, "1/op"};
  m["net.delivery_wait_us_p50"] = {hist(so, "net.delivery_wait_ns").p50 * 1e-3, "us"};
  m["net.delivery_wait_us_p99"] = {hist(so, "net.delivery_wait_ns").p99 * 1e-3, "us"};
  m["net.queue_depth_max"] = {gauge_max(so, "net.queue_depth"), "count"};

  // util thread pool
  m["pool.executed_per_op"] = {counter(so, "pool.executed") / ops, "1/op"};
  m["pool.queue_depth_max"] = {gauge_max(so, "pool.queue_depth"), "count"};
  m["pool.active_workers_max"] = {gauge_max(so, "pool.active_workers"), "count"};

  // core handlers
  m["core.client.self_us_p50"] = {percentile(client_busy_us, 50), "us"};
  m["core.client.self_ms_per_op"] = {client_busy_ns * 1e-6 / ops, "ms"};
  m["core.client.blocked_ms_per_op"] = {blocked_ns * 1e-6 / ops, "ms"};
  m["core.server.self_us_p50"] = {percentile(layers["core.server"].self_us, 50), "us"};
  m["core.server.self_us_p99"] = {percentile(layers["core.server"].self_us, 99), "us"};
  m["core.server.self_ms_per_op"] = {self_ms("core.server"), "ms"};
  m["core.ttp.calls_per_op"] = {calls("core.ttp"), "1/op"};
  m["core.ttp.self_us_p50"] = {percentile(layers["core.ttp"].self_us, 50), "us"};
  m["core.ttp.self_ms_per_op"] = {self_ms("core.ttp"), "ms"};
  m["core.ttp.verdicts_per_op"] = {
      (counter(so, "ttp.verdict_aborted") + counter(so, "ttp.verdict_resolved")) / ops, "1/op"};

  // core evidence and dispute
  m["core.audit_log.cold_ms"] = {median(cold_ms), "ms"};
  m["core.audit_log.memo_ms"] = {median(memo_ms), "ms"};
  m["core.audit_log.segments_memoized_ratio"] = {ratio(memoized, segments), "ratio"};
  m["core.bundle_from_log.us_p50"] = {percentile(bundle_us, 50), "us"};
  m["core.adjudicate.us_p50"] = {percentile(adjudicate_us, 50), "us"};
  m["core.adjudicate.us_p99"] = {percentile(adjudicate_us, 99), "us"};

  // the benchmark's own load generator: validity checks
  m["scenario.injector_lag_us_p99"] = {percentile(lag_us, 99), "us"};
  m["scenario.service_us_p50"] = {percentile(service_us, 50), "us"};
  m["scenario.service_us_p99"] = {percentile(service_us, 99), "us"};
  m["scenario.queue_ms_per_op"] = {queue_ns * 1e-6 / ops, "ms"};
  m["scenario.fail_ratio"] = {ratio(static_cast<double>(failed),
                                    static_cast<double>(serve.requests.size())),
                              "ratio"};
  m["trace.unattributed_ms_per_op"] = {unattributed_ns * 1e-6 / ops, "ms"};
  m["trace.unattributed_share"] = {ratio(unattributed_ns, e2e_ns), "ratio"};
  const double traced_cpu_ms = serve.cpu_s * 1e3 / ops;
  m["trace.overhead_ratio"] = {ratio(traced_cpu_ms - t.untraced_cpu_ms, t.untraced_cpu_ms),
                               "ratio"};
  return m;
}

std::string trace_json(const TracedRun& t, const Metrics& layers) {
  const std::uint64_t origin =
      t.serve->requests.empty() ? 0 : t.serve->requests.front().scheduled_ns;
  std::string out = "{\"layers\": {";
  bool first = true;
  for (const auto& [name, metric] : layers) {
    if (name.find("self_ms_per_op") == std::string::npos && name != "core.client.blocked_ms_per_op" &&
        name != "trace.unattributed_ms_per_op" && name != "scenario.queue_ms_per_op") {
      continue;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6f", first ? "" : ", ", name.c_str(),
                  metric.value);
    out += buf;
    first = false;
  }
  out += "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRec& s = t.spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"id\": %llu, \"parent\": %llu, \"trace\": %llu, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"cpu_us\": %.3f, \"thread\": %u}",
                  i ? ",\n" : "", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace), s.name,
                  (static_cast<double>(s.start_ns) - static_cast<double>(origin)) * 1e-3,
                  (static_cast<double>(s.end_ns) - static_cast<double>(origin)) * 1e-3,
                  static_cast<double>(s.cpu_ns) * 1e-3, s.thread);
    out += buf;
  }
  return out + "\n]}\n";
}

}  // namespace perfbench
