// perfbench: the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload from a seed, checks that the evidence it produced is
// correct, and prints as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The line before it is a fuller report: the sample
// count behind every figure and the metrics printed but not gated. Traced
// runs also write their spans to .bench_out/trace-<workload>-<seed>.json.
// perfbench/README.md documents the workloads and every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "layers.hpp"
#include "speed.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Workload {
  const char* name;
  bool journal;  // object-mode journals with SyncPolicy::kEveryRecord
  bool tsa;
  Inputs::Mix mix;
  double loss;
  double ttp_ratio;
  double rate;          // fixed offered rate of the serve phase, req/s
  double serve_share;   // serve phase length, as a share of --seconds
  std::size_t corpus;   // exchanges logged during set-up, before timing
};

// Offered rates sit at a quarter or less of each workload's max_rate_rps on
// the one CPU a run is pinned to, well below the knee: in the runs where a
// busy hardware sibling slows that CPU, the serve phase still does not queue.
// The corpus is what set-up logs before timing: the evidence every read
// round reopens and audits.
constexpr Workload kWorkloads[] = {
    {"nr-invoke", false, false, Inputs::Mix::kSmall, 0.0, 0.0, 400, 0.75, 2000},
    {"nr-invoke-durable", true, true, Inputs::Mix::kMixed, 0.0, 0.0, 100, 1.0, 500},
    {"nr-invoke-faults", false, false, Inputs::Mix::kSmall, 0.02, 0.2, 300, 1.0, 2000},
};

constexpr std::size_t kCycles = 16;
// Serve segments and solo bursts per cycle: each short enough (under half a
// second) to sit in one speed state of the CPU, which changes every few
// seconds.
constexpr std::size_t kServePieces = 2;
constexpr std::size_t kSoloBursts = 2;
constexpr std::size_t kSoloPerBurst = 50;
constexpr std::size_t kRoundsPerCycle = 2;
// Set-ups: the kept fleet's, then a spare one in every cycle c with
// c % kSpareSetupEvery == 1 (cycles 1, 5, 9 and 13): five in all.
constexpr std::size_t kSpareSetupEvery = 4;
constexpr std::size_t kDisputesPerRound = 100;
constexpr std::size_t kChunk = 1000;
constexpr double kSaturateShare = 0.1;  // of --seconds
constexpr std::size_t kMaxRequests = 1'000'000;

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) out += (out.size() > 1 ? ", " : "") + num(v);
  return out + "]";
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(metric.value) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// p99 of each consecutive chunk of kChunk requests (each has >= 10 samples
/// beyond its p99), then the median across chunks: one stall of a
/// descheduled thread moves one chunk, not the run's figure.
double chunked_p99(const std::vector<double>& lat) {
  std::vector<double> p99s;
  for (std::size_t i = 0; i + kChunk <= lat.size(); i += kChunk) {
    p99s.push_back(percentile({lat.begin() + static_cast<std::ptrdiff_t>(i),
                               lat.begin() + static_cast<std::ptrdiff_t>(i + kChunk)},
                              99.0));
  }
  return p99s.empty() ? percentile(lat, 99.0) : median(p99s);
}

struct Run {
  const Workload& w;
  std::uint64_t seed;
  double seconds;
  std::string out_dir;
  Inputs inputs;
  std::size_t next_index = 0;
  std::vector<Request> all;  // every request the kept fleet served
  std::size_t setup_attempted = 0;  // corpus exchanges of every set-up
  std::size_t setup_failed = 0;
  nonrep::Status status = nonrep::Status::ok_status();

  Run(const Workload& wl, std::uint64_t s, double secs, std::string dir)
      : w(wl), seed(s), seconds(secs), out_dir(std::move(dir)),
        inputs(s, wl.mix, wl.ttp_ratio) {}

  void fail(const nonrep::Status& s) {
    if (status && !s) status = s;
  }

  Window window(Fleet& fleet, double rate, std::size_t count, bool traced,
                double stop_after_s = 0.0, std::size_t injectors = kInjectors) {
    Window win =
        run_window(fleet, inputs, rate, next_index, count, traced, stop_after_s, injectors);
    // A stopped window leaves gaps; the next one starts past all of it.
    for (const Request& r : win.requests) {
      next_index = std::max<std::size_t>(next_index, r.index + 1);
    }
    all.insert(all.end(), win.requests.begin(), win.requests.end());
    return win;
  }

  /// Builds the workload's fleet under out_dir/<name> and lets caches,
  /// pools and lazy set-up settle by logging the workload's corpus (the
  /// evidence the read rounds reopen and audit). Returns the fleet, its
  /// corpus requests and the seconds this took: one set-up.
  std::unique_ptr<Fleet> build(bool traced, const std::string& name,
                               std::vector<Request>& corpus, double& seconds) {
    FleetOptions o;
    o.seed = seed;
    o.traced = traced;
    const std::string root = out_dir + "/" + name;
    o.journal_root = w.journal ? root : "";
    o.tsa = w.tsa;
    o.loss = w.loss;
    fs::remove_all(root);
    const std::uint64_t t0 = now_ns();
    auto fleet = std::make_unique<Fleet>(o);
    fail(fleet->status());
    if (status) {
      Window win = run_window(*fleet, inputs, 0.0, 0, w.corpus, traced);
      setup_attempted += win.requests.size();
      setup_failed += win.failed();
      corpus = std::move(win.requests);
    }
    seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    return fleet;
  }

  /// The set-up of a fleet the run goes on with; its corpus starts `all`.
  /// The traced run keeps a plain fleet alive beside the traced one.
  std::unique_ptr<Fleet> setup(bool traced, std::vector<double>& times) {
    std::vector<Request> corpus;
    times.emplace_back();
    auto fleet = build(traced, traced ? "traced-fleet" : "fleet", corpus, times.back());
    all = std::move(corpus);
    next_index = w.corpus;
    return fleet;
  }

  /// One more set-up, timed and torn down.
  void spare_setup(std::vector<double>& times) {
    std::vector<Request> corpus;
    times.emplace_back();
    build(false, "spare-fleet", corpus, times.back());
    fs::remove_all(out_dir + "/spare-fleet");
  }

  /// Fleet audit and the fairness check over everything the fleet served.
  /// Returns the fairness misses.
  std::size_t check(Fleet& fleet) {
    fail(audit_fleet(fleet, all));
    return fairness_misses(fleet, all);
  }
};

struct Result {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string report;  // JSON fields of the report line
};

/// Timings of one quantity, each with the slowdown of the machine while it
/// was taken.
struct Timings {
  std::vector<double> raw, slowdown;
  void add(double value, double f) {
    raw.push_back(value);
    slowdown.push_back(f);
  }
  /// The gated figure: the first quartile of the timings scaled to the
  /// reference machine's speed. The scaled timings of a memory-bound step
  /// form two clusters, as the kernel slows more than such a step in the
  /// CPU's slow state; the share of each changes from run to run, so a
  /// median jumps between them, while the first quartile stays in the lower
  /// one whenever it holds more than a quarter of the samples.
  double at_reference() const {
    std::vector<double> scaled;
    for (std::size_t i = 0; i < raw.size(); ++i) scaled.push_back(raw[i] / slowdown[i]);
    return percentile(scaled, 25);
  }
  double median_raw() const { return median(raw); }
};

/// --trace 0: every end-to-end metric. The serve, solo, restart-and-audit
/// and saturate phases alternate kCycles times, so each metric samples the
/// whole run rather than one stretch of it. The speed kernel runs between
/// every two timed steps on the same CPU; each timing is divided by the
/// slowdown the kernel read before and after it (speed.hpp).
Result run_end_to_end(Run& run) {
  Result out;
  double last_kernel = kernel_ns();
  // Times `phase`, which returns its own figure, against the kernel.
  auto timed = [&](Timings& t, auto&& phase) {
    const double before = last_kernel;
    const double value = phase();
    last_kernel = kernel_ns();
    t.add(value, slowdown(before, last_kernel));
  };
  Timings setup, p50, solo, restart, cold, memo, dispute;
  std::vector<double> setup_times;
  std::unique_ptr<Fleet> fleet;
  timed(setup, [&] {
    fleet = run.setup(false, setup_times);
    return setup_times.back();
  });
  if (!run.status) return out;

  CrashImage image;
  run.fail(take_image(*fleet, run.out_dir + "/image", run.all, image));
  const double bytes = static_cast<double>(evidence_bytes(*fleet));
  const std::size_t logged = finished(run.all);
  const std::size_t setup_requests = run.all.size();
  const auto segment = static_cast<std::size_t>(
      std::ceil(run.w.rate * run.w.serve_share * run.seconds / kCycles / kServePieces));
  const double saturate_s = kSaturateShare * run.seconds / kCycles;
  std::vector<double> lat, rates, disputes;
  double rss_mb = 0.0;
  last_kernel = kernel_ns();
  for (std::size_t c = 0; c < kCycles && run.status; ++c) {
    for (std::size_t k = 0; k < kServePieces; ++k) {
      timed(p50, [&] {
        const Window serve = run.window(*fleet, run.w.rate, segment, false);
        const std::vector<double> l = latencies_ms(serve);
        lat.insert(lat.end(), l.begin(), l.end());
        out.attempted += serve.requests.size();
        out.failed += serve.failed();
        return percentile(l, 50);
      });
    }
    // One exchange at a time from one injector: the CPU an exchange costs,
    // without the lock and wake-up contention of concurrent exchanges.
    for (std::size_t k = 0; k < kSoloBursts; ++k) {
      timed(solo, [&] {
        const Window w = run.window(*fleet, 0.0, kSoloPerBurst, false, 0.0, 1);
        out.attempted += w.requests.size();
        out.failed += w.failed();
        return ratio(w.cpu_s * 1e3, static_cast<double>(w.finished()));
      });
    }
    for (std::size_t k = 0; k < kRoundsPerCycle && run.status; ++k) {
      ReadRep round;
      run.fail(read_round(*fleet, image, kDisputesPerRound, run.seed * 31 + restart.raw.size(),
                          run.out_dir + "/reopened", round));
      restart.add(round.restart_s, round.restart_slowdown);
      cold.add(round.audit_cold_s, round.audit_cold_slowdown);
      memo.add(round.audit_memo_s, round.audit_memo_slowdown);
      dispute.add(percentile(round.dispute_us, 50), round.dispute_slowdown);
      disputes.insert(disputes.end(), round.dispute_us.begin(), round.dispute_us.end());
    }
    last_kernel = kernel_ns();
    // Peak RSS before the first saturate burst, whose work varies with
    // speed, and before any spare fleet.
    if (c == 0) rss_mb = peak_rss_mb();
    // Spread over the run like the other repetitions.
    if (c % kSpareSetupEvery == 1) {
      timed(setup, [&] {
        run.spare_setup(setup_times);
        return setup_times.back();
      });
    }
    const Window saturate = run.window(*fleet, 0.0, kMaxRequests, false, saturate_s);
    rates.push_back(ratio(static_cast<double>(saturate.finished()), saturate.wall_s));
    out.attempted += saturate.requests.size();
    out.failed += saturate.failed();
    last_kernel = kernel_ns();
  }
  out.attempted += run.setup_attempted;
  out.failed += run.setup_failed + run.check(*fleet);

  const PayloadShares shares = payload_shares(run.inputs, run.all, setup_requests);

  Metrics& m = out.metrics;
  m["exchange_p50_ms"] = {p50.at_reference(), "ms"};
  m["cpu_ms_per_exchange"] = {solo.at_reference(), "ms"};
  m["evidence_bytes_per_exchange"] = {ratio(bytes, static_cast<double>(logged)), "B"};
  m["restart_s"] = {restart.at_reference(), "s"};
  m["audit_cold_s"] = {cold.at_reference(), "s"};
  m["audit_memo_s"] = {memo.at_reference(), "s"};
  m["dispute_p50_us"] = {dispute.at_reference(), "us"};
  m["setup_s"] = {setup.at_reference(), "s"};
  m["peak_rss_mb"] = {rss_mb, "MiB"};

  std::ostringstream rep;
  rep << "\"exchange_samples\": " << lat.size() << ", \"serve_segments\": " << p50.raw.size()
      << ", \"exchange_p99_chunks\": " << lat.size() / kChunk
      << ", \"solo_bursts\": " << solo.raw.size()
      << ", \"solo_exchanges\": " << solo.raw.size() * kSoloPerBurst
      << ", \"read_rounds\": " << restart.raw.size()
      << ", \"dispute_samples\": " << disputes.size() << ", \"setups\": " << setup_times.size()
      << ", \"saturate_bursts\": " << rates.size() << ", \"offered_rps\": " << num(run.w.rate)
      << ", \"slowdown_median\": " << num(median(p50.slowdown))
      << ", \"max_rate_rps\": {\"value\": " << num(median(rates)) << ", \"unit\": \"req/s\"}"
      << ", \"exchange_p99_ms\": {\"value\": " << num(chunked_p99(lat)) << ", \"unit\": \"ms\"}"
      << ", \"dispute_p99_us\": {\"value\": " << num(percentile(disputes, 99))
      << ", \"unit\": \"us\"}"
      << ", \"measured\": {\"exchange_p50_ms\": " << num(p50.median_raw())
      << ", \"exchange_p50_all_ms\": " << num(percentile(lat, 50))
      << ", \"cpu_ms_per_exchange\": " << num(solo.median_raw())
      << ", \"restart_s\": " << num(restart.median_raw())
      << ", \"audit_cold_s\": " << num(cold.median_raw())
      << ", \"audit_memo_s\": " << num(memo.median_raw())
      << ", \"dispute_p50_us\": " << num(dispute.median_raw())
      << ", \"setup_s\": " << num(setup.median_raw()) << "}"
      << ", \"setup_times_s\": " << num_list(setup_times)
      << ", \"payload_repeat_share\": " << num(shares.repeat_share)
      << ", \"large_payload_first_sends\": " << shares.large_first_sends
      << ", \"fail_ratio\": " << num(ratio(static_cast<double>(out.failed),
                                           static_cast<double>(out.attempted)));
  out.report = rep.str();
  return out;
}

/// --trace 1: every per-layer metric, from a traced fleet. The overhead
/// reference is a plain fleet serving the same requests from the same seed,
/// half before and half after the traced window, so both sample the same
/// stretch of the machine's load.
Result run_traced(Run& run) {
  Result out;
  std::vector<double> setup_times;
  const auto count =
      static_cast<std::size_t>(std::ceil(run.w.rate * run.w.serve_share * run.seconds));
  TracedRun t;
  auto plain = run.setup(false, setup_times);
  if (!run.status) return out;
  const std::size_t first = run.next_index;
  const Window ref_before = run_window(*plain, run.inputs, run.w.rate, first, count / 2, false);

  auto fleet = run.setup(true, setup_times);
  if (!run.status) return out;
  (void)SpanSink::global().take();  // warm-up spans
  nonrep::obs::Registry::global().reset();
  const Window serve = run.window(*fleet, run.w.rate, count, true);
  t.serve = &serve;
  t.serve_obs = nonrep::obs::Registry::global().snapshot();
  t.spans = SpanSink::global().take();
  SpanSink::global().clear_runs();
  const Window ref_after =
      run_window(*plain, run.inputs, run.w.rate, first + count / 2, count - count / 2, false);
  t.untraced_cpu_ms = ratio((ref_before.cpu_s + ref_after.cpu_s) * 1e3,
                            static_cast<double>(ref_before.finished() + ref_after.finished()));
  plain.reset();
  t.journal = run.w.journal;
  t.evidence_bytes = static_cast<double>(evidence_bytes(*fleet));
  t.logged_exchanges = finished(run.all);

  CrashImage image;
  run.fail(take_image(*fleet, run.out_dir + "/image", run.all, image));
  nonrep::obs::Registry::global().reset();
  for (std::size_t c = 0; c < kCycles * kRoundsPerCycle && run.status; ++c) {
    t.reps.emplace_back();
    run.fail(read_round(*fleet, image, kDisputesPerRound, run.seed * 31 + c,
                        run.out_dir + "/reopened", t.reps.back()));
  }
  t.read_obs = nonrep::obs::Registry::global().snapshot();
  (void)SpanSink::global().take();

  out.attempted = serve.requests.size() + run.setup_attempted;
  out.failed = serve.failed() + run.setup_failed + run.check(*fleet);
  out.metrics = layer_metrics(t);

  const std::string path = ".bench_out/trace-" + std::string(run.w.name) + "-" +
                           std::to_string(run.seed) + ".json";
  std::ofstream(path) << trace_json(t, out.metrics);
  out.report = "\"trace_file\": \"" + path + "\", \"spans\": " +
               std::to_string(t.spans.size()) + ", \"exchange_samples\": " +
               std::to_string(serve.requests.size());
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
    } else if (key == "--seconds") {
      seconds = std::stod(value);
    } else if (key == "--trace") {
      trace = std::stoi(value);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (!w || !seed || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  const std::string out_dir = ".bench_out/run-" + std::to_string(::getpid());
  fs::create_directories(out_dir);
  // Before any thread starts, so that the fleet's threads and the speed
  // kernel share one CPU (speed.hpp says why).
  pin_to_one_cpu();
  Run run(*w, *seed, seconds, out_dir);
  const Result out = trace == 1 ? run_traced(run) : run_end_to_end(run);
  fs::remove_all(out_dir);
  if (out.metrics.empty()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s: %s\n", run.status.error().code.c_str(),
                 run.status.error().detail.c_str());
    return 1;
  }
  if (!run.status) {
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n", run.status.error().code.c_str(),
                 run.status.error().detail.c_str());
  }
  std::printf("{\"report\": {%s}}\n", out.report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              run.status ? "true" : "false", out.attempted, out.failed,
              metrics_json(out.metrics).c_str());
  return 0;
}
