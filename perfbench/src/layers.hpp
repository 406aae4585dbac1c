// Per-layer metrics of a traced run: span self times, obs::Registry deltas
// and the timed read-side calls, folded into one name -> value table.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

/// What the traced run collected. The serve-window fields cover the timed
/// exchange window only; the read-side fields cover the restart-and-audit
/// rounds that follow it.
struct TracedRun {
  const Window* serve = nullptr;
  std::vector<SpanRec> spans;                 // recorded during the serve window
  nonrep::obs::Registry::Snapshot serve_obs;  // registry delta over the serve window
  double evidence_bytes = 0.0;
  std::size_t logged_exchanges = 0;  // exchanges whose evidence is at rest
  bool journal = false;

  std::vector<ReadRep> reps;
  nonrep::obs::Registry::Snapshot read_obs;  // registry delta over the read rounds

  double untraced_cpu_ms = 0.0;  // same seed, same window, plain objects
};

/// Every per-layer metric (see perfbench/README.md for the table).
Metrics layer_metrics(const TracedRun& t);

/// The spans as JSON, times relative to the window's first scheduled slot,
/// plus the layer self-time table.
std::string trace_json(const TracedRun& t, const Metrics& layers);

}  // namespace perfbench
