// The timed phases every workload runs, and the correctness checks that
// follow them.
//
//   serve    open-loop requests at a fixed offered rate; each latency is
//            measured from the request's scheduled slot (coordinated-omission
//            safe), so a stall is charged to every request queued behind it
//   saturate the same injectors sending back to back, for the highest
//            completion rate the fleet sustains
//   restart  crash image of every party's evidence, reopened from its backend
//   audit    cold audit with empty memos, sampled disputes, memoized re-audit
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evidence.hpp"
#include "fleet.hpp"

namespace perfbench {

/// One injector thread per member: at most nproc on the 4-core reference box.
inline constexpr std::size_t kInjectors = kMembers;

/// Seeded request inputs: which member sends, what payload, and whether the
/// request is forced into TTP recovery. Request i's draw depends only on the
/// seed and i.
class Inputs {
 public:
  enum class Mix { kSmall, kMixed };
  Inputs(std::uint64_t seed, Mix mix, double ttp_ratio);

  std::size_t member(std::size_t i) const { return i % kInjectors; }
  nonrep::Bytes payload(std::size_t i) const;
  bool forced(std::size_t i) const;

 private:
  struct Size {
    std::size_t bytes, pool, per_block;
  };
  Mix mix_;
  std::uint64_t seed_;
  double ttp_ratio_;
  std::vector<Size> sizes_;
  std::vector<std::vector<nonrep::Bytes>> pools_;  // per size
};

struct Request {
  std::uint64_t index = 0;
  std::uint64_t scheduled_ns = 0;
  std::uint64_t woke_ns = 0;  // the member's injector got to it (slot reached, client free)
  std::uint64_t done_ns = 0;
  Outcome outcome = Outcome::kFailed;
  bool forced = false;
  nonrep::RunId run;
};

/// Requests that completed, aborted or recovered: everything but kFailed.
std::size_t finished(const std::vector<Request>& requests);

struct Window {
  std::vector<Request> requests;
  double wall_s = 0.0;  // first slot to last completion
  double cpu_s = 0.0;   // process CPU time over the window
  std::size_t finished() const { return perfbench::finished(requests); }
  std::size_t failed() const { return requests.size() - finished(); }
};

/// a / b, or 0 when b is not positive.
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// How the payloads of requests[from..] relate to every payload sent before
/// them (requests in the order they were sent).
struct PayloadShares {
  double repeat_share = 0.0;  // payload identical to one sent earlier
  std::size_t large_first_sends = 0;  // 64 KiB payloads sent for the first time
};
PayloadShares payload_shares(const Inputs& inputs, const std::vector<Request>& requests,
                             std::size_t from);

/// Injects requests [first, first + count) at `rate` per second (a rate of
/// 0 means back to back) from `injectors` threads (kInjectors or 1), then
/// drains the network. With `stop_after_s` > 0, no request starts later
/// than that. With `traced`, each request runs under a RequestSpan.
Window run_window(Fleet& fleet, const Inputs& inputs, double rate, std::size_t first,
                  std::size_t count, bool traced, double stop_after_s = 0.0,
                  std::size_t injectors = kInjectors);

/// Exact percentile (nearest rank) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

std::vector<double> latencies_ms(const Window& w);

/// Fairness check on the client's bundle for every request: a completed
/// exchange must adjudicate as exchange_complete(), an aborted one as
/// run_aborted, a recovered one as receipt_by_affidavit. Returns misses.
std::size_t fairness_misses(Fleet& fleet, const std::vector<Request>& requests);

/// Every party's chain and backend status, and the TTP's verdict table
/// against the tallied outcomes.
nonrep::Status audit_fleet(Fleet& fleet, const std::vector<Request>& all_requests);

struct ReadRep {
  double restart_s = 0.0;
  double audit_cold_s = 0.0;
  double audit_memo_s = 0.0;
  // The slowdown (speed.hpp) around each timed step.
  double restart_slowdown = 1.0;
  double audit_cold_slowdown = 1.0;
  double dispute_slowdown = 1.0;
  double audit_memo_slowdown = 1.0;
  std::uint64_t records = 0;
  std::uint64_t segments = 0;
  std::uint64_t segments_memoized = 0;
  std::vector<double> dispute_us;
  std::vector<double> bundle_us;
  std::vector<double> adjudicate_us;
};

/// Every party's evidence as a crash would leave it: the journal
/// directories copied as they stand after a sync, or the in-memory records.
/// Taken once; every read round reopens a fresh copy, so rounds do the same
/// work.
struct CrashImage {
  std::string dir;  // journal fleets: <dir>/<party>
  std::vector<std::vector<nonrep::store::LogRecord>> records;  // in-memory fleets
  std::vector<std::size_t> sizes;             // live log sizes when taken
  std::vector<nonrep::crypto::Digest> tails;  // live chain tails when taken
  std::vector<Request> requests;              // runs the disputes sample from
};

nonrep::Status take_image(Fleet& fleet, const std::string& dir,
                          std::vector<Request> sample_from, CrashImage& image);

/// One restart-and-audit round: reopen every party's log from a copy of the
/// image (under `work_dir`), check that every record came back, audit cold
/// with a fresh auditor, judge `disputes` sampled runs on the reopened client
/// logs, and audit again with the memos warm. The speed kernel runs between
/// the timed steps.
nonrep::Status read_round(Fleet& fleet, const CrashImage& image, std::size_t disputes,
                          std::uint64_t seed, const std::string& work_dir, ReadRep& out);

/// Bytes of evidence at rest: the journal segment files (preallocated
/// spares excluded) for journal-backed fleets, or for in-memory fleets the
/// thin record encodings plus the distinct payload objects they reference.
std::uint64_t evidence_bytes(Fleet& fleet);

}  // namespace perfbench
