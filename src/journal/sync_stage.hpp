// The pipelined sync stage behind journal::Writer.
//
// Appenders (holding the writer's mutex) enqueue barrier *jobs* — "make
// everything up to (target_lsn, target_bytes) on fd durable" — and return
// immediately with a durability ticket. A dedicated worker retires the jobs
// off-thread and publishes watermarks through the shared DurabilityState,
// which settles the tickets. That is the whole pipeline: batch N+1
// accumulates and writes on appender threads while batch N's device barrier
// is in flight here.
//
// The worker retires barriers by group commit: every job queued when it
// wakes is taken at once, and a run of jobs for the same fd folds into one
// fdatasync targeting the run's last (largest) job — an fdatasync covers
// every byte written before it, so the earlier targets are retired too.
//
// The writer's before_sync hook runs on the worker immediately before every
// fdatasync — this is what keeps object-WAL-before-record-WAL ordering
// intact across in-flight batches.
//
// The stage also owns spare-segment preallocation: the worker fallocates
// (FALLOC_FL_KEEP_SIZE — scan semantics require file size == content) a
// hidden spare file in idle moments so rotation can rename it into place
// instead of paying open+fsync_dir allocation stalls on the append path.
//
// Locking: Writer::mu_ -> SyncStage::mu_. The worker takes only stage
// state (never the writer's mutex); crash() and shutdown() join it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "util/lock_discipline.hpp"
#include "journal/ticket.hpp"
#include "util/result.hpp"

namespace nonrep::journal {

class SyncStage {
 public:
  struct Options {
    /// Runs on the worker before every fdatasync (see header comment).
    std::function<Status()> before_sync = nullptr;
    /// Backpressure: request() blocks once this many barriers are queued or
    /// executing.
    std::size_t max_batches_in_flight = 4;
  };

  SyncStage(std::shared_ptr<DurabilityState> state, Options options);
  ~SyncStage();
  SyncStage(const SyncStage&) = delete;
  SyncStage& operator=(const SyncStage&) = delete;

  /// Enqueue a barrier covering (target_lsn, target_bytes) on fd. Always
  /// enqueues (the writer decides when a barrier is redundant); blocks only
  /// under backpressure. Safe to call with the writer's mutex held. After
  /// crash()/shutdown() this is a no-op.
  void request(int fd, std::uint64_t target_lsn, std::uint64_t target_bytes);

  /// Wait until every requested barrier has been executed (or the stage has
  /// failed). Returns the sticky error, if any. The caller may hold the
  /// writer's mutex; the fd of every outstanding job must stay open until
  /// this returns.
  Status drain();

  /// Abandon queued barriers, settle every outstanding ticket with `reason`
  /// (already-durable tickets still report ok), join the worker. Used by
  /// simulate_crash(); idempotent.
  void crash(Status reason);

  /// Drain, then stop and join the worker. Idempotent.
  Status shutdown();

  /// Ask the worker to prepare a preallocated spare segment file at `path`
  /// (replacing any previous request). take_spare() hands over its fd once
  /// ready; a spare whose path no longer matches is discarded.
  void prepare_spare(const std::string& path, std::uint64_t bytes);

  /// The ready spare's fd (offset 0, size 0, space preallocated), or -1 if
  /// none is ready for this path. Ownership transfers to the caller.
  int take_spare(const std::string& path);

  struct Stats {
    std::uint64_t barriers = 0;            // device barriers issued
    std::uint64_t coalesced = 0;           // requests folded into one barrier
    std::uint64_t backpressure_waits = 0;  // request() calls that blocked
    std::uint64_t in_flight_peak = 0;      // max queued+executing barriers
    std::uint64_t spares_prepared = 0;
  };
  Stats stats() const;

  /// First barrier/hook failure (sticky), ok otherwise.
  Status error() const;

 private:
  struct Job {
    int fd = -1;
    std::uint64_t target_lsn = 0;
    std::uint64_t target_bytes = 0;
  };

  void worker();
  void run_group(const std::deque<Job>& group);
  void fail_locked_unlocked(Status s);  // takes mu_ itself
  void make_spare(std::string path, std::uint64_t bytes);

  std::shared_ptr<DurabilityState> state_;
  Options opt_;

  mutable util::Mutex mu_{util::LockRank::kJournalSync, "journal.sync_stage"};
  util::CondVar cv_;       // worker wakeups
  util::CondVar done_cv_;  // drain()/backpressure wakeups
  std::deque<Job> queue_ NONREP_GUARDED_BY(mu_);
  std::uint64_t requested_ NONREP_GUARDED_BY(mu_) = 0;  // barriers enqueued over the stage lifetime
  std::uint64_t executed_ NONREP_GUARDED_BY(mu_) = 0;   // barriers executed (or abandoned)
  std::size_t executing_ NONREP_GUARDED_BY(mu_) = 0;    // barriers taken by the worker, not yet done
  bool stop_ NONREP_GUARDED_BY(mu_) = false;
  bool crashed_ NONREP_GUARDED_BY(mu_) = false;
  Status error_ NONREP_GUARDED_BY(mu_);

  // Spare preallocation slot.
  std::string spare_want_path_ NONREP_GUARDED_BY(mu_);   // non-empty: worker should prepare this
  std::uint64_t spare_bytes_ NONREP_GUARDED_BY(mu_) = 0;
  std::string spare_ready_path_ NONREP_GUARDED_BY(mu_);  // non-empty: spare_fd_ is ready for it
  int spare_fd_ NONREP_GUARDED_BY(mu_) = -1;

  Stats stats_ NONREP_GUARDED_BY(mu_);

  // Worker-thread-only state (no locking needed).
  std::uint64_t last_retired_lsn_ = 0;

  std::thread thread_;
};

}  // namespace nonrep::journal
