// Append side of the durable evidence journal — pipelined group commit with
// a future-based durability API.
//
// A Writer owns one journal directory and appends data records with
// monotonically increasing sequence numbers. The commit path is a two-stage
// pipeline: append_async() encodes the frame, hands it to the OS according
// to the sync policy, and returns an AppendTicket immediately; a dedicated
// sync stage (journal/sync_stage.hpp) retires device barriers off-thread —
// a worker-thread fdatasync group commit — and settles tickets in LSN order.
// Batch N+1 accumulates and writes while batch N's barrier is in flight, so
// appenders never block behind a leader's fdatasync.
//
// Policy → pipeline mapping (what each policy means under the async API):
//
//   kEveryRecord  append_async() flushes the frame to the OS and enqueues a
//                 barrier covering it; the ticket settles when that barrier
//                 retires. The ticket's policy_blocks flag is set: the
//                 compatibility append() waits on it, preserving the classic
//                 "returns only after fdatasync" contract. Concurrent
//                 appenders still group-commit — queued barriers coalesce in
//                 the sync stage — but an appender that uses the ticket can
//                 overlap its own work with the barrier.
//   kEveryBatch   records accumulate in memory; every batch_records appends
//                 trigger one flush + one queued barrier. Nobody waits (the
//                 pre-pipeline writer blocked the appender that happened to
//                 trigger the batch). A crash can now lose at most
//                 max_batches_in_flight in-flight batches plus the unflushed
//                 tail — the price of the pipeline; callers needing a bound
//                 use the ticket or sync().
//
// Backpressure replaces the old head-of-line stall: once
// max_batches_in_flight barriers are queued or executing, the next trigger
// blocks until one retires, bounding both memory and the crash window.
//
// When a segment reaches segment_max_bytes it is sealed — a checkpoint frame
// committing to the Merkle root of the segment's record digests is appended
// and synced — and a new segment starts. Sealing drains the pipeline first,
// so every sealed segment is fully durable and recovery semantics are
// unchanged from the blocking writer. Rotation swaps in a preallocated
// spare file (fallocate'd by the sync stage in idle moments, renamed into
// place + directory-fsync'd synchronously) so the append path does not pay
// allocation stalls. close() (and the destructor) seal the active segment
// the same way; only a crash leaves an unsealed tail for recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/lock_discipline.hpp"
#include "journal/format.hpp"
#include "journal/ticket.hpp"
#include "util/result.hpp"

namespace nonrep::journal {

struct RecoveryReport;  // reader.hpp
class SyncStage;        // sync_stage.hpp

enum class SyncPolicy : std::uint8_t {
  kEveryRecord = 0,
  kEveryBatch = 1,
};

struct Options {
  std::string dir;
  std::uint64_t segment_max_bytes = 4ull << 20;
  SyncPolicy sync = SyncPolicy::kEveryBatch;
  /// kEveryBatch: appends per barrier.
  std::size_t batch_records = 64;
  /// Invoked on the sync-stage worker immediately before every device
  /// barrier this writer issues (group commit, explicit sync(), seal,
  /// rotation, close) — a per-batch pipeline stage. Lets a caller order
  /// durability across journals: the evidence record journal points this
  /// at the object journal's sync(), so no record frame ever becomes durable
  /// ahead of the object frame it references, however many batches are in
  /// flight. A failure aborts the barrier (and sticks, like any sync
  /// failure). Runs off the appender threads; it must not call back into
  /// this writer (calling into *other* writers, e.g. the object journal, is
  /// the intended use).
  std::function<Status()> before_sync = nullptr;
  /// Pipeline depth: barriers queued or executing before append triggers
  /// block. Also bounds the kEveryBatch crash window.
  std::size_t max_batches_in_flight = 4;
  /// Keep a fallocate'd spare segment ready for rotation.
  bool preallocate_segments = true;
};

class Writer {
 public:
  /// Opens (creating the directory if needed) and recovers the journal tail:
  /// torn bytes after the last valid frame of the final segment are
  /// truncated, sequence numbering resumes after the last durable record,
  /// and an unsealed final segment is continued in place.
  static Result<std::unique_ptr<Writer>> open(Options options);

  /// Same, reusing an already-computed repair-mode recovery report so a
  /// caller that just loaded the journal does not scan it twice.
  static Result<std::unique_ptr<Writer>> resume(Options options,
                                                const RecoveryReport& report);

  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Appends one data record without waiting for durability; returns its
  /// ticket. The record is durable once ticket.durable settles ok (the
  /// future stays valid after close/crash). Thread-safe.
  Result<AppendTicket> append_async(BytesView payload);

  /// Compatibility append: append_async plus the policy's classic blocking
  /// behavior (kEveryRecord waits for durability; kEveryBatch returns
  /// as soon as the record is staged). Returns the sequence number.
  Result<std::uint64_t> append(BytesView payload);

  /// Block until every record up to `lsn` (AppendTicket::lsn) is durable.
  Status wait_durable(std::uint64_t lsn);

  /// A waitable future for `lsn`; durable_future(0) is already settled.
  DurableFuture durable_future(std::uint64_t lsn) const;

  /// Forces everything appended so far onto the device (queues a barrier if
  /// none covers the tail yet, then waits for it).
  Status sync();

  /// Seals the active segment (checkpoint + sync) and stops the writer.
  /// Idempotent; also run by the destructor.
  Status close();

  /// Test hook: drop any buffered records, abandon queued barriers and the
  /// fd without sealing or syncing — the on-disk state is exactly what a
  /// crash would leave. Outstanding tickets whose barrier never retired
  /// settle with journal.crashed; already-durable tickets stay ok.
  void simulate_crash();

  std::uint64_t next_sequence() const;

  /// First sticky failure (append-path I/O or sync-stage barrier), if any.
  Status health() const;

  struct Stats {
    std::uint64_t appends = 0;
    std::uint64_t flushes = 0;    // write() batches issued
    std::uint64_t syncs = 0;      // device barriers retired
    std::uint64_t rotations = 0;
    // Pipeline behavior.
    std::uint64_t batches_in_flight_peak = 0;  // barriers queued+executing
    std::uint64_t coalesced_barriers = 0;      // requests folded together
    std::uint64_t backpressure_waits = 0;      // triggers that blocked
    std::uint64_t ticket_waits = 0;            // DurableFuture::wait blocks
    std::uint64_t ticket_wait_ns = 0;          // total ns spent in them
    std::uint64_t spare_swaps = 0;             // rotations served by a spare
    std::uint64_t durable_bytes = 0;  // active-segment bytes known durable
                                      // (high-water across rotations)
  };
  Stats stats() const;

 private:
  explicit Writer(Options options);  // defined where SyncStage is complete

  // All _locked members require mu_ held.
  Status open_segment_locked(std::uint64_t first_sequence) NONREP_REQUIRES(mu_);
  Status flush_locked() NONREP_REQUIRES(mu_);  // pending_ -> fd
  void request_barrier_locked() NONREP_REQUIRES(mu_);  // barrier to written_lsn_ (dedup'd)
  Status seal_locked() NONREP_REQUIRES(mu_);  // checkpoint + drain + close fd
  Status maybe_rotate_locked() NONREP_REQUIRES(mu_);
  std::string spare_path() const;

  Options opt_;
  std::shared_ptr<DurabilityState> state_;
  std::unique_ptr<SyncStage> stage_;

  mutable util::Mutex mu_{util::LockRank::kJournalWriter, "journal.writer"};
  util::CondVar cv_;
  int fd_ NONREP_GUARDED_BY(mu_) = -1;
  std::string active_path_ NONREP_GUARDED_BY(mu_);
  std::uint64_t active_first_seq_ NONREP_GUARDED_BY(mu_) = 0;
  std::uint64_t active_bytes_ NONREP_GUARDED_BY(mu_) = 0;  // bytes in the fd (header + frames)
  std::vector<crypto::Digest> leaves_ NONREP_GUARDED_BY(mu_);  // Merkle leaves of the active segment

  Bytes pending_ NONREP_GUARDED_BY(mu_);  // encoded frames not yet written to the fd
  std::size_t pending_records_ NONREP_GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ NONREP_GUARDED_BY(mu_) = 0;
  std::uint64_t appended_lsn_ NONREP_GUARDED_BY(mu_) = 0;   // records handed to append_async()
  std::uint64_t written_lsn_ NONREP_GUARDED_BY(mu_) = 0;    // records written to the fd
  std::uint64_t requested_lsn_ NONREP_GUARDED_BY(mu_) = 0;  // highest lsn a queued barrier covers
  bool sealing_ NONREP_GUARDED_BY(mu_) = false;  // checkpoint/rotation in flight; appends wait
  bool closed_ NONREP_GUARDED_BY(mu_) = false;
  Status io_error_ NONREP_GUARDED_BY(mu_);  // first unrecovered append-path I/O failure, sticky
  Stats stats_ NONREP_GUARDED_BY(mu_);
};

}  // namespace nonrep::journal
