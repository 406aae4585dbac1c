// Journal-backed evidence persistence (§3.5, assumption 3): the one
// persistent evidence store.
//
// Records keep their hash-chaining semantics (EvidenceLog computes chain
// digests; the backend only stores them) inside the segmented write-ahead
// journal: CRC-checked framing, group commit, segment rotation with Merkle
// checkpoints, and crash recovery that truncates torn tails and resumes
// sequence numbering.
//
// One record format: record frames carry object ids instead of payload
// bytes (the thin encoding in evidence_log.hpp), and payloads are persisted
// once each in a side-loaded object journal at `<dir>/objects` — its own
// writer, its own sequence space, same framing. A directory without that
// sub-journal is not an evidence journal; a CRC-valid record frame that is
// not a thin record counts as undecodable.
// An object frame is always written before the first record that references
// it, and — because the two journals have independent group-commit state,
// so append order alone proves nothing about what survives a crash — the
// record journal's every device barrier first syncs the object journal
// (journal::Options::before_sync). A crash can therefore orphan an object
// (harmless) but never strand a durable record without its payload.
// Recovery rebuilds the store from the object journal, then resolves thin
// records against it.
#pragma once

#include <unordered_set>

#include "journal/reader.hpp"
#include "journal/writer.hpp"
#include "store/evidence_log.hpp"

namespace nonrep::store {

/// Outcome of resolving recovered record frames against the object store
/// (open and scan_object_journal). Non-zero counts mean records
/// were dropped; verify_chain on the loaded log reports the resulting gap.
struct ResolveStats {
  std::uint64_t dangling_refs = 0;  // thin records whose object is missing
  std::uint64_t undecodable = 0;    // frames that pass CRC but not decode
  /// Records truncated away as a torn *async* tail: a crash with batches in
  /// flight can persist record frames whose object frames never reached
  /// their barrier. When every dangling reference is a contiguous suffix of
  /// the unsealed tail segment, the open treats it exactly like a torn
  /// write — the suffix is cut off, sequence numbering resumes before it —
  /// and counts the records here instead of dangling_refs.
  std::uint64_t truncated_tail_records = 0;
};

class JournalLogBackend final : public LogBackend {
 public:
  /// Opens the journal at options.dir, running crash recovery on both
  /// journals (repair mode: torn tails are truncated) before the writers
  /// resume. Payloads are interned into `store` (shared with the evidence
  /// log, possibly fleet-wide) and journalled once each under
  /// `<dir>/objects`.
  static Result<std::unique_ptr<JournalLogBackend>> open(
      journal::Options options, std::shared_ptr<ObjectStore> store);

  Status append(const LogRecord& record) override;
  /// Pipelined append: object frame (first use only) and record frame are
  /// staged, and the receipt's future settles when the *record* barrier
  /// retires — which, via the journal's before_sync coupling, implies the
  /// object frame is durable too.
  Result<AppendReceipt> append_async(const LogRecord& record) override;
  std::vector<LogRecord> load() override;
  /// Sticky failures from either journal, including barriers retired after
  /// append_async returned.
  Status health() const override;

  /// Durability escape hatch for the batched sync policy.
  Status sync() override;

  journal::Writer& writer() noexcept { return *writer_; }
  /// Object-journal writer, exposed for tests and crash drills like writer().
  journal::Writer& object_writer() noexcept { return *object_writer_; }
  const journal::RecoveryReport& recovery() const noexcept { return recovery_; }
  const journal::RecoveryReport& object_recovery() const noexcept {
    return object_recovery_;
  }
  /// What the open had to drop while resolving records (all zero on a
  /// healthy journal).
  const ResolveStats& resolve_stats() const noexcept { return resolve_stats_; }
  /// Distinct objects persisted in this backend's object journal.
  std::size_t persisted_objects() const noexcept { return persisted_.size(); }

 private:
  JournalLogBackend() = default;

  // Declared before writer_: the record writer's barriers (including its
  // destructor's final seal) sync the object journal through
  // journal::Options::before_sync, so the object writer must outlive it.
  std::shared_ptr<ObjectStore> store_;
  std::unique_ptr<journal::Writer> object_writer_;
  journal::RecoveryReport object_recovery_;
  std::unordered_set<ObjectId, crypto::DigestHash> persisted_;
  std::vector<LogRecord> resolved_;  // thin records resolved at open
  ResolveStats resolve_stats_;       // what resolving them dropped

  std::unique_ptr<journal::Writer> writer_;
  journal::RecoveryReport recovery_;
};

/// Read-only walk of an evidence journal (audit tooling): scans both
/// journals without repairing, rebuilds a fresh store from the object
/// segment and resolves every record reference through it. Fails with
/// "store.not_a_journal" when `dir` has no `objects/` sub-journal.
struct ObjectJournalScan {
  std::shared_ptr<ObjectStore> store;
  std::vector<LogRecord> records;
  journal::RecoveryReport record_report;
  journal::RecoveryReport object_report;
  std::uint64_t dangling_refs = 0;  // records whose object is missing
  std::uint64_t undecodable = 0;    // frames that pass CRC but not decode
};
Result<ObjectJournalScan> scan_object_journal(const std::string& dir);

}  // namespace nonrep::store
