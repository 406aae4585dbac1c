#include "store/journal_backend.hpp"

#include <unistd.h>

#include <filesystem>
#include <optional>

namespace nonrep::store {

namespace fs = std::filesystem;

namespace {

std::string objects_dir(const std::string& dir) { return dir + "/objects"; }

journal::Options objects_options(const journal::Options& options) {
  journal::Options out = options;
  out.dir = objects_dir(options.dir);
  return out;
}

// Replay the object journal into the store. Duplicate frames (possible when
// a crash lost the dedup set's in-memory state, or when the store is shared
// and already holds the object) are absorbed by put()'s idempotence.
void rebuild_store(const journal::RecoveryReport& report, ObjectStore& store,
                   std::unordered_set<ObjectId, crypto::DigestHash>& persisted,
                   ResolveStats& stats) {
  for (const auto& frame : report.records) {
    auto decoded = decode_object(frame.payload);
    if (!decoded) {
      ++stats.undecodable;
      continue;
    }
    persisted.insert(store.put(decoded.value().typesig, decoded.value().payload).id);
  }
}

// Where the dangling references sit in the recovered frame stream. A crash
// with async batches in flight persists record frames whose objects never
// reached their barrier — those are always the *newest* frames, so a
// contiguous dangling suffix confined to the unsealed tail segment is the
// torn-async-crash signature (truncatable); dangling anywhere else is
// object-segment damage.
struct DanglingShape {
  std::optional<std::uint64_t> first_sequence;
  bool suffix = true;  // nothing resolved/undecodable after the first dangler
};

// Resolve recovered thin record frames against the store: each fetches its
// payload by object id. A frame that passes CRC but is not a thin record is
// undecodable — there is no other record format to fall back to.
std::vector<LogRecord> resolve_records(const journal::RecoveryReport& report,
                                       const ObjectStore& store, ResolveStats& stats,
                                       DanglingShape* shape = nullptr) {
  std::vector<LogRecord> out;
  out.reserve(report.records.size());
  for (const auto& frame : report.records) {
    auto thin = decode_log_record_ref(frame.payload);
    if (!thin) {
      ++stats.undecodable;
      if (shape && shape->first_sequence) shape->suffix = false;
      continue;
    }
    LogRecord rec = std::move(thin.value().record);
    auto payload = store.get(rec.object, typesig_for_kind(rec.kind));
    if (!payload || payload.value().size() != thin.value().payload_size) {
      // A record without its object: either the torn-async-crash suffix
      // (the open truncates it away, see DanglingShape) or real
      // object-segment damage — durability is ordered, the object journal
      // is synced ahead of every record-journal barrier. Count and skip;
      // verify_chain reports any resulting gap.
      ++stats.dangling_refs;
      if (shape && !shape->first_sequence) shape->first_sequence = frame.sequence;
      continue;
    }
    rec.payload = std::move(payload).take();
    if (shape && shape->first_sequence) shape->suffix = false;
    out.push_back(std::move(rec));
  }
  return out;
}

// Cut a torn async tail off the record journal before the writer resumes:
// truncate the unsealed tail segment at the first dangling frame and patch
// the recovery report so sequence numbering (and the resuming writer's
// Merkle leaves) restart exactly at the durable prefix.
Status truncate_torn_async_tail(journal::RecoveryReport& report,
                                std::uint64_t first_dangling_seq,
                                ResolveStats& stats) {
  auto scanned = journal::Segment::scan(*report.tail_path);
  if (!scanned) return scanned.error();
  std::uint64_t cut = 0;
  bool found = false;
  for (const auto& sr : scanned.value().records) {
    if (sr.record.sequence == first_dangling_seq) {
      cut = sr.offset;
      found = true;
      break;
    }
  }
  if (!found) {
    return Error::make("journal.io",
                       "dangling frame " + std::to_string(first_dangling_seq) +
                           " not found in " + *report.tail_path);
  }
  if (::truncate(report.tail_path->c_str(), static_cast<off_t>(cut)) != 0) {
    return Error::make("journal.io", "truncate failed on " + *report.tail_path);
  }
  const std::uint64_t removed = report.next_sequence - first_dangling_seq;
  while (!report.records.empty() &&
         report.records.back().sequence >= first_dangling_seq) {
    report.records.pop_back();
  }
  report.truncated_bytes += report.tail_valid_bytes - cut;
  report.tail_valid_bytes = cut;
  report.tail_leaves.resize(
      static_cast<std::size_t>(first_dangling_seq - report.tail_first_sequence));
  report.next_sequence = first_dangling_seq;
  report.clean = false;
  if (!report.segments.empty()) {
    auto& tail_status = report.segments.back();
    tail_status.data_records -= removed;
    tail_status.valid_bytes = cut;
    tail_status.file_bytes = cut;
  }
  stats.dangling_refs -= removed;
  stats.truncated_tail_records += removed;
  return Status::ok_status();
}

}  // namespace

Result<std::unique_ptr<JournalLogBackend>> JournalLogBackend::open(
    journal::Options options, std::shared_ptr<ObjectStore> store) {
  if (!store) return Error::make("store.null_store", "the journal needs an object store");
  // The object journal comes up first: the record journal's every device
  // barrier is coupled to it via before_sync (the two writers group-commit
  // independently, so append order alone cannot keep a thin record from
  // reaching the platter ahead of the object frame it references).
  std::error_code ec;
  fs::create_directories(objects_dir(options.dir), ec);
  if (ec) {
    return Error::make("journal.io",
                       "cannot create " + objects_dir(options.dir) + ": " + ec.message());
  }
  auto object_recovered = journal::Reader::recover(objects_dir(options.dir),
                                                   journal::RecoverMode::kRepair);
  if (!object_recovered) return object_recovered.error();
  auto object_writer =
      journal::Writer::resume(objects_options(options), object_recovered.value());
  if (!object_writer) return object_writer.error();

  // Raw pointer is safe: the backend declares object_writer_ before writer_,
  // so the object writer outlives every barrier the record writer can issue.
  journal::Writer* objects_raw = object_writer.value().get();
  journal::Options record_options = options;
  record_options.before_sync = [objects_raw] { return objects_raw->sync(); };

  // Recover the record journal, then resolve its frames against the rebuilt
  // store *before* the writer resumes: a torn async tail (record frames
  // durable, their object frames lost with the in-flight batches) must be
  // truncated first so the writer continues from the durable prefix.
  fs::create_directories(record_options.dir, ec);
  if (ec) {
    return Error::make("journal.io",
                       "cannot create " + record_options.dir + ": " + ec.message());
  }
  auto recovered =
      journal::Reader::recover(record_options.dir, journal::RecoverMode::kRepair);
  if (!recovered) return recovered.error();
  journal::RecoveryReport recovery = std::move(recovered).take();

  journal::RecoveryReport object_recovery = std::move(object_recovered).take();
  ResolveStats stats;
  std::unordered_set<ObjectId, crypto::DigestHash> persisted;
  rebuild_store(object_recovery, *store, persisted, stats);
  DanglingShape shape;
  auto resolved = resolve_records(recovery, *store, stats, &shape);
  if (stats.dangling_refs > 0 && shape.suffix && shape.first_sequence &&
      recovery.tail_path.has_value() &&
      *shape.first_sequence >= recovery.tail_first_sequence) {
    // Every dangling reference is a contiguous suffix of the unsealed tail
    // segment — the torn-async-crash signature (sealed segments drain the
    // pipeline, so they can never dangle). Cut the journal back to the
    // durable prefix; `resolved` already holds exactly that prefix.
    auto cut = truncate_torn_async_tail(recovery, *shape.first_sequence, stats);
    if (!cut.ok()) return cut.error();
  }

  auto writer = journal::Writer::resume(record_options, recovery);
  if (!writer) return writer.error();
  std::unique_ptr<JournalLogBackend> b(new JournalLogBackend());
  b->store_ = std::move(store);
  b->object_writer_ = std::move(object_writer).take();
  b->object_recovery_ = std::move(object_recovery);
  b->persisted_ = std::move(persisted);
  b->resolved_ = std::move(resolved);
  b->resolve_stats_ = stats;
  b->writer_ = std::move(writer).take();
  b->recovery_ = std::move(recovery);
  return b;
}

Status JournalLogBackend::append(const LogRecord& record) {
  auto staged = append_async(record);
  if (!staged) return staged.error();
  // Classic blocking contract: honor the policy's wait here.
  if (staged.value().policy_blocks) return staged.value().durable.wait();
  return Status::ok_status();
}

Result<AppendReceipt> JournalLogBackend::append_async(const LogRecord& record) {
  // The journal's own sequence numbering and the evidence log's must stay in
  // lockstep — a divergence means the journal holds records this log never
  // produced (or lost some). Checked *before* persisting, so a rogue record
  // is rejected without ever entering the journal.
  const std::uint64_t next = writer_->next_sequence();
  if (next != record.sequence) {
    return Error::make("journal.sequence_divergence",
                       "journal would assign " + std::to_string(next) +
                           ", record carries " + std::to_string(record.sequence));
  }
  // EvidenceLog interns before it calls us, so an uninterned record means a
  // caller bypassed the log — reject rather than guess.
  if (!record.interned) {
    return Error::make("journal.not_interned",
                       "journal got a record without an object id");
  }
  // Object frame first — and durability follows the same order: the record
  // writer's barriers sync the object journal before their own fdatasync
  // (before_sync, bound at open), so a crash can orphan an object but never
  // commit a record whose payload frame is still buffered — across any
  // number of in-flight batches. The object ticket is deliberately dropped:
  // the record ticket implies it. `persisted_` tracks *this* journal's
  // contents — the store may be shared across parties whose journals each
  // need their own copy.
  if (!persisted_.contains(record.object)) {
    auto payload = store_->get(record.object, typesig_for_kind(record.kind));
    if (!payload) return payload.error();
    auto oticket = object_writer_->append_async(
        encode_object(typesig_for_kind(record.kind), payload.value()));
    if (!oticket) return oticket.error();
    persisted_.insert(record.object);
  }
  auto ticket = writer_->append_async(encode_log_record_ref(record));
  if (!ticket) return ticket.error();
  return AppendReceipt{std::move(ticket.value().durable),
                       ticket.value().policy_blocks};
}

Status JournalLogBackend::health() const {
  if (auto s = object_writer_->health(); !s.ok()) return s;
  return writer_->health();
}

std::vector<LogRecord> JournalLogBackend::load() { return resolved_; }

Status JournalLogBackend::sync() {
  // The record writer's own barrier already pulls the object journal down
  // first (before_sync); syncing it explicitly as well covers the one case
  // the hook cannot see — an object frame whose record append then failed,
  // leaving the record journal with nothing to sync. Redundant calls are
  // cheap: a writer with no unsynced records skips the device barrier.
  if (auto s = object_writer_->sync(); !s.ok()) return s;
  return writer_->sync();
}

Result<ObjectJournalScan> scan_object_journal(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(objects_dir(dir), ec)) {
    return Error::make("store.not_a_journal", "no objects/ sub-journal in " + dir);
  }
  ObjectJournalScan out;
  auto record_report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  if (!record_report) return record_report.error();
  auto object_report =
      journal::Reader::recover(objects_dir(dir), journal::RecoverMode::kScanOnly);
  if (!object_report) return object_report.error();
  out.record_report = std::move(record_report).take();
  out.object_report = std::move(object_report).take();
  out.store = std::make_shared<ObjectStore>();

  ResolveStats stats;
  std::unordered_set<ObjectId, crypto::DigestHash> persisted;
  rebuild_store(out.object_report, *out.store, persisted, stats);
  out.records = resolve_records(out.record_report, *out.store, stats);
  out.dangling_refs = stats.dangling_refs;
  out.undecodable = stats.undecodable;
  return out;
}

}  // namespace nonrep::store
