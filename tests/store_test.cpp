#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common.hpp"
#include "journal/reader.hpp"
#include "store/evidence_log.hpp"
#include "store/journal_backend.hpp"
#include "store/state_store.hpp"

namespace nonrep::store {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<SimClock> make_clock() { return std::make_shared<SimClock>(1000); }

std::string temp_dir(const std::string& name) { return test::temp_dir("store_" + name); }

TEST(EvidenceLog, AppendAndFind) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  log.append(RunId("r1"), "token.NRO-request", to_bytes("payload-1"));
  log.append(RunId("r2"), "token.NRR-request", to_bytes("payload-2"));
  log.append(RunId("r1"), "token.NRO-response", to_bytes("payload-3"));

  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.find_run(RunId("r1")).size(), 2u);
  auto rec = log.find(RunId("r1"), "token.NRO-response");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(to_string(rec->payload), "payload-3");
  EXPECT_FALSE(log.find(RunId("r1"), "token.missing").has_value());
}

TEST(EvidenceLog, ChainVerifies) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  for (int i = 0; i < 20; ++i) {
    log.append(RunId("r"), "kind", to_bytes("p" + std::to_string(i)));
  }
  EXPECT_TRUE(log.verify_chain().ok());
}

TEST(EvidenceLog, SequenceAndTimeRecorded) {
  auto clock = make_clock();
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), clock);
  log.append(RunId("r"), "k", to_bytes("a"));
  clock->advance(10);
  log.append(RunId("r"), "k", to_bytes("b"));
  EXPECT_EQ(log.records()[0].sequence, 0u);
  EXPECT_EQ(log.records()[1].sequence, 1u);
  EXPECT_EQ(log.records()[1].time - log.records()[0].time, 10u);
}

TEST(EvidenceLog, PayloadBytesAccumulated) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  log.append(RunId("r"), "k", Bytes(100, 1));
  log.append(RunId("r"), "k", Bytes(50, 2));
  EXPECT_EQ(log.payload_bytes(), 150u);
}

TEST(EvidenceLog, ChainDigestDetectsTamper) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  log.append(RunId("r"), "k", to_bytes("original"));
  // Simulate a tampered reload: mutate a record and recheck manually.
  LogRecord tampered = log.records()[0];
  tampered.payload = to_bytes("doctored");
  EXPECT_NE(chain_digest(crypto::Digest{}, tampered), log.records()[0].chain);
}

TEST(EvidenceLog, JournalTamperDetectedOnReload) {
  const std::string dir = temp_dir("tamper");
  const std::string dropped = temp_dir("tamper_dropped");
  auto clock = make_clock();
  {
    auto objects = std::make_shared<ObjectStore>();
    EvidenceLog log(JournalLogBackend::open({.dir = dir}, objects).take(), clock, objects);
    log.append(RunId("r1"), "k", to_bytes("a"));
    log.append(RunId("r1"), "k", to_bytes("b"));
  }
  {
    auto objects = std::make_shared<ObjectStore>();
    EvidenceLog log(JournalLogBackend::open({.dir = dir}, objects).take(), clock, objects);
    EXPECT_TRUE(log.verify_chain().ok());
  }
  // Drop a record: a journal holding the same objects but only the second
  // record frame, without its predecessor — the chain must not verify.
  auto frames = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames.value().records.size(), 2u);
  fs::create_directories(dropped);
  fs::copy(fs::path(dir) / "objects", fs::path(dropped) / "objects",
           fs::copy_options::recursive);
  {
    auto writer = journal::Writer::open({.dir = dropped});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->append(frames.value().records[1].payload).ok());
  }
  auto objects = std::make_shared<ObjectStore>();
  EvidenceLog log(JournalLogBackend::open({.dir = dropped}, objects).take(), clock, objects);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log.verify_chain().ok());
}

TEST(EvidenceLog, EmptyChainVerifies) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  EXPECT_TRUE(log.verify_chain().ok());
}

// ---- pipelined append receipts ----

TEST(EvidenceLog, AsyncReceiptFromSynchronousBackendIsSettled) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  auto [rec, receipt] = log.append_async(RunId("r"), "k", to_bytes("a"));
  EXPECT_EQ(rec.sequence, 0u);
  // A backend with nothing asynchronous about it hands back an
  // already-settled receipt: ready, ok, and never classically blocking.
  EXPECT_FALSE(receipt.policy_blocks);
  EXPECT_TRUE(receipt.durable.ready());
  EXPECT_TRUE(log.settle(receipt).ok());
  EXPECT_TRUE(log.backend_status().ok());
}

TEST(EvidenceLog, JournalReceiptsSettleAndChainStaysOrdered) {
  const std::string dir = temp_dir("receipts");
  auto objects = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open(
      {.dir = dir, .sync = journal::SyncPolicy::kEveryRecord}, objects);
  ASSERT_TRUE(backend.ok());
  EvidenceLog log(std::move(backend).take(), make_clock(), objects);
  // Stage a burst without waiting, then settle all receipts — the barrier
  // waits overlap, and every record must still come out durable and chained.
  std::vector<AppendReceipt> receipts;
  for (int i = 0; i < 10; ++i) {
    auto [rec, receipt] = log.append_async(RunId("r"), "k", to_bytes("p" + std::to_string(i)));
    EXPECT_EQ(rec.sequence, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(receipt.policy_blocks);  // kEveryRecord's classic contract
    receipts.push_back(std::move(receipt));
  }
  for (const auto& r : receipts) EXPECT_TRUE(log.settle(r).ok());
  EXPECT_TRUE(log.backend_status().ok());
  EXPECT_TRUE(log.verify_chain().ok());

  auto rebuilt = std::make_shared<ObjectStore>();
  EvidenceLog reloaded(JournalLogBackend::open({.dir = dir}, rebuilt).take(), make_clock(),
                       rebuilt);
  EXPECT_EQ(reloaded.size(), 10u);
  EXPECT_TRUE(reloaded.verify_chain().ok());
}

TEST(EvidenceLog, BackendHealthSurfacesPostReceiptFailures) {
  const std::string dir = temp_dir("receipt_health");
  auto objects = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open(
      {.dir = dir, .sync = journal::SyncPolicy::kEveryBatch, .batch_records = 1000},
      objects);
  ASSERT_TRUE(backend.ok());
  auto* jb = backend.value().get();
  EvidenceLog log(std::move(backend).take(), make_clock(), objects);
  auto [rec, receipt] = log.append_async(RunId("r"), "k", to_bytes("staged"));
  EXPECT_FALSE(receipt.policy_blocks);
  EXPECT_TRUE(log.backend_status().ok());
  // The writer dies before any barrier covers the staged record: the
  // failure must surface through backend_status() (via LogBackend::health)
  // even though nobody settle()d the receipt, and settling afterwards
  // reports the same crash.
  jb->writer().simulate_crash();
  auto status = log.backend_status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "journal.crashed");
  auto settled = log.settle(receipt);
  ASSERT_FALSE(settled.ok());
  EXPECT_EQ(settled.error().code, "journal.crashed");
}

TEST(EvidenceLog, SettleForcesBarrierForBatchedReceipts) {
  const std::string dir = temp_dir("receipt_force");
  auto objects = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open(
      {.dir = dir, .sync = journal::SyncPolicy::kEveryBatch, .batch_records = 1000},
      objects);
  ASSERT_TRUE(backend.ok());
  EvidenceLog log(std::move(backend).take(), make_clock(), objects);
  // One staged record, batch nowhere near full: no barrier is in flight and
  // none would ever come without more traffic. settle() must force one and
  // return, not stall waiting for a later append to fill the batch.
  auto [rec, receipt] = log.append_async(RunId("r"), "k", to_bytes("lonely"));
  EXPECT_FALSE(receipt.durable.ready());
  EXPECT_TRUE(log.settle(receipt).ok());
  EXPECT_TRUE(receipt.durable.ready());
  EXPECT_TRUE(log.backend_status().ok());
}

TEST(EvidenceLog, ObjectModeReceiptCoversObjectFrame) {
  const std::string dir = temp_dir("receipt_objects");
  auto objects = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open(
      {.dir = dir, .sync = journal::SyncPolicy::kEveryRecord}, objects);
  ASSERT_TRUE(backend.ok());
  EvidenceLog log(std::move(backend).take(), make_clock(), objects);
  auto [rec, receipt] = log.append_async(RunId("r"), "token.vote", to_bytes("tok"));
  EXPECT_TRUE(rec.interned);
  ASSERT_TRUE(log.settle(receipt).ok());
  // The settled record barrier implies the object frame's durability
  // (before_sync ordering): a fresh store rebuilt from disk has the object.
  auto rebuilt = std::make_shared<ObjectStore>();
  auto reopened = JournalLogBackend::open({.dir = dir}, rebuilt);
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  EXPECT_EQ(reopened.value()->resolve_stats().dangling_refs, 0u);
  EXPECT_TRUE(rebuilt->contains(rec.object));
}

TEST(StateStore, PutGetRoundTrip) {
  StateStore store;
  const Bytes state = to_bytes("shared state v1");
  const crypto::Digest d = store.put(state);
  auto got = store.get(d);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), state);
  EXPECT_TRUE(store.contains(d));
}

TEST(StateStore, DigestIsContentAddress) {
  StateStore store;
  const crypto::Digest d1 = store.put(to_bytes("same"));
  const crypto::Digest d2 = store.put(to_bytes("same"));
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(store.size(), 1u);
  // The address is the state's object id, domain-separated by its typesig
  // from a bare hash of the bytes and from the same bytes filed as a token.
  EXPECT_EQ(d1, state_digest(to_bytes("same")));
  EXPECT_NE(d1, crypto::Sha256::hash(to_bytes("same")));
  EXPECT_NE(d1, object_id(kTypeToken, to_bytes("same")));
}

TEST(StateStore, UnknownDigest) {
  StateStore store;
  crypto::Digest d{};
  auto got = store.get(d);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "store.unknown_object");
}

TEST(StateStore, StoredBytesCounted) {
  StateStore store;
  store.put(Bytes(10, 1));
  store.put(Bytes(10, 1));  // duplicate: not recounted
  store.put(Bytes(5, 2));
  EXPECT_EQ(store.stored_bytes(), 15u);
}

// ---- journal-backed evidence log ----

TEST(JournalBackend, RoundTripAcrossRestart) {
  const std::string dir = temp_dir("backend_roundtrip");
  auto clock = make_clock();
  {
    auto objects = std::make_shared<ObjectStore>();
    auto backend = JournalLogBackend::open({.dir = dir}, objects);
    ASSERT_TRUE(backend.ok()) << backend.error().detail;
    EvidenceLog log(std::move(backend).take(), clock, objects);
    log.append(RunId("r1"), "token.NRO-request", to_bytes("persisted"));
    log.append(RunId("r2"), "vote", Bytes{0x00, 0xff, 0x10});
    EXPECT_TRUE(log.backend_status().ok());
  }
  auto rebuilt = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open({.dir = dir}, rebuilt);
  ASSERT_TRUE(backend.ok());
  EvidenceLog reloaded(std::move(backend).take(), clock, rebuilt);
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.verify_chain().ok());
  auto rec = reloaded.find(RunId("r1"), "token.NRO-request");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(to_string(rec->payload), "persisted");
  // Appends continue the chain and the journal sequence.
  reloaded.append(RunId("r3"), "decision", to_bytes("more"));
  EXPECT_TRUE(reloaded.backend_status().ok());
  EXPECT_TRUE(reloaded.verify_chain().ok());
}

TEST(JournalBackend, SequenceDivergenceSurfaces) {
  const std::string dir = temp_dir("backend_divergence");
  auto objects = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open(
      {.dir = dir, .sync = journal::SyncPolicy::kEveryRecord}, objects);
  ASSERT_TRUE(backend.ok());
  // Hand the backend a record whose embedded sequence does not match the
  // journal's: the mismatch must be reported, not silently persisted.
  LogRecord rogue;
  rogue.sequence = 5;  // journal would assign 0
  rogue.kind = "k";
  auto status = backend.value()->append(rogue);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "journal.sequence_divergence");
  // The rogue record never entered the journal: the real sequence-0 record
  // still lands, and a reload sees only it.
  LogRecord genuine;
  genuine.sequence = 0;
  genuine.kind = "k";
  genuine.object = objects->put(typesig_for_kind(genuine.kind), genuine.payload).id;
  genuine.interned = true;
  EXPECT_TRUE(backend.value()->append(genuine).ok());
  backend.value()->writer().simulate_crash();
  auto reopened = JournalLogBackend::open({.dir = dir}, std::make_shared<ObjectStore>());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->recovery().records.size(), 1u);
}

TEST(StateStore, ManyDistinctStates) {
  StateStore store;
  std::vector<crypto::Digest> digests;
  for (int i = 0; i < 100; ++i) {
    digests.push_back(store.put(to_bytes("state-" + std::to_string(i))));
  }
  EXPECT_EQ(store.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto got = store.get(digests[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_string(got.value()), "state-" + std::to_string(i));
  }
}

// ---- content-addressed object store ----

TEST(ObjectStore, EncodeDecodeRoundTrip) {
  const Bytes payload = to_bytes("evidence bytes");
  const Bytes encoded = encode_object(kTypeToken, payload);
  ASSERT_EQ(encoded.size(), kObjectHeaderBytes + payload.size());
  auto decoded = decode_object(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().detail;
  EXPECT_EQ(decoded.value().typesig, kTypeToken);
  EXPECT_EQ(Bytes(decoded.value().payload.begin(), decoded.value().payload.end()), payload);
  // The streaming id matches a hash of the materialized encoding.
  EXPECT_EQ(object_id(kTypeToken, payload), crypto::Sha256::hash(encoded));
}

TEST(ObjectStore, DecodeRejectsBadHeader) {
  EXPECT_FALSE(decode_object(Bytes(kObjectHeaderBytes - 1, 0)).ok());
  Bytes encoded = encode_object(kTypeBlob, to_bytes("abc"));
  encoded.pop_back();  // size field no longer matches the remaining bytes
  EXPECT_FALSE(decode_object(encoded).ok());
}

TEST(ObjectStore, PutGetRoundTrip) {
  ObjectStore store;
  const Bytes payload = to_bytes("token bytes");
  auto put = store.put(kTypeToken, payload);
  EXPECT_TRUE(put.fresh);
  auto got = store.get(put.id, kTypeToken);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), payload);
  auto sig = store.typesig_of(put.id);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig.value(), kTypeToken);
  EXPECT_TRUE(store.contains(put.id));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ObjectStore, TypesigMismatchIsAnErrorNotACast) {
  ObjectStore store;
  const auto put = store.put(kTypeToken, to_bytes("typed payload"));
  auto got = store.get(put.id, kTypeBlob);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "store.typesig_mismatch");
  // The type is part of the identity: the same bytes filed under another
  // typesig are a different object with a different id.
  const auto other = store.put(kTypeBlob, to_bytes("typed payload"));
  EXPECT_TRUE(other.fresh);
  EXPECT_NE(other.id, put.id);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.get(other.id, kTypeBlob).ok());
}

TEST(ObjectStore, UnknownObject) {
  ObjectStore store;
  auto got = store.get(ObjectId{}, kTypeBlob);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "store.unknown_object");
  EXPECT_FALSE(store.typesig_of(ObjectId{}).ok());
  EXPECT_FALSE(store.contains(ObjectId{}));
}

TEST(ObjectStore, DedupCounters) {
  ObjectStore store;
  const Bytes a(100, 0x11);
  const Bytes b(50, 0x22);
  EXPECT_TRUE(store.put(kTypeBlob, a).fresh);
  EXPECT_FALSE(store.put(kTypeBlob, a).fresh);
  EXPECT_FALSE(store.put(kTypeBlob, a).fresh);
  EXPECT_TRUE(store.put(kTypeBlob, b).fresh);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stored_bytes(), 150u);
  EXPECT_EQ(store.logical_bytes(), 350u);
  EXPECT_EQ(store.dedup_hits(), 2u);
  EXPECT_DOUBLE_EQ(store.dedup_ratio(), 350.0 / 150.0);
}

TEST(ObjectStore, EightThreadDoublePutIsIdempotent) {
  // Every thread puts the whole payload set, so each distinct object sees
  // eight racing puts, interleaved with gets and contains probes of ids
  // other threads may not have stored yet. Exactly one put must report
  // fresh; afterwards the store holds one copy each and the counters
  // balance. (TSan gives this teeth.)
  constexpr int kThreads = 8;
  constexpr int kPayloads = 64;

  ObjectStore store;
  std::vector<Bytes> payloads;
  std::vector<ObjectId> ids;
  std::uint64_t logical_per_pass = 0;
  for (int i = 0; i < kPayloads; ++i) {
    payloads.push_back(Bytes(32 + static_cast<std::size_t>(i),
                             static_cast<std::uint8_t>(i)));
    ids.push_back(object_id(kTypeBlob, payloads.back()));
    logical_per_pass += payloads.back().size();
  }

  std::atomic<int> fresh{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPayloads; ++i) {
        const auto idx = static_cast<std::size_t>((i * 7 + t) % kPayloads);
        auto put = store.put(kTypeBlob, payloads[idx]);
        if (put.fresh) fresh.fetch_add(1);
        auto got = store.get(put.id, kTypeBlob);
        if (!got.ok() || got.value() != payloads[idx]) mismatches.fetch_add(1);
        // An object another thread may not have stored yet: absent is
        // legal, but once contains() sees it, it never goes away.
        const auto other = (idx + 13) % kPayloads;
        if (store.contains(ids[other])) {
          auto seen = store.get(ids[other], kTypeBlob);
          if (!seen.ok() || seen.value() != payloads[other]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(fresh.load(), kPayloads);  // one winner per distinct object
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kPayloads));
  EXPECT_EQ(store.stored_bytes(), logical_per_pass);
  EXPECT_EQ(store.logical_bytes(), logical_per_pass * kThreads);
  EXPECT_EQ(store.dedup_hits(), static_cast<std::uint64_t>(kPayloads * (kThreads - 1)));
}

TEST(ObjectStore, ThinRecordCodecRoundTrip) {
  auto objects = std::make_shared<ObjectStore>();
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock(), objects);
  const LogRecord rec = log.append(RunId("r1"), "token.NRO-request", to_bytes("payload"));
  ASSERT_TRUE(rec.interned);
  EXPECT_EQ(rec.object, object_id(kTypeToken, rec.payload));

  const Bytes thin = encode_log_record_ref(rec);
  auto decoded = decode_log_record_ref(thin);
  ASSERT_TRUE(decoded.ok()) << decoded.error().detail;
  EXPECT_EQ(decoded.value().record.sequence, rec.sequence);
  EXPECT_EQ(decoded.value().record.run, rec.run);
  EXPECT_EQ(decoded.value().record.kind, rec.kind);
  EXPECT_EQ(decoded.value().record.object, rec.object);
  EXPECT_EQ(decoded.value().record.chain, rec.chain);
  EXPECT_EQ(decoded.value().payload_size, rec.payload.size());
  EXPECT_TRUE(decoded.value().record.payload.empty());
}

TEST(ObjectStore, EvidenceLogInternsSharedStoreDedups) {
  // Two logs share one store — identical payloads across parties are stored
  // once, and the chain digests are unchanged by interning.
  auto objects = std::make_shared<ObjectStore>();
  auto clock = make_clock();
  EvidenceLog a(std::make_unique<MemoryLogBackend>(), clock, objects);
  EvidenceLog b(std::make_unique<MemoryLogBackend>(), clock, objects);
  EvidenceLog plain(std::make_unique<MemoryLogBackend>(), clock);
  for (int i = 0; i < 6; ++i) {
    const Bytes payload = to_bytes("shared token " + std::to_string(i % 2));
    a.append(RunId("r"), "token.NRO-request", payload);
    b.append(RunId("r"), "token.NRO-request", payload);
    plain.append(RunId("r"), "token.NRO-request", payload);
  }
  EXPECT_EQ(objects->size(), 2u);  // two distinct payloads fleet-wide
  EXPECT_EQ(objects->dedup_hits(), 10u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a.records()[i].chain, plain.records()[i].chain) << i;
  }
}

// ---- journal backend: thin records + object journal ----

TEST(ObjectJournal, RoundTripAcrossRestartRebuildsStore) {
  const std::string dir = temp_dir("object_roundtrip");
  auto clock = make_clock();
  {
    auto objects = std::make_shared<ObjectStore>();
    auto backend = JournalLogBackend::open(
        {.dir = dir, .sync = journal::SyncPolicy::kEveryRecord}, objects);
    ASSERT_TRUE(backend.ok()) << backend.error().detail;
    auto* raw = backend.value().get();
    EvidenceLog log(std::move(backend).take(), clock, objects);
    for (int i = 0; i < 12; ++i) {
      log.append(RunId("r" + std::to_string(i % 3)), "token.NRO-request",
                 to_bytes("payload " + std::to_string(i % 4)));
    }
    EXPECT_TRUE(log.backend_status().ok());
    // Twelve thin records, but only the four distinct payloads hit the disk.
    EXPECT_EQ(raw->persisted_objects(), 4u);
  }
  ASSERT_TRUE(fs::is_directory(fs::path(dir) / "objects"));

  auto rebuilt = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open({.dir = dir}, rebuilt);
  ASSERT_TRUE(backend.ok()) << backend.error().detail;
  EvidenceLog reloaded(std::move(backend).take(), clock, rebuilt);
  ASSERT_EQ(reloaded.size(), 12u);
  EXPECT_TRUE(reloaded.verify_chain().ok());
  EXPECT_EQ(rebuilt->size(), 4u);  // store rebuilt from the object segment
  auto rec = reloaded.find(RunId("r1"), "token.NRO-request");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(to_string(rec->payload), "payload 1");
  EXPECT_TRUE(rec->interned);
  // Appends keep working after restart.
  reloaded.append(RunId("r9"), "token.NRR-response", to_bytes("fresh"));
  EXPECT_TRUE(reloaded.backend_status().ok());
  EXPECT_TRUE(reloaded.verify_chain().ok());
}

TEST(ObjectJournal, CrashRecoveryTruncatesTornTailKeepsObjects) {
  const std::string dir = temp_dir("object_crash");
  auto clock = make_clock();
  std::size_t live_records = 0;
  {
    auto objects = std::make_shared<ObjectStore>();
    auto backend = JournalLogBackend::open(
        {.dir = dir, .sync = journal::SyncPolicy::kEveryRecord}, objects);
    ASSERT_TRUE(backend.ok());
    auto* raw = backend.value().get();
    EvidenceLog log(std::move(backend).take(), clock, objects);
    for (int i = 0; i < 10; ++i) {
      log.append(RunId("r"), "token.NRO-request", to_bytes("p" + std::to_string(i % 2)));
    }
    ASSERT_TRUE(log.backend_status().ok());
    live_records = log.size();
    raw->writer().simulate_crash();
    // Torn final record: half a frame reaches the record journal.
    auto segments = journal::Segment::list(dir);
    ASSERT_TRUE(segments.ok());
    ASSERT_FALSE(segments.value().empty());
    const Bytes torn =
        journal::encode_frame(journal::RecordType::kData, live_records, to_bytes("torn"));
    std::ofstream out(segments.value().back(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size() / 2));
  }

  auto rebuilt = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open({.dir = dir}, rebuilt);
  ASSERT_TRUE(backend.ok()) << backend.error().detail;
  EXPECT_GT(backend.value()->recovery().truncated_bytes, 0u);
  EvidenceLog log(std::move(backend).take(), clock, rebuilt);
  EXPECT_EQ(log.size(), live_records);
  EXPECT_TRUE(log.verify_chain().ok());
  EXPECT_EQ(rebuilt->size(), 2u);

  auto scan = scan_object_journal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().records.size(), live_records);
  EXPECT_EQ(scan.value().dangling_refs, 0u);
  EXPECT_EQ(scan.value().undecodable, 0u);
}

TEST(ObjectJournal, ScanReportsDanglingReferences) {
  const std::string dir = temp_dir("object_dangling");
  auto clock = make_clock();
  {
    auto objects = std::make_shared<ObjectStore>();
    auto backend = JournalLogBackend::open(
        {.dir = dir, .sync = journal::SyncPolicy::kEveryRecord}, objects);
    ASSERT_TRUE(backend.ok());
    EvidenceLog log(std::move(backend).take(), clock, objects);
    for (int i = 0; i < 4; ++i) {
      log.append(RunId("r"), "token.NRO-request", to_bytes("p" + std::to_string(i)));
    }
    ASSERT_TRUE(log.backend_status().ok());
  }
  // Lose the object segment: every thin record now points at nothing. The
  // scan counts each dangling reference and drops the record (a record
  // without its payload is not evidence); nothing resolves.
  fs::remove_all(fs::path(dir) / "objects");
  fs::create_directories(fs::path(dir) / "objects");
  auto scan = scan_object_journal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().dangling_refs, 4u);
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_EQ(scan.value().store->size(), 0u);
}

TEST(ObjectJournal, NonThinFrameIsUndecodable) {
  // One record format: a record frame that passes CRC but is not a thin
  // record — here a full-payload encode_log_record frame between two thin
  // ones — is undecodable, with no fallback decode. The open and the audit
  // scan both count it, and the chain over the loaded log shows the gap.
  const std::string dir = temp_dir("object_non_thin");
  auto clock = make_clock();
  {
    auto objects = std::make_shared<ObjectStore>();
    EvidenceLog source(std::make_unique<MemoryLogBackend>(), clock, objects);
    for (int i = 0; i < 3; ++i) {
      source.append(RunId("r"), "token.NRO-request", to_bytes("p" + std::to_string(i)));
    }
    auto backend = JournalLogBackend::open(
        {.dir = dir, .sync = journal::SyncPolicy::kEveryRecord}, objects);
    ASSERT_TRUE(backend.ok()) << backend.error().detail;
    const auto& recs = source.records();
    ASSERT_TRUE(backend.value()->append(recs[0]).ok());
    ASSERT_TRUE(backend.value()->writer().append(encode_log_record(recs[1])).ok());
    ASSERT_TRUE(backend.value()->append(recs[2]).ok());
  }

  auto rebuilt = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open({.dir = dir}, rebuilt);
  ASSERT_TRUE(backend.ok()) << backend.error().detail;
  EXPECT_EQ(backend.value()->resolve_stats().undecodable, 1u);
  EXPECT_EQ(backend.value()->resolve_stats().dangling_refs, 0u);
  EvidenceLog log(std::move(backend).take(), clock, rebuilt);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.verify_chain().ok());

  auto scan = scan_object_journal(dir);
  ASSERT_TRUE(scan.ok()) << scan.error().detail;
  EXPECT_EQ(scan.value().undecodable, 1u);
  EXPECT_EQ(scan.value().dangling_refs, 0u);
  EXPECT_EQ(scan.value().records.size(), 2u);
}

TEST(ObjectJournal, ScanRequiresObjectJournal) {
  // A directory without an objects/ sub-journal is not an evidence journal;
  // one opened and closed with zero appends is, and scans clean.
  const std::string empty = temp_dir("object_scan_empty");
  fs::create_directories(empty);
  auto rejected = scan_object_journal(empty);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, "store.not_a_journal");

  const std::string dir = temp_dir("object_scan_zero");
  ASSERT_TRUE(JournalLogBackend::open({.dir = dir}, std::make_shared<ObjectStore>()).ok());
  auto scan = scan_object_journal(dir);
  ASSERT_TRUE(scan.ok()) << scan.error().detail;
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_EQ(scan.value().undecodable, 0u);
  EXPECT_EQ(scan.value().dangling_refs, 0u);
  EXPECT_TRUE(journal::Reader::audit(dir).ok);
}

TEST(ObjectJournal, RecordBarrierSyncsObjectJournalFirst) {
  // The two journals group-commit independently, so append order alone
  // cannot stop a thin record from becoming durable while the object frame
  // it references is still buffered. Batch sizes here are large enough that
  // nothing syncs on its own — the record-journal barrier has to pull the
  // object journal down with it (before_sync), or the crash below strands
  // every record.
  const std::string dir = temp_dir("object_sync_order");
  auto clock = make_clock();
  {
    auto objects = std::make_shared<ObjectStore>();
    auto backend = JournalLogBackend::open(
        {.dir = dir, .sync = journal::SyncPolicy::kEveryBatch, .batch_records = 1024},
        objects);
    ASSERT_TRUE(backend.ok());
    auto* raw = backend.value().get();
    EvidenceLog log(std::move(backend).take(), clock, objects);
    for (int i = 0; i < 8; ++i) {
      log.append(RunId("r"), "token.NRO-request", to_bytes("p" + std::to_string(i)));
    }
    ASSERT_TRUE(log.backend_status().ok());
    // The record writer's own barrier — not the backend's sync(), which
    // syncs the object journal itself and would mask a missing coupling.
    ASSERT_TRUE(raw->writer().sync().ok());
    raw->writer().simulate_crash();
    raw->object_writer().simulate_crash();  // unsynced object frames are gone
  }

  auto rebuilt = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open({.dir = dir}, rebuilt);
  ASSERT_TRUE(backend.ok()) << backend.error().detail;
  EXPECT_EQ(backend.value()->resolve_stats().dangling_refs, 0u);
  EXPECT_EQ(backend.value()->resolve_stats().undecodable, 0u);
  EvidenceLog log(std::move(backend).take(), clock, rebuilt);
  EXPECT_EQ(log.size(), 8u);
  EXPECT_TRUE(log.verify_chain().ok());
  EXPECT_EQ(rebuilt->size(), 8u);  // every distinct payload made it to disk
}

}  // namespace
}  // namespace nonrep::store
