// Failure injection: crashed parties, expiring locks, flapping links.
// Safety must hold unconditionally; liveness under the bounded-failure
// assumption (trusted-interceptor assumptions 2 and 5, §3.1).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common.hpp"
#include "core/nr_interceptor.hpp"
#include "core/sharing.hpp"
#include "journal/reader.hpp"
#include "journal/segment.hpp"
#include "journal/writer.hpp"
#include "store/journal_backend.hpp"

namespace nonrep::core {
namespace {

using container::Invocation;

const ObjectId kObj{"obj:fi"};

struct FailureFixture : ::testing::Test {
  struct Node {
    test::Party* party;
    std::unique_ptr<membership::MembershipService> membership;
    std::shared_ptr<B2BObjectController> controller;
  };

  void build(std::size_t n, SharingConfig config = {}) {
    std::vector<membership::Member> members;
    for (std::size_t i = 0; i < n; ++i) {
      auto& p = world.add_party("p" + std::to_string(i));
      members.push_back({p.id, p.address});
      nodes.push_back({&p, std::make_unique<membership::MembershipService>(), nullptr});
    }
    for (auto& node : nodes) {
      node.membership->create_group(kObj, members);
      node.controller = std::make_shared<B2BObjectController>(*node.party->coordinator,
                                                              *node.membership, config);
      node.party->coordinator->register_handler(node.controller);
      ASSERT_TRUE(node.controller->host(kObj, to_bytes("v1")).ok());
    }
  }

  void crash(std::size_t i) {
    // A crashed node stops answering: unregister its endpoint.
    world.network.unregister_endpoint(nodes[i].party->address);
  }

  test::TestWorld world;
  std::vector<Node> nodes;
};

TEST_F(FailureFixture, CrashedVoterBlocksCommitSafely) {
  build(3, SharingConfig{.vote_timeout = 300});
  crash(2);
  auto v = nodes[0].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_FALSE(v.ok());  // silence != agreement
  world.network.run();
  // Surviving replicas untouched and consistent.
  EXPECT_EQ(nodes[0].controller->get(kObj).value().version, 1u);
  EXPECT_EQ(nodes[1].controller->get(kObj).value().version, 1u);
}

TEST_F(FailureFixture, GroupRecoversByDisconnectingCrashedMember) {
  build(3, SharingConfig{.vote_timeout = 300});
  crash(2);
  // The survivors vote the dead member out (§3.3 membership protocols)...
  ASSERT_FALSE(nodes[0].controller->propose_update(kObj, to_bytes("v2")).ok());
  world.network.run();
  ASSERT_TRUE(nodes[0].controller->disconnect(kObj, nodes[2].party->id).ok());
  world.network.run();
  // ...after which updates flow again.
  auto v = nodes[0].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_TRUE(v.ok()) << v.error().code;
  world.network.run();
  EXPECT_EQ(nodes[1].controller->get(kObj).value().state, to_bytes("v2"));
}

TEST_F(FailureFixture, LockLeaseExpiryRestoresLiveness) {
  // A proposer that locked the object and then died must not wedge the
  // group forever: the lock lease expires.
  build(3, SharingConfig{.vote_timeout = 200, .lock_lease = 1000});
  // Node 0 starts a round that will fail (node 2 crashed after receiving
  // the proposal — emulate by partitioning before the vote reply).
  crash(2);
  ASSERT_FALSE(nodes[0].controller->propose_update(kObj, to_bytes("wedged")).ok());
  world.network.run();

  // Node 1 may have taken the lock for that run. Advance past the lease.
  world.clock->advance(2000);
  ASSERT_TRUE(nodes[0].controller->disconnect(kObj, nodes[2].party->id).ok());
  world.network.run();
  auto v = nodes[1].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_TRUE(v.ok()) << v.error().code;
}

TEST_F(FailureFixture, FlappingLinkEventuallyCompletes) {
  build(2, SharingConfig{.vote_timeout = 30000});
  // 50% loss both ways between the two parties.
  world.network.set_link(nodes[0].party->address, nodes[1].party->address,
                         net::LinkConfig{.latency = 5, .drop = 0.5});
  world.network.set_link(nodes[1].party->address, nodes[0].party->address,
                         net::LinkConfig{.latency = 5, .drop = 0.5});
  for (int i = 2; i <= 6; ++i) {
    auto v = nodes[0].controller->propose_update(kObj, to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(v.ok()) << i << ": " << v.error().code;
    world.network.run();
  }
  EXPECT_EQ(nodes[1].controller->get(kObj).value().version, 6u);
}

TEST_F(FailureFixture, ServerCrashMidExchangeLeavesClientWithProofOfAttempt) {
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean, {});
  auto nr = install_nr_server(*server.coordinator, cont);

  world.network.unregister_endpoint("server");  // crash before the request lands
  DirectInvocationClient handler(*client.coordinator,
                                 InvocationConfig{.request_timeout = 300});
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("x");
  inv.caller = client.id;
  auto result = handler.invoke("server", inv);
  EXPECT_EQ(result.outcome, container::Outcome::kTimeout);
  // Client's own NRO_req is logged: proof it attempted the invocation.
  EXPECT_TRUE(client.log->find(handler.last_run(), "token.NRO-request").has_value());
  EXPECT_TRUE(client.log->verify_chain().ok());
}

TEST_F(FailureFixture, PartitionHealsAndExchangeSucceeds) {
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean, {});
  auto nr = install_nr_server(*server.coordinator, cont);

  world.network.set_partitioned("client", "server", true);
  DirectInvocationClient handler(*client.coordinator,
                                 InvocationConfig{.request_timeout = 300});
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("x");
  inv.caller = client.id;
  EXPECT_EQ(handler.invoke("server", inv).outcome, container::Outcome::kTimeout);

  world.network.set_partitioned("client", "server", false);
  auto inv2 = inv;
  auto result = handler.invoke("server", inv2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(handler.last_run_evidence().complete_for_client());
}

// ---- journal failure injection ----
//
// The durable evidence journal must honour the same contract as the rest of
// this suite: safety unconditionally — after arbitrary corruption at any
// byte offset, recovery keeps exactly the records before the damage and
// rejects everything after it, never fabricating or reordering evidence.

struct JournalCorruptionFixture : ::testing::Test {
  std::string dir;
  std::string segment;
  Bytes pristine;
  // End offset (exclusive) of every data frame, in file order.
  std::vector<std::uint64_t> data_frame_ends;

  void SetUp() override {
    dir = test::temp_dir("fi_journal");
    auto w = journal::Writer::open(
        {.dir = dir, .sync = journal::SyncPolicy::kEveryBatch, .batch_records = 4});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 24; ++i) {
      // Varied payload sizes so frame boundaries land at irregular offsets.
      Bytes p(static_cast<std::size_t>(5 + (i * 7) % 40), static_cast<std::uint8_t>(i));
      ASSERT_TRUE(w.value()->append(p).ok());
    }
    ASSERT_TRUE(w.value()->close().ok());  // single sealed segment

    auto segs = journal::Segment::list(dir);
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.value().size(), 1u);
    segment = segs.value()[0];
    std::ifstream in(segment, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());

    // Walk the frame layout of the pristine file.
    std::size_t off = journal::kSegmentHeaderBytes;
    while (off + journal::kFrameHeaderBytes <= pristine.size()) {
      const std::uint32_t len = static_cast<std::uint32_t>(pristine[off]) |
                                (static_cast<std::uint32_t>(pristine[off + 1]) << 8) |
                                (static_cast<std::uint32_t>(pristine[off + 2]) << 16) |
                                (static_cast<std::uint32_t>(pristine[off + 3]) << 24);
      const std::uint8_t type = pristine[off + journal::kFrameHeaderBytes];
      off += journal::kFrameHeaderBytes + len;
      if (type == static_cast<std::uint8_t>(journal::RecordType::kData)) {
        data_frame_ends.push_back(off);
      }
    }
    ASSERT_EQ(off, pristine.size());
    ASSERT_EQ(data_frame_ends.size(), 24u);
  }

  void restore_file(const Bytes& bytes) {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// Records that must survive when everything from `offset` on is suspect:
  /// the data frames that end at or before it.
  std::size_t intact_until(std::uint64_t offset) const {
    std::size_t n = 0;
    while (n < data_frame_ends.size() && data_frame_ends[n] <= offset) ++n;
    return n;
  }
};

TEST_F(JournalCorruptionFixture, BitFlipAtEveryOffsetKeepsPrefixOnly) {
  for (std::uint64_t offset = 0; offset < pristine.size(); offset += 13) {
    Bytes mutated = pristine;
    mutated[offset] ^= 0x01;
    restore_file(mutated);

    auto report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
    ASSERT_TRUE(report.ok()) << "offset " << offset;
    // The frame containing the flipped byte (and everything after) must be
    // rejected; every record before it must survive bit-exact.
    const std::size_t expected = intact_until(offset);
    ASSERT_EQ(report->records.size(), expected) << "offset " << offset;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(report->records[i].sequence, i) << "offset " << offset;
    }
    EXPECT_FALSE(report->clean) << "offset " << offset;
    EXPECT_FALSE(journal::Reader::audit(dir).ok) << "offset " << offset;
  }
  restore_file(pristine);
  EXPECT_TRUE(journal::Reader::audit(dir).ok);
}

TEST_F(JournalCorruptionFixture, TruncationAtEveryOffsetKeepsPrefixOnly) {
  for (std::uint64_t cut = 0; cut < pristine.size(); cut += 17) {
    Bytes mutated(pristine.begin(), pristine.begin() + static_cast<std::ptrdiff_t>(cut));
    restore_file(mutated);

    auto report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
    ASSERT_TRUE(report.ok()) << "cut " << cut;
    const std::size_t expected = intact_until(cut);
    ASSERT_EQ(report->records.size(), expected) << "cut " << cut;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(report->records[i].sequence, i) << "cut " << cut;
    }
  }
  restore_file(pristine);
  EXPECT_TRUE(journal::Reader::audit(dir).ok);
}

TEST_F(FailureFixture, EndToEndRunSurvivesTornWriteAndAudits) {
  const std::string jdir = test::temp_dir("fi_e2e_journal");

  // A client whose evidence log is journal-backed performs a real
  // non-repudiable exchange.
  auto backend = store::JournalLogBackend::open(
                     {.dir = jdir, .sync = journal::SyncPolicy::kEveryRecord}, world.objects())
                     .take();
  auto* journal_backend = backend.get();
  auto& client = world.add_party("client", {}, std::move(backend));
  auto& server = world.add_party("server");
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean,
              container::DeploymentDescriptor{.non_repudiation = true});
  auto nr = install_nr_server(*server.coordinator, cont);

  DirectInvocationClient handler(*client.coordinator);
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("payload");
  inv.caller = client.id;
  auto result = handler.invoke("server", inv);
  world.network.run();
  ASSERT_TRUE(result.ok());
  const RunId run = handler.last_run();
  const std::size_t logged = client.log->size();
  ASSERT_GT(logged, 0u);
  EXPECT_TRUE(client.log->backend_status().ok());

  // Crash: the process dies mid-append, leaving a torn final record.
  journal_backend->writer().simulate_crash();
  journal_backend->object_writer().simulate_crash();
  {
    auto segs = journal::Segment::list(jdir);
    ASSERT_TRUE(segs.ok());
    const Bytes torn =
        journal::encode_frame(journal::RecordType::kData, logged, to_bytes("torn"));
    std::ofstream out(segs.value().back(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size()) / 2);
  }

  // Restart: recovery truncates the torn record, keeps every complete one
  // with sequence continuity, and the evidence chain still verifies.
  auto rebuilt = std::make_shared<store::ObjectStore>();
  auto reopened = store::JournalLogBackend::open(
      {.dir = jdir, .sync = journal::SyncPolicy::kEveryRecord}, rebuilt);
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  EXPECT_GT(reopened.value()->recovery().truncated_bytes, 0u);
  store::EvidenceLog recovered(std::move(reopened).take(), world.clock, rebuilt);
  ASSERT_EQ(recovered.size(), logged);
  EXPECT_TRUE(recovered.verify_chain().ok());
  EXPECT_TRUE(recovered.find(run, "token.NRO-request").has_value());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered.records()[i].sequence, i);
  }
  // The recovered log keeps appending where it left off.
  recovered.append(run, "post-recovery", to_bytes("x"));
  EXPECT_TRUE(recovered.backend_status().ok());
  EXPECT_TRUE(recovered.verify_chain().ok());

  // And the journal directory audits clean (CRCs, sequences, checkpoints).
  EXPECT_TRUE(journal::Reader::audit(jdir).ok);
}

// ---- torn async batches ----
//
// The pipelined writer can crash with several group-commit batches in
// flight. Power loss then leaves each WAL cut at its own durable watermark:
// the record journal may retain frames whose object frames never reached
// their barrier (the object journal is synced *before* every record
// barrier, so only the un-barriered record suffix can dangle). Recovery
// must keep exactly the durable prefix — the dangling suffix is truncated
// like any torn write, with zero dangling references surviving.

struct TornAsyncFixture : ::testing::Test {
  std::string dir;
  std::string record_tail;
  std::string object_tail;
  std::shared_ptr<SimClock> clock = std::make_shared<SimClock>(1000);
  RunId run{"torn-async"};

  journal::Options record_options(std::uint64_t segment_max_bytes = 4ull << 20) const {
    return {.dir = dir,
            .segment_max_bytes = segment_max_bytes,
            .sync = journal::SyncPolicy::kEveryBatch,
            .batch_records = 2};
  }

  // Build an object-mode journal with `records` distinct payloads, make
  // everything durable, then crash both writers — the on-disk state of a
  // process that died with its WAL tails unsealed. File surgery afterwards
  // emulates what power loss does to each journal's un-barriered suffix.
  void build(int records, std::uint64_t segment_max_bytes = 4ull << 20) {
    dir = test::temp_dir("fi_torn_async");
    auto store = std::make_shared<store::ObjectStore>();
    auto opened = store::JournalLogBackend::open(record_options(segment_max_bytes), store);
    ASSERT_TRUE(opened.ok()) << opened.error().detail;
    auto* jb = opened.value().get();
    store::EvidenceLog log(std::move(opened).take(), clock, store);
    for (int i = 0; i < records; ++i) {
      log.append(run, "blob", to_bytes("payload-" + std::to_string(i)));
    }
    ASSERT_TRUE(jb->sync().ok());
    ASSERT_TRUE(log.backend_status().ok());
    jb->writer().simulate_crash();
    jb->object_writer().simulate_crash();

    auto rsegs = journal::Segment::list(dir);
    ASSERT_TRUE(rsegs.ok());
    ASSERT_FALSE(rsegs.value().empty());
    record_tail = rsegs.value().back();
    auto osegs = journal::Segment::list(dir + "/objects");
    ASSERT_TRUE(osegs.ok());
    ASSERT_FALSE(osegs.value().empty());
    object_tail = osegs.value().back();
  }
};

TEST_F(TornAsyncFixture, DanglingSuffixTruncatedToDurablePrefix) {
  // k = number of record frames whose object frames the power loss ate —
  // k >= 2 is the genuinely-async case (two-plus batches still in flight).
  for (const std::size_t k : {1u, 2u, 3u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    build(7);
    // Cut the object journal after its (7-k)-th frame: the last k records
    // now reference objects that were never durable. Distinct payloads mean
    // record i references exactly object i, so the danglers are precisely
    // the record suffix.
    auto scan = journal::Segment::scan(object_tail);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan->records.size(), 7u);
    std::filesystem::resize_file(object_tail, scan->records[7 - k].offset);

    auto rebuilt = std::make_shared<store::ObjectStore>();
    auto reopened = store::JournalLogBackend::open(record_options(), rebuilt);
    ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
    EXPECT_EQ(reopened.value()->resolve_stats().dangling_refs, 0u);
    EXPECT_EQ(reopened.value()->resolve_stats().truncated_tail_records, k);

    store::EvidenceLog recovered(std::move(reopened).take(), clock, rebuilt);
    ASSERT_EQ(recovered.size(), 7u - k);
    EXPECT_TRUE(recovered.verify_chain().ok());
    // Sequence numbering resumes exactly where durability ended.
    recovered.append(run, "blob", to_bytes("post-recovery"));
    EXPECT_TRUE(recovered.backend_status().ok());
    EXPECT_EQ(recovered.records().back().sequence, 7u - k);
    EXPECT_TRUE(recovered.verify_chain().ok());
  }
}

TEST_F(TornAsyncFixture, RecordTailShorterThanObjectJournalIsBenign) {
  // The mirror image — the object WAL is synced before the record WAL, so
  // a crash can leave the object journal ahead of the record journal.
  // Orphan objects are harmless; the record prefix loads with nothing
  // dangling and nothing to truncate.
  build(7);
  auto scan = journal::Segment::scan(record_tail);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 7u);
  std::filesystem::resize_file(record_tail, scan->records[4].offset);

  auto rebuilt = std::make_shared<store::ObjectStore>();
  auto reopened = store::JournalLogBackend::open(record_options(), rebuilt);
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  EXPECT_EQ(reopened.value()->resolve_stats().dangling_refs, 0u);
  EXPECT_EQ(reopened.value()->resolve_stats().truncated_tail_records, 0u);

  store::EvidenceLog recovered(std::move(reopened).take(), clock, rebuilt);
  ASSERT_EQ(recovered.size(), 4u);
  EXPECT_TRUE(recovered.verify_chain().ok());
  recovered.append(run, "blob", to_bytes("post-recovery"));
  EXPECT_TRUE(recovered.backend_status().ok());
  EXPECT_EQ(recovered.records().back().sequence, 4u);
}

TEST_F(TornAsyncFixture, CrashMidRotationLeavesRecoverableJournal) {
  namespace fs = std::filesystem;
  // Small segments force rotations (spare-file swaps) before the crash; a
  // garbage spare left behind — power loss between preallocation and swap —
  // must be invisible to recovery and cleaned up on resume.
  build(40, /*segment_max_bytes=*/2048);
  {
    std::ofstream out(dir + "/.spare.wal", std::ios::binary | std::ios::trunc);
    out << "half-prepared spare, never swapped in";
  }
  auto rebuilt = std::make_shared<store::ObjectStore>();
  auto reopened = store::JournalLogBackend::open(record_options(2048), rebuilt);
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  EXPECT_FALSE(fs::exists(dir + "/.spare.wal"));  // stale spare removed
  EXPECT_EQ(reopened.value()->resolve_stats().dangling_refs, 0u);

  store::EvidenceLog recovered(std::move(reopened).take(), clock, rebuilt);
  ASSERT_EQ(recovered.size(), 40u);
  EXPECT_TRUE(recovered.verify_chain().ok());
  recovered.append(run, "blob", to_bytes("post-recovery"));
  EXPECT_TRUE(recovered.backend_status().ok());
}

TEST_F(TornAsyncFixture, VanishedUnsealedTailAfterRotationKeepsSealedPrefix) {
  namespace fs = std::filesystem;
  // Power loss before the rotation's directory fsync can make the freshly
  // renamed tail segment vanish entirely: the sealed prefix must load and
  // the writer must resume after its last record.
  build(40, /*segment_max_bytes=*/2048);
  auto rsegs = journal::Segment::list(dir);
  ASSERT_TRUE(rsegs.ok());
  ASSERT_GE(rsegs.value().size(), 2u) << "need a rotation for this scenario";
  fs::remove(rsegs.value().back());

  auto expected = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  ASSERT_TRUE(expected.ok());
  const std::size_t surviving = expected->records.size();
  ASSERT_GT(surviving, 0u);
  ASSERT_LT(surviving, 40u);

  auto rebuilt = std::make_shared<store::ObjectStore>();
  auto reopened = store::JournalLogBackend::open(record_options(2048), rebuilt);
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  EXPECT_EQ(reopened.value()->resolve_stats().dangling_refs, 0u);

  store::EvidenceLog recovered(std::move(reopened).take(), clock, rebuilt);
  ASSERT_EQ(recovered.size(), surviving);
  EXPECT_TRUE(recovered.verify_chain().ok());
  recovered.append(run, "blob", to_bytes("post-recovery"));
  EXPECT_TRUE(recovered.backend_status().ok());
  EXPECT_EQ(recovered.records().back().sequence, surviving);
}

TEST_F(FailureFixture, DuplicatedDecisionIsIdempotent) {
  build(3);
  world.network.set_link(nodes[0].party->address, nodes[1].party->address,
                         net::LinkConfig{.latency = 5, .duplicate = 1.0});
  auto v = nodes[0].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_TRUE(v.ok());
  world.network.run();
  EXPECT_EQ(nodes[1].controller->get(kObj).value().version, 2u);
  EXPECT_EQ(nodes[1].controller->get(kObj).value().state, to_bytes("v2"));
}

}  // namespace
}  // namespace nonrep::core
