// The traced run's decorators must be byte-transparent: an EvidenceService
// whose signer, TSA hook and log backend are wrapped issues the same tokens
// and appends the same records as one built on the plain objects, and a
// wrapped protocol handler answers exactly as the handler it wraps. Also
// checks that a traced fleet ties server and TTP spans to the client span
// of their request. Build and run:
//
//   cmake -S perfbench -B .bench_build/perfbench && \
//   cmake --build .bench_build/perfbench --target decorator_test && \
//   .bench_build/perfbench/decorator_test
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "../src/fleet.hpp"
#include "../src/trace.hpp"
#include "store/journal_backend.hpp"
#include "tsa/timestamp.hpp"

namespace {

using namespace perfbench;
using namespace nonrep;
namespace fs = std::filesystem;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

struct Service {
  std::shared_ptr<store::EvidenceLog> log;
  std::shared_ptr<core::EvidenceService> evidence;
};

/// One party's evidence path on `key`, plain or with every decorator.
Service make_service(const crypto::RsaPrivateKey& key, const crypto::RsaPrivateKey& tsa_key,
                     std::shared_ptr<SimClock> clock, const std::string& journal_dir,
                     bool traced) {
  std::shared_ptr<crypto::Signer> signer = std::make_shared<crypto::RsaSigner>(key);
  std::shared_ptr<core::TimestampHook> tsa = std::make_shared<tsa::EvidenceTimestamper>(
      std::make_shared<tsa::TimestampAuthority>(
          PartyId("tsa:test"), std::make_shared<crypto::RsaSigner>(tsa_key), clock));
  auto objects = std::make_shared<store::ObjectStore>();
  std::unique_ptr<store::LogBackend> backend = std::make_unique<store::MemoryLogBackend>();
  if (!journal_dir.empty()) {
    journal::Options jo;
    jo.dir = journal_dir;
    jo.sync = journal::SyncPolicy::kEveryRecord;
    backend = store::JournalLogBackend::open(jo, objects).take();
  }
  if (traced) {
    signer = std::make_shared<TracedSigner>(signer);
    tsa = std::make_shared<TracedTimestampHook>(tsa);
    backend = std::make_unique<TracedLogBackend>(std::move(backend));
  }
  Service s;
  s.log = std::make_shared<store::EvidenceLog>(std::move(backend), clock, objects);
  s.evidence = std::make_shared<core::EvidenceService>(
      PartyId("org:test"), signer, std::make_shared<pki::CredentialManager>(), s.log,
      std::make_shared<store::StateStore>(), clock, /*rng_seed=*/3);
  s.evidence->set_timestamp_authority(tsa);
  return s;
}

std::vector<Bytes> encoded(const std::vector<store::LogRecord>& records) {
  std::vector<Bytes> out;
  for (const auto& r : records) out.push_back(store::encode_log_record(r));
  return out;
}

void evidence_path_is_transparent(bool journal) {
  const std::string mode = journal ? "journal" : "memory";
  const std::string root = fs::temp_directory_path() / "perfbench-decorator-test";
  fs::remove_all(root);
  crypto::Drbg rng(to_bytes("decorator-test"));
  const auto key = crypto::rsa_generate(rng, 512);
  const auto tsa_key = crypto::rsa_generate(rng, 512);
  auto clock = std::make_shared<SimClock>(1000);

  Service plain = make_service(key, tsa_key, clock, journal ? root + "/plain" : "", false);
  Service traced = make_service(key, tsa_key, clock, journal ? root + "/traced" : "", true);
  for (int i = 0; i < 6; ++i) {
    const RunId run("run-" + std::to_string(i));
    const Bytes subject = to_bytes("subject " + std::to_string(i));
    const auto type = i % 2 ? core::EvidenceType::kNrrRequest : core::EvidenceType::kNroRequest;
    const auto a = plain.evidence->issue(type, run, subject);
    const auto b = traced.evidence->issue(type, run, subject);
    check(a.ok() && b.ok() && a.value().encode() == b.value().encode(),
          mode + ": issued token " + std::to_string(i) + " differs");
    clock->advance(7);
  }
  check(encoded(plain.log->records()) == encoded(traced.log->records()),
        mode + ": appended records differ");
  check(plain.log->records().size() == 12, mode + ": token and TSA record per issue");
  if (journal) {
    plain = {};
    traced = {};
    auto reopen = [&](const std::string& dir) {
      journal::Options jo;
      jo.dir = dir;
      return store::JournalLogBackend::open(jo, std::make_shared<store::ObjectStore>())
          .take()
          ->load();
    };
    check(encoded(reopen(root + "/plain")) == encoded(reopen(root + "/traced")),
          mode + ": persisted records differ");
  }
  fs::remove_all(root);
}

/// A handler that answers with what it was sent, so replies are comparable.
class Echo final : public core::ProtocolHandler {
 public:
  std::string protocol() const override { return "test.echo"; }
  Result<core::ProtocolMessage> process_request(const net::Address&,
                                                const core::ProtocolMessage& msg) override {
    ++calls;
    core::ProtocolMessage reply = msg;
    reply.step = msg.step + 1;
    return reply;
  }
  void process(const net::Address&, const core::ProtocolMessage&) override { ++calls; }
  int calls = 0;
};

void handler_is_transparent() {
  auto echo = std::make_shared<Echo>();
  TracedHandler traced(echo, "core.server");
  core::ProtocolMessage msg;
  msg.protocol = "test.echo";
  msg.run = RunId("run-x");
  msg.step = 1;
  msg.body = to_bytes("body");
  check(traced.protocol() == echo->protocol(), "handler protocol differs");
  const auto a = echo->process_request("peer", msg);
  const auto b = traced.process_request("peer", msg);
  check(a.ok() && b.ok() && a.value().encode() == b.value().encode(), "handler reply differs");
  traced.process("peer", msg);
  check(echo->calls == 3, "wrapped handler not called through");
}

/// Server and TTP spans run on pool threads but must name the client span
/// of their own request as parent.
void spans_follow_the_request() {
  (void)SpanSink::global().take();
  FleetOptions o;
  o.seed = 7;
  o.traced = true;
  {
    Fleet fleet(o);
    check(fleet.status().ok(), "traced fleet set-up");
    for (std::size_t i = 0; i < 2 * kMembers; ++i) {
      RequestSpan span(i + 1);
      const auto x = fleet.exchange(i % kMembers, to_bytes("payload"), /*forced=*/i == 3);
      check(x.outcome == (i == 3 ? Outcome::kAborted : Outcome::kCompleted),
            "exchange " + std::to_string(i) + " outcome");
    }
    fleet.drain();
  }
  const std::vector<SpanRec> spans = SpanSink::global().take();
  std::map<std::string, std::size_t> named;
  std::map<std::uint64_t, std::uint64_t> client_of_trace;
  for (const SpanRec& s : spans) {
    ++named[s.name];
    if (std::string(s.name) == "core.client") client_of_trace[s.trace] = s.id;
  }
  for (const SpanRec& s : spans) {
    const std::string name = s.name;
    if (name == "core.server" || name == "core.ttp") {
      check(s.trace != 0 && client_of_trace[s.trace] == s.parent,
            name + " span is not a child of its request's client span");
    }
  }
  check(named["core.client"] == 2 * kMembers, "one client span per request");
  check(named["core.server"] > 0 && named["core.ttp"] > 0, "server and TTP spans");
  check(named["crypto.sign"] > 0 && named["store.log_append"] > 0, "layer spans");
}

}  // namespace

int main() {
  evidence_path_is_transparent(/*journal=*/false);
  evidence_path_is_transparent(/*journal=*/true);
  handler_is_transparent();
  spans_follow_the_request();
  if (failures == 0) std::printf("decorator_test: ok\n");
  return failures == 0 ? 0 : 1;
}
