#include "fleet.hpp"

#include <functional>

#include "store/journal_backend.hpp"
#include "trace.hpp"
#include "tsa/timestamp.hpp"

#ifndef PERFBENCH_SIGN_SLOWDOWN
#define PERFBENCH_SIGN_SLOWDOWN 0
#endif

namespace perfbench {

namespace {

using nonrep::Bytes;
using nonrep::BytesView;
using nonrep::Result;

constexpr nonrep::TimeMs kFarFuture = 1000ull * 60 * 60 * 24 * 365;
// Client step-2 wait in virtual ms (the load generator's value): long enough
// that a lossy link's retransmissions finish before the TTP is asked.
constexpr nonrep::TimeMs kRequestTimeout = 600;
// The scenario worlds' key size and the box's core count.
constexpr std::size_t kRsaBits = 512;
constexpr std::size_t kPoolThreads = 4;

// Sensitivity check only (see perfbench/sensitivity.py): a build with
// PERFBENCH_SIGN_SLOWDOWN > 0 makes every signature that share slower, as a
// slower RSA kernel would: after signing it busy-waits that share of the
// time the signature took, so the extra work follows the CPU's speed state
// as the signature does. Default builds never construct it.
class SpinSigner final : public nonrep::crypto::Signer {
 public:
  explicit SpinSigner(std::shared_ptr<nonrep::crypto::Signer> inner)
      : inner_(std::move(inner)) {}
  nonrep::crypto::SigAlgorithm algorithm() const noexcept override {
    return inner_->algorithm();
  }
  Bytes public_key() const override { return inner_->public_key(); }
  Result<Bytes> sign(BytesView msg) override {
    const std::uint64_t t0 = now_ns();
    auto sig = inner_->sign(msg);
    const std::uint64_t t1 = now_ns();
    const auto until =
        t1 + static_cast<std::uint64_t>(static_cast<double>(t1 - t0) * PERFBENCH_SIGN_SLOWDOWN);
    while (now_ns() < until) {
    }
    return sig;
  }

 private:
  std::shared_ptr<nonrep::crypto::Signer> inner_;
};

}  // namespace

Fleet::Fleet(const FleetOptions& options)
    : options_(options),
      clock_(std::make_shared<nonrep::SimClock>(1000)),
      network_(clock_, options.seed),
      rng_(nonrep::to_bytes("perfbench-fleet-" + std::to_string(options.seed))),
      objects_(std::make_shared<nonrep::store::ObjectStore>()) {
  auto ca_signer = std::make_shared<nonrep::crypto::RsaSigner>(
      nonrep::crypto::rsa_generate(rng_, kRsaBits));
  ca_ = std::make_unique<nonrep::pki::CertificateAuthority>(nonrep::PartyId("ca:root"),
                                                            ca_signer, 0, kFarFuture);
  if (!ca_->status()) {
    status_ = ca_->status();
    return;
  }
  if (options_.tsa) {
    auto authority = std::make_shared<nonrep::tsa::TimestampAuthority>(
        nonrep::PartyId("tsa:clock"), make_signer(), clock_);
    tsa_hook_ = std::make_shared<nonrep::tsa::EvidenceTimestamper>(std::move(authority));
    if (options_.traced) tsa_hook_ = std::make_shared<TracedTimestampHook>(tsa_hook_);
  }

  server_ = make_party(kServerAddress);
  ttp_ = make_party(kTtpAddress);
  for (std::size_t i = 0; i < kMembers; ++i) {
    members_.push_back(make_party("p" + std::to_string(i)));
  }
  if (!status_) return;
  // Everyone trusts the root and knows everyone's certificate.
  for (FleetParty* p : parties()) {
    if (auto ok = p->credentials->add_trusted_root(ca_->certificate()); !ok) {
      status_ = ok;
      return;
    }
    for (FleetParty* q : parties()) p->credentials->add_certificate(q->certificate);
  }

  nonrep::container::DeploymentDescriptor descriptor;
  descriptor.non_repudiation = true;
  auto component = std::make_shared<nonrep::container::Component>();
  component->bind("echo", [](const nonrep::container::Invocation& inv) -> Result<Bytes> {
    return inv.arguments;
  });
  server_container_.deploy(
      nonrep::ServiceUri(std::string("svc://") + kServerAddress + "/echo"), component,
      descriptor);
  const nonrep::core::InvocationConfig config{.request_timeout = kRequestTimeout};
  std::shared_ptr<nonrep::core::ProtocolHandler> server_handler =
      nonrep::core::install_nr_server(*server_->coordinator, server_container_, config);
  ttp_handler_ = std::make_shared<nonrep::core::OptimisticTtp>(*ttp_->coordinator);
  std::shared_ptr<nonrep::core::ProtocolHandler> ttp_handler = ttp_handler_;
  if (options_.traced) {
    // Re-registering under the same protocol replaces the plain handler.
    server_handler = std::make_shared<TracedHandler>(server_handler, "core.server");
    ttp_handler = std::make_shared<TracedHandler>(ttp_handler, "core.ttp");
    server_->coordinator->register_handler(server_handler);
  }
  ttp_->coordinator->register_handler(ttp_handler);

  network_.set_default_link(nonrep::net::LinkConfig{.latency = 0});
  if (options_.loss > 0.0) {
    const nonrep::net::LinkConfig lossy{.latency = 0, .drop = options_.loss};
    for (auto& m : members_) {
      network_.set_link(m->address, kServerAddress, lossy);
      network_.set_link(kServerAddress, m->address, lossy);
    }
  }

  pool_ = std::make_shared<nonrep::util::ThreadPool>(kPoolThreads);
  network_.set_executor(pool_);
  pump_ = std::thread([this] { network_.run_live(); });
}

Fleet::~Fleet() {
  if (pump_.joinable()) {
    network_.drain();
    network_.stop_live();
    pump_.join();
  }
  network_.set_executor(nullptr);
}

std::shared_ptr<nonrep::crypto::Signer> Fleet::make_signer() {
  std::shared_ptr<nonrep::crypto::Signer> signer =
      std::make_shared<nonrep::crypto::RsaSigner>(
          nonrep::crypto::rsa_generate(rng_, kRsaBits));
  if (PERFBENCH_SIGN_SLOWDOWN > 0) signer = std::make_shared<SpinSigner>(std::move(signer));
  if (options_.traced) signer = std::make_shared<TracedSigner>(std::move(signer));
  return signer;
}

std::unique_ptr<FleetParty> Fleet::make_party(const std::string& name) {
  auto p = std::make_unique<FleetParty>();
  p->id = nonrep::PartyId("org:" + name);
  p->address = name;
  p->signer = make_signer();
  auto cert = ca_->issue(p->id, p->signer->algorithm(), p->signer->public_key(), 0,
                         kFarFuture);
  if (!cert) {
    status_ = cert.error();
    return p;
  }
  p->certificate = std::move(cert).take();
  p->credentials = std::make_shared<nonrep::pki::CredentialManager>();

  std::unique_ptr<nonrep::store::LogBackend> backend;
  if (options_.journal_root.empty()) {
    backend = std::make_unique<nonrep::store::MemoryLogBackend>();
  } else {
    p->journal_dir = options_.journal_root + "/" + name;
    nonrep::journal::Options jo;
    jo.dir = p->journal_dir;
    jo.sync = options_.sync;
    auto opened = nonrep::store::JournalLogBackend::open(jo, objects_);
    if (!opened) {
      status_ = opened.error();
      backend = std::make_unique<nonrep::store::MemoryLogBackend>();
    } else {
      backend = std::move(opened).take();
    }
  }
  if (options_.traced) backend = std::make_unique<TracedLogBackend>(std::move(backend));
  p->backend = backend.get();
  p->log = std::make_shared<nonrep::store::EvidenceLog>(std::move(backend), clock_, objects_);
  p->states = std::make_shared<nonrep::store::StateStore>();
  p->evidence = std::make_shared<nonrep::core::EvidenceService>(
      p->id, p->signer, p->credentials, p->log, p->states, clock_,
      /*rng_seed=*/options_.seed ^ std::hash<std::string>{}(name));
  if (tsa_hook_) p->evidence->set_timestamp_authority(tsa_hook_);
  p->coordinator =
      std::make_unique<nonrep::core::Coordinator>(p->evidence, network_, p->address);
  return p;
}

std::vector<FleetParty*> Fleet::parties() {
  std::vector<FleetParty*> out{server_.get(), ttp_.get()};
  for (auto& m : members_) out.push_back(m.get());
  return out;
}

ExchangeResult Fleet::exchange(std::size_t member, const Bytes& payload,
                               bool forced_recovery) {
  FleetParty& m = *members_[member];
  const char* target = forced_recovery ? kBlackholeAddress : kServerAddress;
  nonrep::core::OptimisticInvocationClient client(
      *m.coordinator, kTtpAddress,
      nonrep::core::InvocationConfig{.request_timeout = kRequestTimeout});
  nonrep::container::Invocation inv;
  inv.service = nonrep::ServiceUri(std::string("svc://") + target + "/echo");
  inv.method = "echo";
  inv.arguments = payload;
  inv.caller = m.id;
  (void)client.invoke(target, inv);

  ExchangeResult r;
  r.run = client.last_run();
  using Last = nonrep::core::OptimisticInvocationClient::LastOutcome;
  switch (client.last_outcome()) {
    case Last::kNormal:
      r.outcome = Outcome::kCompleted;
      break;
    case Last::kAborted:
      r.outcome = Outcome::kAborted;
      break;
    case Last::kRecoveredFromTtp:
      r.outcome = Outcome::kRecovered;
      break;
    case Last::kFailed:
      r.outcome = Outcome::kFailed;
      break;
  }
  return r;
}

}  // namespace perfbench
