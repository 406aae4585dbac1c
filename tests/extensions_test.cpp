// Cross-module extension points: custom protocol registration (the
// paper's "client controls its own participation", §4.2), signer failure
// during evidence issue, evidence-log persistence across restarts, and
// randomized multi-proposer convergence.
#include <gtest/gtest.h>

#include <filesystem>

#include "common.hpp"
#include "core/fair_exchange.hpp"
#include "core/nr_interceptor.hpp"
#include "container/proxy.hpp"
#include "core/sharing.hpp"
#include "store/journal_backend.hpp"

namespace nonrep::core {
namespace {

using container::Invocation;

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  return c;
}

TEST(HandlerFactory, CustomProtocolRegistration) {
  // The client re-negotiates its participation by registering a creator
  // for (platform, protocol) — here, the optimistic-TTP handler bound to
  // a specific notary address.
  test::TestWorld world(321);
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  auto& ttp = world.add_party("ttp");
  container::Container cont;
  cont.deploy(ServiceUri("svc://server/echo"), make_echo(), {});
  auto nr = install_nr_server(*server.coordinator, cont);
  ttp.coordinator->register_handler(std::make_shared<OptimisticTtp>(*ttp.coordinator));

  auto& factory = InvocationHandlerFactory::instance();
  factory.register_creator(
      "cpp-sim", "optimistic-ttp-test",
      [](Coordinator& c, const InvocationConfig& cfg) -> std::unique_ptr<InvocationHandler> {
        return std::make_unique<OptimisticInvocationClient>(c, "ttp", cfg);
      });
  ASSERT_TRUE(factory.known("cpp-sim", "optimistic-ttp-test"));

  auto nr_interceptor = std::make_shared<NrClientInterceptor>(
      *client.coordinator, [](const ServiceUri&) { return net::Address("server"); },
      "cpp-sim", "optimistic-ttp-test");
  container::ClientProxy proxy(client.id, ServiceUri("svc://server/echo"),
                               {nr_interceptor}, [](Invocation&) {
                                 return container::InvocationResult::failure(
                                     container::Outcome::kFailure, "unreachable");
                               });
  auto result = proxy.call("echo", to_bytes("negotiated"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(nonrep::to_string(result.payload), "negotiated");
}

TEST(SignerFailure, IssueSurfacesCleanly) {
  // A party whose signer starts failing after two signatures: evidence
  // issue reports the failure instead of emitting an unsigned token.
  test::TestWorld world(99);
  auto& server = world.add_party("server");

  crypto::Drbg rng(to_bytes("failing-signer"));
  auto signer = std::make_shared<test::FailingSigner>(crypto::rsa_generate(rng, 512), 2);
  auto cert = world.ca()
                  .issue(PartyId("org:tiny"), signer->algorithm(), signer->public_key(),
                         0, test::kFarFuture)
                  .take();
  auto credentials = std::make_shared<pki::CredentialManager>();
  ASSERT_TRUE(credentials->add_trusted_root(world.ca().certificate()).ok());
  credentials->add_certificate(cert);
  server.credentials->add_certificate(cert);
  auto evidence = std::make_shared<EvidenceService>(
      PartyId("org:tiny"), signer, credentials,
      std::make_shared<store::EvidenceLog>(std::make_unique<store::MemoryLogBackend>(),
                                           world.clock),
      std::make_shared<store::StateStore>(), world.clock, 5);

  auto t1 = evidence->issue(EvidenceType::kNroRequest, RunId("r1"), to_bytes("s"));
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(server.evidence->verify(t1.value(), to_bytes("s")).ok());
  auto t2 = evidence->issue(EvidenceType::kNroRequest, RunId("r2"), to_bytes("s"));
  ASSERT_TRUE(t2.ok());
  auto t3 = evidence->issue(EvidenceType::kNroRequest, RunId("r3"), to_bytes("s"));
  ASSERT_FALSE(t3.ok());
  EXPECT_EQ(t3.error().code, test::FailingSigner::kCode);
}

TEST(EvidencePersistence, LogSurvivesRestartAndContinuesChain) {
  namespace fs = std::filesystem;
  const std::string dir = test::temp_dir("restart_test");
  auto clock = std::make_shared<SimClock>(100);
  // Each "process" opens the journal with a fresh store, rebuilt from disk.
  auto open_log = [&] {
    auto objects = std::make_shared<store::ObjectStore>();
    auto backend = store::JournalLogBackend::open({.dir = dir}, objects);
    EXPECT_TRUE(backend.ok());
    return std::make_unique<store::EvidenceLog>(std::move(backend).take(), clock, objects);
  };
  {
    auto log = open_log();
    log->append(RunId("r1"), "token.NRO-request", to_bytes("before restart"));
    log->append(RunId("r1"), "token.NRR-request", to_bytes("also before"));
  }
  {
    // "Restart": reload from disk, verify, continue appending.
    auto log = open_log();
    ASSERT_EQ(log->size(), 2u);
    ASSERT_TRUE(log->verify_chain().ok());
    log->append(RunId("r2"), "token.NRO-request", to_bytes("after restart"));
    ASSERT_TRUE(log->verify_chain().ok());
  }
  {
    auto log = open_log();
    EXPECT_EQ(log->size(), 3u);
    EXPECT_TRUE(log->verify_chain().ok());
    EXPECT_TRUE(log->find(RunId("r2"), "token.NRO-request").has_value());
  }
  fs::remove_all(dir);
}

// Randomized schedules: several proposers, lossy links, random order —
// replicas must never diverge and versions must advance consistently.
class ConvergenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvergenceProperty, ReplicasNeverDiverge) {
  const ObjectId obj{"obj:conv"};
  test::TestWorld world(static_cast<std::uint64_t>(GetParam()) + 2000);
  crypto::Drbg schedule(to_bytes("schedule-" + std::to_string(GetParam())));

  struct Node {
    test::Party* party;
    std::unique_ptr<membership::MembershipService> membership;
    std::shared_ptr<B2BObjectController> controller;
  };
  std::vector<Node> nodes;
  std::vector<membership::Member> members;
  const std::size_t n = 3;
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = world.add_party("p" + std::to_string(i));
    members.push_back({p.id, p.address});
    nodes.push_back({&p, std::make_unique<membership::MembershipService>(), nullptr});
  }
  for (auto& node : nodes) {
    node.membership->create_group(obj, members);
    node.controller = std::make_shared<B2BObjectController>(
        *node.party->coordinator, *node.membership, SharingConfig{.vote_timeout = 20000});
    node.party->coordinator->register_handler(node.controller);
    ASSERT_TRUE(node.controller->host(obj, to_bytes("genesis")).ok());
  }
  // Mild loss on every link.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        world.network.set_link(nodes[i].party->address, nodes[j].party->address,
                               net::LinkConfig{.latency = 3, .drop = 0.15});
      }
    }
  }

  int committed = 0;
  for (int round = 0; round < 12; ++round) {
    const std::size_t proposer = schedule.uniform(n);
    auto v = nodes[proposer].controller->propose_update(
        obj, to_bytes("state-" + std::to_string(round) + "-by-" + std::to_string(proposer)));
    if (v.ok()) ++committed;
    world.network.run();

    // Invariant after every round: all replicas agree.
    auto reference = nodes[0].controller->get(obj);
    ASSERT_TRUE(reference.ok());
    for (std::size_t i = 1; i < n; ++i) {
      auto got = nodes[i].controller->get(obj);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value().state, reference.value().state)
          << "divergence at round " << round << " node " << i;
      EXPECT_EQ(got.value().version, reference.value().version);
    }
  }
  EXPECT_GT(committed, 0);
  for (auto& node : nodes) {
    EXPECT_TRUE(node.party->log->verify_chain().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ConvergenceProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace nonrep::core
