#include <gtest/gtest.h>

#include "common.hpp"
#include "core/nr_interceptor.hpp"
#include "core/shared_ref.hpp"

namespace nonrep::core {
namespace {

using container::Invocation;

const ObjectId kObj{"obj:ref"};

struct SharedRefFixture : ::testing::Test {
  SharedRefFixture() {
    a = &world.add_party("a");
    b = &world.add_party("b");
    std::vector<membership::Member> members = {{a->id, a->address}, {b->id, b->address}};
    ma.create_group(kObj, members);
    mb.create_group(kObj, members);
    ca = std::make_shared<B2BObjectController>(*a->coordinator, ma);
    cb = std::make_shared<B2BObjectController>(*b->coordinator, mb);
    a->coordinator->register_handler(ca);
    b->coordinator->register_handler(cb);
    EXPECT_TRUE(ca->host(kObj, to_bytes("shared-v1")).ok());
    EXPECT_TRUE(cb->host(kObj, to_bytes("shared-v1")).ok());
  }

  test::TestWorld world;
  test::Party* a = nullptr;
  test::Party* b = nullptr;
  membership::MembershipService ma, mb;
  std::shared_ptr<B2BObjectController> ca, cb;
};

TEST_F(SharedRefFixture, AttachAndParseRoundTrip) {
  Invocation inv;
  ASSERT_TRUE(attach_shared_reference(inv, *ca, kObj).ok());
  auto ref = shared_reference(inv, kObj);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().version, 1u);
  EXPECT_EQ(ref.value().state_digest, store::state_digest(to_bytes("shared-v1")));
}

TEST_F(SharedRefFixture, ReceiverAcceptsMatchingReference) {
  Invocation inv;
  ASSERT_TRUE(attach_shared_reference(inv, *ca, kObj).ok());
  EXPECT_TRUE(verify_shared_reference(inv, *cb, kObj).ok());
}

TEST_F(SharedRefFixture, StaleReferenceRejected) {
  Invocation inv;
  ASSERT_TRUE(attach_shared_reference(inv, *ca, kObj).ok());  // covers v1
  ASSERT_TRUE(ca->propose_update(kObj, to_bytes("shared-v2")).ok());
  world.network.run();
  auto status = verify_shared_reference(inv, *cb, kObj);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "sharedref.version_mismatch");
}

TEST_F(SharedRefFixture, FabricatedDigestRejected) {
  Invocation inv;
  inv.context["nonrep.shared." + kObj.str()] =
      "1:" + std::string(64, 'a');  // right version, wrong digest
  auto status = verify_shared_reference(inv, *cb, kObj);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "sharedref.digest_mismatch");
}

TEST_F(SharedRefFixture, MalformedReferenceRejected) {
  Invocation inv;
  inv.context["nonrep.shared." + kObj.str()] = "not-a-reference";
  EXPECT_FALSE(shared_reference(inv, kObj).ok());
  inv.context["nonrep.shared." + kObj.str()] = "x:abcd";
  EXPECT_FALSE(shared_reference(inv, kObj).ok());
  inv.context["nonrep.shared." + kObj.str()] = "1:zz";
  EXPECT_FALSE(shared_reference(inv, kObj).ok());
}

TEST_F(SharedRefFixture, AbsentReferenceReported) {
  Invocation inv;
  auto ref = shared_reference(inv, kObj);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.error().code, "sharedref.absent");
}

TEST_F(SharedRefFixture, ReferenceIsCoveredByInvocationEvidence) {
  // The reference lives in the invocation context, which canonical() and
  // therefore request_subject() — and thus NRO_req — sign over (§3.4:
  // the evidence must cover the state of shared information at
  // invocation time).
  Invocation inv;
  inv.service = ServiceUri("svc://b/act");
  inv.method = "act";
  inv.caller = a->id;
  const Bytes before = request_subject(inv);
  ASSERT_TRUE(attach_shared_reference(inv, *ca, kObj).ok());
  const Bytes after = request_subject(inv);
  EXPECT_NE(before, after);

  // End to end: server-side component checks the reference pre-execution.
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("act", [this](const Invocation& i) -> Result<Bytes> {
    if (auto ok = verify_shared_reference(i, *cb, kObj); !ok) return ok.error();
    return to_bytes("acted-on-agreed-state");
  });
  cont.deploy(ServiceUri("svc://b/act"), bean, {});
  auto nr = install_nr_server(*b->coordinator, cont);
  DirectInvocationClient handler(*a->coordinator);
  auto result = handler.invoke("b", inv);
  ASSERT_TRUE(result.ok()) << nonrep::to_string(result.payload);
  EXPECT_EQ(nonrep::to_string(result.payload), "acted-on-agreed-state");
}

}  // namespace
}  // namespace nonrep::core
