#include "core/shared_ref.hpp"

#include "store/state_store.hpp"
#include "util/hex.hpp"

namespace nonrep::core {

namespace {
std::string context_key(const ObjectId& object) { return "nonrep.shared." + object.str(); }
}  // namespace

Status attach_shared_reference(container::Invocation& inv,
                               const B2BObjectController& controller,
                               const ObjectId& object) {
  auto state = controller.get(object);
  if (!state) return state.error();
  const crypto::Digest digest = store::state_digest(state.value().state);
  inv.context[context_key(object)] =
      std::to_string(state.value().version) + ":" + to_hex(crypto::digest_bytes(digest));
  return Status::ok_status();
}

Result<SharedReference> shared_reference(const container::Invocation& inv,
                                         const ObjectId& object) {
  auto it = inv.context.find(context_key(object));
  if (it == inv.context.end()) {
    return Error::make("sharedref.absent", object.str());
  }
  const std::string& value = it->second;
  const auto colon = value.find(':');
  if (colon == std::string::npos) {
    return Error::make("sharedref.malformed", value);
  }
  SharedReference ref;
  ref.object = object;
  try {
    ref.version = std::stoull(value.substr(0, colon));
  } catch (const std::exception&) {
    return Error::make("sharedref.bad_version", value);
  }
  auto digest = from_hex(value.substr(colon + 1));
  if (!digest || !crypto::digest_from_bytes(*digest, ref.state_digest)) {
    return Error::make("sharedref.bad_digest", value);
  }
  return ref;
}

Status verify_shared_reference(const container::Invocation& inv,
                               const B2BObjectController& local, const ObjectId& object) {
  auto ref = shared_reference(inv, object);
  if (!ref) return ref.error();
  auto state = local.get(object);
  if (!state) return state.error();
  if (state.value().version != ref.value().version) {
    return Error::make("sharedref.version_mismatch",
                       "caller referenced v" + std::to_string(ref.value().version) +
                           ", local replica is v" + std::to_string(state.value().version));
  }
  const crypto::Digest local_digest = store::state_digest(state.value().state);
  if (!constant_time_equal(BytesView(local_digest.data(), local_digest.size()),
                           BytesView(ref.value().state_digest.data(),
                                     ref.value().state_digest.size()))) {
    return Error::make("sharedref.digest_mismatch",
                       "same version but different state: group divergence or forgery");
  }
  return Status::ok_status();
}

}  // namespace nonrep::core
