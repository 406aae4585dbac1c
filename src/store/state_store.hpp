// Digest-addressed state store (§3.5).
//
// "Non-repudiation evidence will include a signed secure digest of state
// that is held in a state store. Persistence services should support the
// mapping of the state digest to the representation of state in the state
// store." — i.e. content-addressed storage: put(state) -> digest,
// get(digest) -> state, so any agreed state referenced by evidence can be
// reconstructed and checked (§3.4 requirement ii).
//
// A typed view over one ObjectStore: every state is an object of type
// kTypeState, so a state's digest is its object id. state_digest() is that
// one addressing rule, and it is the digest evidence tokens sign.
#pragma once

#include "store/object_store.hpp"

namespace nonrep::store {

/// The address of a state in a StateStore and the subject digest an
/// evidence token signs: object_id(kTypeState, state).
inline crypto::Digest state_digest(BytesView state) { return object_id(kTypeState, state); }

class StateStore {
 public:
  /// Store a state snapshot; returns its digest (idempotent).
  crypto::Digest put(BytesView state) { return objects_.put(kTypeState, state).id; }

  /// Retrieve the state for a digest ("store.unknown_object" if absent).
  Result<Bytes> get(const crypto::Digest& digest) const {
    return objects_.get(digest, kTypeState);
  }

  bool contains(const crypto::Digest& digest) const { return objects_.contains(digest); }
  std::size_t size() const { return objects_.size(); }
  std::uint64_t stored_bytes() const { return objects_.stored_bytes(); }

 private:
  ObjectStore objects_;
};

}  // namespace nonrep::store
