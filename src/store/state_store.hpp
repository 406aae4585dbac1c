// Digest-addressed state store (§3.5).
//
// "Non-repudiation evidence will include a signed secure digest of state
// that is held in a state store. Persistence services should support the
// mapping of the state digest to the representation of state in the state
// store." — i.e. content-addressed storage: put(state) -> digest,
// get(digest) -> state, so any agreed state referenced by evidence can be
// reconstructed and checked (§3.4 requirement ii).
//
// Concurrency: the store is lock-striped into `shard_count` shards keyed
// by the digest's *last* word (uniform SHA-256 output, so striping is
// balanced by construction; the in-shard hash uses the first word, keeping
// shard selection and bucket placement independent). put/get/contains
// touch exactly one shard mutex; party threads and delivery strands
// operate on disjoint shards in parallel; nothing holds two shards at once.
#pragma once

#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/lock_discipline.hpp"
#include "util/result.hpp"

namespace nonrep::store {

class StateStore {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  /// `shard_count` is rounded up to a power of two (mask indexing).
  explicit StateStore(std::size_t shard_count = kDefaultShards);

  /// Store a state snapshot; returns its digest (idempotent).
  crypto::Digest put(BytesView state);

  /// Insert-if-absent variant: returns the digest plus whether the blob was
  /// newly stored. The store never removes or evicts entries, so the stored
  /// copy (and its digest address) stays valid for the store's lifetime.
  std::pair<crypto::Digest, bool> get_or_put(BytesView state);

  /// Retrieve the state for a digest.
  Result<Bytes> get(const crypto::Digest& digest) const;

  bool contains(const crypto::Digest& digest) const;
  std::size_t size() const;
  std::uint64_t stored_bytes() const;
  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Shard {
    mutable util::Mutex mu{util::LockRank::kStateStore, "store.state_store.shard",
                           util::LockTraits{.multi = true}};
    std::unordered_map<crypto::Digest, Bytes, crypto::DigestHash> blobs
        NONREP_GUARDED_BY(mu);
    std::uint64_t stored_bytes NONREP_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const crypto::Digest& d) const {
    // Mix with a different slice of the digest than the in-shard hash uses
    // so shard selection and bucket placement stay independent.
    std::size_t h;
    std::memcpy(&h, d.data() + crypto::kSha256DigestSize - sizeof(h), sizeof(h));
    return *shards_[h & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
};

}  // namespace nonrep::store
