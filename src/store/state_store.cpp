#include "store/state_store.hpp"

#include <bit>

namespace nonrep::store {

StateStore::StateStore(std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shard_count = std::bit_ceil(shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shard_count - 1;
}

crypto::Digest StateStore::put(BytesView state) { return get_or_put(state).first; }

std::pair<crypto::Digest, bool> StateStore::get_or_put(BytesView state) {
  // Hash outside any lock: it is the expensive part of a put.
  const crypto::Digest d = crypto::Sha256::hash(state);
  Shard& s = shard_for(d);
  util::MutexLock lk(s.mu);
  auto [it, inserted] = s.blobs.try_emplace(d, Bytes(state.begin(), state.end()));
  if (inserted) s.stored_bytes += it->second.size();
  return {d, inserted};
}

Result<Bytes> StateStore::get(const crypto::Digest& digest) const {
  const Shard& s = shard_for(digest);
  util::MutexLock lk(s.mu);
  auto it = s.blobs.find(digest);
  if (it == s.blobs.end()) {
    return Error::make("store.unknown_digest", "no state for digest");
  }
  return it->second;
}

bool StateStore::contains(const crypto::Digest& digest) const {
  const Shard& s = shard_for(digest);
  util::MutexLock lk(s.mu);
  return s.blobs.contains(digest);
}

std::size_t StateStore::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    util::MutexLock lk(s->mu);
    n += s->blobs.size();
  }
  return n;
}

std::uint64_t StateStore::stored_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) {
    util::MutexLock lk(s->mu);
    n += s->stored_bytes;
  }
  return n;
}

}  // namespace nonrep::store
