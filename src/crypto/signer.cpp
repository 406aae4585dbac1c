#include "crypto/signer.hpp"

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"

namespace nonrep::crypto {

namespace {

// Handles resolved once; recording is a single relaxed atomic add.
struct VerifierCacheMetrics {
  obs::Counter& hits = obs::Registry::global().counter("crypto.verifier_cache_hits");
  obs::Counter& misses = obs::Registry::global().counter("crypto.verifier_cache_misses");
};

VerifierCacheMetrics& verifier_cache_metrics() {
  static VerifierCacheMetrics m;
  return m;
}

}  // namespace

std::string to_string(SigAlgorithm alg) {
  switch (alg) {
    case SigAlgorithm::kRsa:
      return "rsa-pkcs1-sha256";
  }
  return "unknown";
}

bool verify(SigAlgorithm alg, BytesView public_key, BytesView msg, BytesView signature) {
  if (alg != SigAlgorithm::kRsa) return false;
  auto key = RsaPublicKey::decode(public_key);
  if (!key) return false;
  return rsa_verify(key.value(), msg, signature);
}

bool VerifierCache::verify(SigAlgorithm alg, BytesView public_key, BytesView msg,
                           BytesView signature) {
  if (alg != SigAlgorithm::kRsa) return false;
  const Digest dg = Sha256::hash(public_key);
  std::string cache_key(reinterpret_cast<const char*>(dg.data()), dg.size());
  {
    util::ReadLock lk(mu_);
    if (auto it = rsa_keys_.find(cache_key); it != rsa_keys_.end()) {
      RsaPublicKey key = it->second;  // shares the pre-built context
      lk.unlock();
      verifier_cache_metrics().hits.add();
      return rsa_verify(key, msg, signature);
    }
  }
  verifier_cache_metrics().misses.add();
  auto decoded = RsaPublicKey::decode(public_key);
  if (!decoded) return false;
  RsaPublicKey key = std::move(decoded).take();
  // Build the Montgomery context before publishing so every later copy
  // shares it instead of rebuilding per lookup.
  key.montgomery();
  {
    util::WriteLock lk(mu_);
    if (rsa_keys_.size() >= kMaxEntries) rsa_keys_.clear();
    rsa_keys_.emplace(std::move(cache_key), key);
  }
  return rsa_verify(key, msg, signature);
}

void VerifierCache::clear() {
  util::WriteLock lk(mu_);
  rsa_keys_.clear();
}

std::size_t VerifierCache::size() const {
  util::ReadLock lk(mu_);
  return rsa_keys_.size();
}

}  // namespace nonrep::crypto
