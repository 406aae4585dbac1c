// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The paper's infrastructure requirements (§3.5) call for a "secure
// (one-way and collision-resistant) hash function"; every non-repudiation
// token signs a secure hash of the evidence (§3.2).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace nonrep::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Hasher for digest-keyed containers, shared by the object store and the
/// verification memo-caches. The digest is uniform SHA-256 output, so its
/// first word is already a perfectly mixed hash.
struct DigestHash {
  std::size_t operator()(const Digest& d) const noexcept {
    std::size_t h;
    static_assert(sizeof(std::size_t) <= kSha256DigestSize);
    std::memcpy(&h, d.data(), sizeof(h));
    return h;
  }
};

/// Incremental SHA-256. The compression function dispatches at runtime
/// (CPUID, probed once) to a SHA-NI kernel where the extension exists,
/// falling back to the portable scalar rounds — same pattern as
/// util/crc32c. Both kernels produce identical digests (differential
/// tests in crypto_test).
class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(BytesView data);

  /// One-shot through the scalar kernel regardless of CPU support — the
  /// reference side of the hardware/software differential tests.
  static Digest hash_sw(BytesView data);

 private:
  using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                           std::size_t n);
  explicit Sha256(BlockFn fn);

  void process_blocks(const std::uint8_t* blocks, std::size_t n) {
    fn_(state_.data(), blocks, n);
  }

  BlockFn fn_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// True when the SHA-NI kernel is compiled in and selected by the CPUID
/// probe (observability for tests and benches).
bool sha256_hw_available() noexcept;

/// Digest as an owned byte buffer (for serialization).
Bytes digest_bytes(const Digest& d);

/// Parse a 32-byte buffer into a Digest; returns false if size mismatches.
bool digest_from_bytes(BytesView b, Digest& out);

}  // namespace nonrep::crypto
