#include <gtest/gtest.h>

#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "util/hex.hpp"

namespace nonrep::crypto {
namespace {

std::string hex_digest(const Digest& d) { return to_hex(digest_bytes(d)); }

// ---- SHA-256 (FIPS 180-4 vectors) ----

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(Sha256::hash(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_digest(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, HardwareMatchesSoftware) {
  // Differential sweep of the runtime-dispatched kernel (SHA-NI where the
  // CPU has it) against the scalar reference: every length through a few
  // blocks plus pseudorandom contents. On machines without the extension
  // both sides run the scalar code and the test degenerates to a tautology
  // — the KAT vectors above still pin the algorithm itself.
  Drbg rng(to_bytes("sha256 differential"));
  for (std::size_t n = 0; n <= 300; ++n) {
    const Bytes msg = rng.generate(n);
    EXPECT_EQ(Sha256::hash(msg), Sha256::hash_sw(msg)) << "len=" << n;
  }
  for (std::size_t n : {1000u, 4096u, 65537u}) {
    const Bytes msg = rng.generate(n);
    EXPECT_EQ(Sha256::hash(msg), Sha256::hash_sw(msg)) << "len=" << n;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(BytesView(msg).subspan(0, split));
    h.update(BytesView(msg).subspan(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding logic around the 55/56/64-byte boundaries.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(n, 0x5a);
    Sha256 a;
    a.update(msg);
    EXPECT_EQ(a.finish(), Sha256::hash(msg)) << n;
  }
}

TEST(Sha256, DigestBytesRoundTrip) {
  const Digest d = Sha256::hash(to_bytes("x"));
  Digest out{};
  ASSERT_TRUE(digest_from_bytes(digest_bytes(d), out));
  EXPECT_EQ(out, d);
  EXPECT_FALSE(digest_from_bytes(to_bytes("short"), out));
}

// ---- HMAC (RFC 4231 / classic vectors) ----

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(key, to_bytes("Hi There")))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(to_bytes("Jefe"),
                                            to_bytes("what do ya want for nothing?")))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyHashedDown) {
  const Bytes key(131, 0xaa);
  const Bytes msg = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(key, msg))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDiffer) {
  EXPECT_NE(hmac_sha256(to_bytes("k1"), to_bytes("m")),
            hmac_sha256(to_bytes("k2"), to_bytes("m")));
}

// ---- ChaCha20 (RFC 8439 vector) ----

TEST(ChaCha20, Rfc8439BlockVector) {
  std::array<std::uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce = {0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  const auto block = chacha20_block(key, 1, nonce);
  EXPECT_EQ(to_hex(Bytes(block.begin(), block.end())),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, XorIsInvolution) {
  std::array<std::uint8_t, 32> key{};
  key[0] = 1;
  std::array<std::uint8_t, 12> nonce{};
  const Bytes msg = to_bytes("attack at dawn, bring evidence tokens");
  const Bytes ct = chacha20_xor(key, nonce, 0, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(chacha20_xor(key, nonce, 0, ct), msg);
}

// ---- DRBG ----

TEST(Drbg, DeterministicForSeed) {
  Drbg a(to_bytes("seed"));
  Drbg b(to_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(to_bytes("seed-a"));
  Drbg b(to_bytes("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, UniformInBound) {
  Drbg rng(to_bytes("uniform"));
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Drbg, ChanceExtremes) {
  Drbg rng(to_bytes("chance"));
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Drbg, ChanceRoughlyCalibrated) {
  Drbg rng(to_bytes("calibration"));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_GT(hits, 2200);
  EXPECT_LT(hits, 2800);
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a(to_bytes("x"));
  Drbg b(to_bytes("x"));
  (void)a.generate(16);
  (void)b.generate(16);
  b.reseed(to_bytes("extra"));
  EXPECT_NE(a.generate(16), b.generate(16));
}

// ---- RSA ----

class RsaFixture : public ::testing::Test {
 protected:
  static const RsaPrivateKey& key() {
    static const RsaPrivateKey k = [] {
      Drbg rng(to_bytes("rsa-fixture"));
      return rsa_generate(rng, 512);
    }();
    return k;
  }
};

TEST_F(RsaFixture, SignVerifyRoundTrip) {
  const Bytes msg = to_bytes("non-repudiation evidence");
  const Bytes sig = rsa_sign(key(), msg);
  EXPECT_EQ(sig.size(), key().pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key().pub, msg, sig));
}

TEST_F(RsaFixture, RejectsWrongMessage) {
  const Bytes sig = rsa_sign(key(), to_bytes("m1"));
  EXPECT_FALSE(rsa_verify(key().pub, to_bytes("m2"), sig));
}

TEST_F(RsaFixture, RejectsTamperedSignature) {
  Bytes sig = rsa_sign(key(), to_bytes("msg"));
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(key().pub, to_bytes("msg"), sig));
}

TEST_F(RsaFixture, RejectsWrongLengthSignature) {
  Bytes sig = rsa_sign(key(), to_bytes("msg"));
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(key().pub, to_bytes("msg"), sig));
}

TEST_F(RsaFixture, RejectsSignatureGeModulus) {
  const Bytes sig = key().pub.n.to_bytes_be(key().pub.modulus_bytes());
  EXPECT_FALSE(rsa_verify(key().pub, to_bytes("msg"), sig));
}

TEST_F(RsaFixture, DeterministicSignature) {
  EXPECT_EQ(rsa_sign(key(), to_bytes("same")), rsa_sign(key(), to_bytes("same")));
}

TEST_F(RsaFixture, PublicKeyEncodeDecode) {
  const Bytes enc = key().pub.encode();
  auto decoded = RsaPublicKey::decode(enc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().n, key().pub.n);
  EXPECT_EQ(decoded.value().e, key().pub.e);
}

TEST_F(RsaFixture, DecodeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::decode(to_bytes("junk")).ok());
}

TEST(Rsa, DifferentKeySizes) {
  Drbg rng(to_bytes("rsa-sizes"));
  for (std::size_t bits : {512u, 768u}) {
    const RsaPrivateKey k = rsa_generate(rng, bits);
    EXPECT_GE(k.pub.n.bit_length(), bits - 1) << bits;
    const Bytes sig = rsa_sign(k, to_bytes("x"));
    EXPECT_TRUE(rsa_verify(k.pub, to_bytes("x"), sig)) << bits;
  }
}

TEST(Rsa, KeysFromDifferentSeedsDiffer) {
  Drbg r1(to_bytes("s1"));
  Drbg r2(to_bytes("s2"));
  EXPECT_NE(rsa_generate(r1, 512).pub.n, rsa_generate(r2, 512).pub.n);
}

TEST(Rsa, CrossKeyVerificationFails) {
  Drbg rng(to_bytes("cross"));
  const RsaPrivateKey k1 = rsa_generate(rng, 512);
  const RsaPrivateKey k2 = rsa_generate(rng, 512);
  const Bytes sig = rsa_sign(k1, to_bytes("m"));
  EXPECT_FALSE(rsa_verify(k2.pub, to_bytes("m"), sig));
}

// ---- Signer interface ----

TEST(Signer, RsaThroughInterface) {
  Drbg rng(to_bytes("signer-rsa"));
  RsaSigner signer(rsa_generate(rng, 512));
  auto sig = signer.sign(to_bytes("m"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(verify(SigAlgorithm::kRsa, signer.public_key(), to_bytes("m"), sig.value()));
  EXPECT_FALSE(verify(SigAlgorithm::kRsa, signer.public_key(), to_bytes("n"), sig.value()));
}

// Any tag byte other than kRsa names no mechanism; it must be rejected cleanly.
constexpr SigAlgorithm kUnknownAlgorithm = static_cast<SigAlgorithm>(2);

TEST(Signer, VerifyRejectsAlgorithmConfusion) {
  Drbg rng(to_bytes("signer-confusion"));
  RsaSigner rsa(rsa_generate(rng, 512));
  auto sig = rsa.sign(to_bytes("m"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(verify(SigAlgorithm::kRsa, rsa.public_key(), to_bytes("m"), sig.value()));
  EXPECT_FALSE(verify(kUnknownAlgorithm, rsa.public_key(), to_bytes("m"), sig.value()));
  VerifierCache cache;
  EXPECT_FALSE(cache.verify(kUnknownAlgorithm, rsa.public_key(), to_bytes("m"), sig.value()));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.verify(SigAlgorithm::kRsa, rsa.public_key(), to_bytes("m"), sig.value()));
}

TEST(Signer, VerifyRejectsGarbageKey) {
  EXPECT_FALSE(verify(SigAlgorithm::kRsa, to_bytes("junk"), to_bytes("m"), to_bytes("s")));
  EXPECT_FALSE(verify(kUnknownAlgorithm, to_bytes("junk"), to_bytes("m"), to_bytes("s")));
}

TEST(Signer, AlgorithmNames) {
  EXPECT_EQ(to_string(SigAlgorithm::kRsa), "rsa-pkcs1-sha256");
  EXPECT_EQ(to_string(kUnknownAlgorithm), "unknown");
}

// Property sweep: evidence-sized random messages sign/verify and any
// single-byte flip of the message is rejected.
class SignerProperty : public ::testing::TestWithParam<int> {};

TEST_P(SignerProperty, TamperDetection) {
  Drbg rng(to_bytes("tamper-" + std::to_string(GetParam())));
  RsaSigner signer(rsa_generate(rng, 512));
  Bytes msg = rng.generate(64 + static_cast<std::size_t>(GetParam()) * 13);
  auto sig = signer.sign(msg);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(verify(SigAlgorithm::kRsa, signer.public_key(), msg, sig.value()));
  const std::size_t flip = rng.uniform(msg.size());
  msg[flip] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
  EXPECT_FALSE(verify(SigAlgorithm::kRsa, signer.public_key(), msg, sig.value()));
}

INSTANTIATE_TEST_SUITE_P(RandomMessages, SignerProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace nonrep::crypto
