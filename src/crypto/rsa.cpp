#include "crypto/rsa.hpp"

#include <array>

#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace nonrep::crypto {

namespace {

// DigestInfo prefix for SHA-256 (RFC 8017 §9.2 notes).
constexpr std::array<std::uint8_t, 19> kSha256DigestInfo = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

constexpr std::array<std::uint32_t, 60> kSmallPrimes = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283};

// Private-key wire format version (first byte of the encoding).
constexpr std::uint8_t kRsaPrivV2 = 2;  // n, e, d, p, q, dp, dq, qinv

// EMSA-PKCS1-v1_5 encoding over a precomputed digest:
// 0x00 0x01 FF..FF 0x00 DigestInfo H. Taking the digest (not the message)
// lets sign/verify hash the message exactly once.
Bytes emsa_encode(const Digest& h, std::size_t em_len) {
  const std::size_t t_len = kSha256DigestInfo.size() + h.size();
  // em_len >= t_len + 11 is guaranteed for >= 512-bit moduli.
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(kSha256DigestInfo.begin(), kSha256DigestInfo.end(),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - t_len));
  std::copy(h.begin(), h.end(),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - h.size()));
  return em;
}

BigUint random_in_range(Drbg& rng, const BigUint& below) {
  const std::size_t bytes = (below.bit_length() + 7) / 8;
  for (;;) {
    const BigUint candidate = BigUint::from_bytes_be(rng.generate(bytes));
    if (!candidate.is_zero() && candidate < below) return candidate;
  }
}

BigUint random_prime(Drbg& rng, std::size_t bits) {
  const std::size_t bytes = (bits + 7) / 8;
  const unsigned top_bits = static_cast<unsigned>((bits - 1) % 8) + 1;
  for (;;) {
    Bytes raw = rng.generate(bytes);
    // Mask to the exact bit count, then force the top TWO bits (and
    // oddness): with both primes >= 0.75 * 2^(bits-1), the product always
    // reaches the full modulus bit length — no trim loop needed.
    raw[0] &= static_cast<std::uint8_t>(0xff >> (8 - top_bits));
    raw[0] |= static_cast<std::uint8_t>(1u << (top_bits - 1));
    if (top_bits >= 2) {
      raw[0] |= static_cast<std::uint8_t>(1u << (top_bits - 2));
    } else {
      raw[1] |= 0x80;  // second-highest bit lives in the next byte
    }
    raw[bytes - 1] |= 0x01;
    const BigUint candidate = BigUint::from_bytes_be(raw);

    bool divisible = false;
    for (std::uint32_t p : kSmallPrimes) {
      if (BigUint::mod_small(candidate, p) == 0) {
        divisible = true;
        break;
      }
    }
    if (divisible) continue;
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

// CRT signing: m^d mod n via two half-size exponentiations.
// m1 = m^dp mod p, m2 = m^dq mod q, h = qinv*(m1 - m2) mod p, s = m2 + h*q.
BigUint crt_sign(const RsaPrivateKey& key, const BigUint& m) {
  const Montgomery& mp = key.montgomery_p();
  const Montgomery& mq = key.montgomery_q();
  const BigUint m1 = mp.exp(m, key.dp);
  const BigUint m2 = mq.exp(m, key.dq);
  const BigUint m2_mod_p = BigUint::mod(m2, key.p);
  const BigUint diff = m1 >= m2_mod_p
                           ? BigUint::sub(m1, m2_mod_p)
                           : BigUint::sub(BigUint::add(m1, key.p), m2_mod_p);
  const BigUint h = BigUint::mod(BigUint::mul(key.qinv, diff), key.p);
  return BigUint::add(m2, BigUint::mul(h, key.q));
}

}  // namespace

bool is_probable_prime(const BigUint& n, Drbg& rng, int rounds) {
  if (n < BigUint(2)) return false;
  if (n == BigUint(2) || n == BigUint(3)) return true;
  if (!n.is_odd()) return false;

  // n - 1 = 2^s * d
  const BigUint n_minus_1 = BigUint::sub(n, BigUint(1));
  BigUint d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d.shr(1);
    ++s;
  }

  const Montgomery ctx(n);
  const BigUint minus1_mont = ctx.to_mont(n_minus_1);
  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    BigUint a = random_in_range(rng, n_minus_1);
    if (a < BigUint(2)) a = BigUint(2);

    const BigUint x = ctx.exp(a, d);
    if (x == BigUint(1) || x == n_minus_1) continue;
    // Square through the Montgomery context: one reduction-free mul per
    // step instead of a full-width multiply + long division.
    BigUint xm = ctx.to_mont(x);
    bool witness = true;
    for (std::size_t i = 1; i < s; ++i) {
      xm = ctx.mul(xm, xm);
      if (xm == minus1_mont) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

RsaPrivateKey rsa_generate(Drbg& rng, std::size_t bits) {
  const std::uint32_t e = 65537;
  for (;;) {
    const BigUint p = random_prime(rng, bits / 2);
    const BigUint q = random_prime(rng, bits - bits / 2);
    if (p == q) continue;

    const BigUint n = BigUint::mul(p, q);
    const BigUint p_minus_1 = BigUint::sub(p, BigUint(1));
    const BigUint q_minus_1 = BigUint::sub(q, BigUint(1));
    const BigUint phi = BigUint::mul(p_minus_1, q_minus_1);
    // gcd(e, phi) must be 1; phi mod e == 0 would make e share a factor.
    const std::uint32_t phi_mod_e = BigUint::mod_small(phi, e);
    if (phi_mod_e == 0) continue;

    // t = phi^{-1} mod e via 32/64-bit extended Euclid on (phi mod e, e).
    std::int64_t t0 = 0, t1 = 1;
    std::int64_t r0 = e, r1 = phi_mod_e;
    while (r1 != 0) {
      const std::int64_t quotient = r0 / r1;
      const std::int64_t r2 = r0 - quotient * r1;
      const std::int64_t t2 = t0 - quotient * t1;
      r0 = r1; r1 = r2;
      t0 = t1; t1 = t2;
    }
    if (r0 != 1) continue;  // not invertible
    std::int64_t t = t0 % e;
    if (t < 0) t += e;

    // d = (1 + phi * (e - t)) / e  — exact by construction.
    const BigUint numerator = BigUint::add(
        BigUint(1), BigUint::mul(phi, BigUint(static_cast<std::uint64_t>(e - t))));
    std::uint32_t rem = 0;
    const BigUint d = BigUint::div_small(numerator, e, rem);
    if (rem != 0) continue;  // should not happen; retry defensively

    RsaPrivateKey key;
    key.pub.n = n;
    key.pub.e = e;
    key.d = d;
    key.p = p;
    key.q = q;
    key.dp = BigUint::mod(d, p_minus_1);
    key.dq = BigUint::mod(d, q_minus_1);
    // qinv = q^{-1} mod p = q^{p-2} mod p (Fermat; p is prime). Reuses the
    // key's cached p-context, which signing needs anyway.
    key.qinv = key.montgomery_p().exp(q, BigUint::sub(p, BigUint(2)));

    // Self-check on a fixed message to reject rare pathological keys.
    const Bytes probe = to_bytes("rsa.keygen.selfcheck");
    if (rsa_verify(key.pub, probe, rsa_sign(key, probe))) return key;
  }
}

Bytes rsa_sign(const RsaPrivateKey& key, BytesView msg) {
  const std::size_t k = key.pub.modulus_bytes();
  const Bytes em = emsa_encode(Sha256::hash(msg), k);
  const BigUint m = BigUint::from_bytes_be(em);
  BigUint s;
  if (key.has_crt()) {
    s = crt_sign(key, m);
    // Fault self-check: a miscomputation in either CRT half would emit a
    // signature that both fails verification and leaks the factorization
    // (Boneh–DeMillo–Lipton). Recombine-and-verify is cheap (e = 65537),
    // and on mismatch we recompute via the full-width path.
    if (key.pub.montgomery().exp(s, BigUint(key.pub.e)) != m) {
      s = key.pub.montgomery().exp(m, key.d);
    }
  } else {
    s = key.pub.montgomery().exp(m, key.d);
  }
  return s.to_bytes_be(k);
}

bool rsa_verify(const RsaPublicKey& key, BytesView msg, BytesView signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  const BigUint s = BigUint::from_bytes_be(signature);
  if (s >= key.n) return false;
  const BigUint m = key.montgomery().exp(s, BigUint(key.e));
  const Bytes em = m.to_bytes_be(k);
  const Bytes expected = emsa_encode(Sha256::hash(msg), k);
  return constant_time_equal(em, expected);
}

Bytes RsaPublicKey::encode() const {
  BinaryWriter w;
  w.bytes(n.to_bytes_be());
  w.u32(e);
  return std::move(w).take();
}

Result<RsaPublicKey> RsaPublicKey::decode(BytesView b) {
  BinaryReader r(b);
  auto n_bytes = r.bytes();
  if (!n_bytes) return n_bytes.error();
  auto e_val = r.u32();
  if (!e_val) return e_val.error();
  RsaPublicKey key;
  key.n = BigUint::from_bytes_be(n_bytes.value());
  key.e = e_val.value();
  if (key.n.is_zero() || !key.n.is_odd()) {
    return Error::make("rsa.bad_key", "modulus must be odd and non-zero");
  }
  return key;
}

Bytes RsaPrivateKey::encode() const {
  BinaryWriter w;
  w.u8(kRsaPrivV2);
  w.bytes(pub.n.to_bytes_be());
  w.u32(pub.e);
  w.bytes(d.to_bytes_be());
  for (const BigUint* field : {&p, &q, &dp, &dq, &qinv}) w.bytes(field->to_bytes_be());
  return std::move(w).take();
}

Result<RsaPrivateKey> RsaPrivateKey::decode(BytesView b) {
  BinaryReader r(b);
  auto version = r.u8();
  if (!version) return version.error();
  if (version.value() != kRsaPrivV2) {
    return Error::make("rsa.bad_key", "unknown private key version");
  }
  RsaPrivateKey key;
  const auto read_biguint = [&r](BigUint& out) -> Status {
    auto raw = r.bytes();
    if (!raw) return raw.error();
    out = BigUint::from_bytes_be(raw.value());
    return Status::ok_status();
  };
  if (auto s = read_biguint(key.pub.n); !s) return s.error();
  auto e_val = r.u32();
  if (!e_val) return e_val.error();
  key.pub.e = e_val.value();
  if (auto s = read_biguint(key.d); !s) return s.error();
  if (key.pub.n.is_zero() || !key.pub.n.is_odd() || key.d.is_zero()) {
    return Error::make("rsa.bad_key", "modulus must be odd, exponents non-zero");
  }
  for (BigUint* field : {&key.p, &key.q, &key.dp, &key.dq, &key.qinv}) {
    if (auto s = read_biguint(*field); !s) return s.error();
  }
  if (!key.p.is_odd() || !key.q.is_odd() || BigUint::mul(key.p, key.q) != key.pub.n) {
    return Error::make("rsa.bad_key", "CRT parameters inconsistent with modulus");
  }
  return key;
}

}  // namespace nonrep::crypto
