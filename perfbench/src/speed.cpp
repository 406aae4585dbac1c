#include "speed.hpp"

#include <sched.h>

#include <algorithm>

#include "trace.hpp"

namespace perfbench {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
constexpr int kLimbs = 8;  // 512-bit operands: the fleet's RSA modulus size
constexpr int kMulsPerTrial = 1000;
constexpr int kTrials = 5;

/// r = a * b * 2^-512 mod m (CIOS Montgomery multiplication).
void mont_mul(const u64* a, const u64* b, const u64* m, u64 m_inv, u64* r) {
  u64 t[kLimbs + 2] = {};
  for (int i = 0; i < kLimbs; ++i) {
    u64 carry = 0;
    for (int j = 0; j < kLimbs; ++j) {
      const u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    u128 s = static_cast<u128>(t[kLimbs]) + carry;
    t[kLimbs] = static_cast<u64>(s);
    t[kLimbs + 1] = static_cast<u64>(s >> 64);
    const u64 q = t[0] * m_inv;
    carry = static_cast<u64>((static_cast<u128>(q) * m[0] + t[0]) >> 64);
    for (int j = 1; j < kLimbs; ++j) {
      const u128 s2 = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(s2);
      carry = static_cast<u64>(s2 >> 64);
    }
    s = static_cast<u128>(t[kLimbs]) + carry;
    t[kLimbs - 1] = static_cast<u64>(s);
    t[kLimbs] = t[kLimbs + 1] + static_cast<u64>(s >> 64);
  }
  std::copy(t, t + kLimbs, r);
}

/// Fixed operands: an odd 512-bit modulus and two factors.
struct Operands {
  u64 m[kLimbs], a[kLimbs], b[kLimbs], m_inv;
  Operands() {
    u64 x = 0x243F6A8885A308D3ull;
    for (int i = 0; i < kLimbs; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      m[i] = x | 1;
      a[i] = x ^ 0x13198A2E03707344ull;
      b[i] = x * 3;
    }
    m[kLimbs - 1] |= 1ull << 63;
    u64 inv = 1;  // m[0]^-1 mod 2^64 by Newton iteration
    for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;
    m_inv = -inv;
  }
  /// `n` chained multiplications; the result feeds the next one.
  void multiply(long n) {
    for (long k = 0; k < n; ++k) mont_mul(a, b, m, m_inv, a);
    volatile u64 sink = a[0];  // keep the chain observable
    (void)sink;
  }
};

}  // namespace

double kernel_ns() {
  Operands ops;
  double best = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const u64 t0 = now_ns();
    ops.multiply(kMulsPerTrial);
    const auto ns = static_cast<double>(now_ns() - t0);
    if (trial == 0 || ns < best) best = ns;
  }
  return best;
}

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

}  // namespace perfbench
