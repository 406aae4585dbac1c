// P1 — §6: "the computational overhead of cryptographic algorithms".
// Sign/verify/hash costs for every primitive the interceptors use, across
// RSA key sizes.
#include <benchmark/benchmark.h>

#include <map>

#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace nonrep;
using namespace nonrep::crypto;

const RsaPrivateKey& rsa_key(std::size_t bits) {
  static std::map<std::size_t, RsaPrivateKey> keys;
  auto it = keys.find(bits);
  if (it == keys.end()) {
    Drbg rng(to_bytes("bench-rsa-" + std::to_string(bits)));
    it = keys.emplace(bits, rsa_generate(rng, bits)).first;
  }
  return it->second;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = to_bytes("integrity-key");
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x3c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DrbgGenerate(benchmark::State& state) {
  Drbg rng(to_bytes("bench-drbg"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.generate(static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DrbgGenerate)->Arg(16)->Arg(1024);

void BM_RsaSign(benchmark::State& state) {
  const RsaPrivateKey& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  const Bytes msg = to_bytes("evidence subject bytes");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaSignNoCrt(benchmark::State& state) {
  // Full-width m^d path (what legacy v1-format keys use) — the delta to
  // BM_RsaSign is the CRT win.
  const RsaPrivateKey& crt_key = rsa_key(static_cast<std::size_t>(state.range(0)));
  RsaPrivateKey key;
  key.pub = crt_key.pub;
  key.d = crt_key.d;
  const Bytes msg = to_bytes("evidence subject bytes");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key, msg));
  }
}
BENCHMARK(BM_RsaSignNoCrt)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  const RsaPrivateKey& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  const Bytes msg = to_bytes("evidence subject bytes");
  const Bytes sig = rsa_sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(key.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaKeygen(benchmark::State& state) {
  Drbg rng(to_bytes("bench-keygen"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_generate(rng, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
