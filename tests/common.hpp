// Shared test fixture: a little virtual enterprise in a box.
//
// The fleet builder moved into the library as scenario::World so the
// scenario engine, benches and examples can reuse it; the test names stay
// as thin aliases.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "crypto/signer.hpp"
#include "scenario/world.hpp"

namespace nonrep::test {

inline constexpr TimeMs kFarFuture = scenario::kFarFuture;

/// An empty scratch path `<tmp>/nonrep_test_<pid>/<tag>`. The pid keeps
/// concurrent runs of the same suite (say, from two build trees) out of each
/// other's journals; the per-process root is removed when the binary exits.
inline std::string temp_dir(const std::string& tag) {
  struct Root {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("nonrep_test_" + std::to_string(::getpid()));
    Root() { std::filesystem::create_directories(path); }
    ~Root() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static Root root;
  const auto dir = root.path / tag;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// An RsaSigner that fails every sign() after its first `budget` signatures
/// with the error code kCode, so tests can drive the signer-failure paths
/// (root self-sign, certificate issuance, evidence issue).
class FailingSigner final : public crypto::Signer {
 public:
  static constexpr const char* kCode = "test.signer_failed";

  FailingSigner(crypto::RsaPrivateKey key, std::size_t budget)
      : inner_(std::move(key)), budget_(budget) {}

  crypto::SigAlgorithm algorithm() const noexcept override { return inner_.algorithm(); }
  Bytes public_key() const override { return inner_.public_key(); }
  Result<Bytes> sign(BytesView msg) override {
    if (signed_.fetch_add(1) >= budget_) {
      return Error::make(kCode, "signature budget of " + std::to_string(budget_) + " spent");
    }
    return inner_.sign(msg);
  }

 private:
  crypto::RsaSigner inner_;
  const std::size_t budget_;
  std::atomic<std::size_t> signed_{0};
};

using Party = scenario::Party;
using TestWorld = scenario::World;

}  // namespace nonrep::test
