// Shared test fixture: a little virtual enterprise in a box.
//
// The fleet builder moved into the library as scenario::World so the
// scenario engine, benches and examples can reuse it; the test names stay
// as thin aliases.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

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

using Party = scenario::Party;
using TestWorld = scenario::World;

}  // namespace nonrep::test
