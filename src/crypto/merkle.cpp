#include "crypto/merkle.hpp"

namespace nonrep::crypto {

namespace {

Digest hash_pair(const Digest& l, const Digest& r) {
  Sha256 h;
  h.update(BytesView(l.data(), l.size()));
  h.update(BytesView(r.data(), r.size()));
  return h.finish();
}

}  // namespace

Digest merkle_root(const std::vector<Digest>& leaves) {
  if (leaves.empty()) return Digest{};
  std::vector<Digest> level = leaves;
  while (level.size() > 1) {
    std::vector<Digest> next;
    next.reserve((level.size() + 1) / 2);
    std::size_t i = 0;
    for (; i + 1 < level.size(); i += 2) next.push_back(hash_pair(level[i], level[i + 1]));
    if (i < level.size()) next.push_back(level[i]);  // odd node promotes
    level = std::move(next);
  }
  return level[0];
}

}  // namespace nonrep::crypto
