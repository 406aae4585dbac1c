// Plain Merkle tree root over SHA-256 digests, used by the journal's
// per-segment checkpoint seals.
#pragma once

#include <vector>

#include "crypto/sha256.hpp"

namespace nonrep::crypto {

/// Merkle tree root over an ordered list of leaf digests (an odd node is
/// promoted unchanged to the next level). Empty input yields the all-zero
/// digest.
Digest merkle_root(const std::vector<Digest>& leaves);

}  // namespace nonrep::crypto
