// FNV-1a 64-bit hashing.
//
// Used wherever the tree needs a stable, dependency-free content hash:
// CacheStore names each pack by the hash of its bytes (a running hash: pass
// the previous result as `seed` to hash a stream piece by piece) and
// checksums each record body, the sweep spool fingerprints grids so two
// workers cannot drain mismatched grids through one queue, and
// serve_replay folds every served answer into one fingerprint so runs at
// different thread counts can be compared with a single string equality.
// The constants are the standard FNV-1a 64-bit offset basis and prime; the
// function is NOT cryptographic, so nothing trusts a hash as a key
// (CacheStore indexes records by their full keys).
#pragma once

#include <cstdint>
#include <string_view>

namespace mbs::util {

inline std::uint64_t fnv1a64(std::string_view data,
                             std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace mbs::util
