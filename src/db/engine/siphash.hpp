// SipHash-2-4 (Aumasson & Bernstein) — the keyed 64-bit PRF used for
// salted API-key hashing in the crowd repository (replacing the fast
// non-cryptographic FNV stand-in called out in DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace gptc::db::engine {

/// 128-bit SipHash key as two 64-bit lanes.
struct SipHashKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

/// SipHash-2-4 of `data` under `key` (2 compression rounds, 4 finalization
/// rounds — the reference parameters).
std::uint64_t siphash24(const SipHashKey& key, std::string_view data);

/// Deterministically expands an ASCII salt string into a SipHash key
/// (splitmix64 chain over an FNV-1a absorb). Used by the crowd layer so a
/// stored per-key salt fully determines the hash key.
SipHashKey siphash_key_from_salt(std::string_view salt);

}  // namespace gptc::db::engine
