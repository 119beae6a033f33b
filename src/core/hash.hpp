// FNV-1a 64-bit: the content-address hash of serve's canonical keys and of
// cirrus_bench's suite digest, and its 16-hex-digit rendering. Header-only,
// so libraries below cirrus_core (cirrus_valid) share the one definition.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cirrus::core {

/// FNV-1a 64-bit — stable across platforms and runs.
inline std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Writes `v` as 16 lower-case hex digits (printf's %016llx) to out[0..15].
inline void hex16(std::uint64_t v, char* out) noexcept {
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = "0123456789abcdef"[v & 15];
}

/// `v` as 16 lower-case hex digits.
inline std::string hex16(std::uint64_t v) {
  std::string out(16, '0');
  hex16(v, out.data());
  return out;
}

}  // namespace cirrus::core
