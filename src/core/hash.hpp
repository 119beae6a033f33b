// FNV-1a 64-bit: the content-address hash of serve's canonical keys and of
// cirrus_bench's suite digest. Header-only, so libraries below cirrus_core
// (cirrus_valid) share the one definition.
#pragma once

#include <cstdint>
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

}  // namespace cirrus::core
