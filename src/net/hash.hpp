#pragma once

#include <cstdint>

namespace dcv::net {

/// The splitmix64 finalizer: a cheap, well-distributed stateless 64-bit
/// mixer for content hashes and seeded per-key decisions.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace dcv::net
