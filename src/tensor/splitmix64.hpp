// edgetrain: SplitMix64, the one 64-bit seed mixer of the tree.
//
// Header-only and standard-library-only, so every layer can include it,
// the race/preemption runtime below tensor/ included.
#pragma once

#include <cstdint>

namespace edgetrain {

inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64 of @p x: the output of a stream whose state was @p x before
/// the step. A pure hash, used to derive uncorrelated values from seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One step of a SplitMix64 stream: returns splitmix64(@p state) and
/// advances @p state (8 bytes of generator state).
[[nodiscard]] constexpr std::uint64_t splitmix64_next(
    std::uint64_t& state) noexcept {
  const std::uint64_t out = splitmix64(state);
  state += kSplitMix64Gamma;
  return out;
}

}  // namespace edgetrain
