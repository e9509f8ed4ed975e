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

/// A uniform double in (0, 1] from the next step of @p state: the draw's
/// top 53 bits, plus one so that log() never sees 0. Fully specified, unlike
/// a std:: distribution, whose algorithm is implementation-defined and
/// would tie replay fingerprints to a standard-library version.
[[nodiscard]] constexpr double splitmix64_uniform01(
    std::uint64_t& state) noexcept {
  return (static_cast<double>(splitmix64_next(state) >> 11) + 1.0) *
         (1.0 / 9007199254740992.0);
}

}  // namespace edgetrain
