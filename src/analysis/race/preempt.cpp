#include "analysis/race/preempt.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "tensor/splitmix64.hpp"

namespace edgetrain::analysis::preempt {

namespace {

constexpr std::uint64_t kSeedUnset = ~0ULL;  ///< environment not read yet

std::atomic<std::uint64_t>& seed_slot() {
  static std::atomic<std::uint64_t> slot{kSeedUnset};
  return slot;
}

std::atomic<std::uint64_t> g_decisions{0};
std::atomic<std::uint64_t> g_yields{0};
std::atomic<std::uint64_t> g_fingerprint{0};

}  // namespace

void set_seed(std::uint64_t seed) {
  seed_slot().store(seed, std::memory_order_relaxed);
}

std::uint64_t seed() {
  std::atomic<std::uint64_t>& slot = seed_slot();
  std::uint64_t value = slot.load(std::memory_order_relaxed);
  if (value != kSeedUnset) return value;
  const char* env = std::getenv("EDGETRAIN_PREEMPT_SEED");
  std::uint64_t parsed = 0;
  if (env != nullptr) {
    // strtoull: a malformed value degrades to 0 (disabled), never UB.
    parsed = std::strtoull(env, nullptr, 10);
    if (parsed == kSeedUnset) parsed = 0;
  }
  // Racing first reads all parse the same environment: any winner agrees.
  slot.store(parsed, std::memory_order_relaxed);
  return parsed;
}

std::uint64_t decision_hash(std::uint64_t seed, unsigned site,
                            std::uint64_t ordinal) {
  return splitmix64(splitmix64(seed ^ (static_cast<std::uint64_t>(site) + 1) *
                                          0xD1B54A32D192ED03ULL) ^
                    ordinal);
}

bool decides_to_yield(std::uint64_t seed, unsigned site,
                      std::uint64_t ordinal) {
  return (decision_hash(seed, site, ordinal) & 7ULL) == 0;
}

void point(unsigned site) {
  const std::uint64_t s = seed();
  if (s == 0) return;
  thread_local std::uint64_t ordinal = 0;
  const std::uint64_t h = decision_hash(s, site, ordinal++);
  g_decisions.fetch_add(1, std::memory_order_relaxed);
  g_fingerprint.fetch_xor(h, std::memory_order_relaxed);
  if ((h & 7ULL) != 0) return;
  g_yields.fetch_add(1, std::memory_order_relaxed);
  if ((h & 63ULL) == 0) {
    // Coarse displacement: long enough for a whole critical section (or a
    // background IO job) on another thread to slot in between.
    std::this_thread::sleep_for(std::chrono::microseconds(20 + (h >> 8) % 80));
  } else {
    std::this_thread::yield();
  }
}

std::uint64_t decisions() {
  return g_decisions.load(std::memory_order_relaxed);
}
std::uint64_t yields() { return g_yields.load(std::memory_order_relaxed); }
std::uint64_t fingerprint() {
  return g_fingerprint.load(std::memory_order_relaxed);
}

void reset_stats() {
  g_decisions.store(0, std::memory_order_relaxed);
  g_yields.store(0, std::memory_order_relaxed);
  g_fingerprint.store(0, std::memory_order_relaxed);
}

}  // namespace edgetrain::analysis::preempt
