#include "core/slot_store.hpp"

#include <bit>
#include <stdexcept>

#include "tensor/alloc.hpp"
#include "tensor/guards.hpp"

namespace edgetrain::core {

namespace {
[[noreturn]] void empty_slot(std::int32_t slot) {
  throw std::logic_error("SlotStore: slot " + std::to_string(slot) +
                         " is empty");
}

}  // namespace

namespace detail {
void poison_if_sole_owner([[maybe_unused]] Tensor& held) {
#if defined(EDGETRAIN_GUARDS)
  if (held.defined() && held.storage_use_count() == 1) {
    guards::paint(held.data(), held.numel(), guards::kPoisonBits);
  }
#endif
}

void poison_blob([[maybe_unused]] std::vector<std::uint8_t>& blob) {
#if defined(EDGETRAIN_GUARDS)
  if (!blob.empty()) {
    guards::paint_bytes(blob.data(), static_cast<std::int64_t>(blob.size()));
  }
#endif
}
}  // namespace detail

// ---------------------------------------------------------------------------
// RamSlotStore
// ---------------------------------------------------------------------------

RamSlotStore::RamSlotStore(int num_slots)
    : slots_(static_cast<std::size_t>(num_slots)) {}

void RamSlotStore::put(std::int32_t slot, const Tensor& value) {
  Tensor& held = slots_.at(static_cast<std::size_t>(slot));
  guard_release(held);
  held = value;
}

Tensor RamSlotStore::get(std::int32_t slot) {
  Tensor& held = slots_.at(static_cast<std::size_t>(slot));
  if (!held.defined()) empty_slot(slot);
  return held;
}

void RamSlotStore::drop(std::int32_t slot) {
  Tensor& held = slots_.at(static_cast<std::size_t>(slot));
  guard_release(held);
  held.reset();
}

/// Guards-only: poison a checkpoint buffer being released so a stale raw
/// pointer into the dropped slot reads NaNs for as long as the allocator
/// has not recycled the pages. Only safe when this store is the storage's
/// sole owner -- the handles RamSlotStore hands out are zero-copy, and
/// poisoning a buffer the executor still reads through a live handle would
/// corrupt real activations. The buffer is NOT retained: holding dropped
/// checkpoints alive would distort the resident-memory accounting the
/// paper's tables (and their tests) are built on.
void RamSlotStore::guard_release(Tensor& held) {
  detail::poison_if_sole_owner(held);
}

std::size_t RamSlotStore::resident_bytes() const {
  std::size_t total = 0;
  for (const Tensor& t : slots_) {
    if (t.defined()) total += t.bytes();
  }
  return total;
}

// ---------------------------------------------------------------------------
// CompressedSlotStore
// ---------------------------------------------------------------------------

CompressedSlotStore::CompressedSlotStore(int num_slots, SlotCodec codec)
    : codec_(codec),
      slots_(static_cast<std::size_t>(num_slots)),
      slot_ratios_(static_cast<std::size_t>(num_slots), 1.0) {}

CompressedSlotStore::~CompressedSlotStore() {
  for (EncodedSlot& slot : slots_) release(slot);
}

void CompressedSlotStore::release(EncodedSlot& slot) {
  if (slot.occupied) {
    // No stale plaintext-derived bytes may survive the release: the blob
    // is poisoned before the allocator can hand its pages to anyone else.
    detail::poison_blob(slot.blob);
  }
  if (slot.tracked > 0) {
    MemoryTracker::instance().on_free(slot.tracked);
    slot.tracked = 0;
  }
  slot.blob.clear();
  slot.blob.shrink_to_fit();
  slot.occupied = false;
}

void CompressedSlotStore::put(std::int32_t slot, const Tensor& value) {
  EncodedSlot& encoded = slots_.at(static_cast<std::size_t>(slot));
  release(encoded);
  encoded.shape = value.shape();
  encoded.blob = codec::encode(codec_, value);
  encoded.tracked = encoded.blob.size();
  MemoryTracker::instance().on_alloc(encoded.tracked);
  encoded.occupied = true;
  plain_seen_ += value.bytes();
  encoded_seen_ += encoded.blob.size();
  if (value.bytes() > 0) {
    slot_ratios_[static_cast<std::size_t>(slot)] =
        static_cast<double>(encoded.blob.size()) /
        static_cast<double>(value.bytes());
  }
}

Tensor CompressedSlotStore::get(std::int32_t slot) {
  EncodedSlot& encoded = slots_.at(static_cast<std::size_t>(slot));
  if (!encoded.occupied) empty_slot(slot);
  return codec::decode(codec_, "CompressedSlotStore", encoded.shape,
                       encoded.blob.data(), encoded.blob.size());
}

void CompressedSlotStore::drop(std::int32_t slot) {
  release(slots_.at(static_cast<std::size_t>(slot)));
}

std::size_t CompressedSlotStore::resident_bytes() const {
  std::size_t total = 0;
  for (const EncodedSlot& slot : slots_) total += slot.tracked;
  return total;
}

// ---------------------------------------------------------------------------
// Half conversions
// ---------------------------------------------------------------------------

std::uint16_t float_to_half(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000U;
  const std::int32_t exponent =
      static_cast<std::int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFFU;

  if (exponent >= 31) {  // overflow or inf/nan
    if (((bits >> 23) & 0xFF) == 0xFF && mantissa != 0) {
      return static_cast<std::uint16_t>(sign | 0x7E00U);  // NaN
    }
    return static_cast<std::uint16_t>(sign | 0x7C00U);  // +-inf
  }
  if (exponent <= 0) {  // subnormal or zero
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000U;
    const int shift = 14 - exponent;
    std::uint32_t half_mantissa = mantissa >> shift;
    // round to nearest even
    const std::uint32_t rest = mantissa & ((1U << shift) - 1U);
    const std::uint32_t halfway = 1U << (shift - 1);
    if (rest > halfway || (rest == halfway && (half_mantissa & 1U))) {
      ++half_mantissa;
    }
    return static_cast<std::uint16_t>(sign | half_mantissa);
  }
  std::uint32_t half =
      sign | (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
  const std::uint32_t rest = mantissa & 0x1FFFU;
  if (rest > 0x1000U || (rest == 0x1000U && (half & 1U))) ++half;
  return static_cast<std::uint16_t>(half);
}

float half_to_float(std::uint16_t value) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(value) & 0x8000U)
                             << 16;
  const std::uint32_t exponent = (value >> 10) & 0x1FU;
  const std::uint32_t mantissa = value & 0x3FFU;
  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // zero
    } else {        // subnormal: normalise
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400U) == 0);
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             ((m & 0x3FFU) << 13);
    }
  } else if (exponent == 31) {
    bits = sign | 0x7F800000U | (mantissa << 13);  // inf/nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(bits);
}

}  // namespace edgetrain::core
