// Tests for the shadow-memory guards (tensor/guards.hpp).
//
// The detection tests inject real bugs -- a write past the end of a scratch
// span, a read through a stale pointer, aliased kernel buffers -- and assert
// the guards catch them. They need the instrumentation compiled in
// (-DEDGETRAIN_GUARDS=ON) and skip otherwise, so the suite stays green in
// release configurations where the guards intentionally cost nothing.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/slot_store.hpp"
#include "tensor/guards.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace edgetrain {
namespace {

struct GuardViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throwing_handler(const char* message) {
  throw GuardViolation(message);
}

class GuardsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!guards::kEnabled) {
      GTEST_SKIP() << "built without EDGETRAIN_GUARDS";
    }
    previous_ = guards::set_failure_handler(&throwing_handler);
  }

  void TearDown() override {
    if (guards::kEnabled) guards::set_failure_handler(previous_);
  }

 private:
  guards::FailureHandler previous_ = nullptr;
};

TEST_F(GuardsTest, FreshSpansArePoisoned) {
  Workspace ws;
  const Workspace::Marker marker = ws.mark();
  float* p = ws.alloc(32);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(guards::is_poison(p[i])) << "element " << i;
  }
  ws.rewind(marker);
}

TEST_F(GuardsTest, CanarySurvivesInBoundsWrites) {
  Workspace ws;
  const Workspace::Marker marker = ws.mark();
  float* p = ws.alloc(48);
  for (int i = 0; i < 48; ++i) p[i] = static_cast<float>(i);
  EXPECT_NO_THROW(ws.rewind(marker));
}

TEST_F(GuardsTest, CanaryCatchesWritePastSpanEnd) {
  Workspace ws;
  const Workspace::Marker marker = ws.mark();
  float* p = ws.alloc(8);  // payload rounds up to one 16-float line
  p[16] = 1.0F;            // first canary float
  EXPECT_THROW(ws.rewind(marker), GuardViolation);
  // The smashed record was consumed: tearing the arena down is clean.
  EXPECT_NO_THROW(ws.release());
}

TEST_F(GuardsTest, CanaryCatchesOffByOneOnRoundedSpans) {
  Workspace ws;
  const Workspace::Marker marker = ws.mark();
  float* p = ws.alloc(16);  // exact line: p[16] is already the canary
  p[16] = 0.0F;
  EXPECT_THROW(ws.rewind(marker), GuardViolation);
  EXPECT_NO_THROW(ws.release());
}

TEST_F(GuardsTest, FreshTensorsArePoisoned) {
  // Tensor::empty is documented uninitialised: a reader that runs before
  // any writer must see NaNs, not zeros it could silently accumulate into.
  const Tensor t = Tensor::empty(Shape{3, 7});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_TRUE(guards::is_poison(t.data()[i])) << "element " << i;
  }
  EXPECT_EQ(Tensor::zeros(Shape{5}).data()[4], 0.0F);
}

TEST_F(GuardsTest, RewindPoisonsReleasedSpans) {
  Workspace ws;
  const Workspace::Marker marker = ws.mark();
  float* p = ws.alloc(24);
  for (int i = 0; i < 24; ++i) p[i] = 3.5F;
  ws.rewind(marker);
  // Stale pointer into the rewound region: reads poison, not old data.
  // (The backing block is retained by the arena, so the read itself is
  // well-defined; only the *value* is guard-controlled.)
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(guards::is_poison(p[i])) << "element " << i;
  }
}

TEST_F(GuardsTest, NestedScopesVerifyEverySpan) {
  Workspace ws;
  const Workspace::Marker outer = ws.mark();
  float* a = ws.alloc(16);
  const Workspace::Marker inner = ws.mark();
  float* b = ws.alloc(16);
  (void)b;
  a[16] = 7.0F;  // smash the *outer* span's canary
  // The inner rewind releases only b; a's canary is checked by the outer.
  EXPECT_NO_THROW(ws.rewind(inner));
  EXPECT_THROW(ws.rewind(outer), GuardViolation);
  EXPECT_NO_THROW(ws.release());
}

// The slot-store tests observe poisoning through the process-wide fill
// counter: the buffer is freed right after the poison fill, so reading it
// back would itself be a use-after-free.

TEST_F(GuardsTest, SlotStorePoisonsDroppedCheckpoints) {
  core::RamSlotStore store(2);
  Tensor t = Tensor::full({8}, 2.0F);
  store.put(0, t);
  t.reset();  // store is now the sole owner
  const std::int64_t before = guards::poison_fill_count();
  store.drop(0);
  EXPECT_EQ(guards::poison_fill_count(), before + 1);
}

TEST_F(GuardsTest, SlotStoreOverwritePoisonsTheOldCheckpoint) {
  core::RamSlotStore store(1);
  Tensor old_value = Tensor::full({4}, 1.0F);
  store.put(0, old_value);
  old_value.reset();
  const std::int64_t before = guards::poison_fill_count();
  store.put(0, Tensor::full({4}, 9.0F));  // overwrite releases the old buffer
  EXPECT_EQ(guards::poison_fill_count(), before + 1);
  EXPECT_FLOAT_EQ(store.get(0).data()[0], 9.0F);
}

TEST_F(GuardsTest, SlotStoreNeverPoisonsSharedHandles) {
  core::RamSlotStore store(1);
  Tensor t = Tensor::full({4}, 5.0F);
  store.put(0, t);  // t still owns a handle: live activation
  const std::int64_t before = guards::poison_fill_count();
  store.drop(0);
  EXPECT_EQ(guards::poison_fill_count(), before);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(t.data()[i], 5.0F);
  }
}

TEST_F(GuardsTest, AssertDisjointAcceptsSeparateBuffers) {
  Tensor a = Tensor::zeros({16});
  Tensor b = Tensor::zeros({16});
  EXPECT_NO_THROW(guards::assert_disjoint(
      "test", {{a.data(), a.numel()}, {b.data(), b.numel()}}));
}

TEST_F(GuardsTest, AssertDisjointCatchesOverlap) {
  Tensor a = Tensor::zeros({32});
  try {
    guards::assert_disjoint(
        "overlap_test", {{a.data(), 16}, {a.data() + 8, 16}});
    FAIL() << "overlap not detected";
  } catch (const GuardViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("overlap_test"),
              std::string::npos);
  }
}

TEST_F(GuardsTest, AssertDisjointIgnoresEmptySpans) {
  Tensor a = Tensor::zeros({8});
  EXPECT_NO_THROW(guards::assert_disjoint(
      "test", {{a.data(), a.numel()}, {nullptr, 0}, {a.data(), 0}}));
}

TEST_F(GuardsTest, GemmRejectsAliasedOutput) {
  // C aliases A: parallel_for chunks would write rows of C that other
  // chunks concurrently read as A.
  Tensor a = Tensor::full({2, 2}, 1.0F);
  Tensor b = Tensor::full({2, 2}, 1.0F);
  EXPECT_THROW(ops::gemm(false, false, 2, 2, 2, 1.0F, a.data(), b.data(), 0.0F,
                         a.data()),
               GuardViolation);
}

// Compile-time surface available in every configuration (no skip): the
// patterns are quiet NaNs, so poisoned values propagate through arithmetic
// instead of silently averaging in.
TEST(GuardsPatterns, PatternsAreQuietNaNs) {
  float canary;
  float poison;
  const std::uint32_t canary_bits = guards::kCanaryBits;
  const std::uint32_t poison_bits = guards::kPoisonBits;
  static_assert(sizeof(canary) == sizeof(canary_bits));
  std::memcpy(&canary, &canary_bits, sizeof(canary));
  std::memcpy(&poison, &poison_bits, sizeof(poison));
  EXPECT_TRUE(std::isnan(canary));
  EXPECT_TRUE(std::isnan(poison));
  EXPECT_TRUE(guards::is_poison(poison));
  EXPECT_FALSE(guards::is_poison(canary));
  EXPECT_FALSE(guards::is_poison(0.0F));
}

}  // namespace
}  // namespace edgetrain
