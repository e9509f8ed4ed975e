// Workspace arena semantics plus the end-to-end zero-allocation guarantee:
// after the first training step has grown the per-thread arenas to the
// step's high-water mark, later steps (and repeated kernel calls) must not
// touch the heap for scratch at all.
#include "tensor/workspace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "models/small_nets.hpp"
#include "nn/trainer.hpp"
#include "tensor/alloc.hpp"
#include "tensor/ops.hpp"

namespace edgetrain {
namespace {

TEST(Workspace, SpansAreAlignedAndDisjoint) {
  Workspace ws;
  const WorkspaceScope scope(ws);
  float* a = ws.alloc(3);
  float* b = ws.alloc(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0U);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0U);
  // b starts past a's rounded-up span.
  EXPECT_GE(b, a + 3);
  a[0] = 1.0F;
  b[99] = 2.0F;
  EXPECT_EQ(a[0], 1.0F);
  EXPECT_EQ(b[99], 2.0F);
}

TEST(Workspace, RewindReusesCapacityWithoutNewBlocks) {
  Workspace ws;
  float* first = nullptr;
  {
    const WorkspaceScope scope(ws);
    first = ws.alloc(1024);
  }
  const std::size_t capacity = ws.capacity_bytes();
  for (int pass = 0; pass < 4; ++pass) {
    const WorkspaceScope scope(ws);
    float* again = ws.alloc(1024);
    EXPECT_EQ(again, first) << "pass " << pass;
    EXPECT_EQ(ws.capacity_bytes(), capacity) << "pass " << pass;
  }
}

TEST(Workspace, EarlierSpansSurviveGrowth) {
  // Growing the arena must not move or corrupt spans handed out earlier in
  // the same scope (blocks are chained, never reallocated in place).
  Workspace ws;
  const WorkspaceScope scope(ws);
  float* small = ws.alloc(16);
  for (std::int64_t i = 0; i < 16; ++i) small[i] = static_cast<float>(i);
  // Force growth well past the first block.
  float* big = ws.alloc(1 << 20);
  big[0] = -1.0F;
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(small[i], static_cast<float>(i));
  }
}

TEST(Workspace, FullRewindConsolidatesToSingleBlock) {
  // After unwinding to empty, a chained arena collapses into one block of
  // the combined capacity, so the next pass of the same shapes fits without
  // allocating.
  Workspace ws;
  {
    const WorkspaceScope scope(ws);
    (void)ws.alloc(100);
    (void)ws.alloc(1 << 18);  // forces a second block
  }
  const std::uint64_t allocs_before =
      MemoryTracker::instance().scratch_allocation_count();
  {
    const WorkspaceScope scope(ws);
    (void)ws.alloc(100);
    (void)ws.alloc(1 << 18);
  }
  EXPECT_EQ(MemoryTracker::instance().scratch_allocation_count(),
            allocs_before);
}

TEST(Workspace, ScratchBytesReportedToTracker) {
  const std::size_t before = MemoryTracker::instance().scratch_bytes();
  Workspace ws;
  {
    const WorkspaceScope scope(ws);
    (void)ws.alloc(1 << 16);
  }
  EXPECT_GE(MemoryTracker::instance().scratch_bytes(),
            before + (1U << 16) * sizeof(float));
  ws.release();
  EXPECT_EQ(MemoryTracker::instance().scratch_bytes(), before);
}

TEST(Workspace, RepeatedConvForwardAllocatesOnlyOnce) {
  std::mt19937 rng(17);
  Tensor x = Tensor::randn(Shape{2, 3, 16, 16}, rng);
  Tensor w = Tensor::randn(Shape{8, 3, 3, 3}, rng);
  Tensor bias = Tensor::zeros(Shape{8});
  const ops::ConvParams p{1, 1};
  Tensor warm = ops::conv2d_forward(x, w, bias, p);
  const std::uint64_t allocs =
      MemoryTracker::instance().scratch_allocation_count();
  for (int i = 0; i < 5; ++i) {
    Tensor y = ops::conv2d_forward(x, w, bias, p);
    EXPECT_LT(Tensor::max_abs_diff(y, warm), 1e-6F);
  }
  EXPECT_EQ(MemoryTracker::instance().scratch_allocation_count(), allocs);
}

// ---------------------------------------------------------------------------
// End-to-end: a real training loop reaches scratch steady state after the
// first step (the ISSUE's acceptance criterion).
// ---------------------------------------------------------------------------

TEST(WorkspaceTraining, SecondTrainingStepMakesZeroScratchAllocations) {
  std::mt19937 rng(42);
  nn::LayerChain chain = models::build_patch_cnn(12, 1, 4, 4, rng);
  nn::Trainer trainer(chain, core::full_storage_schedule(chain.size()),
                      std::make_unique<nn::SGD>(chain.params(), 0.05F, 0.9F));

  std::mt19937 data_rng(43);
  Tensor x = Tensor::randn(Shape{8, 1, 12, 12}, data_rng);
  std::vector<std::int32_t> labels = {0, 1, 2, 3, 0, 1, 2, 3};

  // Step 1 grows the per-thread arenas to the step's high-water mark.
  (void)trainer.step(x, labels);

  const std::uint64_t scratch_allocs =
      MemoryTracker::instance().scratch_allocation_count();
  for (int step = 0; step < 3; ++step) {
    (void)trainer.step(x, labels);
    EXPECT_EQ(MemoryTracker::instance().scratch_allocation_count(),
              scratch_allocs)
        << "scratch heap allocation during steady-state step " << step + 2;
  }
}

}  // namespace
}  // namespace edgetrain
