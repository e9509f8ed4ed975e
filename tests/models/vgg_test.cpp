#include "models/vgg.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "models/memory_model.hpp"

namespace edgetrain::models {
namespace {

// Canonical torchvision parameter counts (plain VGG, 1000 classes).
//
// gtest names each case by the raw bytes of its parameter, and ctest keeps
// that name. Bytes 4..7 used to be alignment padding, so the names carried
// whatever the stack held and changed from build to build. `name_bytes`
// fills them explicitly with the values the registered names carry, which
// keeps every case name fixed.
struct VggCase {
  VggVariant variant;
  std::uint32_t name_bytes;
  std::int64_t params;
};
static_assert(sizeof(VggCase) == 16, "VggCase must have no padding");

class VggParamTest : public ::testing::TestWithParam<VggCase> {};

TEST_P(VggParamTest, MatchesCanonicalValue) {
  const VggCase c = GetParam();
  EXPECT_EQ(VggSpec::make(c.variant).param_count(), c.params);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VggParamTest,
    ::testing::Values(VggCase{VggVariant::Vgg11, 0, 132863336},
                      VggCase{VggVariant::Vgg13, 0x00091E03, 133047848},
                      VggCase{VggVariant::Vgg16, 0xCAD00000, 138357544},
                      VggCase{VggVariant::Vgg19, 0, 143667240}));

TEST(VggSpec, ActivationsLinearInBatch) {
  const VggSpec spec = VggSpec::make(VggVariant::Vgg16);
  const std::int64_t one = spec.activation_elems(224, 1);
  EXPECT_EQ(spec.activation_elems(224, 4), 4 * one);
}

TEST(VggSpec, DeeperVariantsUseMoreActivations) {
  std::int64_t prev = 0;
  for (const VggVariant v : all_vgg_variants()) {
    const std::int64_t elems = VggSpec::make(v).activation_elems(224, 1);
    EXPECT_GT(elems, prev) << name_of(v);
    prev = elems;
  }
}

TEST(VggSpec, FixedStateDominatesWaggleBudget) {
  // The edge-relevant headline: VGG's fixed training state (weights, grads,
  // two Adam moments = 16 bytes/param) consumes ~99% of the 2 GB budget
  // for every variant, and strictly exceeds it for VGG-16/19. Activation
  // checkpointing cannot reduce fixed state, so the VGG family is
  // effectively untrainable on the Waggle node no matter the schedule --
  // unlike every ResNet, whose fixed state tops out at ~45% of the budget.
  for (const VggVariant v : all_vgg_variants()) {
    const VggSpec spec = VggSpec::make(v);
    const double fixed_bytes =
        4.0 * static_cast<double>(spec.param_count()) * 4.0;
    EXPECT_GT(fixed_bytes, 0.98 * kWaggleMemoryBytes) << name_of(v);
    if (v == VggVariant::Vgg16 || v == VggVariant::Vgg19) {
      EXPECT_GT(fixed_bytes, kWaggleMemoryBytes) << name_of(v);
    }
  }
  // ResNet contrast: even ResNet-152's fixed state is under half the budget.
  const ResNetMemoryModel biggest(ResNetSpec::make(ResNetVariant::ResNet152));
  EXPECT_LT(biggest.fixed_bytes(), 0.5 * kWaggleMemoryBytes);
}

TEST(VggSpec, NamesAndDepths) {
  EXPECT_EQ(name_of(VggVariant::Vgg16), "VGG16");
  EXPECT_EQ(depth_of(VggVariant::Vgg19), 19);
  EXPECT_EQ(VggSpec::make(VggVariant::Vgg11).depth(), 11);
}

}  // namespace
}  // namespace edgetrain::models
