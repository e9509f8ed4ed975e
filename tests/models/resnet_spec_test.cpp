#include "models/resnet.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "calib/chain_costs.hpp"
#include "core/dynprog.hpp"
#include "core/executor.hpp"
#include "nn/chain_runner.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::models {
namespace {

// The canonical torchvision trainable-parameter counts (1000 classes).
//
// gtest names each case by the raw bytes of its parameter, and ctest keeps
// that name. Bytes 4..7 used to be alignment padding, so the names carried
// whatever the stack held and changed from build to build. `name_bytes`
// fills them explicitly with the values the registered names carry, which
// keeps every case name fixed.
struct ParamCase {
  ResNetVariant variant;
  std::uint32_t name_bytes;
  std::int64_t params;
  int depth;
  int blocks;
};
static_assert(sizeof(ParamCase) == 24, "ParamCase must have no padding");

class ParamCountTest : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ParamCountTest, MatchesCanonicalValue) {
  const ParamCase c = GetParam();
  const ResNetSpec spec = ResNetSpec::make(c.variant);
  EXPECT_EQ(spec.param_count(), c.params);
  EXPECT_EQ(spec.depth(), c.depth);
  // chain steps = 4 stem ops + blocks + 2 head ops
  EXPECT_EQ(spec.num_chain_steps(), c.blocks + 6);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParamCountTest,
    ::testing::Values(
        ParamCase{ResNetVariant::ResNet18, 0xEFD00000, 11689512, 18, 8},
        ParamCase{ResNetVariant::ResNet34, 0, 21797672, 34, 16},
        ParamCase{ResNetVariant::ResNet50, 0x00091E03, 25557032, 50, 16},
        ParamCase{ResNetVariant::ResNet101, 0xCAC50000, 44549160, 101, 33},
        ParamCase{ResNetVariant::ResNet152, 0, 60192808, 152, 50}));

TEST(ResNetSpec, ActivationsLinearInBatch) {
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet34);
  const std::int64_t one = spec.activation_elems(224, 1);
  for (const std::int64_t k : {2, 3, 8, 30}) {
    EXPECT_EQ(spec.activation_elems(224, k), k * one);
  }
}

TEST(ResNetSpec, ActivationsGrowWithImageSize) {
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet50);
  std::int64_t prev = 0;
  for (const int image : {64, 128, 224, 350, 500}) {
    const std::int64_t elems = spec.activation_elems(image, 1);
    EXPECT_GT(elems, prev);
    prev = elems;
  }
}

TEST(ResNetSpec, ActivationsApproximatelyAreaScaled) {
  // The exact conv arithmetic should track (s/224)^2 within a few percent
  // for sizes that are multiples of the stride structure.
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet18);
  const double base = static_cast<double>(spec.activation_elems(224, 1));
  for (const int image : {448, 896}) {
    const double scale = static_cast<double>(image) / 224.0;
    const double expect = base * scale * scale;
    const double got = static_cast<double>(spec.activation_elems(image, 1));
    EXPECT_NEAR(got / expect, 1.0, 0.03) << "image " << image;
  }
}

TEST(ResNetSpec, ChainStepActivationsSumToTotal) {
  for (const ResNetVariant v : all_resnet_variants()) {
    const ResNetSpec spec = ResNetSpec::make(v);
    const auto per_step = spec.chain_step_activation_elems(224, 2);
    const std::int64_t sum =
        std::accumulate(per_step.begin(), per_step.end(), std::int64_t{0});
    EXPECT_EQ(sum, spec.activation_elems(224, 2)) << spec.name();
    EXPECT_EQ(static_cast<int>(per_step.size()), spec.num_chain_steps());
  }
}

TEST(ResNetSpec, ChainStepCostsArePositiveAndConvDominated) {
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet18);
  const auto costs = spec.chain_step_forward_costs(224, 1);
  ASSERT_EQ(static_cast<int>(costs.size()), spec.num_chain_steps());
  double total = 0.0;
  for (const double c : costs) {
    EXPECT_GT(c, 0.0);
    total += c;
  }
  // ResNet-18 at 224 is ~1.8 GMAC; our op-level count should be in range.
  EXPECT_GT(total, 1.5e9);
  EXPECT_LT(total, 2.5e9);
}

TEST(ResNetSpec, BottleneckFlagMatchesVariant) {
  EXPECT_FALSE(uses_bottleneck(ResNetVariant::ResNet18));
  EXPECT_FALSE(uses_bottleneck(ResNetVariant::ResNet34));
  EXPECT_TRUE(uses_bottleneck(ResNetVariant::ResNet50));
  EXPECT_TRUE(uses_bottleneck(ResNetVariant::ResNet101));
  EXPECT_TRUE(uses_bottleneck(ResNetVariant::ResNet152));
}

TEST(ResNetSpec, CustomClassCountChangesOnlyHead) {
  const ResNetSpec base = ResNetSpec::make(ResNetVariant::ResNet18, 1000);
  const ResNetSpec small = ResNetSpec::make(ResNetVariant::ResNet18, 10);
  EXPECT_EQ(base.param_count() - small.param_count(),
            512 * 990 + 990);  // fc weight + bias delta
}

TEST(BuildResNetChain, ParamsMatchSpecAndForwardRuns) {
  std::mt19937 rng(401);
  // Use the 18-layer variant with a small class count on a small image.
  nn::LayerChain chain =
      build_resnet_chain(ResNetVariant::ResNet18, 10, 3, rng);
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet18, 10);
  EXPECT_EQ(chain.param_count(), spec.param_count());
  // One layer per spec chain step.
  EXPECT_EQ(chain.size(), spec.num_chain_steps());

  Tensor x = Tensor::randn(Shape{1, 3, 64, 64}, rng);
  nn::RunContext ctx;
  ctx.save_for_backward = false;
  Tensor y = chain.forward(x, ctx);
  EXPECT_EQ(y.shape(), (Shape{1, 10}));
}

// A plausible fitted device: predict_resnet's byte sizes do not depend on
// the rates, only its microseconds do.
calib::DeviceModel sample_device() {
  calib::DeviceModel m;
  m.points = {calib::ThreadPoint{1, 4.0, 2.0}};
  m.memcpy_bytes_per_sec = 8e9;
  m.disk_write_bytes_per_sec = 50e6;
  m.disk_read_bytes_per_sec = 80e6;
  return m;
}

// The prediction prices the chain that runs: one entry per executable step,
// and every boundary state, the input and the output exactly as large as
// the tensors the chain passes between its layers.
TEST(BuildResNetChain, PredictedBytesEqualLiveChainShapes) {
  for (const ResNetVariant v : {ResNetVariant::ResNet18,
                                ResNetVariant::ResNet34,
                                ResNetVariant::ResNet50}) {
    std::mt19937 rng(17);
    const nn::LayerChain chain = build_resnet_chain(v, 10, 3, rng);
    const ResNetSpec spec = ResNetSpec::make(v, 10);
    EXPECT_EQ(chain.size(), spec.num_chain_steps()) << spec.name();
    for (const int image : {64, 97}) {
      for (const std::int64_t batch : {1, 3}) {
        const std::vector<Shape> shapes =
            chain.shapes(Shape{batch, 3, image, image});
        const calib::ChainCosts costs =
            calib::predict_resnet(spec, image, batch, sample_device(), 1);
        SCOPED_TRACE(spec.name() + " image " + std::to_string(image) +
                     " batch " + std::to_string(batch));
        auto bytes = [&](std::size_t i) {
          return static_cast<double>(shapes[i].numel()) * sizeof(float);
        };
        ASSERT_EQ(costs.num_steps(), chain.size());
        ASSERT_EQ(costs.boundary_bytes.size(), shapes.size() - 2);
        for (std::size_t j = 1; j + 1 < shapes.size(); ++j) {
          EXPECT_EQ(costs.boundary_bytes[j - 1], bytes(j)) << "boundary " << j;
        }
        EXPECT_EQ(costs.input_bytes, bytes(0));
        EXPECT_EQ(costs.output_bytes, bytes(shapes.size() - 1));
      }
    }
  }
}

// A schedule planned from the prediction indexes the live chain step for
// step: run on ResNet-18 it reproduces full storage's gradients bit for bit.
TEST(BuildResNetChain, PredictedHeteroScheduleRunsBitIdentical) {
  constexpr int kImage = 32;
  constexpr std::int64_t kBatch = 2;
  constexpr int kFreeSlots = 3;
  std::mt19937 rng(2024);
  nn::LayerChain chain =
      build_resnet_chain(ResNetVariant::ResNet18, 10, 3, rng);
  const calib::ChainCosts costs =
      calib::predict_resnet(ResNetSpec::make(ResNetVariant::ResNet18, 10),
                            kImage, kBatch, sample_device(), 1);
  ASSERT_EQ(costs.num_steps(), chain.size());
  const core::Schedule schedule =
      core::hetero::HeteroSolver(costs.forward_us, kFreeSlots)
          .make_schedule(kFreeSlots);

  const Tensor x = Tensor::randn(Shape{kBatch, 3, kImage, kImage}, rng);
  const std::vector<std::int32_t> labels{3, 7};
  const core::LossGradFn loss_grad = [&](const Tensor& logits) {
    return ops::softmax_xent_backward(
        ops::softmax_xent_forward(logits, labels).probs, labels);
  };
  auto gradients = [&](bool planned) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    const core::ScheduleExecutor executor;
    const core::ExecutionResult result =
        planned ? executor.run(runner, schedule, x, loss_grad)
                : executor.run_full_storage(runner, x, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };
  const std::vector<Tensor> reference = gradients(false);
  const std::vector<Tensor> planned = gradients(true);
  ASSERT_EQ(planned.size(), reference.size());
  for (std::size_t i = 0; i < planned.size(); ++i) {
    ASSERT_EQ(planned[i].bytes(), reference[i].bytes()) << "tensor " << i;
    EXPECT_EQ(std::memcmp(planned[i].data(), reference[i].data(),
                          planned[i].bytes()),
              0)
        << "tensor " << i;
  }
}

}  // namespace
}  // namespace edgetrain::models
