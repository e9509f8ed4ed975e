#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>

#include "core/async_slot_store.hpp"
#include "core/dynprog.hpp"
#include "core/periodic.hpp"
#include "core/revolve.hpp"
#include "core/sequential.hpp"
#include "models/small_nets.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::nn {
namespace {

struct Batch {
  Tensor x;
  std::vector<std::int32_t> labels;
};

/// Quadrant task: a bright square in quadrant q has label q.
Batch quadrant_batch(std::int64_t n, std::mt19937& rng) {
  Batch batch;
  batch.x = Tensor::randn(Shape{n, 1, 12, 12}, rng, 0.2F);
  std::uniform_int_distribution<std::int32_t> dist(0, 3);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t label = dist(rng);
    batch.labels.push_back(label);
    float* img = batch.x.data() + i * 144;
    const int oy = (label / 2) * 6;
    const int ox = (label % 2) * 6;
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) img[(oy + y) * 12 + ox + x] += 1.2F;
    }
  }
  return batch;
}

double eval_accuracy(LayerChain& chain, std::mt19937& rng) {
  const Batch test = quadrant_batch(64, rng);
  RunContext ctx;
  ctx.phase = Phase::Eval;
  ctx.save_for_backward = false;
  const auto preds = ops::argmax_rows(chain.forward(test.x, ctx));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == test.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

/// Per-test spill directory, so concurrently running tests never share
/// slot files.
std::string spill_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/trainer_" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

/// Plain SGD as the tests train with it: momentum 0.9, no weight decay.
std::unique_ptr<Optimizer> sgd(LayerChain& chain, float lr = 0.05F) {
  return std::make_unique<SGD>(chain.params(), lr, 0.9F);
}

/// The schedules of the strategy matrix, indexed by StrategyCase::schedule:
/// full storage, Revolve, checkpoint_sequential with free_slots + 1
/// segments, periodic.
using ScheduleFn = core::Schedule (*)(int num_steps, int free_slots);
constexpr ScheduleFn kSchedules[] = {
    [](int l, int /*free_slots*/) { return core::full_storage_schedule(l); },
    [](int l, int s) { return core::revolve::make_schedule(l, s); },
    [](int l, int s) { return core::seq::make_schedule(l, s + 1); },
    [](int l, int s) { return core::periodic::make_schedule(l, s); },
};

/// The slot stores of the strategy matrix, indexed by StrategyCase::store:
/// RAM, every non-input slot spilled to @p dir, fp16 blobs, int8 blobs.
using StoreFn = std::unique_ptr<core::SlotStore> (*)(
    const core::Schedule& schedule, const std::string& dir);
constexpr StoreFn kStores[] = {
    [](const core::Schedule& schedule, const std::string& /*dir*/)
        -> std::unique_ptr<core::SlotStore> {
      return std::make_unique<core::RamSlotStore>(schedule.num_slots());
    },
    [](const core::Schedule& schedule, const std::string& dir)
        -> std::unique_ptr<core::SlotStore> {
      return std::make_unique<core::AsyncDiskSlotStore>(
          schedule.num_slots(), /*first_disk_slot=*/1, dir);
    },
    [](const core::Schedule& schedule, const std::string& /*dir*/)
        -> std::unique_ptr<core::SlotStore> {
      return std::make_unique<core::CompressedSlotStore>(
          schedule.num_slots(), core::SlotCodec::Fp16);
    },
    [](const core::Schedule& schedule, const std::string& /*dir*/)
        -> std::unique_ptr<core::SlotStore> {
      return std::make_unique<core::CompressedSlotStore>(
          schedule.num_slots(), core::SlotCodec::Int8);
    },
};

/// Indices into kSchedules and kStores. Two bytes, so each case prints as
/// "2-byte object <schedule-store>" in its test name.
struct StrategyCase {
  std::uint8_t schedule;
  std::uint8_t store;
};

/// A trainer running @p c's schedule with @p free_slots free slots on its
/// store.
Trainer make_trainer(LayerChain& chain, StrategyCase c, int free_slots,
                     const std::string& dir, float lr = 0.05F) {
  core::Schedule schedule = kSchedules[c.schedule](chain.size(), free_slots);
  std::unique_ptr<core::SlotStore> store = kStores[c.store](schedule, dir);
  return Trainer(chain, std::move(schedule), sgd(chain, lr), std::move(store));
}

constexpr StrategyCase kFullRam{0, 0};
constexpr StrategyCase kRevolveRam{1, 0};
constexpr StrategyCase kRevolveDisk{1, 1};

class TrainerStrategyTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(TrainerStrategyTest, LearnsQuadrantTask) {
  std::mt19937 rng(606);
  LayerChain chain = models::build_patch_cnn(12, 1, 4, 4, rng);
  Trainer trainer = make_trainer(chain, GetParam(), /*free_slots=*/2,
                                 spill_dir("strategies"), /*lr=*/0.08F);

  float loss = 0.0F;
  std::mt19937 data_rng(607);
  for (int step = 0; step < 50; ++step) {
    const Batch batch = quadrant_batch(8, data_rng);
    loss = trainer.step(batch.x, batch.labels).loss;
  }
  EXPECT_LT(loss, 0.8F);
  EXPECT_GT(eval_accuracy(chain, data_rng), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndBackends, TrainerStrategyTest,
    ::testing::Values(kFullRam, kRevolveRam, StrategyCase{2, 0},
                      StrategyCase{3, 0}, kRevolveDisk, StrategyCase{1, 2},
                      StrategyCase{1, 3}));

/// Trains a fresh quadrant CNN (init seed 611) for 8 steps through the
/// schedule and store @p make builds for its length, and returns the
/// weights.
std::vector<Tensor> weights_after_training(
    const std::function<Trainer(LayerChain&)>& make) {
  std::mt19937 rng(611);
  LayerChain chain = models::build_patch_cnn(12, 1, 4, 4, rng);
  Trainer trainer = make(chain);
  std::mt19937 data_rng(613);
  for (int step = 0; step < 8; ++step) {
    const Batch batch = quadrant_batch(4, data_rng);
    (void)trainer.step(batch.x, batch.labels);
  }
  std::vector<Tensor> weights;
  for (const ParamRef& p : chain.params()) weights.push_back(p.value->clone());
  return weights;
}

TEST(Trainer, RevolveIdenticalToFullStorageTrajectory) {
  const std::string dir = spill_dir("trajectory");
  auto run = [&](StrategyCase c) {
    return weights_after_training([&](LayerChain& chain) {
      return make_trainer(chain, c, /*free_slots=*/1, dir);
    });
  };
  const auto full = run(kFullRam);
  const auto revolve = run(kRevolveRam);
  // Spilling is lossless: the disk backend keeps the trajectory too.
  const auto spilled = run(kRevolveDisk);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(Tensor::max_abs_diff(full[i], revolve[i]), 0.0F) << i;
    EXPECT_EQ(Tensor::max_abs_diff(full[i], spilled[i]), 0.0F) << i;
  }
}

TEST(Trainer, HeteroScheduleOnCodecStoresMatchesFullStorage) {
  // The heterogeneous DP over uneven step costs, its checkpoints kept as
  // Bitmap blobs in RAM or spilled synchronously to disk through the same
  // codec. Both stores are lossless, so the trajectory is full storage's.
  const std::string dir = spill_dir("hetero");
  auto hetero = [](const LayerChain& chain) {
    std::vector<double> costs;
    for (int i = 0; i < chain.size(); ++i) {
      costs.push_back(1.0 + static_cast<double>((i * 7) % 5));
    }
    return core::hetero::HeteroSolver(costs, chain.size() - 1)
        .make_schedule(/*free_slots=*/2);
  };
  const auto full = weights_after_training([](LayerChain& chain) {
    return Trainer(chain, core::full_storage_schedule(chain.size()),
                   sgd(chain));
  });
  const auto bitmap = weights_after_training([&](LayerChain& chain) {
    core::Schedule schedule = hetero(chain);
    auto store = std::make_unique<core::CompressedSlotStore>(
        schedule.num_slots(), core::SlotCodec::Bitmap);
    return Trainer(chain, std::move(schedule), sgd(chain), std::move(store));
  });
  const auto disk = weights_after_training([&](LayerChain& chain) {
    core::Schedule schedule = hetero(chain);
    core::AsyncDiskSlotStoreOptions sync;
    sync.write_staging_slots = 0;
    sync.read_staging_slots = 0;
    sync.codec = core::SlotCodec::Bitmap;
    auto store = std::make_unique<core::AsyncDiskSlotStore>(
        schedule.num_slots(), /*first_disk_slot=*/1, dir, sync);
    return Trainer(chain, std::move(schedule), sgd(chain), std::move(store));
  });
  ASSERT_EQ(full.size(), bitmap.size());
  ASSERT_EQ(full.size(), disk.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(std::memcmp(full[i].data(), bitmap[i].data(), full[i].bytes()),
              0)
        << "bitmap store, param " << i;
    EXPECT_EQ(std::memcmp(full[i].data(), disk[i].data(), full[i].bytes()), 0)
        << "sync disk store, param " << i;
  }
}

TEST(Trainer, CheckpointedStepUsesLessMemory) {
  std::mt19937 rng(617);
  LayerChain chain = models::build_conv_chain(16, 8, rng);

  auto peak_of = [&](core::Schedule schedule) {
    Trainer trainer(chain, std::move(schedule), sgd(chain));
    Tensor x = Tensor::randn(Shape{1, 8, 14, 14}, rng);
    const core::LossGradFn seed = [](const Tensor& output) {
      return Tensor::full(output.shape(), 1.0F);
    };
    return trainer.step_with_loss(x, seed).peak_bytes;
  };

  const std::size_t full = peak_of(core::full_storage_schedule(chain.size()));
  const std::size_t tight = peak_of(core::revolve::make_schedule(chain.size(), 1));
  EXPECT_LT(tight, full);
}

TEST(Trainer, ReportsAdvances) {
  std::mt19937 rng(619);
  LayerChain chain = models::build_conv_chain(8, 4, rng);
  Trainer trainer(chain, core::revolve::make_schedule(chain.size(), 1),
                  sgd(chain));
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  const core::LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };
  EXPECT_GT(trainer.step_with_loss(x, seed).advances, 0);
  EXPECT_EQ(trainer.schedule().num_steps(), 8);
}

}  // namespace
}  // namespace edgetrain::nn
