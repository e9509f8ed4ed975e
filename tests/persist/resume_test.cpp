// Kill-anywhere determinism tests: a training run interrupted by process
// death -- at snapshot boundaries, mid snapshot write, mid schedule action
// -- and resumed from disk must end with weights bit-for-bit identical to
// an uninterrupted run with the same seeds.
#include "persist/resumable.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <random>

#include "core/revolve.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"

namespace edgetrain::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kInitSeed = 701;
constexpr std::uint32_t kDataSeed = 703;

/// Physical LinearResNet with a classifier head: conv stem, homogeneous
/// basic blocks (each with batch norm, so buffers matter), global pool,
/// linear. Built identically on every simulated boot.
nn::LayerChain build_net() {
  std::mt19937 rng(kInitSeed);
  nn::LayerChain chain;
  chain.push(std::make_unique<nn::Conv2d>(1, 8, 3, 1, 1, false, rng));
  chain.push(std::make_unique<nn::BasicBlock>(8, 8, 1, rng));
  chain.push(std::make_unique<nn::BasicBlock>(8, 8, 1, rng));
  chain.push(std::make_unique<nn::GlobalAvgPool>());
  chain.push(std::make_unique<nn::Linear>(8, 4, true, rng));
  return chain;
}

/// Quadrant task batch, a pure function of (rng, cursor).
LabeledBatch quadrant_batch(std::mt19937& rng, std::uint64_t /*cursor*/) {
  LabeledBatch batch;
  const std::int64_t n = 4;
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

ResumableOptions make_options(const std::string& dir) {
  ResumableOptions options;
  options.snapshot_dir = dir;
  options.snapshot_every = 3;
  options.keep_snapshots = 2;
  options.data_seed = kDataSeed;
  return options;
}

/// The trainer every boot builds: Revolve with 2 free slots, SGD (lr 0.05,
/// momentum 0.9), or Adam (lr 0.002) when @p adam.
ResumableTrainer make_trainer(nn::LayerChain& chain,
                              const ResumableOptions& options,
                              FaultInjector* fault = nullptr,
                              bool adam = false) {
  std::unique_ptr<nn::Optimizer> optimizer;
  if (adam) {
    optimizer = std::make_unique<nn::Adam>(chain.params(), 0.002F);
  } else {
    optimizer = std::make_unique<nn::SGD>(chain.params(), 0.05F, 0.9F);
  }
  return ResumableTrainer(chain, core::revolve::make_schedule(chain.size(), 2),
                          std::move(optimizer), options, fault);
}

/// Full durable model state: weights + buffers, cloned off the live chain.
struct ModelDump {
  std::vector<std::uint8_t> weights;
  std::vector<std::uint8_t> buffers;
};

ModelDump dump(nn::LayerChain& chain) {
  return {nn::serialize_weights(chain), nn::serialize_buffers(chain)};
}

/// Runs to @p total_steps uninterrupted in a fresh directory.
ModelDump uninterrupted_run(std::uint64_t total_steps,
                            const ResumableOptions& options,
                            bool adam = false) {
  nn::LayerChain chain = build_net();
  ResumableTrainer trainer = make_trainer(chain, options, nullptr, adam);
  EXPECT_FALSE(trainer.resume());
  while (trainer.step_count() < total_steps) {
    (void)trainer.step(quadrant_batch);
  }
  return dump(chain);
}

/// One simulated boot: build everything from scratch, resume from disk,
/// arm @p inject, train toward @p total_steps. Returns the model state when
/// the run completed, nullopt when it died (PowerLoss).
std::optional<ModelDump> boot(const ResumableOptions& options,
                              std::uint64_t total_steps,
                              const std::function<void(FaultInjector&)>&
                                  inject = nullptr,
                              bool adam = false) {
  nn::LayerChain chain = build_net();
  FaultInjector fault;
  ResumableTrainer trainer = make_trainer(chain, options, &fault, adam);
  (void)trainer.resume();
  if (inject) inject(fault);
  try {
    while (trainer.step_count() < total_steps) {
      (void)trainer.step(quadrant_batch);
    }
  } catch (const PowerLoss&) {
    return std::nullopt;
  }
  return dump(chain);
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name = ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    base_ = (fs::temp_directory_path() / ("etresume_" + name)).string();
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  [[nodiscard]] std::string subdir(const std::string& tag) const {
    return base_ + "/" + tag;
  }

  std::string base_;
};

void expect_identical(const ModelDump& a, const ModelDump& b,
                      const std::string& what) {
  EXPECT_EQ(a.weights, b.weights) << what << ": weights diverged";
  EXPECT_EQ(a.buffers, b.buffers) << what << ": buffers diverged";
}

// ---------------------------------------------------------------------------
// Kill-anywhere determinism
// ---------------------------------------------------------------------------

TEST_F(ResumeTest, KilledAtEveryStepMatchesUninterruptedBitForBit) {
  const std::uint64_t total = 13;
  const ResumableOptions options = make_options(subdir("golden"));
  const ModelDump golden = uninterrupted_run(total, options);

  // Kill the run immediately before every single step (this covers every
  // snapshot boundary: deaths right after the commits at steps 3, 6, 9, 12
  // are the kills armed at those step numbers).
  for (std::uint64_t kill = 0; kill < total; ++kill) {
    const std::string dir = subdir("kill_" + std::to_string(kill));
    ResumableOptions opts = make_options(dir);
    EXPECT_FALSE(boot(opts, total, [&](FaultInjector& fault) {
                   fault.arm_abort_at_step(kill);
                 }).has_value())
        << "kill at step " << kill << " did not fire";
    const std::optional<ModelDump> final = boot(opts, total);
    ASSERT_TRUE(final.has_value()) << "kill at step " << kill;
    expect_identical(*final, golden, "kill at step " + std::to_string(kill));
  }
}

TEST_F(ResumeTest, KilledMidSnapshotWriteMatchesUninterruptedBitForBit) {
  const std::uint64_t total = 13;
  const ResumableOptions options = make_options(subdir("golden"));
  const ModelDump golden = uninterrupted_run(total, options);
  const std::uint64_t snap_bytes = [&] {
    nn::LayerChain chain = build_net();
    ResumableTrainer trainer = make_trainer(chain, options);
    return encode_snapshot(trainer.capture()).size();
  }();

  // Tear a snapshot write at byte offsets spanning the file: inside the
  // header, at the header/payload boundary, across the payload. The
  // serialized RNG stream makes snapshot sizes vary by a few bytes between
  // steps, so offsets stay below a safety margin that every write reaches
  // (exact end-of-file tears are covered in snapshot_test).
  ASSERT_GT(snap_bytes, 1024U);
  const std::uint64_t last_safe = snap_bytes - 512;
  std::mt19937 offset_rng(811);
  std::vector<std::uint64_t> offsets = {1, 12, 24, snap_bytes / 2, last_safe};
  std::uniform_int_distribution<std::uint64_t> dist(25, last_safe);
  for (int i = 0; i < 3; ++i) offsets.push_back(dist(offset_rng));

  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint64_t offset = offsets[i];
    const std::string dir = subdir("tear_" + std::to_string(i));
    ResumableOptions opts = make_options(dir);
    EXPECT_FALSE(boot(opts, total, [&](FaultInjector& fault) {
                   fault.arm_write_failure(offset);
                 }).has_value())
        << "tear at byte " << offset << " did not fire";
    const std::optional<ModelDump> final = boot(opts, total);
    ASSERT_TRUE(final.has_value()) << "tear at byte " << offset;
    expect_identical(*final, golden, "tear at byte " + std::to_string(offset));
  }
}

TEST_F(ResumeTest, KilledMidScheduleActionMatchesUninterruptedBitForBit) {
  const std::uint64_t total = 10;
  const ResumableOptions options = make_options(subdir("golden"));
  const ModelDump golden = uninterrupted_run(total, options);

  // Die inside a pass, at several schedule positions. The abandoned pass
  // must update nothing; recovery replays the step from its boundary.
  for (const std::int64_t action : {std::int64_t{0}, std::int64_t{3},
                                    std::int64_t{7}}) {
    const std::string dir = subdir("action_" + std::to_string(action));
    ResumableOptions opts = make_options(dir);
    EXPECT_FALSE(boot(opts, total, [&](FaultInjector& fault) {
                   fault.arm_abort_at_action(action);
                 }).has_value())
        << "mid-step abort at action " << action << " did not fire";
    const std::optional<ModelDump> final = boot(opts, total);
    ASSERT_TRUE(final.has_value());
    expect_identical(*final, golden,
                     "mid-step abort at action " + std::to_string(action));
  }
}

TEST_F(ResumeTest, SurvivesRepeatedDeathsInOneRun) {
  const std::uint64_t total = 20;
  const ResumableOptions options = make_options(subdir("golden"));
  const ModelDump golden = uninterrupted_run(total, options);

  const std::string dir = subdir("chaos");
  ResumableOptions opts = make_options(dir);
  // Death after death: step kill, torn write, mid-step abort, step kill.
  EXPECT_FALSE(boot(opts, total, [](FaultInjector& f) {
                 f.arm_abort_at_step(4);
               }).has_value());
  EXPECT_FALSE(boot(opts, total, [](FaultInjector& f) {
                 f.arm_write_failure(40);
               }).has_value());
  EXPECT_FALSE(boot(opts, total, [](FaultInjector& f) {
                 f.arm_abort_at_action(5);
               }).has_value());
  EXPECT_FALSE(boot(opts, total, [](FaultInjector& f) {
                 f.arm_abort_at_step(17);
               }).has_value());
  const std::optional<ModelDump> final = boot(opts, total);
  ASSERT_TRUE(final.has_value());
  expect_identical(*final, golden, "after four deaths");
}

// ---------------------------------------------------------------------------
// Corruption fallback
// ---------------------------------------------------------------------------

TEST_F(ResumeTest, BitRotOnLatestSnapshotFallsBackAndStaysDeterministic) {
  const std::uint64_t total = 13;
  const ResumableOptions options = make_options(subdir("golden"));
  const ModelDump golden = uninterrupted_run(total, options);

  const std::string dir = subdir("bitrot");
  ResumableOptions opts = make_options(dir);
  // Train partway (snapshots at steps 3 and 6), then corrupt the newest
  // snapshot on disk, as an SD card would.
  EXPECT_FALSE(boot(opts, total, [](FaultInjector& f) {
                 f.arm_abort_at_step(7);
               }).has_value());
  SnapshotManager manager(dir, 2);
  const std::vector<std::string> paths = manager.list();
  ASSERT_EQ(paths.size(), 2U);
  flip_bit(paths[0], file_size(paths[0]) / 2, 5);

  // Recovery must fall back to the older generation (step 3) and still
  // reach the exact uninterrupted trajectory.
  {
    nn::LayerChain chain = build_net();
    ResumableTrainer trainer = make_trainer(chain, opts);
    ASSERT_TRUE(trainer.resume());
    EXPECT_EQ(trainer.step_count(), 3U);
    EXPECT_EQ(trainer.snapshots().last_skipped().size(), 1U);
  }
  const std::optional<ModelDump> final = boot(opts, total);
  ASSERT_TRUE(final.has_value());
  expect_identical(*final, golden, "bit-rot fallback");
}

TEST_F(ResumeTest, TruncatedLatestSnapshotFallsBack) {
  const std::string dir = subdir("trunc");
  ResumableOptions opts = make_options(dir);
  EXPECT_FALSE(boot(opts, 13, [](FaultInjector& f) {
                 f.arm_abort_at_step(7);
               }).has_value());
  SnapshotManager manager(dir, 2);
  const std::vector<std::string> paths = manager.list();
  ASSERT_EQ(paths.size(), 2U);
  truncate_file(paths[0], file_size(paths[0]) - 5);

  nn::LayerChain chain = build_net();
  ResumableTrainer trainer = make_trainer(chain, opts);
  ASSERT_TRUE(trainer.resume());
  EXPECT_EQ(trainer.step_count(), 3U);
}

// ---------------------------------------------------------------------------
// State coverage
// ---------------------------------------------------------------------------

TEST_F(ResumeTest, AdamMomentsAndStepCounterSurviveResume) {
  const std::uint64_t total = 9;
  const ResumableOptions options = make_options(subdir("golden"));
  const ModelDump golden = uninterrupted_run(total, options, /*adam=*/true);

  const std::string dir = subdir("adam");
  ResumableOptions opts = options;
  opts.snapshot_dir = dir;
  // Adam's trajectory depends on its moment tensors and bias-correction
  // counter; a resume that dropped either would diverge immediately.
  EXPECT_FALSE(boot(
                   opts, total,
                   [](FaultInjector& f) { f.arm_abort_at_step(5); },
                   /*adam=*/true)
                   .has_value());
  const std::optional<ModelDump> final =
      boot(opts, total, nullptr, /*adam=*/true);
  ASSERT_TRUE(final.has_value());
  expect_identical(*final, golden, "Adam resume");
}

TEST_F(ResumeTest, BatchNormRunningStatsSurviveResume) {
  const std::string dir = subdir("bn");
  ResumableOptions opts = make_options(dir);

  nn::LayerChain chain = build_net();
  {
    ResumableTrainer trainer = make_trainer(chain, opts);
    for (int i = 0; i < 4; ++i) (void)trainer.step(quadrant_batch);
    trainer.suspend();
  }
  const ModelDump saved = dump(chain);

  nn::LayerChain rebooted = build_net();
  ResumableTrainer trainer = make_trainer(rebooted, opts);
  ASSERT_TRUE(trainer.resume());
  expect_identical(dump(rebooted), saved, "running stats");
  // And they are genuinely non-trivial state: training moved them.
  nn::LayerChain fresh = build_net();
  EXPECT_NE(saved.buffers, dump(fresh).buffers);
}

TEST_F(ResumeTest, SuspendPersistsCurrentStateImmediately) {
  const std::string dir = subdir("suspend");
  ResumableOptions opts = make_options(dir);
  opts.snapshot_every = 0;  // only explicit suspends snapshot

  nn::LayerChain chain = build_net();
  ResumableTrainer trainer = make_trainer(chain, opts);
  for (int i = 0; i < 5; ++i) (void)trainer.step(quadrant_batch);
  EXPECT_EQ(trainer.snapshots_written(), 0U);
  trainer.suspend();
  EXPECT_EQ(trainer.snapshots_written(), 1U);

  nn::LayerChain rebooted = build_net();
  ResumableTrainer resumed = make_trainer(rebooted, opts);
  ASSERT_TRUE(resumed.resume());
  EXPECT_EQ(resumed.step_count(), 5U);
  EXPECT_EQ(resumed.data_cursor(), 5U);
  expect_identical(dump(rebooted), dump(chain), "suspend state");
}

TEST_F(ResumeTest, FreshStartWhenNoSnapshotExists) {
  nn::LayerChain chain = build_net();
  ResumableTrainer trainer = make_trainer(chain, make_options(subdir("fresh")));
  EXPECT_FALSE(trainer.resume());
  EXPECT_EQ(trainer.step_count(), 0U);
}

TEST_F(ResumeTest, MidStepAbortRecordsSchedulePosition) {
  const std::string dir = subdir("telemetry");
  ResumableOptions opts = make_options(dir);
  nn::LayerChain chain = build_net();
  FaultInjector fault;
  ResumableTrainer trainer = make_trainer(chain, opts, &fault);
  (void)trainer.step(quadrant_batch);
  fault.arm_abort_at_action(4);
  EXPECT_THROW((void)trainer.step(quadrant_batch), PowerLoss);
  EXPECT_EQ(trainer.last_aborted_action(), 4);
  // The position rides along in the next snapshot for post-mortem reads.
  trainer.suspend();
  SnapshotManager manager(dir, 2);
  const std::optional<TrainerState> state = manager.load_latest();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->in_flight_action, 4);
}

}  // namespace
}  // namespace edgetrain::persist
