// edgetrain: suspend/resume training across process death.
//
// The paper schedules training into idle CPU windows of a node whose
// foreground duties always win and whose power can vanish mid-step, so a
// run is a sequence of short bursts separated by deaths and suspends.
// ResumableTrainer wraps nn::Trainer with the persist/ durability layer:
// it snapshots complete trainer state every N steps and on cooperative
// suspend() (idle window closing, see edge::IdleScheduler), and resume()
// restores the newest valid snapshot so the *subsequent trajectory is
// bit-for-bit identical* to a run that was never interrupted -- the
// process-death extension of the executor's checkpointing determinism
// guarantee.
//
// Determinism contract: the caller's data source must be a pure function
// of (rng, cursor) -- both live inside the snapshot -- and the chain must
// be constructed identically on every boot (same architecture and init
// seed; restored weights overwrite the init). Steps aborted mid-pass lose
// only that step: recovery replays it from the last step boundary, the
// same abandon-and-rerun model the idle scheduler uses for preemption.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "nn/trainer.hpp"
#include "persist/fault.hpp"
#include "persist/snapshot.hpp"

namespace edgetrain::persist {

struct LabeledBatch {
  Tensor x;
  std::vector<std::int32_t> labels;
};

/// Replayable data source: must depend only on @p rng and @p cursor so a
/// restored RNG stream regenerates the exact batch sequence.
using BatchFn =
    std::function<LabeledBatch(std::mt19937& rng, std::uint64_t cursor)>;

struct ResumableOptions {
  std::string snapshot_dir = "/tmp/edgetrain_snap";
  std::uint64_t snapshot_every = 25;  ///< steps; 0 = only on suspend()
  int keep_snapshots = 2;             ///< committed generations to retain
  std::uint32_t data_seed = 1234;     ///< data RNG seed on fresh start
};

/// Crash-consistent trainer. Not copyable; the chain must outlive it.
class ResumableTrainer {
 public:
  /// @p schedule, @p optimizer and @p store are forwarded to nn::Trainer
  /// (a null store keeps checkpoints in RAM). @p fault, when set, is
  /// consulted at every failure point (step entry, mid-step schedule
  /// actions, snapshot write bytes) -- production passes nullptr, tests
  /// inject deaths.
  ResumableTrainer(nn::LayerChain& chain, core::Schedule schedule,
                   std::unique_ptr<nn::Optimizer> optimizer,
                   const ResumableOptions& options,
                   FaultInjector* fault = nullptr,
                   std::unique_ptr<core::SlotStore> store = nullptr);

  /// Restores the newest valid snapshot, falling back past corrupt or torn
  /// generations. Returns true when state was restored (resumed run),
  /// false on a fresh start. Call once, before the first step().
  bool resume();

  /// One optimisation step on make_batch(data_rng, cursor); snapshots
  /// afterwards when the step count hits the snapshot_every stride.
  nn::StepStats step(const BatchFn& make_batch);

  /// Cooperative suspend: snapshot the current state now. Called when the
  /// idle window closes; also safe at any step boundary.
  void suspend();

  [[nodiscard]] std::uint64_t step_count() const noexcept { return step_; }
  [[nodiscard]] std::uint64_t data_cursor() const noexcept { return cursor_; }
  [[nodiscard]] std::uint64_t snapshots_written() const noexcept {
    return snapshots_written_;
  }
  /// Schedule position of the last mid-step abort in this process, -1 when
  /// every step completed (the in-flight position also rides along in the
  /// next snapshot for post-mortem telemetry).
  [[nodiscard]] std::int64_t last_aborted_action() const noexcept {
    return last_aborted_action_;
  }

  [[nodiscard]] nn::Trainer& trainer() noexcept { return trainer_; }
  [[nodiscard]] SnapshotManager& snapshots() noexcept { return manager_; }
  [[nodiscard]] std::mt19937& data_rng() noexcept { return data_rng_; }

  /// Serialises the complete current trainer state (exposed for benches).
  [[nodiscard]] TrainerState capture();

 private:
  void restore(const TrainerState& state);

  nn::LayerChain& chain_;
  ResumableOptions options_;
  FaultInjector* fault_;
  SnapshotManager manager_;
  nn::Trainer trainer_;
  std::mt19937 data_rng_;
  std::uint64_t step_ = 0;
  std::uint64_t cursor_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::int64_t last_aborted_action_ = -1;
};

/// Optimizer state blob used inside TrainerState::optimizer (exposed for
/// tests): step counter (when the optimizer has one) followed by every
/// state tensor. Decoding validates tensor count and sizes against the
/// live optimizer and throws SnapshotError on mismatch.
[[nodiscard]] std::vector<std::uint8_t> encode_optimizer_state(
    nn::Optimizer& optimizer);
void decode_optimizer_state(nn::Optimizer& optimizer,
                            const std::vector<std::uint8_t>& bytes);

}  // namespace edgetrain::persist
