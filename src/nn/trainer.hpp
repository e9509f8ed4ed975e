// edgetrain: the training loop.
//
// One optimisation step is zero_grad -> begin_pass -> replay the checkpoint
// schedule -> optimizer step. Trainer is the one place that runs it, and it
// is built from the things it runs: the schedule (core::revolve, seq,
// periodic, hetero, disk_revolve, ... -- any planner), the optimizer and
// the slot store the schedule's checkpoints live in (RAM, codec blobs,
// spilled to disk). Switching plans means constructing a different
// schedule or store, not setting a flag.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "nn/chain.hpp"
#include "nn/chain_runner.hpp"
#include "nn/optim.hpp"

namespace edgetrain::nn {

struct StepStats {
  float loss = 0.0F;                ///< step(): the cross-entropy; else 0
  std::size_t peak_bytes = 0;       ///< tracked peak over the step
  std::int64_t advances = 0;        ///< recomputation forwards
};

/// Owns the optimizer, runner, schedule and slot store for one network.
/// Not copyable; the chain must outlive the trainer.
class Trainer {
 public:
  /// @p schedule must be built for chain.size() steps and @p optimizer over
  /// chain.params(). A null @p store keeps checkpoints in a
  /// RamSlotStore(schedule.num_slots()).
  Trainer(LayerChain& chain, core::Schedule schedule,
          std::unique_ptr<Optimizer> optimizer,
          std::unique_ptr<core::SlotStore> store = nullptr);

  /// One optimisation step on a batch with integer labels (softmax
  /// cross-entropy head).
  StepStats step(const Tensor& x, const std::vector<std::int32_t>& labels);

  /// One optimisation step with a caller-supplied loss gradient.
  StepStats step_with_loss(const Tensor& x, const core::LossGradFn& loss_grad);

  /// The schedule in force (for inspection/reporting).
  [[nodiscard]] const core::Schedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] Optimizer& optimizer() noexcept { return *optimizer_; }
  [[nodiscard]] LayerChain& chain() noexcept { return chain_; }

  /// Executor hooks threaded through every subsequent step (in-flight
  /// schedule position reporting / mid-step abort injection).
  void set_hooks(core::ExecutorHooks hooks) { hooks_ = std::move(hooks); }

  /// Pass counter of the underlying runner; persist/ saves and restores it
  /// so per-pass randomness (dropout) continues its stream after resume.
  [[nodiscard]] std::uint64_t pass_token() const noexcept {
    return runner_.pass_token();
  }
  void set_pass_token(std::uint64_t token) noexcept {
    runner_.set_pass_token(token);
  }

 private:
  LayerChain& chain_;
  core::Schedule schedule_;
  std::unique_ptr<core::SlotStore> store_;
  std::unique_ptr<Optimizer> optimizer_;
  LayerChainRunner runner_;
  core::ScheduleExecutor executor_;
  core::ExecutorHooks hooks_;
  float last_loss_ = 0.0F;
};

}  // namespace edgetrain::nn
