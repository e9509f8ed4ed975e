// e2ebench: per-layer timing from outside the library.
//
// The traced run wraps the public entry points of each layer with
// decorators that live in the benchmark, so nothing under src/ changes:
//
//   * TracingRunner -- a core::ChainRunner around nn::LayerChainRunner.
//     The first forward of a chain step in a pass is the sweep forward;
//     later forwards of the same step are recomputations.
//   * TracingStore  -- a core::SlotStore around the workload's store. It
//     times put/get on the training thread and forwards the replay
//     lookahead (begin_replay / on_replay_position / end_replay), so the
//     async store still prefetches.
//
// Both write into one StepRecord per training step; the step workload adds
// the optimizer time and the step total, then reduces the records to the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/executor.hpp"
#include "core/slot_store.hpp"

namespace e2ebench {

/// Spans and counts of one traced training step.
struct StepRecord {
  explicit StepRecord(int chain_steps)
      : fwd_ms(static_cast<std::size_t>(chain_steps), 0.0),
        bwd_ms(static_cast<std::size_t>(chain_steps), 0.0),
        recompute_ms(static_cast<std::size_t>(chain_steps), 0.0) {}

  std::vector<double> fwd_ms;        ///< sweep forwards, per chain step
  std::vector<double> bwd_ms;        ///< backwards, per chain step
  std::vector<double> recompute_ms;  ///< recompute forwards, per chain step
  std::int64_t recompute_calls = 0;
  double put_ms = 0.0;
  double get_ms = 0.0;
  std::int64_t puts = 0;
  std::int64_t gets = 0;
  std::size_t resident_peak_bytes = 0;
  std::size_t external_peak_bytes = 0;
  double optim_ms = 0.0;
  double step_ms = 0.0;  ///< zero_grad -> executor run -> optimizer step

  /// Step time not covered by any child span (executor bookkeeping,
  /// zero_grad, loss).
  [[nodiscard]] double self_ms() const;
};

class TracingRunner final : public edgetrain::core::ChainRunner {
 public:
  TracingRunner(edgetrain::core::ChainRunner& inner, StepRecord& record);

  [[nodiscard]] int num_steps() const override { return inner_.num_steps(); }
  [[nodiscard]] edgetrain::Tensor forward(int step,
                                          const edgetrain::Tensor& input,
                                          bool save) override;
  [[nodiscard]] edgetrain::Tensor backward(
      int step, const edgetrain::Tensor& grad_output) override;

 private:
  edgetrain::core::ChainRunner& inner_;
  StepRecord& record_;
  std::vector<int> visits_;
};

class TracingStore final : public edgetrain::core::SlotStore {
 public:
  TracingStore(edgetrain::core::SlotStore& inner, StepRecord& record)
      : inner_(inner), record_(record) {}

  void put(std::int32_t slot, const edgetrain::Tensor& value) override;
  [[nodiscard]] edgetrain::Tensor get(std::int32_t slot) override;
  void drop(std::int32_t slot) override;
  [[nodiscard]] std::size_t resident_bytes() const override {
    return inner_.resident_bytes();
  }
  [[nodiscard]] std::size_t external_bytes() const override {
    return inner_.external_bytes();
  }
  [[nodiscard]] double measured_slot_ratio(std::int32_t slot) const override {
    return inner_.measured_slot_ratio(slot);
  }
  void begin_replay(const edgetrain::core::Schedule& schedule) override {
    inner_.begin_replay(schedule);
  }
  void on_replay_position(std::int64_t next_action) override {
    inner_.on_replay_position(next_action);
  }
  void end_replay() override { inner_.end_replay(); }

 private:
  void sample_footprint();

  edgetrain::core::SlotStore& inner_;
  StepRecord& record_;
};

/// Reduces traced steps to the nn.* / core.* per-layer metrics: times are
/// medians over steps of the per-step totals, counts are per-step means,
/// store footprints are maxima.
void report_step_records(const std::vector<StepRecord>& records,
                         Result& result);

}  // namespace e2ebench
