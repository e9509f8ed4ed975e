#include "nn/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace edgetrain::nn {

Trainer::Trainer(LayerChain& chain, core::Schedule schedule,
                 std::unique_ptr<Optimizer> optimizer,
                 std::unique_ptr<core::SlotStore> store)
    : chain_(chain),
      schedule_(std::move(schedule)),
      store_(store != nullptr ? std::move(store)
                              : std::make_unique<core::RamSlotStore>(
                                    schedule_.num_slots())),
      optimizer_(std::move(optimizer)),
      runner_(chain, Phase::Train) {
  if (optimizer_ == nullptr) {
    throw std::invalid_argument("Trainer: null optimizer");
  }
}

StepStats Trainer::step(const Tensor& x,
                        const std::vector<std::int32_t>& labels) {
  return step_with_loss(x, [this, &labels](const Tensor& logits) {
    const ops::SoftmaxXentResult result =
        ops::softmax_xent_forward(logits, labels);
    last_loss_ = result.loss;
    return ops::softmax_xent_backward(result.probs, labels);
  });
}

StepStats Trainer::step_with_loss(const Tensor& x,
                                  const core::LossGradFn& loss_grad) {
  optimizer_->zero_grad();
  runner_.begin_pass();
  last_loss_ = 0.0F;
  const core::ExecutionResult result =
      executor_.run(runner_, schedule_, x, loss_grad, *store_, hooks_);
  optimizer_->step();

  StepStats stats;
  stats.loss = last_loss_;
  stats.peak_bytes = result.peak_tracked_bytes -
                     std::min(result.peak_tracked_bytes, result.baseline_bytes);
  stats.advances = result.stats.advances;
  return stats;
}

}  // namespace edgetrain::nn
