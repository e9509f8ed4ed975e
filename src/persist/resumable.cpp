#include "persist/resumable.hpp"

#include <sstream>
#include <utility>

#include "nn/serialize.hpp"
#include "persist/wire.hpp"

namespace edgetrain::persist {

std::vector<std::uint8_t> encode_optimizer_state(nn::Optimizer& optimizer) {
  const nn::OptimizerState state = optimizer.mutable_state();
  ByteWriter out;
  out.u8(state.step_counter != nullptr ? 1 : 0);
  if (state.step_counter != nullptr) out.i64(*state.step_counter);
  out.u32(static_cast<std::uint32_t>(state.tensors.size()));
  for (const Tensor* tensor : state.tensors) {
    out.u64(static_cast<std::uint64_t>(tensor->numel()));
    out.raw(tensor->data(), tensor->bytes());
  }
  return out.take();
}

void decode_optimizer_state(nn::Optimizer& optimizer,
                            const std::vector<std::uint8_t>& bytes) {
  const nn::OptimizerState state = optimizer.mutable_state();
  try {
    ByteReader in(bytes);
    const bool has_counter = in.u8() != 0;
    if (has_counter != (state.step_counter != nullptr)) {
      throw SnapshotError("optimizer step-counter presence mismatch");
    }
    std::int64_t counter = 0;
    if (has_counter) counter = in.i64();
    const std::uint32_t count = in.u32();
    if (count != state.tensors.size()) {
      throw SnapshotError("optimizer tensor count mismatch (blob " +
                          std::to_string(count) + ", live " +
                          std::to_string(state.tensors.size()) + ")");
    }
    // Validate every size before mutating anything: a mismatched blob must
    // never leave the optimizer half restored.
    std::size_t offset_check = in.position();
    ByteReader probe(bytes.data() + offset_check, bytes.size() - offset_check);
    for (const Tensor* tensor : state.tensors) {
      const std::uint64_t numel = probe.u64();
      if (numel != static_cast<std::uint64_t>(tensor->numel())) {
        throw SnapshotError("optimizer tensor size mismatch");
      }
      probe.skip(static_cast<std::size_t>(numel) * sizeof(float));
    }
    for (Tensor* tensor : state.tensors) {
      (void)in.u64();
      in.raw(tensor->data(), tensor->bytes());
    }
    if (!in.exhausted()) throw SnapshotError("optimizer blob trailing bytes");
    if (state.step_counter != nullptr) *state.step_counter = counter;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::runtime_error& error) {
    throw SnapshotError(std::string("malformed optimizer blob: ") +
                        error.what());
  }
}

ResumableTrainer::ResumableTrainer(nn::LayerChain& chain,
                                   core::Schedule schedule,
                                   std::unique_ptr<nn::Optimizer> optimizer,
                                   const ResumableOptions& options,
                                   FaultInjector* fault,
                                   std::unique_ptr<core::SlotStore> store)
    : chain_(chain),
      options_(options),
      fault_(fault),
      manager_(options.snapshot_dir, options.keep_snapshots),
      trainer_(chain, std::move(schedule), std::move(optimizer),
               std::move(store)),
      data_rng_(options.data_seed) {
  if (fault_ != nullptr) {
    core::ExecutorHooks hooks;
    hooks.on_action = [this](std::int64_t index, const core::Action&) {
      try {
        fault_->on_action(index);
      } catch (...) {
        last_aborted_action_ = index;
        throw;
      }
    };
    trainer_.set_hooks(std::move(hooks));
  }
}

bool ResumableTrainer::resume() {
  const std::optional<TrainerState> state = manager_.load_latest();
  if (!state.has_value()) return false;
  restore(*state);
  return true;
}

nn::StepStats ResumableTrainer::step(const BatchFn& make_batch) {
  if (fault_ != nullptr) fault_->on_step(step_);
  const LabeledBatch batch = make_batch(data_rng_, cursor_);
  ++cursor_;
  const nn::StepStats stats = trainer_.step(batch.x, batch.labels);
  ++step_;
  if (options_.snapshot_every > 0 && step_ % options_.snapshot_every == 0) {
    suspend();
  }
  return stats;
}

void ResumableTrainer::suspend() {
  manager_.write(capture(), fault_);
  ++snapshots_written_;
}

TrainerState ResumableTrainer::capture() {
  TrainerState state;
  state.step = step_;
  state.data_cursor = cursor_;
  state.pass_token = trainer_.pass_token();
  state.in_flight_action = last_aborted_action_;
  std::ostringstream stream;
  stream << data_rng_;
  state.rng_state = stream.str();
  state.model = nn::serialize_weights(chain_);
  state.optimizer = encode_optimizer_state(trainer_.optimizer());
  state.buffers = nn::serialize_buffers(chain_);
  return state;
}

void ResumableTrainer::restore(const TrainerState& state) {
  try {
    nn::deserialize_weights(chain_, state.model);
    nn::deserialize_buffers(chain_, state.buffers);
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::runtime_error& error) {
    throw SnapshotError(std::string("model restore failed: ") + error.what());
  }
  decode_optimizer_state(trainer_.optimizer(), state.optimizer);
  std::istringstream stream(state.rng_state);
  stream >> data_rng_;
  if (stream.fail()) throw SnapshotError("bad RNG stream state");
  step_ = state.step;
  cursor_ = state.data_cursor;
  trainer_.set_pass_token(state.pass_token);
}

}  // namespace edgetrain::persist
