#include "fleet/node_model.hpp"

#include <algorithm>
#include <cmath>

#include "persist/crc32.hpp"
#include "tensor/splitmix64.hpp"

namespace edgetrain::fleet {

FleetNode::FleetNode(std::uint32_t id, const NodeParams& params,
                     std::uint64_t seed)
    : id_(id), params_(params), rng_state_(seed) {}

double FleetNode::draw_time_to_failure() {
  return -params_.mtbf_seconds * std::log(splitmix64_uniform01(rng_state_));
}

void FleetNode::count_snapshot_writes(std::uint64_t writes,
                                      std::uint64_t durable_step) {
  if (worn_out_ || writes == 0) return;
  sd_writes_ += writes;
  // The generation ring (persist::SnapshotManager keep=2): the batch's
  // newest write becomes generation 0, what was newest becomes the
  // fallback.
  prev_durable_step_ = last_durable_step_;
  last_durable_step_ = std::max(last_durable_step_, durable_step);
  if (sd_writes_ >= params_.sd_endurance_writes) {
    // Card is read-only from here: the durable generations freeze and
    // every later crash loses all progress past them.
    worn_out_ = true;
  }
}

std::uint64_t FleetNode::advance(double from_seconds, double to_seconds) {
  if (down_ || to_seconds <= from_seconds || params_.profile == nullptr) {
    return 0;
  }
  carry_seconds_ += params_.profile->training_seconds(
      from_seconds, to_seconds, params_.phase_seconds);
  const auto steps =
      static_cast<std::uint64_t>(carry_seconds_ / params_.step_seconds);
  carry_seconds_ -= static_cast<double>(steps) * params_.step_seconds;
  steps_done_ += steps;

  // Periodic every-N snapshots the ResumableTrainer cadence implies.
  const std::uint64_t n = std::max<std::uint64_t>(
      params_.snapshot_every_steps, 1);
  const std::uint64_t cadence_total = steps_done_ / n;
  if (cadence_total > periodic_snapshots_) {
    count_snapshot_writes(cadence_total - periodic_snapshots_,
                          cadence_total * n);
    periodic_snapshots_ = cadence_total;
  }
  return steps;
}

StudentDelta FleetNode::sync(double /*now_seconds*/) {
  // Suspend at the window close: one more durable generation holding the
  // exact current step (unless the card is worn out).
  count_snapshot_writes(1, steps_done_);

  StudentDelta delta;
  delta.node = id_;
  delta.seq = ++deltas_emitted_;
  // Steps the server has not seen yet. After a crash rollback the counter
  // can sit below the high-water mark; those recomputed steps were already
  // uploaded once and must not be double-counted.
  if (steps_done_ > steps_at_last_sync_) {
    delta.samples =
        static_cast<std::uint32_t>(steps_done_ - steps_at_last_sync_);
    steps_at_last_sync_ = steps_done_;
  }
  const double acc = accuracy();
  delta.loss_milli =
      static_cast<std::int32_t>(std::lround((1.0 - acc) * 1000.0));
  // Quantized pseudo-delta: update magnitude decays as the student
  // converges (the aggregate's shrinking norm is the fleet's convergence
  // signal on the server side).
  const double gap = params_.convergence.ceiling - params_.convergence.baseline;
  const double progress =
      gap > 0.0
          ? std::clamp((acc - params_.convergence.baseline) / gap, 0.0, 1.0)
          : 1.0;
  const double scale = 1000.0 * (1.0 - progress) + 1.0;
  for (std::size_t k = 0; k < kDeltaComponents; ++k) {
    const double u = 2.0 * splitmix64_uniform01(rng_state_) - 1.0;
    delta.weights[k] = static_cast<std::int32_t>(std::lround(u * scale));
  }
  return delta;
}

void FleetNode::crash(double /*now_seconds*/) {
  ++crashes_;
  down_ = true;
  std::uint64_t durable = last_durable_step_;
  if (splitmix64_uniform01(rng_state_) <
      params_.torn_snapshot_probability) {
    // The crash caught the newest generation mid-write: it fails CRC on
    // reboot and recovery falls back one generation.
    ++torn_snapshots_;
    durable = std::min(durable, prev_durable_step_);
  }
  durable = std::min(durable, steps_done_);
  steps_wasted_ += steps_done_ - durable;
  steps_done_ = durable;
  carry_seconds_ = 0.0;  // the in-flight step dies with the power
  const std::uint64_t n = std::max<std::uint64_t>(
      params_.snapshot_every_steps, 1);
  periodic_snapshots_ = steps_done_ / n;
}

void FleetNode::recover(double /*now_seconds*/) {
  down_ = false;
  ++recoveries_;
}

std::uint32_t FleetNode::fold_state(std::uint32_t crc_state) const {
  struct Record {
    std::uint64_t steps_done;
    std::uint64_t steps_wasted;
    std::uint64_t crashes;
    std::uint64_t recoveries;
    std::uint64_t torn;
    std::uint64_t sd_writes;
    std::uint64_t deltas;
    std::uint32_t flags;
    std::uint32_t id;
  } record{steps_done_,
           steps_wasted_,
           crashes_,
           recoveries_,
           torn_snapshots_,
           sd_writes_,
           deltas_emitted_,
           (down_ ? 1U : 0U) | (worn_out_ ? 2U : 0U),
           id_};
  return persist::crc32_update(crc_state, &record, sizeof(record));
}

}  // namespace edgetrain::fleet
