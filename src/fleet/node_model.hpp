// edgetrain: one simulated Waggle node of the fleet.
//
// A FleetNode is the compact state machine the discrete-event engine
// drives: it trains inside the idle windows of a shared duty-cycle
// profile (edge::PeriodicIdleProfile), snapshots on the persist cadence
// (every N steps plus a suspend at each sync boundary), wears out its SD
// card one snapshot write at a time, browns out on a per-node exponential
// failure clock, and recovers by falling back to its newest durable
// snapshot generation -- exactly the crash/resume semantics
// persist::SnapshotManager implements for a real node, replayed in
// closed form:
//
//   * durable step = last multiple of snapshot_every_steps that reached
//     the card (suspend snapshots land on the current step);
//   * a crash mid-write tears the newest generation with some
//     probability, falling back one more generation (keep = 2);
//   * a worn-out card stops accepting writes: the durable step freezes
//     and every crash afterwards loses all progress since.
//
// Step cost is priced in calibrated microseconds (calib::DeviceModel) by
// the fleet config, not wall-clock; the node only sees step_seconds.
// All randomness comes from the node's own splitmix64 stream (8 bytes of
// state -- a node must stay small enough that a million of them fit in
// RAM), drawn in event order, so per-node trajectories are independent of
// how the fleet is partitioned across driver threads.
#pragma once

#include <cstdint>

#include "edge/scheduler.hpp"
#include "fleet/delta.hpp"
#include "insitu/student.hpp"

namespace edgetrain::fleet {

struct NodeParams {
  /// One training step, seconds (from calib::DeviceModel pricing).
  double step_seconds = 0.5;
  /// Offset into the shared duty-cycle profile.
  double phase_seconds = 0.0;
  /// Mean time between power failures (exponential), seconds.
  double mtbf_seconds = 6.0 * 3600.0;
  double repair_seconds = 120.0;
  /// P(newest snapshot generation is torn | crash).
  double torn_snapshot_probability = 0.1;
  std::uint64_t snapshot_every_steps = 25;
  /// Snapshot writes the SD card survives before going read-only.
  std::uint64_t sd_endurance_writes = 100000;
  const edge::PeriodicIdleProfile* profile = nullptr;
  insitu::StudentConvergenceModel convergence;
};

class FleetNode {
 public:
  FleetNode(std::uint32_t id, const NodeParams& params, std::uint64_t seed);

  /// Trains through the duty profile over virtual [from, to) seconds:
  /// whole steps only, fractional window time carried forward. Also
  /// writes the periodic every-N snapshots that cadence implies (wear).
  /// Returns steps completed.
  std::uint64_t advance(double from_seconds, double to_seconds);

  /// Sync boundary: suspend-snapshot (one more SD write) and emit the
  /// interval's delta. @p now_seconds is the boundary's virtual time.
  [[nodiscard]] StudentDelta sync(double now_seconds);

  /// Power failure: roll back to the newest durable snapshot generation
  /// (possibly torn -> one generation further). Node is down afterwards.
  void crash(double now_seconds);

  /// Power restored.
  void recover(double now_seconds);

  /// Draws the node's next time-to-failure, seconds from now
  /// (exponential with the node's MTBF).
  [[nodiscard]] double draw_time_to_failure();

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] bool down() const noexcept { return down_; }
  [[nodiscard]] bool worn_out() const noexcept { return worn_out_; }
  [[nodiscard]] std::uint64_t steps_done() const noexcept {
    return steps_done_;
  }
  [[nodiscard]] std::uint64_t steps_wasted() const noexcept {
    return steps_wasted_;
  }
  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_;
  }
  [[nodiscard]] std::uint64_t torn_snapshots() const noexcept {
    return torn_snapshots_;
  }
  [[nodiscard]] std::uint64_t sd_writes() const noexcept { return sd_writes_; }
  [[nodiscard]] std::uint64_t deltas_emitted() const noexcept {
    return deltas_emitted_;
  }
  [[nodiscard]] double accuracy() const {
    return params_.convergence.accuracy(static_cast<double>(steps_done_));
  }
  [[nodiscard]] bool converged() const {
    return params_.convergence.converged(static_cast<double>(steps_done_));
  }
  [[nodiscard]] const NodeParams& params() const noexcept { return params_; }

  /// Folds the node's observable state into a rolling CRC (replay tests
  /// compare fleet fingerprints; accumulation order is the caller's).
  [[nodiscard]] std::uint32_t fold_state(std::uint32_t crc_state) const;

 private:
  /// Records @p writes snapshot writes whose newest generation persists
  /// @p durable_step; advances the two-generation ring, applies SD wear.
  void count_snapshot_writes(std::uint64_t writes, std::uint64_t durable_step);

  std::uint32_t id_;
  NodeParams params_;
  std::uint64_t rng_state_;

  bool down_ = false;
  bool worn_out_ = false;
  double carry_seconds_ = 0.0;  ///< sub-step window time carried forward
  std::uint64_t steps_done_ = 0;
  std::uint64_t steps_at_last_sync_ = 0;
  std::uint64_t last_durable_step_ = 0;  ///< newest committed generation
  std::uint64_t prev_durable_step_ = 0;  ///< fallback generation (keep = 2)
  std::uint64_t periodic_snapshots_ = 0; ///< every-N writes already counted
  std::uint64_t sd_writes_ = 0;
  std::uint64_t steps_wasted_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t torn_snapshots_ = 0;
  std::uint64_t deltas_emitted_ = 0;
};

}  // namespace edgetrain::fleet
