// edgetrain: the end-to-end viewpoint experiment (paper Section III).
//
// 1. Train a teacher on canonical-viewpoint patches (the cloud model).
// 2. Stream simulated camera frames through the harvester: the teacher
//    confidently recognises objects only near the canonical (right) edge;
//    the tracker back-labels their skewed earlier sightings.
// 3. Train a student on the harvested dataset *on the node*, through a
//    Revolve checkpointing schedule (the Section VI machinery).
// 4. Evaluate both models across viewpoint-skew bins: the student should
//    match the teacher at the canonical edge and beat it off-angle.
#pragma once

#include <cstdint>
#include <vector>

#include "insitu/harvester.hpp"
#include "insitu/scene.hpp"
#include "insitu/teacher.hpp"

namespace edgetrain::insitu {

struct ViewpointExperimentConfig {
  SceneConfig scene;
  HarvestConfig harvest;
  TrainOptions teacher_train{.epochs = 10, .batch_size = 16, .lr = 0.05F,
                             .momentum = 0.9F, .checkpoint_free_slots = -1};
  TrainOptions student_train{.epochs = 10, .batch_size = 16, .lr = 0.05F,
                             .momentum = 0.9F, .checkpoint_free_slots = 2};
  int teacher_examples_per_class = 150;
  std::int64_t stream_frames = 1500;
  int eval_bins = 6;             ///< viewpoint bins across the frame width
  int eval_per_class_per_bin = 25;
  std::int64_t classifier_channels = 8;
  /// Student width; 0 = same as the teacher. A narrower student plus
  /// distillation reproduces the Moonshine-style compression the paper
  /// cites ([7]).
  std::int64_t student_channels = 0;
  /// Mix the teacher's soft predictions into the student loss.
  bool distill_student = false;
  std::uint32_t seed = 7;
};

struct BinAccuracy {
  float x_center = 0.0F;   ///< horizontal position of the bin
  float skew = 0.0F;       ///< viewpoint skew at that position
  double teacher_accuracy = 0.0;
  double student_accuracy = 0.0;
};

struct ViewpointExperimentResult {
  HarvestStats harvest;
  std::vector<BinAccuracy> bins;
  double teacher_overall = 0.0;
  double student_overall = 0.0;
  TrainStats teacher_train;
  TrainStats student_train;
  std::size_t dataset_size = 0;
};

/// Runs the full pipeline; deterministic for a fixed config.
[[nodiscard]] ViewpointExperimentResult run_viewpoint_experiment(
    const ViewpointExperimentConfig& config);

/// The cloud teacher's training set: @p per_class canonical-viewpoint
/// patches of every class, drawn from @p sim class by class.
[[nodiscard]] PatchDataset canonical_set(SceneSimulator& sim, int per_class,
                                         int patch);

/// Horizontal centre of viewpoint bin @p bin when the frame width is cut
/// into @p bins equal bins.
[[nodiscard]] float viewpoint_bin_center(const SceneConfig& scene, int bin,
                                         int bins);

/// Evaluation set of one viewpoint bin: @p per_class patches of every
/// class seen at horizontal position @p x, drawn from @p sim class by
/// class.
[[nodiscard]] PatchDataset viewpoint_bin_set(SceneSimulator& sim, float x,
                                             int per_class, int patch);

/// Compact saturating-accuracy proxy for a node's student, for fleet-scale
/// simulation (NeuroFlux, PAPERS.md: per-node student convergence is the
/// fleet-level metric).
///
/// Running run_viewpoint_experiment for 10^5 nodes is out of the question;
/// what a fleet simulator needs is the *shape* of its training curve: the
/// student starts at the teacher's off-angle accuracy, rises roughly
/// exponentially as harvested local data accumulates, and saturates at a
/// ceiling set by label purity and model capacity. That is the standard
/// three-parameter saturating exponential:
///
///   accuracy(s) = ceiling - (ceiling - baseline) * exp(-s / tau_steps)
///
/// The defaults are eyeballed from the aot_fleet_sim trajectories (student
/// 0.55 -> ~0.9 of its ceiling inside a few hundred checkpointed steps);
/// a fleet config can re-fit them per deployment.
struct StudentConvergenceModel {
  double baseline = 0.55;   ///< accuracy before any in-situ training
  double ceiling = 0.92;    ///< asymptote (label purity + capacity bound)
  double tau_steps = 400.0; ///< steps to close ~63% of the remaining gap

  /// Predicted accuracy after @p steps optimisation steps (monotone,
  /// baseline at 0, asymptotically ceiling).
  [[nodiscard]] double accuracy(double steps) const;

  /// Inverse: steps needed to reach @p target accuracy. Returns infinity
  /// for targets at or above the ceiling, 0 below the baseline.
  [[nodiscard]] double steps_to_reach(double target) const;

  /// True once @p steps has closed @p fraction of the baseline->ceiling
  /// gap (the fleet's "node converged" predicate).
  [[nodiscard]] bool converged(double steps, double fraction = 0.95) const;
};

}  // namespace edgetrain::insitu
