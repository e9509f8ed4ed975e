#include "insitu/student.hpp"

#include <cmath>
#include <limits>

namespace edgetrain::insitu {

ViewpointExperimentResult run_viewpoint_experiment(
    const ViewpointExperimentConfig& config) {
  ViewpointExperimentResult result;

  // 1. Cloud-side teacher: canonical-viewpoint training set.
  SceneSimulator sim(config.scene);
  const PatchDataset teacher_data = canonical_set(
      sim, config.teacher_examples_per_class, config.harvest.patch);
  PatchClassifier teacher(config.harvest.patch, config.scene.num_classes,
                          config.classifier_channels, config.seed);
  result.teacher_train = teacher.train(teacher_data, config.teacher_train);

  // 2. In-situ harvesting from the simulated camera stream.
  Harvester harvester(teacher, config.harvest);
  for (std::int64_t f = 0; f < config.stream_frames; ++f) {
    harvester.consume(sim.next_frame());
  }
  harvester.finish();
  result.harvest = harvester.stats();
  result.dataset_size = harvester.dataset().size();

  // 3. On-node student training (checkpointed; Section VI machinery).
  const std::int64_t student_channels = config.student_channels > 0
                                            ? config.student_channels
                                            : config.classifier_channels;
  PatchClassifier student(config.harvest.patch, config.scene.num_classes,
                          student_channels, config.seed + 1);
  if (!harvester.dataset().empty()) {
    result.student_train =
        student.train(harvester.dataset(), config.student_train,
                      config.distill_student ? &teacher : nullptr);
  }

  // 4. Accuracy across viewpoint bins.
  double teacher_sum = 0.0;
  double student_sum = 0.0;
  for (int bin = 0; bin < config.eval_bins; ++bin) {
    const float x = viewpoint_bin_center(config.scene, bin, config.eval_bins);
    const PatchDataset eval_data = viewpoint_bin_set(
        sim, x, config.eval_per_class_per_bin, config.harvest.patch);
    BinAccuracy accuracy;
    accuracy.x_center = x;
    accuracy.skew = sim.skew_at(x);
    accuracy.teacher_accuracy = teacher.evaluate(eval_data);
    accuracy.student_accuracy =
        harvester.dataset().empty() ? 0.0 : student.evaluate(eval_data);
    teacher_sum += accuracy.teacher_accuracy;
    student_sum += accuracy.student_accuracy;
    result.bins.push_back(accuracy);
  }
  result.teacher_overall = teacher_sum / config.eval_bins;
  result.student_overall = student_sum / config.eval_bins;
  return result;
}

PatchDataset canonical_set(SceneSimulator& sim, int per_class, int patch) {
  PatchDataset data(patch);
  for (std::int32_t label = 0; label < sim.config().num_classes; ++label) {
    for (int i = 0; i < per_class; ++i) {
      data.add(sim.canonical_patch(label, patch), label);
    }
  }
  return data;
}

float viewpoint_bin_center(const SceneConfig& scene, int bin, int bins) {
  const float width = static_cast<float>(scene.frame_width);
  return width * (static_cast<float>(bin) + 0.5F) / static_cast<float>(bins);
}

PatchDataset viewpoint_bin_set(SceneSimulator& sim, float x, int per_class,
                               int patch) {
  PatchDataset data(patch);
  for (std::int32_t label = 0; label < sim.config().num_classes; ++label) {
    for (int i = 0; i < per_class; ++i) {
      data.add(sim.skewed_patch(label, x, patch), label);
    }
  }
  return data;
}

double StudentConvergenceModel::accuracy(double steps) const {
  if (steps <= 0.0 || tau_steps <= 0.0) return baseline;
  return ceiling - (ceiling - baseline) * std::exp(-steps / tau_steps);
}

double StudentConvergenceModel::steps_to_reach(double target) const {
  if (target <= baseline) return 0.0;
  if (target >= ceiling) return std::numeric_limits<double>::infinity();
  return -tau_steps * std::log((ceiling - target) / (ceiling - baseline));
}

bool StudentConvergenceModel::converged(double steps, double fraction) const {
  return accuracy(steps) >= baseline + fraction * (ceiling - baseline);
}

}  // namespace edgetrain::insitu
