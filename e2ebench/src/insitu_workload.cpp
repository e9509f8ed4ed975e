// e2ebench: the in-situ duty-cycle workload (paper Section III).
//
// Set-up trains the cloud-side teacher on canonical-viewpoint patches,
// builds the harvester (int8 teacher labelling) and the student, and warms
// the loop up until the quantized teacher is calibrated. One duty cycle
// then harvests a fixed number of camera frames (generated before the cycle
// clock starts), draws a fixed number of training samples from everything
// harvested so far, and trains the student on them through a Revolve
// schedule with 2 free slots. Every cycle therefore costs the same.
//
// The student is evaluated once, after a fixed number of cycles, on a
// viewpoint-binned set derived from the seed, so its accuracy does not
// depend on how many cycles the time budget allows.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "bench.hpp"
#include "calib/calibrate.hpp"
#include "insitu/harvester.hpp"
#include "insitu/scene.hpp"
#include "insitu/teacher.hpp"
#include "tensor/alloc.hpp"
#include "tensor/parallel.hpp"

namespace e2ebench {
namespace {

using namespace edgetrain;
using namespace edgetrain::insitu;

constexpr unsigned kThreads = 1;
constexpr int kPatch = 24;
constexpr int kClasses = 4;
constexpr std::int64_t kChannels = 8;
constexpr int kTeacherPerClass = 150;
constexpr int kTeacherEpochs = 8;
constexpr int kFramesPerCycle = 200;
constexpr int kSamplesPerCycle = 512;
constexpr int kStudentBatch = 16;
constexpr int kStudentFreeSlots = 2;
constexpr int kWarmupFrames = 200;
constexpr int kSetupRepeats = 5;
/// student_acc is measured after exactly this many cycles.
constexpr std::size_t kAccuracyCycles = 20;
constexpr std::size_t kMinTimedCycles = 20;
constexpr int kEvalBins = 6;
constexpr int kEvalPerClassPerBin = 20;

SceneConfig scene_config(std::uint32_t seed) {
  SceneConfig scene;
  scene.frame_width = 128;
  scene.frame_height = 44;
  scene.object_size = 16;
  scene.num_classes = kClasses;
  scene.speed = 5.0F;
  scene.max_skew = 0.85F;
  scene.seed = seed;
  return scene;
}

/// One viewpoint bin of the evaluation set.
std::vector<PatchDataset> make_eval_bins(std::uint32_t seed) {
  SceneSimulator sim(scene_config(seed ^ 0xe7a1U));
  const auto width = static_cast<float>(sim.config().frame_width);
  std::vector<PatchDataset> bins;
  for (int bin = 0; bin < kEvalBins; ++bin) {
    const float x = width * (static_cast<float>(bin) + 0.5F) /
                    static_cast<float>(kEvalBins);
    PatchDataset data(kPatch);
    for (std::int32_t label = 0; label < kClasses; ++label) {
      for (int i = 0; i < kEvalPerClassPerBin; ++i) {
        data.add(sim.skewed_patch(label, x, kPatch), label);
      }
    }
    bins.push_back(std::move(data));
  }
  return bins;
}

TrainOptions student_options() {
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = kStudentBatch;
  options.checkpoint_free_slots = kStudentFreeSlots;
  return options;
}

/// Everything one set-up builds. Not movable: the harvester holds the
/// teacher by reference.
struct Node {
  explicit Node(std::uint32_t seed)
      : sim(scene_config(seed)), sample_rng(seed ^ 0x5a3fU) {}

  SceneSimulator sim;
  std::optional<PatchClassifier> teacher;
  std::optional<PatchClassifier> student;
  std::unique_ptr<Harvester> harvester;
  std::mt19937 sample_rng;
  double build_ms = 0.0;

  std::vector<Frame> frames(int count) {
    std::vector<Frame> out;
    for (int i = 0; i < count; ++i) out.push_back(sim.next_frame());
    return out;
  }

  /// A fixed-size training set drawn (with replacement) from everything
  /// harvested so far.
  PatchDataset training_sample() {
    const PatchDataset& harvested = harvester->dataset();
    std::uniform_int_distribution<std::size_t> pick(0, harvested.size() - 1);
    std::vector<std::size_t> indices(kSamplesPerCycle);
    for (std::size_t& i : indices) i = pick(sample_rng);
    const Tensor pixels = harvested.gather(indices);
    const std::vector<std::int32_t> labels = harvested.gather_labels(indices);
    const auto row = static_cast<std::size_t>(kPatch * kPatch);
    PatchDataset sample(kPatch);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const float* begin = pixels.data() + i * row;
      sample.add(std::vector<float>(begin, begin + row), labels[i]);
    }
    return sample;
  }
};

std::unique_ptr<Node> set_up(std::uint32_t seed) {
  auto node = std::make_unique<Node>(seed);
  const auto build_start = Clock::now();
  node->teacher.emplace(kPatch, kClasses, kChannels, seed);
  node->student.emplace(kPatch, kClasses, kChannels, seed + 1);
  node->build_ms = ms_since(build_start);

  PatchDataset canonical(kPatch);
  for (std::int32_t label = 0; label < kClasses; ++label) {
    for (int i = 0; i < kTeacherPerClass; ++i) {
      canonical.add(node->sim.canonical_patch(label, kPatch), label);
    }
  }
  TrainOptions teacher_options;
  teacher_options.epochs = kTeacherEpochs;
  (void)node->teacher->train(canonical, teacher_options);

  HarvestConfig harvest;
  harvest.patch = kPatch;
  harvest.teacher_confidence = 0.8F;
  harvest.teacher_precision = TeacherPrecision::Int8;
  node->harvester = std::make_unique<Harvester>(*node->teacher, harvest);

  // Warm-up: enough frames for the int8 teacher to be calibrated and the
  // dataset to be non-empty, then one student round.
  for (const Frame& frame : node->frames(kWarmupFrames)) {
    node->harvester->consume(frame);
  }
  if (!node->harvester->dataset().empty()) {
    (void)node->student->train(node->training_sample(), student_options());
  }
  return node;
}

double student_accuracy(PatchClassifier& student,
                        const std::vector<PatchDataset>& bins) {
  double total = 0.0;
  for (const PatchDataset& bin : bins) total += student.evaluate(bin);
  return total / static_cast<double>(bins.size());
}

struct CycleRecord {
  double harvest_ms = 0.0;
  double train_ms = 0.0;
  double cycle_ms = 0.0;
  double ref_ms = 0.0;
};

}  // namespace

Result run_insitu_workload(const Options& options) {
  ThreadPool::set_global_threads(kThreads);
  const std::vector<PatchDataset> eval_bins = make_eval_bins(options.seed);

  Result result;
  result.threads = kThreads;

  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::unique_ptr<Node> node;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    node.reset();
    const auto start = Clock::now();
    node = set_up(options.seed);
    setup_s.push_back(ms_since(start) * 1e-3);
    build_ms.push_back(node->build_ms);
  }

  const TrainOptions train_options = student_options();
  const double steps_per_cycle = kSamplesPerCycle / kStudentBatch;
  const HarvestStats before = node->harvester->stats();
  std::vector<CycleRecord> untraced;
  std::vector<CycleRecord> traced;
  std::int64_t traced_advances = 0;
  std::size_t act_peak_bytes = 0;
  std::optional<double> accuracy;
  MemoryTracker::instance().reset_peak();
  const auto start = Clock::now();
  for (std::size_t cycle = 0;; ++cycle) {
    const std::size_t min_each =
        options.trace ? kMinTimedCycles / 2 : kMinTimedCycles;
    if (cycle >= kAccuracyCycles && untraced.size() >= min_each &&
        (!options.trace || traced.size() >= min_each) &&
        ms_since(start) >= options.seconds * 1e3) {
      break;
    }
    const bool is_traced = options.trace && cycle % 2 == 1;
    const std::vector<Frame> frames = node->frames(kFramesPerCycle);

    CycleRecord record;
    const auto cycle_start = Clock::now();
    if (is_traced) {
      const auto harvest_start = Clock::now();
      for (const Frame& frame : frames) node->harvester->consume(frame);
      record.harvest_ms = ms_since(harvest_start);
    } else {
      for (const Frame& frame : frames) node->harvester->consume(frame);
    }
    ++result.attempted;
    if (node->harvester->dataset().empty()) {
      ++result.failed;
      continue;
    }
    const PatchDataset sample = node->training_sample();
    const auto train_start = Clock::now();
    const TrainStats stats = node->student->train(sample, train_options);
    record.train_ms = ms_since(train_start);
    record.cycle_ms = ms_since(cycle_start);

    if (!std::isfinite(stats.final_loss())) ++result.failed;
    if (is_traced) {
      traced_advances += stats.total_advances;
      traced.push_back(record);
    } else {
      act_peak_bytes = std::max(act_peak_bytes, stats.peak_step_bytes);
      // As for the step workloads: the traced mode reports no ratios.
      if (!options.trace) record.ref_ms = reference_ms();
      untraced.push_back(record);
    }
    if (cycle + 1 == kAccuracyCycles) {
      accuracy = student_accuracy(*node->student, eval_bins);
    }
  }
  const double peak_mib =
      static_cast<double>(MemoryTracker::instance().total_peak_bytes()) / kMiB;
  // A student accuracy that was not computed fails the run.
  ++result.attempted;
  if (!accuracy || !std::isfinite(*accuracy)) ++result.failed;

  std::vector<double> cycle_ms;
  std::vector<double> step_ms;
  std::vector<double> ref_ms;
  double train_total_ms = 0.0;
  for (const CycleRecord& r : untraced) {
    cycle_ms.push_back(r.cycle_ms);
    step_ms.push_back(r.train_ms / steps_per_cycle);
    ref_ms.push_back(r.ref_ms);
    train_total_ms += r.train_ms;
  }
  result.timed_samples = static_cast<std::int64_t>(untraced.size());
  const double cycles = static_cast<double>(untraced.size());

  if (!options.trace) {
    // Printed with the run, gated only by the correctness check above.
    result.set("insitu.student_acc", accuracy.value_or(0.0));
    result.set("step_ref_p50", median_ratio(step_ms, ref_ms));
    result.set("cycle_ref_p50", median_ratio(cycle_ms, ref_ms));
    result.set("ref_ms_p50", median(ref_ms));
    result.set("samples_per_s",
               cycles * kSamplesPerCycle / (train_total_ms * 1e-3));
    result.set("step_ms_p50", median(step_ms));
    result.set("step_ms_p90", tail(step_ms, &result.tail_percentile));
    result.set("cycle_ms_p50", median(cycle_ms));
    result.set("cycle_ms_p90", tail(cycle_ms, &result.tail_percentile));
    result.set("frames_per_s",
               cycles * kFramesPerCycle / (sum(cycle_ms) * 1e-3));
    result.set("peak_mib", peak_mib);
    result.set("act_peak_mib", static_cast<double>(act_peak_bytes) / kMiB);
    result.set("setup_s", median(setup_s));
    return result;
  }

  // Per-layer metrics: harvest/train spans of the traced cycles, harvest
  // counters per cycle over the whole timed region.
  std::vector<double> harvest_ms;
  std::vector<double> train_ms;
  std::vector<double> traced_cycle_ms;
  for (const CycleRecord& r : traced) {
    harvest_ms.push_back(r.harvest_ms);
    train_ms.push_back(r.train_ms);
    traced_cycle_ms.push_back(r.cycle_ms);
  }
  const HarvestStats after = node->harvester->stats();
  const double all_cycles = static_cast<double>(untraced.size() + traced.size());
  auto per_cycle = [all_cycles](std::int64_t total) {
    return static_cast<double>(total) / all_cycles;
  };
  result.set("insitu.harvest_ms", median(harvest_ms));
  result.set("insitu.train_ms", median(train_ms));
  result.set("insitu.teacher_queries",
             per_cycle(after.teacher_queries - before.teacher_queries));
  result.set("insitu.quantized_queries",
             per_cycle(after.quantized_queries - before.quantized_queries));
  result.set("insitu.images_harvested",
             per_cycle(after.images_harvested - before.images_harvested));
  result.set("insitu.label_purity", after.label_purity);
  result.set("insitu.train_advances",
             static_cast<double>(traced_advances) /
                 static_cast<double>(traced.size()));
  result.set("insitu.student_acc", accuracy.value_or(0.0));
  result.set("models.build_ms", median(build_ms));
  result.set("bench.trace_overhead_frac",
             median(traced_cycle_ms) / median(cycle_ms) - 1.0);
  result.set("bench.timed_samples", cycles);

  calib::CalibrationOptions calibration = calib::quick_calibration();
  calibration.thread_counts = {static_cast<int>(kThreads)};
  calibration.scratch_dir = options.scratch_dir + "/calib";
  const calib::DeviceModel device = calib::calibrate(calibration);
  result.set("calib.conv_gflops", device.conv_gflops_at(kThreads));
  result.set("calib.gemm_gflops", device.gemm_gflops_at(kThreads));
  result.set("calib.memcpy_gbps", device.memcpy_bytes_per_sec * 1e-9);
  return result;
}

}  // namespace e2ebench
