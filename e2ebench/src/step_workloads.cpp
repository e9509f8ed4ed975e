// e2ebench: the two ResNet-18 training-step workloads.
//
// One step is zero_grad -> ScheduleExecutor::run under a unit Revolve plan
// -> Optimizer::step on the executable ResNet-18 (14 chain steps). One
// duty cycle on these workloads is loading the next batch plus one step:
// the node has no camera work here, so a cycle is a step plus its input
// copy.
//
//   r18_revolve_ram  -- 112x112, batch 1, 3 free slots, RamSlotStore:
//                       recompute-bound, the store does ~no work.
//   r18_spill_bitmap -- 112x112, batch 4, 6 free slots, every slot past the
//                       input spilled through AsyncDiskSlotStore with the
//                       lossless Bitmap codec and an injected SD latency,
//                       plus the store's IO thread.
//
// Both run the pool at 1 thread. On a shared 4-vCPU host a 2-thread pool
// waits at every kernel for whichever thread a neighbour slowed: batch-1
// steps were no faster than at 1 thread (mean 220 ms against 198 ms), and
// the step tail moved by 35-45% between runs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/interp.hpp"
#include "bench.hpp"
#include "calib/calibrate.hpp"
#include "calib/chain_costs.hpp"
#include "core/async_slot_store.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "core/revolve.hpp"
#include "core/slot_store.hpp"
#include "models/resnet.hpp"
#include "nn/chain_runner.hpp"
#include "nn/optim.hpp"
#include "persist/io_latency.hpp"
#include "tensor/alloc.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "trace.hpp"

namespace e2ebench {
namespace {

using namespace edgetrain;

struct StepWorkload {
  const char* name;
  std::int64_t batch;
  int free_slots;
  /// Spill every slot past the input through the async Bitmap store, with
  /// kSpillLatencyUs injected per spill-file write and read.
  bool spill;
  unsigned threads;
};

constexpr StepWorkload kWorkloads[] = {
    {"r18_revolve_ram", 1, 3, false, 1},
    {"r18_spill_bitmap", 4, 6, true, 1},
};

constexpr int kImage = 112;
constexpr long kSpillLatencyUs = 1000;
constexpr int kClasses = 10;
constexpr int kInputPool = 4;  // distinct seed-derived batches, cycled
constexpr int kSetupRepeats = 5;
/// Untimed steps are never fewer than this, so step_ms_p90 has ten samples
/// above its rank; a traced run needs fewer of each kind.
constexpr std::size_t kMinTimedSteps = 30;
constexpr std::size_t kMinTracedSteps = 8;
constexpr float kLr = 0.01F;
constexpr float kMomentum = 0.9F;

const StepWorkload& find_workload(const std::string& name) {
  for (const StepWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown step workload " + name);
}

struct Batch {
  Tensor x;
  std::vector<std::int32_t> labels;
};

std::vector<Batch> make_inputs(const StepWorkload& w, std::uint32_t seed) {
  std::mt19937 rng(seed ^ 0x5eedU);
  std::uniform_int_distribution<std::int32_t> label(0, kClasses - 1);
  std::vector<Batch> inputs;
  for (int i = 0; i < kInputPool; ++i) {
    Batch b{Tensor::randn(Shape{w.batch, 3, kImage, kImage}, rng), {}};
    for (std::int64_t n = 0; n < w.batch; ++n) b.labels.push_back(label(rng));
    inputs.push_back(std::move(b));
  }
  return inputs;
}

/// Everything one set-up builds: the model, its plan, its slot store and
/// the optimizer.
struct Trainer {
  Trainer(const StepWorkload& w, std::uint32_t seed,
          const std::string& spill_dir) {
    std::mt19937 rng(seed);
    const auto start = Clock::now();
    chain = models::build_resnet_chain(models::ResNetVariant::ResNet18,
                                       kClasses, 3, rng);
    build_ms = ms_since(start);
    schedule = core::revolve::make_schedule(chain.size(), w.free_slots);
    if (w.spill) {
      std::filesystem::create_directories(spill_dir);
      core::AsyncDiskSlotStoreOptions options;
      options.codec = core::SlotCodec::Bitmap;
      store = std::make_unique<core::AsyncDiskSlotStore>(
          schedule.num_slots(), 1, spill_dir, options);
    } else {
      store = std::make_unique<core::RamSlotStore>(schedule.num_slots());
    }
    optimizer = std::make_unique<nn::SGD>(chain.params(), kLr, kMomentum);
    runner = std::make_unique<nn::LayerChainRunner>(chain);
  }

  nn::LayerChain chain;
  core::Schedule schedule;
  std::unique_ptr<core::SlotStore> store;
  std::unique_ptr<nn::SGD> optimizer;
  std::unique_ptr<nn::LayerChainRunner> runner;
  core::ScheduleExecutor executor;
  double build_ms = 0.0;
};

core::LossGradFn xent(const Batch& batch, float* loss) {
  return [&batch, loss](const Tensor& logits) {
    ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, batch.labels);
    *loss = r.loss;
    return ops::softmax_xent_backward(r.probs, batch.labels);
  };
}

struct StepOutcome {
  float loss = std::numeric_limits<float>::quiet_NaN();
  std::size_t act_peak_bytes = 0;
  double step_ms = 0.0;
};

/// One training step. With a record, the chain and the store run through
/// the tracing decorators and the optimizer is timed; without one, nothing
/// but the step itself is timed.
StepOutcome train_step(Trainer& t, const Batch& batch, StepRecord* record) {
  core::ChainRunner* runner = t.runner.get();
  core::SlotStore* store = t.store.get();
  std::optional<TracingRunner> traced_runner;
  std::optional<TracingStore> traced_store;
  if (record != nullptr) {
    runner = &traced_runner.emplace(*t.runner, *record);
    store = &traced_store.emplace(*t.store, *record);
  }
  StepOutcome out;
  const core::LossGradFn loss_grad = xent(batch, &out.loss);

  const auto start = Clock::now();
  t.optimizer->zero_grad();
  t.runner->begin_pass();
  const core::ExecutionResult r =
      t.executor.run(*runner, t.schedule, batch.x, loss_grad, *store);
  if (record != nullptr) {
    const auto optim_start = Clock::now();
    t.optimizer->step();
    record->optim_ms = ms_since(optim_start);
  } else {
    t.optimizer->step();
  }
  out.step_ms = ms_since(start);
  if (record != nullptr) record->step_ms = out.step_ms;
  out.act_peak_bytes =
      r.peak_tracked_bytes - std::min(r.peak_tracked_bytes, r.baseline_bytes);
  return out;
}

/// Runs one pass under the workload's plan and store and one full-storage
/// pass through a RamSlotStore on the same batch; true when every
/// parameter gradient is bit-identical (Revolve and the Bitmap codec are
/// both exact). Leaves the gradients zeroed and the weights untouched.
bool gradients_match_full_storage(Trainer& t, const Batch& batch) {
  float loss = 0.0F;
  const core::LossGradFn loss_grad = xent(batch, &loss);
  auto gradients = [&t] {
    std::vector<Tensor> grads;
    for (const nn::ParamRef& p : t.chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };
  t.optimizer->zero_grad();
  t.runner->begin_pass();
  (void)t.executor.run(*t.runner, t.schedule, batch.x, loss_grad, *t.store);
  const std::vector<Tensor> planned = gradients();
  t.optimizer->zero_grad();
  t.runner->begin_pass();
  (void)t.executor.run_full_storage(*t.runner, batch.x, loss_grad);
  const std::vector<Tensor> reference = gradients();
  t.optimizer->zero_grad();
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (planned[i].numel() != reference[i].numel() ||
        std::memcmp(planned[i].data(), reference[i].data(),
                    planned[i].bytes()) != 0) {
      return false;
    }
  }
  return !planned.empty();
}

/// Computed forward FLOPs per executable chain step: twice the ResNetSpec
/// multiply-accumulate count. The spec prices 10 steps (stem and head
/// fused) while the executable chain has 14 (stem split into
/// conv/bn/relu/maxpool, head into pool/linear), so the fused entries are
/// split here by the spec's own per-op convention.
std::vector<double> chain_step_flops(const Trainer& t, const StepWorkload& w,
                                     const Shape& input) {
  const models::ResNetSpec spec =
      models::ResNetSpec::make(models::ResNetVariant::ResNet18, kClasses, 3);
  const std::vector<double> macs =
      spec.chain_step_forward_costs(kImage, w.batch);
  std::vector<double> flops(static_cast<std::size_t>(t.chain.size()), 0.0);
  if (t.chain.size() != kChainSteps || macs.size() != 10) return flops;
  const std::vector<Shape> shapes = t.chain.shapes(input);
  auto numel = [&shapes](int i) {
    return static_cast<double>(shapes[static_cast<std::size_t>(i)].numel());
  };
  flops[1] = numel(2);        // batch norm: one op per output element
  flops[2] = numel(3);        // relu
  flops[3] = numel(4) * 9.0;  // 3x3 max pool
  flops[0] = macs[0] - flops[1] - flops[2] - flops[3];  // 7x7 stem conv
  for (int block = 1; block <= 8; ++block) {
    flops[static_cast<std::size_t>(block + 3)] =
        macs[static_cast<std::size_t>(block)];
  }
  flops[12] = numel(13);               // global average pool
  flops[13] = macs[9] - flops[12];     // classifier
  for (double& f : flops) f *= 2.0;
  return flops;
}

double mean_slot_ratio(const core::SlotStore& store, int num_slots) {
  double total = 0.0;
  for (int slot = 1; slot < num_slots; ++slot) {
    total += store.measured_slot_ratio(slot);
  }
  return num_slots > 1 ? total / (num_slots - 1) : 1.0;
}

/// Prediction rows of the traced run: the interpreter's step time over a
/// cost model calibrated on this host, and the planner's activation peak.
void report_predictions(Trainer& t, const StepWorkload& w, const Batch& batch,
                        const Options& options, double measured_step_ms,
                        double measured_act_peak_mib, Result& result) {
  calib::CalibrationOptions calibration = calib::quick_calibration();
  const auto threads = static_cast<int>(w.threads);
  calibration.thread_counts = {threads};
  calibration.scratch_dir = options.scratch_dir + "/calib";
  const calib::DeviceModel device = calib::calibrate(calibration);
  result.set("calib.conv_gflops", device.conv_gflops_at(threads));
  result.set("calib.gemm_gflops", device.gemm_gflops_at(threads));
  result.set("calib.memcpy_gbps", device.memcpy_bytes_per_sec * 1e-9);

  const calib::ChainCosts costs = calib::measure_chain(t.chain, batch.x);
  analysis::CostModel cost = calib::cost_model(
      costs, device, w.spill ? 1 : std::numeric_limits<std::int32_t>::max());
  cost.overlapped_io = w.spill;
  const double predicted_ms =
      analysis::interpret(t.schedule, cost).facts.total_cost() * 1e-3;
  result.set("analysis.pred_step_ms", predicted_ms);
  result.set("analysis.pred_ratio", measured_step_ms / predicted_ms);

  // The planner's model: peak = fixed + (1 + s * ratio) * act_bytes, with
  // fixed = 0 so it prices only what act_peak_mib measures.
  const core::MemoryPlanner planner(calib::measured_chain_spec(
      "resnet18", costs, 0.0,
      mean_slot_ratio(*t.store, t.schedule.num_slots())));
  const double predicted_mib =
      (1.0 + planner.weighted_slot_units(w.free_slots)) *
      planner.chain().activation_bytes_per_step / kMiB;
  result.set("analysis.pred_act_peak_mib", predicted_mib);
  result.set("analysis.act_peak_ratio", measured_act_peak_mib / predicted_mib);
}

}  // namespace

bool is_step_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&name](const StepWorkload& w) { return name == w.name; });
}

Result run_step_workload(const Options& options) {
  const StepWorkload& w = find_workload(options.workload);
  ThreadPool::set_global_threads(w.threads);
  persist::set_disk_latency_us(w.spill ? kSpillLatencyUs : 0);
  const std::string spill_dir = options.scratch_dir + "/spill";
  const std::vector<Batch> inputs = make_inputs(w, options.seed);

  Result result;
  result.threads = w.threads;

  // Set up several times (build, plan, store, one warm-up step); the last
  // trainer is the one measured.
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::unique_ptr<Trainer> t;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    t.reset();
    const auto start = Clock::now();
    t = std::make_unique<Trainer>(w, options.seed, spill_dir);
    (void)train_step(*t, inputs[0], nullptr);
    setup_s.push_back(ms_since(start) * 1e-3);
    build_ms.push_back(t->build_ms);
  }

  ++result.attempted;
  if (!gradients_match_full_storage(*t, inputs[1])) ++result.failed;

  auto* async_store = dynamic_cast<core::AsyncDiskSlotStore*>(t->store.get());
  std::int64_t prefetch_hits = 0;
  std::int64_t blocking_reads = 0;
  std::vector<double> step_ms;
  std::vector<double> cycle_ms;
  std::vector<double> ref_ms;
  std::vector<double> traced_step_ms;
  std::vector<StepRecord> records;
  std::size_t act_peak_bytes = 0;
  MemoryTracker::instance().reset_peak();
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool enough =
        options.trace ? step_ms.size() >= kMinTracedSteps &&
                            records.size() >= kMinTracedSteps
                      : step_ms.size() >= kMinTimedSteps;
    if (enough && ms_since(start) >= options.seconds * 1e3) break;
    const bool traced = options.trace && i % 2 == 1;
    const Batch& source = inputs[i % inputs.size()];

    const auto cycle_start = Clock::now();
    const Batch batch{source.x.clone(), source.labels};
    StepOutcome out;
    if (traced) {
      records.emplace_back(t->chain.size());
      const std::int64_t hits0 = async_store ? async_store->prefetch_hits() : 0;
      const std::int64_t blocking0 =
          async_store ? async_store->blocking_reads() : 0;
      out = train_step(*t, batch, &records.back());
      if (async_store != nullptr) {
        prefetch_hits += async_store->prefetch_hits() - hits0;
        blocking_reads += async_store->blocking_reads() - blocking0;
      }
    } else {
      out = train_step(*t, batch, nullptr);
    }
    ++result.attempted;
    if (!std::isfinite(out.loss)) ++result.failed;
    if (traced) {
      traced_step_ms.push_back(out.step_ms);
    } else {
      cycle_ms.push_back(ms_since(cycle_start));
      step_ms.push_back(out.step_ms);
      // Only the untraced mode reports the ratios; in the traced mode the
      // kernel would flush the caches before every traced step.
      if (!options.trace) ref_ms.push_back(reference_ms());
      act_peak_bytes = std::max(act_peak_bytes, out.act_peak_bytes);
    }
  }
  const double peak_mib =
      static_cast<double>(MemoryTracker::instance().total_peak_bytes()) / kMiB;
  const double act_peak_mib = static_cast<double>(act_peak_bytes) / kMiB;
  result.timed_samples = static_cast<std::int64_t>(step_ms.size());

  if (!options.trace) {
    const double images =
        static_cast<double>(w.batch) * static_cast<double>(step_ms.size());
    result.set("step_ref_p50", median_ratio(step_ms, ref_ms));
    result.set("cycle_ref_p50", median_ratio(cycle_ms, ref_ms));
    result.set("ref_ms_p50", median(ref_ms));
    result.set("samples_per_s", images / (sum(step_ms) * 1e-3));
    result.set("step_ms_p50", median(step_ms));
    result.set("step_ms_p90", tail(step_ms, &result.tail_percentile));
    result.set("cycle_ms_p50", median(cycle_ms));
    result.set("cycle_ms_p90", tail(cycle_ms, &result.tail_percentile));
    result.set("frames_per_s", images / (sum(cycle_ms) * 1e-3));
    result.set("peak_mib", peak_mib);
    result.set("act_peak_mib", act_peak_mib);
    result.set("setup_s", median(setup_s));
    return result;
  }

  report_step_records(records, result);
  std::int64_t gets = 0;
  for (const StepRecord& r : records) gets += r.gets;
  result.set("core.store.prefetch_hit_frac",
             gets > 0 ? static_cast<double>(prefetch_hits) /
                            static_cast<double>(gets)
                      : 0.0);
  result.set("core.store.blocking_reads",
             static_cast<double>(blocking_reads) /
                 static_cast<double>(records.size()));
  result.set("core.store.ratio",
             mean_slot_ratio(*t->store, t->schedule.num_slots()));

  const std::vector<double> flops = chain_step_flops(*t, w, inputs[0].x.shape());
  for (int i = 0; i < kChainSteps && i < t->chain.size(); ++i) {
    const double ms = result.metrics["nn.fwd_ms." + std::to_string(i)];
    result.set("tensor.fwd_gflops." + std::to_string(i),
               ms > 0.0 ? flops[static_cast<std::size_t>(i)] / (ms * 1e6)
                        : 0.0);
  }
  result.set("models.build_ms", median(build_ms));
  result.set("models.spec_steps",
             models::ResNetSpec::make(models::ResNetVariant::ResNet18,
                                      kClasses, 3)
                 .num_chain_steps());
  result.set("models.chain_steps", t->chain.size());
  const double untraced_ms = median(step_ms);
  result.set("bench.trace_overhead_frac",
             median(traced_step_ms) / untraced_ms - 1.0);
  result.set("bench.timed_samples", static_cast<double>(step_ms.size()));
  report_predictions(*t, w, inputs[0], options, untraced_ms, act_peak_mib,
                     result);
  return result;
}

}  // namespace e2ebench
