// waggle_node_sim: a day in the life of an Array-of-Things node.
//
// Combines the edge substrate: a Waggle device description, a foreground
// duty cycle (periodic sensing + inference bursts), the idle-priority
// training scheduler, the SD-card image store, and the energy comparison
// between shipping the harvested dataset to the cloud vs training in situ.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>

#include "core/planner.hpp"
#include "core/revolve.hpp"
#include "edge/device.hpp"
#include "edge/power.hpp"
#include "edge/scheduler.hpp"
#include "edge/storage.hpp"
#include "insitu/node_sim.hpp"
#include "models/linear_resnet.hpp"
#include "models/memory_model.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "persist/resumable.hpp"

namespace {

/// Demo net for the power-cycle section: conv stem, two batch-norm blocks,
/// classifier head. Rebuilt identically on every simulated boot (same init
/// seed); restored snapshot weights overwrite the init.
edgetrain::nn::LayerChain build_demo_net() {
  using namespace edgetrain;
  std::mt19937 rng(701);
  nn::LayerChain chain;
  chain.push(std::make_unique<nn::Conv2d>(1, 8, 3, 1, 1, false, rng));
  chain.push(std::make_unique<nn::BasicBlock>(8, 8, 1, rng));
  chain.push(std::make_unique<nn::BasicBlock>(8, 8, 1, rng));
  chain.push(std::make_unique<nn::GlobalAvgPool>());
  chain.push(std::make_unique<nn::Linear>(8, 4, true, rng));
  return chain;
}

/// Quadrant classification batch: a pure function of (rng, cursor), as the
/// resume-determinism contract requires.
edgetrain::persist::LabeledBatch quadrant_batch(std::mt19937& rng,
                                                std::uint64_t /*cursor*/) {
  using namespace edgetrain;
  persist::LabeledBatch batch;
  const std::int64_t n = 4;
  batch.x = Tensor::randn(Shape{n, 1, 12, 12}, rng, 0.2F);
  std::uniform_int_distribution<std::int32_t> dist(0, 3);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t label = dist(rng);
    batch.labels.push_back(label);
    float* img = batch.x.data() + i * 144;
    const int oy = (label / 2) * 6;
    const int ox = (label % 2) * 6;
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) img[(oy + y) * 12 + ox + x] += 1.2F;
    }
  }
  return batch;
}

}  // namespace

int main() {
  using namespace edgetrain;

  const edge::EdgeDevice node = edge::EdgeDevice::waggle_odroid_xu4();
  std::printf("=== %s ===\n%llu MB RAM, %d+%d cores, %.0f GFLOP/s, "
              "%llu GB SD, %.1f Mbps uplink\n\n",
              node.name.c_str(),
              static_cast<unsigned long long>(node.memory_bytes >> 20),
              node.big_cores, node.little_cores, node.peak_gflops,
              static_cast<unsigned long long>(node.storage_bytes >> 30),
              node.uplink_mbps);

  // --- training-step cost for the model we want to specialise ------------
  const models::ResNetSpec spec =
      models::ResNetSpec::make(models::ResNetVariant::ResNet18);
  const models::ResNetMemoryModel memory_model(spec);
  const models::LinearResNet linear =
      models::LinearResNet::from_resnet(memory_model, 224, 4);
  const core::MemoryPlanner planner(linear.to_chain_spec());
  const core::PlanReport plan = planner.report_for_device(
      static_cast<double>(node.memory_bytes) * 0.8);  // leave room for the OS

  const auto costs = spec.chain_step_forward_costs(224, 4);
  double flops_per_step = 0.0;
  for (const double c : costs) flops_per_step += c;
  flops_per_step *= 3.0;  // forward + ~2x backward
  flops_per_step *= plan.recommended.achieved_rho;  // recompute overhead
  const double step_seconds = flops_per_step / (node.peak_gflops * 1e9);

  std::printf("training %s (batch 4): rho=%.2f, %.1f MB peak, "
              "%.2f s per step on this node\n\n",
              linear.name.c_str(), plan.recommended.achieved_rho,
              plan.recommended.peak_bytes / 1048576.0, step_seconds);

  // --- one hour of node time: sensing + inference foreground -------------
  const double horizon = 3600.0;
  edge::IdleScheduler scheduler(step_seconds);
  for (const auto& task :
       edge::periodic_tasks("air-quality-sample", 30.0, 0.5, 5, horizon)) {
    scheduler.add_task(task);
  }
  for (const auto& task :
       edge::periodic_tasks("pedestrian-inference", 5.0, 1.2, 8, horizon)) {
    scheduler.add_task(task);
  }
  const edge::ScheduleReport report = scheduler.run(horizon);
  std::printf("one hour of node time: %.0f s foreground, %.0f s training "
              "(%.0f%% duty), %lld training steps, %lld preemptions\n\n",
              report.foreground_seconds, report.training_seconds,
              100.0 * report.idle_fraction,
              static_cast<long long>(report.training_steps),
              static_cast<long long>(report.preemptions));

  // --- SD-card dataset budget (paper: <10 kB per 224x224 image) ----------
  edge::ImageStore store(1ULL << 30, /*evict_oldest=*/true);
  std::uint64_t added = 0;
  while (store.add(static_cast<std::int32_t>(added % 4), 10 * 1024)
             .has_value() &&
         added < 100000) {
    ++added;
  }
  std::printf("SD dataset budget: %llu images of 10 kB in a 1 GB slice "
              "(%.2f GB used)\n\n",
              static_cast<unsigned long long>(store.size()),
              static_cast<double>(store.used_bytes()) / (1 << 30));

  // --- ship-vs-train energy comparison ------------------------------------
  const edge::EnergyModel energy(node);
  const double dataset_bytes = static_cast<double>(store.used_bytes());
  const double epoch_flops =
      flops_per_step * static_cast<double>(store.size()) / 4.0;  // batch 4
  const edge::EnergyReport comparison =
      energy.compare(dataset_bytes, 3.0 * epoch_flops);
  std::printf("ship %zu images to the cloud: %.0f J over %.0f s of radio\n",
              store.size(), comparison.transmit_joules,
              comparison.transmit_seconds);
  std::printf("train 3 epochs in situ:      %.0f J over %.0f s of compute\n",
              comparison.compute_joules, comparison.compute_seconds);
  std::printf("=> %s\n", comparison.edge_cheaper()
                             ? "training on the edge is the cheaper option"
                             : "shipping upstream is cheaper here");

  // --- the integrated lifecycle: harvest + idle training, hour by hour ---
  std::printf("\n=== integrated run (miniature model, real training) ===\n");
  insitu::NodeSimConfig sim_config;
  sim_config.scene.frame_width = 112;
  sim_config.scene.frame_height = 40;
  sim_config.scene.object_size = 15;
  sim_config.scene.num_classes = 3;
  sim_config.scene.max_skew = 0.8F;
  sim_config.harvest.patch = 18;
  sim_config.hours = 4;
  sim_config.frames_per_hour = 200;
  sim_config.max_real_steps_per_hour = 50;
  const insitu::NodeSimResult sim_result =
      insitu::run_node_simulation(sim_config);
  std::printf("%-6s %-10s %-10s %-10s %-10s %-10s\n", "hour", "images",
              "SD MB", "idle%", "steps", "student");
  for (const insitu::HourReport& hour : sim_result.hours) {
    std::printf("%-6d %-10lld %-10.2f %-10.0f %-10lld %-10.3f\n", hour.hour,
                static_cast<long long>(hour.dataset_images),
                static_cast<double>(hour.storage_used_bytes) / (1 << 20),
                100.0 * hour.idle_fraction,
                static_cast<long long>(hour.steps_run),
                hour.student_accuracy);
  }
  std::printf("teacher stays at %.3f across viewpoints; the student reaches "
              "%.3f using only idle cycles and auto-labelled local data.\n",
              sim_result.teacher_accuracy, sim_result.final_student_accuracy);

  // --- suspend/resume: surviving a power cycle mid-training ---------------
  // Outdoor nodes brown out. Train the demo net inside the scheduler's idle
  // windows, snapshot at each window close, kill the power mid-run, reboot,
  // and continue from the newest valid snapshot -- the resumed trajectory
  // is bit-for-bit the one an uninterrupted run would have taken.
  std::printf("\n=== suspend/resume: a power cycle mid-training ===\n");
  const std::string snap_dir = "/tmp/edgetrain_waggle_snap";
  std::filesystem::remove_all(snap_dir);

  persist::ResumableOptions persist_options;
  persist_options.snapshot_dir = snap_dir;
  persist_options.snapshot_every = 5;
  persist_options.keep_snapshots = 2;
  // Every boot trains the same way: Revolve with 2 free slots, SGD.
  const auto boot_trainer = [&](nn::LayerChain& net,
                                persist::FaultInjector* fault) {
    return persist::ResumableTrainer(
        net, core::revolve::make_schedule(net.size(), 2),
        std::make_unique<nn::SGD>(net.params(), 0.05F, 0.9F), persist_options,
        fault);
  };

  const std::uint64_t total_demo_steps = 60;
  const double demo_step_seconds = 0.05;
  double early_loss = 0.0;
  std::uint64_t died_at_step = 0;

  // Boot 1: fresh start. Carve the snapshot budget out of the SD card up
  // front, then train in idle windows until the injected power loss.
  {
    nn::LayerChain net = build_demo_net();
    persist::FaultInjector fault;
    persist::ResumableTrainer trainer = boot_trainer(net, &fault);
    (void)trainer.resume();  // nothing on disk: fresh start

    const std::uint64_t snap_bytes =
        persist::encode_snapshot(trainer.capture()).size();
    const std::uint64_t evicted_before = store.evicted_count();
    store.reserve(snap_bytes *
                  static_cast<std::uint64_t>(persist_options.keep_snapshots));
    std::printf("snapshot budget: %llu KiB reserved on the SD card "
                "(%d generations of %llu KiB; evicted %llu images to fit)\n",
                static_cast<unsigned long long>(store.reserved_bytes() >> 10),
                persist_options.keep_snapshots,
                static_cast<unsigned long long>(snap_bytes >> 10),
                static_cast<unsigned long long>(store.evicted_count() -
                                                evicted_before));

    fault.arm_abort_at_step(23);  // the storm hits mid-window
    try {
      for (const edge::IdleWindow& window : scheduler.idle_windows(horizon)) {
        for (long long s = 0; s < window.steps(demo_step_seconds); ++s) {
          const nn::StepStats stats = trainer.step(quadrant_batch);
          if (trainer.step_count() <= 5) early_loss += stats.loss / 5.0;
          if (trainer.step_count() >= total_demo_steps) break;
        }
        trainer.suspend();  // idle window closing: snapshot now
        if (trainer.step_count() >= total_demo_steps) break;
      }
    } catch (const persist::PowerLoss& death) {
      died_at_step = trainer.step_count();
      std::printf("boot 1: %s -- died at step %llu with %llu snapshots "
                  "committed\n",
                  death.what(),
                  static_cast<unsigned long long>(died_at_step),
                  static_cast<unsigned long long>(
                      trainer.snapshots_written()));
    }
  }

  // Boot 2: power is back. Rebuild everything from scratch and resume.
  {
    nn::LayerChain net = build_demo_net();
    persist::ResumableTrainer trainer = boot_trainer(net, nullptr);
    const bool resumed = trainer.resume();
    std::printf("boot 2: %s at step %llu\n",
                resumed ? "resumed from snapshot" : "fresh start",
                static_cast<unsigned long long>(trainer.step_count()));

    double late_loss = 0.0;
    for (const edge::IdleWindow& window : scheduler.idle_windows(horizon)) {
      for (long long s = 0; s < window.steps(demo_step_seconds); ++s) {
        const nn::StepStats stats = trainer.step(quadrant_batch);
        if (trainer.step_count() > total_demo_steps - 5) {
          late_loss += stats.loss / 5.0;
        }
        if (trainer.step_count() >= total_demo_steps) break;
      }
      trainer.suspend();
      if (trainer.step_count() >= total_demo_steps) break;
    }
    std::printf("trained to step %llu across the power cycle: loss %.3f "
                "(first 5 steps) -> %.3f (last 5); %llu KiB of snapshots "
                "on the card\n",
                static_cast<unsigned long long>(trainer.step_count()),
                early_loss, late_loss,
                static_cast<unsigned long long>(
                    trainer.snapshots().total_bytes() >> 10));
    std::printf("=> the node lost power at step %llu, replayed the few "
                "steps since the last snapshot, and finished the run on a "
                "trajectory bit-for-bit identical to an uninterrupted "
                "one.\n", static_cast<unsigned long long>(died_at_step));
  }
  return 0;
}
