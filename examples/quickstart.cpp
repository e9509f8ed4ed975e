// edgetrain quickstart: train a small CNN under a memory cap.
//
// Demonstrates the core API in ~60 lines:
//   1. build a network as a LayerChain,
//   2. pick a Revolve checkpointing schedule for a recompute budget,
//   3. run training steps through nn::Trainer, which replays that schedule
//      with its checkpoints in the chosen slot store,
//   4. observe that gradients match full storage while peak memory drops.
//
// With --async-io the same loop spills checkpoints to disk through the
// write-behind/prefetching AsyncDiskSlotStore (DESIGN.md section 11):
// gradients stay bit-identical while the spill IO overlaps recompute.
//
// With --compress[=lossless|fp16|bf16|bitmap|bitmap-fp16] checkpoints rest
// as codec blobs (DESIGN.md sections 12 and 16): lossless byte-plane RLE
// and the sparse bitmap codec keep gradients bit-identical (bitmap packs
// only the nonzero values behind a nonzero bitmap, so post-ReLU boundaries
// shrink with their zero fraction), the half-precision casts halve
// checkpoint bytes at gradcheck-tolerance error. Composable with
// --async-io, where the store stages and spills the *encoded* bytes.
//
// With --calibrate the schedule comes from measured costs instead of unit
// counts (DESIGN.md section 13): the device is probed once (profile cached
// under /tmp), the chain's real per-step times are measured, and the
// heterogeneous DP plans against them -- with --async-io the disk spill
// weights are additionally priced from the measured SD bandwidth.
//
// With --teacher-quant=bf16|int8 the training labels come from a small
// patch teacher queried through the post-training-quantized inference path
// (DESIGN.md section 17) instead of the planted ground truth, the way the
// harvester labels frames in the in-situ pipeline. The loop reports the
// teacher's agreement with the planted labels and its labeling throughput;
// --teacher-quant=fp32 runs the same fused path unquantized for an A/B.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <utility>

#include "calib/calibrate.hpp"
#include "calib/chain_costs.hpp"
#include "core/async_slot_store.hpp"
#include "core/disk_revolve.hpp"
#include "core/dynprog.hpp"
#include "core/revolve.hpp"
#include "insitu/quant_classifier.hpp"
#include "insitu/teacher.hpp"
#include "models/small_nets.hpp"
#include "nn/optim.hpp"
#include "nn/trainer.hpp"

int main(int argc, char** argv) {
  using namespace edgetrain;
  bool async_io = false;
  bool calibrate = false;
  core::SlotCodec codec = core::SlotCodec::None;
  std::optional<insitu::TeacherPrecision> teacher_quant;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--async-io") == 0) {
      async_io = true;
    } else if (std::strcmp(argv[i], "--calibrate") == 0) {
      calibrate = true;
    } else if (std::strncmp(argv[i], "--teacher-quant=", 16) == 0) {
      const char* mode = argv[i] + 16;
      if (std::strcmp(mode, "fp32") == 0) {
        teacher_quant = insitu::TeacherPrecision::Fp32;
      } else if (std::strcmp(mode, "bf16") == 0) {
        teacher_quant = insitu::TeacherPrecision::Bf16;
      } else if (std::strcmp(mode, "int8") == 0) {
        teacher_quant = insitu::TeacherPrecision::Int8;
      } else {
        std::fprintf(stderr,
                     "quickstart: unknown precision in %s (expected "
                     "--teacher-quant=fp32|bf16|int8)\n",
                     argv[i]);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--compress", 10) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      const auto parsed = core::parse_slot_codec(eq ? eq + 1 : "lossless");
      if (!parsed) {
        std::fprintf(stderr,
                     "quickstart: unknown codec in %s (expected "
                     "--compress[=none|lossless|fp16|bf16|bitmap|"
                     "bitmap-fp16])\n",
                     argv[i]);
        return 1;
      }
      codec = *parsed;
    } else {
      std::fprintf(stderr, "quickstart: unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  // 1. A small CNN (conv/bn/relu stem, two residual blocks, classifier).
  std::mt19937 rng(7);
  nn::LayerChain net = models::build_mini_resnet(/*blocks_per_stage=*/1,
                                                 /*base_channels=*/8,
                                                 /*num_classes=*/4,
                                                 /*in_channels=*/1, rng);
  std::printf("network: %d chain steps, %lld parameters\n", net.size(),
              static_cast<long long>(net.param_count()));

  // Optional quantized teacher (DESIGN.md section 17): train a small patch
  // classifier on the planted-square distribution, then rebuild its eval
  // forward at the requested precision. The training loop below asks *it*
  // for labels, the way the harvester labels frames in the in-situ
  // pipeline, instead of reading the planted ground truth.
  std::unique_ptr<insitu::PatchClassifier> teacher;
  std::unique_ptr<insitu::QuantizedPatchClassifier> quant_teacher;
  if (teacher_quant) {
    teacher = std::make_unique<insitu::PatchClassifier>(
        /*patch=*/16, /*num_classes=*/4, /*base_channels=*/8, /*seed=*/11);
    insitu::PatchDataset teach_data(16);
    std::mt19937 teach_rng(23);
    std::normal_distribution<float> noise(0.0F, 1.0F);
    for (std::int32_t label = 0; label < 4; ++label) {
      for (int sample = 0; sample < 40; ++sample) {
        std::vector<float> pixels(256);
        for (auto& p : pixels) p = noise(teach_rng);
        const int oy = (label / 2) * 8;
        const int ox = (label % 2) * 8;
        for (int yy = 0; yy < 8; ++yy) {
          for (int xx = 0; xx < 8; ++xx) {
            pixels[static_cast<std::size_t>((oy + yy) * 16 + ox + xx)] +=
                1.5F;
          }
        }
        teach_data.add(std::move(pixels), label);
      }
    }
    insitu::TrainOptions teach_options;
    teach_options.epochs = 6;
    (void)teacher->train(teach_data, teach_options);
    quant_teacher = std::make_unique<insitu::QuantizedPatchClassifier>(
        *teacher, teach_data.batch(0, 48), *teacher_quant);
  }

  // Optional on-device calibration: probe the machine once (the profile is
  // cached and re-used across runs) and time the real chain so the DP
  // plans in measured microseconds instead of unit step counts.
  calib::DeviceModel device_model;
  calib::ChainCosts measured;
  if (calibrate) {
    bool was_cached = false;
    device_model = calib::load_or_calibrate(
        "/tmp/edgetrain_quickstart_profile.etcp", calib::quick_calibration(),
        &was_cached);
    Tensor probe = Tensor::randn(Shape{8, 1, 16, 16}, rng);
    measured = calib::measure_chain(net, probe);
    std::printf("calibrated: %.1f GFLOPS conv @ %d threads (profile %s), "
                "chain sweep %.0f us, backward/forward ratio %.2f\n",
                device_model.conv_gflops_at(device_model.best_threads()),
                device_model.best_threads(),
                was_cached ? "cached" : "measured", measured.sweep_us(),
                measured.backward_ratio());
  }

  // 2. A checkpointing schedule: at most ~1.3x recompute overhead. With
  // --async-io, a two-level plan instead keeps 2 checkpoints in RAM and
  // spills the rest to disk, where the async store hides the file IO
  // behind recompute.
  core::Schedule schedule;
  std::unique_ptr<core::SlotStore> store;
  if (async_io) {
    core::disk::DiskRevolveOptions options;
    options.ram_slots = 2;
    options.overlap_io = true;
    options.spill_bytes_ratio = core::planning_bytes_ratio(codec);
    if (calibrate) {
      // Price the spill weights from the measured SD bandwidth and mean
      // boundary size instead of the analytic defaults.
      options = calib::priced_disk_options(measured, device_model, options);
    }
    const core::disk::DiskRevolveSolver solver(net.size(), options);
    schedule = solver.make_schedule();
    const std::string dir = "/tmp/edgetrain_quickstart_spill";
    std::filesystem::create_directories(dir);
    core::AsyncDiskSlotStoreOptions store_options;
    store_options.codec = codec;
    store = std::make_unique<core::AsyncDiskSlotStore>(
        schedule.num_slots(), /*first_disk_slot=*/options.ram_slots + 1, dir,
        store_options);
    std::printf("schedule: two-level disk revolve, 2 RAM slots + %d disk "
                "slots, write-behind spills + prefetched restores"
                " (spill codec: %s)\n\n",
                solver.peak_disk_slots(), core::to_string(codec).c_str());
  } else if (calibrate) {
    // Heterogeneous DP over the measured per-step costs: the rho budget is
    // evaluated in real microseconds with the observed backward ratio, so
    // the checkpoints land before the expensive (early, full-resolution)
    // steps instead of being spread uniformly.
    const core::hetero::HeteroSolver solver(measured.forward_us,
                                            net.size() - 1);
    const int slots =
        solver.min_free_slots_for_rho(1.3, measured.backward_ratio());
    schedule = solver.make_schedule(slots);
    if (codec != core::SlotCodec::None) {
      store = std::make_unique<core::CompressedSlotStore>(schedule.num_slots(),
                                                          codec);
    }
    std::printf("schedule: measured-cost plan, %d free slots for rho <= 1.3 "
                "(measured rho %.3f; slot codec: %s)\n\n",
                slots, solver.recompute_factor(slots, measured.backward_ratio()),
                core::to_string(codec).c_str());
  } else {
    const int slots = core::revolve::min_free_slots_for_rho(net.size(), 1.3);
    schedule = core::revolve::make_schedule(net.size(), slots);
    if (codec != core::SlotCodec::None) {
      store = std::make_unique<core::CompressedSlotStore>(schedule.num_slots(),
                                                          codec);
    }
    std::printf("schedule: %d free checkpoint slots for rho <= 1.3 "
                "(full storage would hold %d activations; slot codec: %s)\n\n",
                slots, net.size(), core::to_string(codec).c_str());
  }

  // 3. Train on random batches of a synthetic 4-class problem. A null store
  // keeps the checkpoints in RAM.
  nn::Trainer trainer(net, std::move(schedule),
                      std::make_unique<nn::SGD>(net.params(), 0.05F, 0.9F),
                      std::move(store));

  double teacher_us = 0.0;
  int teacher_agree = 0;
  int teacher_total = 0;
  for (int step = 0; step < 30; ++step) {
    Tensor x = Tensor::randn(Shape{8, 1, 16, 16}, rng);
    std::vector<std::int32_t> labels;
    std::uniform_int_distribution<std::int32_t> dist(0, 3);
    for (int i = 0; i < 8; ++i) {
      const std::int32_t label = dist(rng);
      labels.push_back(label);
      // Plant a class-dependent bright square so there is signal to learn.
      float* img = x.data() + i * 256;
      const int corner = label;  // 0..3 -> one of the four 8x8 quadrants
      const int oy = (corner / 2) * 8;
      const int ox = (corner % 2) * 8;
      for (int yy = 0; yy < 8; ++yy) {
        for (int xx = 0; xx < 8; ++xx) img[(oy + yy) * 16 + ox + xx] += 1.5F;
      }
    }
    if (quant_teacher != nullptr) {
      // Replace the planted labels with the quantized teacher's verdicts,
      // keeping the planted ones only to score agreement.
      const auto start = std::chrono::steady_clock::now();
      const auto teacher_out = quant_teacher->predict_batch(x);
      teacher_us += std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      for (std::size_t i = 0; i < teacher_out.size(); ++i) {
        if (teacher_out[i].first == labels[i]) ++teacher_agree;
        labels[i] = teacher_out[i].first;
      }
      teacher_total += static_cast<int>(teacher_out.size());
    }

    const nn::StepStats stats = trainer.step(x, labels);

    if (step % 5 == 0) {
      std::printf("step %2d: loss %.4f, peak step memory %.1f KiB, "
                  "%lld recompute advances\n",
                  step, stats.loss,
                  static_cast<double>(stats.peak_bytes) / 1024.0,
                  static_cast<long long>(stats.advances));
    }
  }
  if (quant_teacher != nullptr) {
    std::printf("\nteacher labels (%s): %.1f%% agreement with planted "
                "labels, %.0f labels/sec\n",
                insitu::to_string(quant_teacher->precision()),
                100.0 * teacher_agree / teacher_total,
                1e6 * teacher_total / teacher_us);
  }
  std::printf("\ndone: the same loop with full_storage_schedule() gives "
              "bit-identical gradients at a higher footprint.\n");
  return 0;
}
