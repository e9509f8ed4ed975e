// Integration tests of the Section III pipeline: classifier training,
// harvesting, and the end-to-end viewpoint experiment (scaled down).
#include <gtest/gtest.h>

#include <cstring>

#include "insitu/harvester.hpp"
#include "insitu/scene.hpp"
#include "insitu/student.hpp"
#include "insitu/teacher.hpp"
#include "nn/serialize.hpp"

namespace edgetrain::insitu {
namespace {

SceneConfig small_scene() {
  SceneConfig config;
  config.frame_width = 96;
  config.frame_height = 36;
  config.object_size = 14;
  config.num_classes = 3;
  config.speed = 6.0F;
  config.noise = 0.02F;
  config.max_skew = 0.8F;
  config.seed = 21;
  return config;
}

HarvestConfig small_harvest() {
  HarvestConfig config;
  config.patch = 16;
  config.detect_threshold = 0.2F;
  config.min_blob_area = 16;
  config.teacher_confidence = 0.7F;
  config.min_track_length = 3;
  return config;
}

TEST(PatchClassifier, LearnsCanonicalGlyphs) {
  SceneSimulator sim(small_scene());
  PatchDataset data(16);
  for (std::int32_t label = 0; label < 3; ++label) {
    for (int i = 0; i < 60; ++i) {
      data.add(sim.canonical_patch(label, 16), label);
    }
  }
  PatchClassifier classifier(16, 3, 8, 5);
  TrainOptions options;
  options.epochs = 10;
  const TrainStats stats = classifier.train(data, options);
  EXPECT_LT(stats.final_loss(), 0.5F);
  EXPECT_GT(classifier.evaluate(data), 0.9);
}

TEST(PatchClassifier, CheckpointedTrainingUsesLessMemory) {
  SceneSimulator sim(small_scene());
  PatchDataset data(16);
  for (std::int32_t label = 0; label < 3; ++label) {
    for (int i = 0; i < 30; ++i) {
      data.add(sim.canonical_patch(label, 16), label);
    }
  }
  PatchClassifier full(16, 3, 6, 5);
  PatchClassifier ckpt(16, 3, 6, 5);
  TrainOptions full_options;
  full_options.epochs = 1;
  TrainOptions ckpt_options = full_options;
  ckpt_options.checkpoint_free_slots = 1;
  const TrainStats full_stats = full.train(data, full_options);
  const TrainStats ckpt_stats = ckpt.train(data, ckpt_options);
  EXPECT_LT(ckpt_stats.peak_step_bytes, full_stats.peak_step_bytes);
  EXPECT_GT(ckpt_stats.total_advances, full_stats.total_advances);
}

TEST(PatchClassifier, RevolveTrainingBitIdenticalToFullStorage) {
  SceneSimulator sim(small_scene());
  const PatchDataset data = canonical_set(sim, /*per_class=*/20, 16);
  struct Run {
    std::vector<std::uint8_t> weights;
    std::vector<std::uint8_t> buffers;
    std::vector<float> epoch_losses;
  };
  auto train = [&](int free_slots) {
    PatchClassifier classifier(16, 3, 6, 5);
    TrainOptions options;
    options.epochs = 2;
    options.checkpoint_free_slots = free_slots;
    const TrainStats stats = classifier.train(data, options);
    return Run{nn::serialize_weights(classifier.chain()),
               nn::serialize_buffers(classifier.chain()), stats.epoch_losses};
  };
  const Run revolve = train(2);
  const Run full = train(-1);
  EXPECT_EQ(revolve.weights, full.weights);
  EXPECT_EQ(revolve.buffers, full.buffers);
  ASSERT_EQ(revolve.epoch_losses.size(), full.epoch_losses.size());
  EXPECT_EQ(std::memcmp(revolve.epoch_losses.data(), full.epoch_losses.data(),
                        full.epoch_losses.size() * sizeof(float)),
            0);
}

TEST(PatchClassifier, PredictReturnsConfidenceInRange) {
  SceneSimulator sim(small_scene());
  PatchClassifier classifier(16, 3, 4, 5);
  const auto [label, confidence] = classifier.predict(
      sim.canonical_patch(0, 16));
  EXPECT_GE(label, 0);
  EXPECT_LT(label, 3);
  EXPECT_GT(confidence, 0.0F);
  EXPECT_LE(confidence, 1.0F);
}

TEST(PatchDataset, ShuffleKeepsPairsAligned) {
  PatchDataset data(2);
  data.add({0, 0, 0, 0}, 0);
  data.add({1, 1, 1, 1}, 1);
  data.add({2, 2, 2, 2}, 2);
  std::mt19937 rng(3);
  data.shuffle(rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Tensor x = data.batch(i, 1);
    EXPECT_FLOAT_EQ(x.at(0), static_cast<float>(data.labels()[i]));
  }
}

TEST(Harvester, HarvestsLabelledTracksFromStream) {
  SceneSimulator sim(small_scene());
  // A quickly-trained teacher on canonical patches.
  PatchDataset teacher_data(16);
  for (std::int32_t label = 0; label < 3; ++label) {
    for (int i = 0; i < 50; ++i) {
      teacher_data.add(sim.canonical_patch(label, 16), label);
    }
  }
  PatchClassifier teacher(16, 3, 6, 5);
  TrainOptions options;
  options.epochs = 6;
  (void)teacher.train(teacher_data, options);

  Harvester harvester(teacher, small_harvest());
  for (int f = 0; f < 400; ++f) harvester.consume(sim.next_frame());
  harvester.finish();

  const HarvestStats stats = harvester.stats();
  EXPECT_EQ(stats.frames, 400);
  EXPECT_GT(stats.detections, 0);
  EXPECT_GT(stats.tracks_finished, 0);
  EXPECT_GT(stats.tracks_labelled, 0);
  EXPECT_GT(stats.images_harvested, 0);
  // Back-labelling should be mostly correct in this easy scene.
  EXPECT_GT(stats.label_purity, 0.6);
  // "tens of images" per confident identification.
  EXPECT_GT(static_cast<double>(stats.images_harvested),
            2.0 * static_cast<double>(stats.tracks_labelled));
  EXPECT_EQ(harvester.dataset().size(),
            static_cast<std::size_t>(stats.images_harvested));
}

TEST(Harvester, StorageBudgetDropsExcessImages) {
  SceneSimulator sim(small_scene());
  PatchClassifier teacher(16, 3, 4, 5);  // untrained: confidence gate off
  HarvestConfig config = small_harvest();
  config.teacher_confidence = 0.0F;  // accept everything
  config.storage_capacity_bytes = 20 * config.bytes_per_image;
  Harvester harvester(teacher, config);
  for (int f = 0; f < 300; ++f) harvester.consume(sim.next_frame());
  harvester.finish();
  const HarvestStats stats = harvester.stats();
  EXPECT_LE(stats.images_harvested, 20);
  EXPECT_GT(stats.images_dropped_storage, 0);
}

TEST(Harvester, LeftHalfOnlyTracksAreRejected) {
  // A track that never reaches the canonical (right) region produces no
  // teacher queries and must be rejected, not mislabelled: this is the
  // query_min_x_fraction gate that keeps label purity high.
  SceneSimulator sim(small_scene());
  PatchClassifier teacher(16, 3, 4, 5);  // untrained; confidence irrelevant
  HarvestConfig config = small_harvest();
  config.teacher_confidence = 0.0F;  // accept anything that IS queried
  config.query_min_x_fraction = 2.0F;  // no sighting can ever qualify
  Harvester harvester(teacher, config);
  for (int f = 0; f < 200; ++f) harvester.consume(sim.next_frame());
  harvester.finish();
  const HarvestStats stats = harvester.stats();
  EXPECT_GT(stats.tracks_finished, 0);
  EXPECT_EQ(stats.tracks_labelled, 0);
  EXPECT_EQ(stats.teacher_queries, 0);
  EXPECT_EQ(stats.images_harvested, 0);
}

TEST(Harvester, QueryRegionGateImprovesPurityOverNoGate) {
  SceneSimulator sim_a(small_scene());
  SceneSimulator sim_b(small_scene());  // identical stream (same seed)
  PatchDataset teacher_data(16);
  for (std::int32_t label = 0; label < 3; ++label) {
    for (int i = 0; i < 50; ++i) {
      teacher_data.add(sim_a.canonical_patch(label, 16), label);
    }
  }
  PatchClassifier teacher(16, 3, 6, 5);
  TrainOptions options;
  options.epochs = 6;
  (void)teacher.train(teacher_data, options);

  HarvestConfig gated = small_harvest();
  HarvestConfig ungated = small_harvest();
  ungated.query_min_x_fraction = 0.0F;  // query everywhere, even skewed
  Harvester harvester_gated(teacher, gated);
  Harvester harvester_ungated(teacher, ungated);
  // Re-create the same stream for each (fresh simulators, same config/seed).
  SceneSimulator stream_a(small_scene());
  SceneSimulator stream_b(small_scene());
  for (int f = 0; f < 400; ++f) {
    harvester_gated.consume(stream_a.next_frame());
    harvester_ungated.consume(stream_b.next_frame());
  }
  harvester_gated.finish();
  harvester_ungated.finish();
  EXPECT_GE(harvester_gated.stats().label_purity,
            harvester_ungated.stats().label_purity);
}

TEST(Harvester, LossyStorageChargesTrueBytesAndKeepsQuality) {
  SceneSimulator sim(small_scene());
  PatchDataset teacher_data(16);
  for (std::int32_t label = 0; label < 3; ++label) {
    for (int i = 0; i < 40; ++i) {
      teacher_data.add(sim.canonical_patch(label, 16), label);
    }
  }
  PatchClassifier teacher(16, 3, 6, 5);
  TrainOptions options;
  options.epochs = 5;
  (void)teacher.train(teacher_data, options);

  HarvestConfig config = small_harvest();
  config.lossy_storage = true;
  config.codec_quality = 50;
  Harvester harvester(teacher, config);
  for (int f = 0; f < 300; ++f) harvester.consume(sim.next_frame());
  harvester.finish();
  const HarvestStats stats = harvester.stats();
  ASSERT_GT(stats.images_harvested, 0);
  // Encoded 16x16 patches are far below the paper's 10 kB budget...
  EXPECT_LT(stats.mean_image_bytes, 1024.0);
  EXPECT_GT(stats.mean_image_bytes, 8.0);
  // ...and remain classifiable.
  EXPECT_GT(stats.mean_psnr_db, 20.0);
  EXPECT_EQ(harvester.store().used_bytes(),
            static_cast<std::uint64_t>(stats.mean_image_bytes *
                                           static_cast<double>(
                                               stats.images_harvested) +
                                       0.5));
}

TEST(PatchClassifier, DistillationFromTeacherWorks) {
  SceneSimulator sim(small_scene());
  PatchDataset data(16);
  for (std::int32_t label = 0; label < 3; ++label) {
    for (int i = 0; i < 50; ++i) {
      data.add(sim.canonical_patch(label, 16), label);
    }
  }
  PatchClassifier teacher(16, 3, 8, 5);
  TrainOptions teacher_options;
  teacher_options.epochs = 8;
  (void)teacher.train(data, teacher_options);

  PatchClassifier student(16, 3, 4, 9);  // smaller net (Moonshine-style)
  TrainOptions student_options;
  student_options.epochs = 8;
  student_options.distill_alpha = 0.3F;
  student_options.distill_temperature = 2.0F;
  const TrainStats stats = student.train(data, student_options, &teacher);
  EXPECT_GT(stats.epoch_losses.size(), 0U);
  EXPECT_GT(student.evaluate(data), 0.8);
}

// The headline Section III result, scaled down for CI: after in-situ
// training the student beats the teacher on skewed viewpoints.
TEST(ViewpointExperiment, StudentBeatsTeacherOffAngle) {
  ViewpointExperimentConfig config;
  config.scene = small_scene();
  config.harvest = small_harvest();
  config.teacher_examples_per_class = 80;
  config.stream_frames = 500;
  config.eval_bins = 4;
  config.eval_per_class_per_bin = 15;
  config.classifier_channels = 6;
  config.teacher_train.epochs = 6;
  config.student_train.epochs = 6;
  config.student_train.checkpoint_free_slots = 2;

  const ViewpointExperimentResult result = run_viewpoint_experiment(config);

  ASSERT_GT(result.dataset_size, 0U);
  ASSERT_EQ(result.bins.size(), 4U);
  // Teacher is strong at the canonical (right) edge.
  EXPECT_GT(result.bins.back().teacher_accuracy, 0.6);
  // Student wins overall (it has seen the node's own skew distribution).
  EXPECT_GT(result.student_overall, result.teacher_overall);
  // And specifically on the most-skewed bin.
  EXPECT_GT(result.bins.front().student_accuracy,
            result.bins.front().teacher_accuracy);
}

}  // namespace
}  // namespace edgetrain::insitu
