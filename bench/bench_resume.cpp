// Suspend/resume cost bench: snapshot capture/write and restore latency as
// a function of model size, for physical LinearResNets from edge-tiny to
// the largest chain the 2 GB node would train. The write path is the full
// crash-consistent protocol (serialize + CRC + temp + fsync + rename), so
// the numbers answer the deployment question directly: how much idle-window
// time does each cooperative suspend cost, and how long after power returns
// until training continues? Besides the console table, every row is written
// to BENCH_resume.json for cross-commit diffing.
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/revolve.hpp"
#include "models/small_nets.hpp"
#include "nn/optim.hpp"
#include "persist/resumable.hpp"

int main() {
  using namespace edgetrain;
  using Clock = std::chrono::steady_clock;

  struct Config {
    const char* name;
    int depth;
    std::int64_t channels;
  };
  const std::vector<Config> configs = {
      {"conv8x8", 8, 8},
      {"conv16x16", 16, 16},
      {"conv24x32", 24, 32},
      {"conv32x48", 32, 48},
      {"conv32x64", 32, 64},
  };
  constexpr int kRepeats = 5;
  constexpr std::int64_t kSide = 16;

  struct Row {
    const char* name;
    std::int64_t params;
    std::uint64_t snapshot_bytes;
    double capture_ms;
    double write_ms;
    double restore_ms;
  };
  std::vector<Row> rows;

  for (const Config& config : configs) {
    std::mt19937 rng(17);
    nn::LayerChain chain =
        models::build_conv_chain(config.depth, config.channels, rng);

    persist::ResumableOptions options;
    options.snapshot_dir =
        std::string("/tmp/edgetrain_bench_resume/") + config.name;
    options.snapshot_every = 0;  // snapshots only when we ask
    persist::ResumableTrainer trainer(
        chain, core::revolve::make_schedule(chain.size(), 3),
        std::make_unique<nn::SGD>(chain.params(), 0.05F, 0.9F), options);

    // One real step so optimizer state is warm (momentum tensors non-zero).
    const persist::BatchFn batch = [&](std::mt19937& data_rng,
                                       std::uint64_t /*cursor*/) {
      persist::LabeledBatch b;
      b.x = Tensor::randn(Shape{1, config.channels, kSide, kSide}, data_rng);
      b.labels.assign(1, 0);
      return b;
    };
    (void)trainer.step(batch);

    Row row{};
    row.name = config.name;
    row.params = chain.param_count();
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      auto start = Clock::now();
      persist::TrainerState state = trainer.capture();
      row.capture_ms +=
          std::chrono::duration<double>(Clock::now() - start).count() * 1e3;

      start = Clock::now();
      trainer.suspend();
      row.write_ms +=
          std::chrono::duration<double>(Clock::now() - start).count() * 1e3;

      start = Clock::now();
      if (!trainer.resume()) return 1;
      row.restore_ms +=
          std::chrono::duration<double>(Clock::now() - start).count() * 1e3;
      row.snapshot_bytes = persist::encode_snapshot(state).size();
    }
    row.capture_ms /= kRepeats;
    row.write_ms /= kRepeats;
    row.restore_ms /= kRepeats;
    rows.push_back(row);
  }

  std::printf("Suspend/resume cost vs model size (mean of %d runs)\n",
              kRepeats);
  std::printf("%-10s %-10s %-12s %-12s %-10s %-12s\n", "model", "params",
              "snap KiB", "capture ms", "write ms", "restore ms");
  for (const Row& row : rows) {
    std::printf("%-10s %-10lld %-12.1f %-12.2f %-10.2f %-12.2f\n", row.name,
                static_cast<long long>(row.params),
                static_cast<double>(row.snapshot_bytes) / 1024.0,
                row.capture_ms, row.write_ms, row.restore_ms);
  }

  if (auto report =
          bench::BenchReport::create("bench_resume", "BENCH_resume.json")) {
    report->end_context();
    bench::JsonWriter& json = report->json();
    json.key("benchmarks").begin_array();
    for (const Row& row : rows) {
      json.begin_object()
          .field("name", row.name)
          .field("params", static_cast<long long>(row.params))
          .field("snapshot_bytes",
                 static_cast<unsigned long long>(row.snapshot_bytes))
          .field("capture_ms", row.capture_ms, "%.4f")
          .field("write_ms", row.write_ms, "%.4f")
          .field("restore_ms", row.restore_ms, "%.4f")
          .end_object();
    }
    json.end_array();
    report->close();
  }
  return 0;
}
