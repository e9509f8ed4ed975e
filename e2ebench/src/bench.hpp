// e2ebench: shared types of the end-to-end benchmark.
//
// A run executes one workload for a fixed wall-clock budget and produces a
// Result: how many steps or cycles were attempted and failed, plus named
// metrics. An untraced run reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics measured by the decorators in
// trace.hpp. The metric registry below is the single list both modes are
// validated against before anything is printed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for spill files and calibration probes (created, then
  /// removed before exit).
  std::string scratch_dir = ".bench_run";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Worker threads the global pool was pinned to.
  unsigned threads = 1;
  /// Timed samples (steps or cycles) behind the end-to-end percentiles,
  /// and the percentile the *_p90 metrics actually report.
  std::int64_t timed_samples = 0;
  double tail_percentile = 0.0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run reports, in print order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Wall-clock timings and throughputs an untraced run prints in its table
/// but leaves out of the result line: on a shared host they move with the
/// load of other tenants (README.md).
[[nodiscard]] const std::vector<MetricSpec>& reported_metrics();
/// The per-layer metrics every traced run reports (0 where a layer is not
/// on the workload's path).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Chain steps of the executable ResNet-18; the per-step metric names
/// nn.fwd_ms.<i> etc. run over i = 0..kChainSteps-1.
inline constexpr int kChainSteps = 14;

// --- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile (capped at 90) that still has at least ten samples
/// beyond it, by nearest rank; never below the median. The chosen
/// percentile is returned through @p percentile.
[[nodiscard]] double tail(std::vector<double> values, double* percentile);

[[nodiscard]] double sum(const std::vector<double>& values);

/// The median of numerators[i] / denominators[i].
[[nodiscard]] double median_ratio(const std::vector<double>& numerators,
                                  const std::vector<double>& denominators);

// --- host-speed reference -----------------------------------------------------

/// Runs a fixed GEMM, copy and streaming kernel that uses nothing from the
/// library and returns its wall time in ms (about 16 ms). The untraced
/// loops call it after every step or cycle; the gated timings are step or
/// cycle time over this time (reference.cpp).
[[nodiscard]] double reference_ms();

// --- workloads ----------------------------------------------------------------

[[nodiscard]] bool is_step_workload(const std::string& name);
[[nodiscard]] Result run_step_workload(const Options& options);
[[nodiscard]] Result run_insitu_workload(const Options& options);

}  // namespace e2ebench
