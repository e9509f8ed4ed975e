// e2ebench: the metric registry and the statistics behind the percentiles.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "bench.hpp"

namespace e2ebench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"step_ref_p50", "ratio"}, {"cycle_ref_p50", "ratio"},
      {"peak_mib", "MiB"},       {"act_peak_mib", "MiB"},
      {"setup_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& reported_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"samples_per_s", "samples/s"}, {"step_ms_p50", "ms"},
      {"step_ms_p90", "ms"},          {"cycle_ms_p50", "ms"},
      {"cycle_ms_p90", "ms"},         {"frames_per_s", "frames/s"},
      {"ref_ms_p50", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out = {
        {"nn.fwd_ms", "ms"},        {"nn.recompute_ms", "ms"},
        {"nn.bwd_ms", "ms"},        {"nn.optim_ms", "ms"},
        {"nn.recompute_calls", "count"},
    };
    for (const char* family : {"nn.fwd_ms", "nn.bwd_ms", "nn.recompute_ms"}) {
      for (int i = 0; i < kChainSteps; ++i) {
        out.push_back({std::string(family) + "." + std::to_string(i), "ms"});
      }
    }
    const std::vector<MetricSpec> rest = {
        {"core.exec_self_ms", "ms"},
        {"core.store.put_ms", "ms"},
        {"core.store.get_ms", "ms"},
        {"core.store.puts", "count"},
        {"core.store.gets", "count"},
        {"core.store.prefetch_hit_frac", "fraction"},
        {"core.store.blocking_reads", "count"},
        {"core.store.ratio", "fraction"},
        {"core.store.resident_peak_mib", "MiB"},
        {"core.store.external_mib", "MiB"},
        {"calib.conv_gflops", "GFLOP/s"},
        {"calib.gemm_gflops", "GFLOP/s"},
        {"calib.memcpy_gbps", "GB/s"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    for (int i = 0; i < kChainSteps; ++i) {
      out.push_back({"tensor.fwd_gflops." + std::to_string(i), "GFLOP/s"});
    }
    const std::vector<MetricSpec> tail_specs = {
        {"insitu.harvest_ms", "ms"},
        {"insitu.train_ms", "ms"},
        {"insitu.teacher_queries", "count"},
        {"insitu.quantized_queries", "count"},
        {"insitu.images_harvested", "count"},
        {"insitu.label_purity", "fraction"},
        {"insitu.train_advances", "count"},
        {"insitu.student_acc", "fraction"},
        {"models.build_ms", "ms"},
        {"models.spec_steps", "count"},
        {"models.chain_steps", "count"},
        {"analysis.pred_step_ms", "ms"},
        {"analysis.pred_ratio", "ratio"},
        {"analysis.pred_act_peak_mib", "MiB"},
        {"analysis.act_peak_ratio", "ratio"},
        {"bench.trace_overhead_frac", "fraction"},
        {"bench.timed_samples", "count"},
    };
    out.insert(out.end(), tail_specs.begin(), tail_specs.end());
    return out;
  }();
  return specs;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  // 1-based nearest rank: p90 where it leaves ten samples above it, else
  // the rank that does, but never below the median's rank.
  const auto p90_rank = static_cast<std::int64_t>(
      std::ceil(0.9 * static_cast<double>(n)));
  const std::int64_t median_rank = (n + 1) / 2;
  const std::int64_t rank = std::max(median_rank, std::min(p90_rank, n - 10));
  *percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return values[static_cast<std::size_t>(rank - 1)];
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double median_ratio(const std::vector<double>& numerators,
                    const std::vector<double>& denominators) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < numerators.size() && i < denominators.size();
       ++i) {
    ratios.push_back(numerators[i] / denominators[i]);
  }
  return median(std::move(ratios));
}

}  // namespace e2ebench
