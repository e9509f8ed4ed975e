// e2ebench: one end-to-end benchmark for the edgetrain training step and
// the in-situ duty cycle.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scratch <dir>] [--commit <id>] [--source-digest <hex>]
//
// Workloads: r18_revolve_ram, r18_spill_bitmap, insitu_duty_cycle (see
// README.md). Prints a human-readable table, a fingerprint line (host,
// build, commit, seed) and, as the last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero, printing no result, on bad arguments, a
// non-Release build or an error in the workload.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "bench_json.hpp"

namespace {

using namespace e2ebench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

struct Args {
  Options options;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--seconds") {
      args.options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.options.trace = value == "1";
    } else if (flag == "--scratch") {
      args.options.scratch_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args.options.seconds > 0.0;
}

void print_fingerprint(const Args& args, const Result& result) {
  std::printf(
      "{\"fingerprint\": {\"cpu_model\": \"%s\", \"nproc\": %u, "
      "\"threads\": %u, \"compiler\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"source_digest\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %u, \"seconds\": %.17g, "
      "\"trace\": %s, \"timed_samples\": %lld, \"tail_percentile\": "
      "%.17g}}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      result.threads, json_escape(E2E_CXX_COMPILER).c_str(),
      json_escape(E2E_CXX_FLAGS).c_str(), E2E_BUILD_TYPE,
      json_escape(args.commit).c_str(), json_escape(args.source_digest).c_str(),
      json_escape(args.options.workload).c_str(), args.options.seed,
      args.options.seconds, args.options.trace ? "true" : "false",
      static_cast<long long>(result.timed_samples), result.tail_percentile);
}

/// Prints the table and the result line. A per-layer metric the workload
/// did not set is a layer off its path and reads 0. Returns false
/// (printing nothing on stdout) when an end-to-end metric is missing or
/// not a positive finite number, or a per-layer one is not finite.
bool print_result(const Args& args, Result result) {
  const std::vector<MetricSpec>& specs =
      args.options.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    if (args.options.trace) result.metrics.try_emplace(spec.name, 0.0);
    const auto it = result.metrics.find(spec.name);
    const bool missing = it == result.metrics.end();
    if (missing || !std::isfinite(it->second) ||
        (!args.options.trace && !(it->second > 0.0))) {
      std::fprintf(stderr, "e2ebench: metric %s %s\n", spec.name.c_str(),
                   missing ? "missing" : "not a positive finite number");
      return false;
    }
  }
  std::printf("e2ebench %s seed %u (%s): %lld attempted, %lld failed\n",
              args.options.workload.c_str(), args.options.seed,
              args.options.trace ? "traced" : "untraced",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (const MetricSpec& spec : specs) {
    std::printf("  %-32s %16.6f %s\n", spec.name.c_str(),
                result.metrics.at(spec.name), spec.unit.c_str());
  }
  for (const auto& [name, value] : result.metrics) {
    bool listed = false;
    for (const MetricSpec& spec : specs) listed = listed || spec.name == name;
    if (listed) continue;
    std::string unit;
    for (const MetricSpec& spec : reported_metrics()) {
      if (spec.name == name) unit = spec.unit + " ";
    }
    std::printf("  %-32s %16.6f %s(reported only)\n", name.c_str(), value,
                unit.c_str());
  }
  print_fingerprint(args, result);

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::snprintf(value, sizeof value, "%.17g",
                  result.metrics.at(specs[i].name));
    line += i == 0 ? "\"" : ", \"";
    line += specs[i].name;
    line += "\": {\"value\": ";
    line += value;
    line += ", \"unit\": \"";
    line += specs[i].unit;
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: e2ebench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1> [--scratch <dir>] [--commit <id>] "
                   "[--source-digest <hex>]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: bad argument: %s\n", e.what());
    return 2;
  }
  // Same policy as the committed BENCH_*.json baselines: numbers from a
  // non-Release build are never reported.
  if (!edgetrain::bench::release_json_allowed("e2ebench", "a result") ||
      std::string(E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "e2ebench: build type %s refused\n", E2E_BUILD_TYPE);
    return 2;
  }
  const Options& options = args.options;
  if (!is_step_workload(options.workload) &&
      options.workload != "insitu_duty_cycle") {
    std::fprintf(stderr, "e2ebench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }

  int status = 0;
  try {
    std::filesystem::create_directories(options.scratch_dir);
    const Result result = is_step_workload(options.workload)
                              ? run_step_workload(options)
                              : run_insitu_workload(options);
    if (!print_result(args, result)) status = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.scratch_dir, ignored);
  return status;
}
