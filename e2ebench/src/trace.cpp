#include "trace.hpp"

#include <algorithm>
#include <functional>
#include <string>

namespace e2ebench {

using edgetrain::Tensor;

double StepRecord::self_ms() const {
  return step_ms - sum(fwd_ms) - sum(bwd_ms) - sum(recompute_ms) - put_ms -
         get_ms - optim_ms;
}

TracingRunner::TracingRunner(edgetrain::core::ChainRunner& inner,
                             StepRecord& record)
    : inner_(inner),
      record_(record),
      visits_(static_cast<std::size_t>(inner.num_steps()), 0) {}

Tensor TracingRunner::forward(int step, const Tensor& input, bool save) {
  const auto start = Clock::now();
  Tensor out = inner_.forward(step, input, save);
  const double ms = ms_since(start);
  const auto i = static_cast<std::size_t>(step);
  if (visits_[i]++ == 0) {
    record_.fwd_ms[i] += ms;
  } else {
    record_.recompute_ms[i] += ms;
    ++record_.recompute_calls;
  }
  return out;
}

Tensor TracingRunner::backward(int step, const Tensor& grad_output) {
  const auto start = Clock::now();
  Tensor out = inner_.backward(step, grad_output);
  record_.bwd_ms[static_cast<std::size_t>(step)] += ms_since(start);
  return out;
}

void TracingStore::put(std::int32_t slot, const Tensor& value) {
  const auto start = Clock::now();
  inner_.put(slot, value);
  record_.put_ms += ms_since(start);
  ++record_.puts;
  sample_footprint();
}

Tensor TracingStore::get(std::int32_t slot) {
  const auto start = Clock::now();
  Tensor out = inner_.get(slot);
  record_.get_ms += ms_since(start);
  ++record_.gets;
  sample_footprint();
  return out;
}

void TracingStore::drop(std::int32_t slot) {
  inner_.drop(slot);
  sample_footprint();
}

void TracingStore::sample_footprint() {
  record_.resident_peak_bytes =
      std::max(record_.resident_peak_bytes, inner_.resident_bytes());
  record_.external_peak_bytes =
      std::max(record_.external_peak_bytes, inner_.external_bytes());
}

namespace {

double median_of(const std::vector<StepRecord>& records,
                 const std::function<double(const StepRecord&)>& field) {
  std::vector<double> values;
  values.reserve(records.size());
  for (const StepRecord& r : records) values.push_back(field(r));
  return median(std::move(values));
}

double mean_of(const std::vector<StepRecord>& records,
               const std::function<double(const StepRecord&)>& field) {
  double total = 0.0;
  for (const StepRecord& r : records) total += field(r);
  return records.empty() ? 0.0 : total / static_cast<double>(records.size());
}

}  // namespace

void report_step_records(const std::vector<StepRecord>& records,
                         Result& result) {
  result.set("nn.fwd_ms",
             median_of(records, [](const auto& r) { return sum(r.fwd_ms); }));
  result.set("nn.recompute_ms", median_of(records, [](const auto& r) {
               return sum(r.recompute_ms);
             }));
  result.set("nn.bwd_ms",
             median_of(records, [](const auto& r) { return sum(r.bwd_ms); }));
  result.set("nn.optim_ms",
             median_of(records, [](const auto& r) { return r.optim_ms; }));
  result.set("nn.recompute_calls", mean_of(records, [](const auto& r) {
               return static_cast<double>(r.recompute_calls);
             }));
  for (int i = 0; i < kChainSteps; ++i) {
    const auto at = static_cast<std::size_t>(i);
    const std::string suffix = "." + std::to_string(i);
    result.set("nn.fwd_ms" + suffix, median_of(records, [at](const auto& r) {
                 return at < r.fwd_ms.size() ? r.fwd_ms[at] : 0.0;
               }));
    result.set("nn.bwd_ms" + suffix, median_of(records, [at](const auto& r) {
                 return at < r.bwd_ms.size() ? r.bwd_ms[at] : 0.0;
               }));
    result.set("nn.recompute_ms" + suffix,
               median_of(records, [at](const auto& r) {
                 return at < r.recompute_ms.size() ? r.recompute_ms[at] : 0.0;
               }));
  }
  result.set("core.exec_self_ms",
             median_of(records, [](const auto& r) { return r.self_ms(); }));
  result.set("core.store.put_ms",
             median_of(records, [](const auto& r) { return r.put_ms; }));
  result.set("core.store.get_ms",
             median_of(records, [](const auto& r) { return r.get_ms; }));
  result.set("core.store.puts", mean_of(records, [](const auto& r) {
               return static_cast<double>(r.puts);
             }));
  result.set("core.store.gets", mean_of(records, [](const auto& r) {
               return static_cast<double>(r.gets);
             }));
  std::size_t resident = 0;
  std::size_t external = 0;
  for (const StepRecord& r : records) {
    resident = std::max(resident, r.resident_peak_bytes);
    external = std::max(external, r.external_peak_bytes);
  }
  result.set("core.store.resident_peak_mib",
             static_cast<double>(resident) / kMiB);
  result.set("core.store.external_mib", static_cast<double>(external) / kMiB);
}

}  // namespace e2ebench
