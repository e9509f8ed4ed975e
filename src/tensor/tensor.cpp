#include "tensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "tensor/guards.hpp"

namespace edgetrain {

std::string Shape::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i != 0) os << ", ";
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

namespace detail {

Storage::Storage(std::size_t numel)
    : data_(std::make_unique_for_overwrite<float[]>(numel)), numel_(numel) {
  MemoryTracker::instance().on_alloc(numel_ * sizeof(float));
  // Fresh storage is uninitialised, like fresh Workspace scratch: poison it
  // so a kernel that reads before writing produces NaNs, not stale heap.
  // Not through guards::paint, whose fill counter tallies released buffers.
  if constexpr (guards::kEnabled) {
    std::fill_n(data_.get(), numel_, std::bit_cast<float>(guards::kPoisonBits));
  }
}

Storage::~Storage() {
  MemoryTracker::instance().on_free(numel_ * sizeof(float));
}

}  // namespace detail

Tensor Tensor::empty(const Shape& shape) {
  return Tensor(
      std::make_shared<detail::Storage>(static_cast<std::size_t>(shape.numel())),
      shape);
}

Tensor Tensor::zeros(const Shape& shape) {
  Tensor t = empty(shape);
  std::memset(t.data(), 0, t.bytes());
  return t;
}

Tensor Tensor::full(const Shape& shape, float value) {
  Tensor t = empty(shape);
  t.fill(value);
  return t;
}

Tensor Tensor::randn(const Shape& shape, std::mt19937& rng, float stddev) {
  Tensor t = empty(shape);
  std::normal_distribution<float> dist(0.0F, stddev);
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = dist(rng);
  return t;
}

Tensor Tensor::uniform(const Shape& shape, std::mt19937& rng, float lo,
                       float hi) {
  Tensor t = empty(shape);
  std::uniform_real_distribution<float> dist(lo, hi);
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = dist(rng);
  return t;
}

Tensor Tensor::from_values(std::initializer_list<float> values) {
  Tensor t = empty(Shape{static_cast<std::int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::clone() const {
  if (!defined()) return {};
  Tensor t = empty(shape_);
  std::memcpy(t.data(), data(), bytes());
  return t;
}

Tensor Tensor::reshaped(const Shape& new_shape) const {
  if (new_shape.numel() != numel()) {
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " +
                                shape_.to_string() + " -> " +
                                new_shape.to_string());
  }
  return Tensor(storage_, new_shape);
}

void Tensor::fill(float value) {
  std::fill_n(data(), numel(), value);
}

void Tensor::add_(const Tensor& other) { axpy_(1.0F, other); }

void Tensor::axpy_(float alpha, const Tensor& other) {
  if (shape_ != other.shape_) {
    throw std::invalid_argument("Tensor::axpy_: shape mismatch " +
                                shape_.to_string() + " vs " +
                                other.shape_.to_string());
  }
  float* dst = data();
  const float* src = other.data();
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void Tensor::scale_(float alpha) {
  float* p = data();
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] *= alpha;
}

float Tensor::sum() const {
  const float* p = data();
  const std::int64_t n = numel();
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float Tensor::max_abs() const {
  const float* p = data();
  const std::int64_t n = numel();
  float best = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) best = std::max(best, std::fabs(p[i]));
  return best;
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  float best = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) {
    best = std::max(best, std::fabs(pa[i] - pb[i]));
  }
  return best;
}

}  // namespace edgetrain
