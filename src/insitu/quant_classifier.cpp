#include "insitu/quant_classifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/layers.hpp"
#include "tensor/convert.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"

namespace edgetrain::insitu {

namespace {

void check(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

/// u8 quantization params covering the requested central mass of the
/// samples (1.0 = exact min/max). Mutates @p samples (nth_element).
quant::QuantParams params_from_samples(std::vector<float>& samples,
                                       float percentile) {
  if (samples.empty()) return quant::QuantParams{};
  if (percentile >= 1.0F) {
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    return quant::choose_u8_params(*lo, *hi);
  }
  const auto n = static_cast<double>(samples.size() - 1);
  const double tail = (1.0 - static_cast<double>(percentile)) / 2.0;
  const auto lo_idx = static_cast<std::ptrdiff_t>(std::floor(tail * n));
  const auto hi_idx = static_cast<std::ptrdiff_t>(std::ceil((1.0 - tail) * n));
  std::nth_element(samples.begin(), samples.begin() + lo_idx, samples.end());
  const float lo = samples[static_cast<std::size_t>(lo_idx)];
  std::nth_element(samples.begin(), samples.begin() + hi_idx, samples.end());
  const float hi = samples[static_cast<std::size_t>(hi_idx)];
  return quant::choose_u8_params(lo, hi);
}

void validate_batch(const Tensor& batch, int patch, const char* what) {
  check(batch.defined() && batch.shape().rank() == 4 &&
            batch.shape()[1] == 1 && batch.shape()[2] == patch &&
            batch.shape()[3] == patch,
        what);
}

}  // namespace

const char* to_string(TeacherPrecision precision) noexcept {
  switch (precision) {
    case TeacherPrecision::Fp32: return "fp32";
    case TeacherPrecision::Bf16: return "bf16";
    case TeacherPrecision::Int8: return "int8";
  }
  return "?";
}

QuantizedPatchClassifier::QuantizedPatchClassifier(
    PatchClassifier& teacher, const Tensor& calibration_batch,
    TeacherPrecision precision, const QuantOptions& options)
    : precision_(precision),
      patch_(teacher.patch()),
      num_classes_(teacher.num_classes()) {
  check(options.percentile > 0.0F && options.percentile <= 1.0F,
        "QuantizedPatchClassifier: percentile must be in (0, 1]");
  validate_batch(calibration_batch, patch_,
                 "QuantizedPatchClassifier: calibration batch must be "
                 "[N,1,patch,patch]");
  parse_chain(teacher);
  if (precision_ == TeacherPrecision::Int8) {
    calibrate(calibration_batch, options.percentile);
    quantize_weights();
  } else if (precision_ == TeacherPrecision::Bf16) {
    for (Stage& s : stages_) {
      const std::int64_t count = s.w2d.numel();
      s.w_bf16.resize(static_cast<std::size_t>(count));
      convert::fp32_to_bf16(s.w2d.data(), s.w_bf16.data(), count,
                            convert::Threading::Serial);
    }
  }
}

void QuantizedPatchClassifier::parse_chain(PatchClassifier& teacher) {
  nn::LayerChain& chain = teacher.chain();
  const int layers = chain.size();
  std::int64_t c = 1;
  std::int64_t h = patch_;
  std::int64_t w = patch_;
  int i = 0;
  while (i < layers) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&chain.layer(i));
    if (conv == nullptr) break;
    ++i;
    Stage s;
    s.in_c = c;
    s.in_h = h;
    s.in_w = w;
    const Tensor& cw = conv->weight();  // [out_c, in_c, k, k]
    check(cw.shape().rank() == 4 && cw.shape()[1] == c,
          "QuantizedPatchClassifier: conv weight shape mismatch");
    s.out_c = cw.shape()[0];
    s.kernel = conv->kernel();
    s.conv_params = conv->conv_params();
    s.conv_h = ops::conv_out_size(h, s.kernel, s.conv_params.stride,
                                  s.conv_params.pad);
    s.conv_w = ops::conv_out_size(w, s.kernel, s.conv_params.stride,
                                  s.conv_params.pad);

    const nn::BatchNorm2d* bn = nullptr;
    if (i < layers) {
      bn = dynamic_cast<const nn::BatchNorm2d*>(&chain.layer(i));
      if (bn != nullptr) ++i;
    }
    if (i < layers && dynamic_cast<const nn::ReLU*>(&chain.layer(i))) {
      s.has_relu = true;
      ++i;
    }
    if (i < layers) {
      if (const auto* pool =
              dynamic_cast<const nn::MaxPool2d*>(&chain.layer(i))) {
        s.has_pool = true;
        s.pool_kernel = pool->kernel();
        s.pool_params = pool->pool_params();
        ++i;
      }
    }
    s.out_h = s.conv_h;
    s.out_w = s.conv_w;
    if (s.has_pool) {
      s.out_h = ops::conv_out_size(s.conv_h, s.pool_kernel,
                                   s.pool_params.stride, s.pool_params.pad);
      s.out_w = ops::conv_out_size(s.conv_w, s.pool_kernel,
                                   s.pool_params.stride, s.pool_params.pad);
    }

    // Fold batch norm (running statistics -- the fp32 eval path's numbers)
    // and any conv bias into per-channel scale/shift:
    //   y = (conv(x) + b - mean) * gamma/sqrt(var+eps) + beta
    //     = conv(x) * g  +  ((b - mean) * g + beta),  g = gamma/sqrt(var+eps)
    const std::int64_t kk = s.in_c * s.kernel * s.kernel;
    std::vector<float> scale_ch(static_cast<std::size_t>(s.out_c), 1.0F);
    s.bias.assign(static_cast<std::size_t>(s.out_c), 0.0F);
    for (std::int64_t o = 0; o < s.out_c; ++o) {
      const auto oi = static_cast<std::size_t>(o);
      float b = conv->has_bias() ? conv->bias().data()[o] : 0.0F;
      if (bn != nullptr) {
        const float g =
            bn->gamma().data()[o] /
            std::sqrt(bn->running_var().data()[o] + bn->eps());
        scale_ch[oi] = g;
        b = (b - bn->running_mean().data()[o]) * g + bn->beta().data()[o];
      }
      s.bias[oi] = b;
    }
    s.w2d = Tensor::empty(Shape{s.out_c, kk});
    for (std::int64_t o = 0; o < s.out_c; ++o) {
      const float* src = cw.data() + o * kk;
      float* dst = s.w2d.data() + o * kk;
      const float g = scale_ch[static_cast<std::size_t>(o)];
      for (std::int64_t j = 0; j < kk; ++j) dst[j] = src[j] * g;
    }

    max_col_ = std::max(max_col_, kk * s.conv_h * s.conv_w);
    max_acc_ = std::max(max_acc_, s.out_c * s.conv_h * s.conv_w);
    max_act_ = std::max(max_act_, s.out_c * s.conv_h * s.conv_w);

    c = s.out_c;
    h = s.out_h;
    w = s.out_w;
    stages_.push_back(std::move(s));
  }
  check(!stages_.empty(),
        "QuantizedPatchClassifier: chain has no leading conv stage");
  check(i + 2 == layers &&
            dynamic_cast<const nn::GlobalAvgPool*>(&chain.layer(i)) != nullptr,
        "QuantizedPatchClassifier: expected [conv stages] + GlobalAvgPool + "
        "Linear chain");
  const auto* lin = dynamic_cast<const nn::Linear*>(&chain.layer(i + 1));
  check(lin != nullptr && lin->weight().shape()[1] == c,
        "QuantizedPatchClassifier: Linear head mismatch");
  linear_w_ = lin->weight().clone();
  if (lin->has_bias()) linear_b_ = lin->bias().clone();
  check(linear_w_.shape()[0] == num_classes_,
        "QuantizedPatchClassifier: class count mismatch");
}

void QuantizedPatchClassifier::calibrate(const Tensor& calibration_batch,
                                         float percentile) {
  // Stage-boundary activation samples from the BN-folded fp32 pipeline --
  // the same arithmetic the Fp32 path runs, so the ranges are exactly what
  // the quantized path will see at each boundary.
  const std::int64_t n = calibration_batch.shape()[0];
  const std::int64_t pixels = static_cast<std::int64_t>(patch_) * patch_;
  std::vector<std::vector<float>> samples(stages_.size() + 1);
  samples[0].assign(calibration_batch.data(),
                    calibration_batch.data() + n * pixels);

  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* col = ws.alloc(max_col_);
  float* buf_a = ws.alloc(max_act_);
  float* buf_b = ws.alloc(max_act_);
  for (std::int64_t img = 0; img < n; ++img) {
    const float* cur = calibration_batch.data() + img * pixels;
    float* bufs[2] = {buf_a, buf_b};
    int which = 0;
    for (std::size_t si = 0; si < stages_.size(); ++si) {
      const Stage& s = stages_[si];
      const std::int64_t kk = s.in_c * s.kernel * s.kernel;
      const std::int64_t area = s.conv_h * s.conv_w;
      ops::im2col(cur, s.in_c, s.in_h, s.in_w, s.kernel, s.kernel,
                  s.conv_params, col);
      float* conv_out = bufs[which];
      which ^= 1;
      ops::gemm(false, false, s.out_c, area, kk, 1.0F, s.w2d.data(), col,
                0.0F, conv_out);
      for (std::int64_t o = 0; o < s.out_c; ++o) {
        const float b = s.bias[static_cast<std::size_t>(o)];
        float* row = conv_out + o * area;
        for (std::int64_t j = 0; j < area; ++j) {
          const float v = row[j] + b;
          row[j] = s.has_relu ? std::max(v, 0.0F) : v;
        }
      }
      samples[si + 1].insert(samples[si + 1].end(), conv_out,
                             conv_out + s.out_c * area);
      if (s.has_pool) {
        float* pooled = bufs[which];
        which ^= 1;
        ops::maxpool2d_values(conv_out, s.out_c, s.conv_h, s.conv_w,
                              s.pool_kernel, s.pool_params, pooled);
        cur = pooled;
      } else {
        cur = conv_out;
      }
    }
  }
  // Boundary i feeds stage i's input; boundary i+1 is its requantization
  // target. Max pooling preserves the range (monotonic), so post-conv
  // samples stand in for post-pool ones.
  std::vector<quant::QuantParams> params(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    params[i] = params_from_samples(samples[i], percentile);
  }
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    stages_[si].in_q = params[si];
    stages_[si].out_q = params[si + 1];
  }
}

void QuantizedPatchClassifier::quantize_weights() {
  for (Stage& s : stages_) {
    const std::int64_t kk = s.in_c * s.kernel * s.kernel;
    const auto oc = static_cast<std::size_t>(s.out_c);
    s.w_s8.resize(static_cast<std::size_t>(s.out_c * kk));
    s.w_scales.resize(oc);
    s.requant_mult.resize(oc);
    s.requant_bias.resize(oc);
    for (std::int64_t o = 0; o < s.out_c; ++o) {
      const auto oi = static_cast<std::size_t>(o);
      const float* row = s.w2d.data() + o * kk;
      float max_abs = 0.0F;
      for (std::int64_t j = 0; j < kk; ++j) {
        max_abs = std::max(max_abs, std::fabs(row[j]));
      }
      const float scale = quant::choose_s8_scale(max_abs);
      s.w_scales[oi] = scale;
      quant::quantize_s8(row, s.w_s8.data() + o * kk, kk, scale,
                         convert::Threading::Serial);
      s.requant_mult[oi] = s.in_q.scale * scale / s.out_q.scale;
      s.requant_bias[oi] = s.bias[oi] / s.out_q.scale;
    }
  }
}

Tensor QuantizedPatchClassifier::logits(const Tensor& batch) {
  validate_batch(batch, patch_,
                 "QuantizedPatchClassifier::logits: batch must be "
                 "[N,1,patch,patch]");
  switch (precision_) {
    case TeacherPrecision::Int8: return logits_int8(batch);
    case TeacherPrecision::Bf16: return logits_fp32_like(batch, true);
    case TeacherPrecision::Fp32: return logits_fp32_like(batch, false);
  }
  throw std::logic_error("QuantizedPatchClassifier: bad precision");
}

Tensor QuantizedPatchClassifier::logits_fp32_like(const Tensor& batch,
                                                  bool bf16) {
  const std::int64_t n = batch.shape()[0];
  const std::int64_t pixels = static_cast<std::int64_t>(patch_) * patch_;
  const Stage& last = stages_.back();
  Tensor gap = Tensor::empty(Shape{n, last.out_c});

  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* col = ws.alloc(max_col_);
  std::uint16_t* col_bf16 =
      bf16 ? reinterpret_cast<std::uint16_t*>(ws.alloc((max_col_ + 1) / 2))
           : nullptr;
  float* buf_a = ws.alloc(max_act_);
  float* buf_b = ws.alloc(max_act_);
  // Per-image loop stays serial: the GEMM inside already parallelises over
  // the pool (which is not reentrant), same structure as conv2d_forward.
  for (std::int64_t img = 0; img < n; ++img) {
    const float* cur = batch.data() + img * pixels;
    float* bufs[2] = {buf_a, buf_b};
    int which = 0;
    for (const Stage& s : stages_) {
      const std::int64_t kk = s.in_c * s.kernel * s.kernel;
      const std::int64_t area = s.conv_h * s.conv_w;
      ops::im2col(cur, s.in_c, s.in_h, s.in_w, s.kernel, s.kernel,
                  s.conv_params, col);
      float* conv_out = bufs[which];
      which ^= 1;
      if (bf16) {
        convert::fp32_to_bf16(col, col_bf16, kk * area);
        ops::gemm_bf16(false, false, s.out_c, area, kk, 1.0F,
                       s.w_bf16.data(), col_bf16, 0.0F, conv_out);
      } else {
        ops::gemm(false, false, s.out_c, area, kk, 1.0F, s.w2d.data(), col,
                  0.0F, conv_out);
      }
      for (std::int64_t o = 0; o < s.out_c; ++o) {
        const float b = s.bias[static_cast<std::size_t>(o)];
        float* row = conv_out + o * area;
        for (std::int64_t j = 0; j < area; ++j) {
          const float v = row[j] + b;
          row[j] = s.has_relu ? std::max(v, 0.0F) : v;
        }
      }
      if (s.has_pool) {
        float* pooled = bufs[which];
        which ^= 1;
        ops::maxpool2d_values(conv_out, s.out_c, s.conv_h, s.conv_w,
                              s.pool_kernel, s.pool_params, pooled);
        cur = pooled;
      } else {
        cur = conv_out;
      }
    }
    // Global average pool (double accumulation, like ops::global_avgpool).
    const std::int64_t area = last.out_h * last.out_w;
    for (std::int64_t c = 0; c < last.out_c; ++c) {
      double sum = 0.0;
      const float* plane = cur + c * area;
      for (std::int64_t j = 0; j < area; ++j) sum += plane[j];
      gap.data()[img * last.out_c + c] =
          static_cast<float>(sum / static_cast<double>(area));
    }
  }
  return ops::linear_forward(gap, linear_w_, linear_b_);
}

Tensor QuantizedPatchClassifier::logits_int8(const Tensor& batch) {
  const std::int64_t n = batch.shape()[0];
  const std::int64_t pixels = static_cast<std::int64_t>(patch_) * patch_;
  const Stage& last = stages_.back();
  Tensor gap = Tensor::empty(Shape{n, last.out_c});

  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  // The arena hands out float spans; u8/s32 views are reinterpreted (s32
  // has the same width, u8 packs 4 per float).
  auto* qin =
      reinterpret_cast<std::uint8_t*>(ws.alloc((n * pixels + 3) / 4));
  quant::quantize_u8(batch.data(), qin, n * pixels, stages_.front().in_q);
  auto* col = reinterpret_cast<std::uint8_t*>(ws.alloc((max_col_ + 3) / 4));
  auto* acc = reinterpret_cast<std::int32_t*>(ws.alloc(max_acc_));
  auto* buf_a = reinterpret_cast<std::uint8_t*>(ws.alloc((max_act_ + 3) / 4));
  auto* buf_b = reinterpret_cast<std::uint8_t*>(ws.alloc((max_act_ + 3) / 4));
  for (std::int64_t img = 0; img < n; ++img) {
    const std::uint8_t* cur = qin + img * pixels;
    std::uint8_t* bufs[2] = {buf_a, buf_b};
    int which = 0;
    for (const Stage& s : stages_) {
      const std::int64_t kk = s.in_c * s.kernel * s.kernel;
      const std::int64_t area = s.conv_h * s.conv_w;
      const auto zp_in = static_cast<std::uint8_t>(s.in_q.zero_point);
      quant::im2col_u8(cur, s.in_c, s.in_h, s.in_w, s.kernel, s.kernel,
                       s.conv_params, zp_in, col);
      quant::gemm_s8u8(s.out_c, area, kk, s.w_s8.data(), col,
                       s.in_q.zero_point, acc);
      std::uint8_t* conv_out = bufs[which];
      which ^= 1;
      quant::requantize_s32_u8(acc, conv_out, s.out_c, area,
                               s.requant_mult.data(), s.requant_bias.data(),
                               s.out_q.zero_point, s.has_relu);
      if (s.has_pool) {
        std::uint8_t* pooled = bufs[which];
        which ^= 1;
        quant::maxpool2d_u8(conv_out, s.out_c, s.conv_h, s.conv_w,
                            s.pool_kernel, s.pool_params,
                            static_cast<std::uint8_t>(s.out_q.zero_point),
                            pooled);
        cur = pooled;
      } else {
        cur = conv_out;
      }
    }
    // Dequantizing global average pool: mean of the integer codes, then one
    // affine map back to real units.
    const std::int64_t area = last.out_h * last.out_w;
    for (std::int64_t c = 0; c < last.out_c; ++c) {
      std::int64_t sum = 0;
      const std::uint8_t* plane = cur + c * area;
      for (std::int64_t j = 0; j < area; ++j) sum += plane[j];
      const double mean = static_cast<double>(sum) / static_cast<double>(area);
      gap.data()[img * last.out_c + c] = static_cast<float>(
          static_cast<double>(last.out_q.scale) *
          (mean - static_cast<double>(last.out_q.zero_point)));
    }
  }
  return ops::linear_forward(gap, linear_w_, linear_b_);
}

std::vector<std::pair<std::int32_t, float>>
QuantizedPatchClassifier::predict_batch(const Tensor& batch) {
  return predictions_from_logits(logits(batch));
}

std::pair<std::int32_t, float> QuantizedPatchClassifier::predict(
    const std::vector<float>& pixels) {
  check(pixels.size() == static_cast<std::size_t>(patch_) *
                             static_cast<std::size_t>(patch_),
        "QuantizedPatchClassifier::predict: pixel count mismatch");
  Tensor x = Tensor::empty(Shape{1, 1, patch_, patch_});
  std::copy(pixels.begin(), pixels.end(), x.data());
  return predict_batch(x)[0];
}

}  // namespace edgetrain::insitu
