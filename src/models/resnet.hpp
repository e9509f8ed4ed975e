// edgetrain: the ResNet family, as analytic specs and as executable chains.
//
// ResNetSpec enumerates every operator of a torchvision-style ResNet
// (conv/bn/relu/pool/add/linear) with exact shape arithmetic, giving
//   * exact trainable-parameter counts (unit-tested against the canonical
//     values: ResNet-18 = 11,689,512 ... ResNet-152 = 60,192,808), and
//   * exact activation-element counts at any image size and batch size,
// the two ingredients of the paper's Tables I-III.
//
// Each op carries the chain step that runs it: every stem op (conv, bn,
// relu, maxpool) and head op (pool, linear) is a step of its own, and each
// residual block is one step. build_resnet_chain() builds the executable
// nn::LayerChain from the spec, one layer per step, so the per-step costs
// and boundary sizes below (and calib::predict_resnet) describe exactly the
// chain that trains.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "nn/chain.hpp"

namespace edgetrain::models {

enum class ResNetVariant { ResNet18, ResNet34, ResNet50, ResNet101, ResNet152 };

/// All five variants, in paper order.
[[nodiscard]] const std::array<ResNetVariant, 5>& all_resnet_variants();

/// The x in ResNet_x (18, 34, 50, 101, 152).
[[nodiscard]] int depth_of(ResNetVariant variant);
[[nodiscard]] std::string name_of(ResNetVariant variant);
/// Blocks per stage, e.g. {2,2,2,2} for ResNet-18.
[[nodiscard]] std::array<int, 4> stage_blocks(ResNetVariant variant);
/// True for the 1x1-3x3-1x1 bottleneck variants (50/101/152).
[[nodiscard]] bool uses_bottleneck(ResNetVariant variant);

enum class OpKind : std::uint8_t {
  Conv,
  BatchNorm,
  ReLU,
  MaxPool,
  GlobalAvgPool,
  Add,
  Linear,
};

/// One operator of the linearised network.
struct OpSpec {
  OpKind kind{OpKind::Conv};
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  /// Chain step this op belongs to, i.e. the index of the executable
  /// chain's layer that runs it: 0..3 = stem conv, bn, relu, maxpool; then
  /// one per residual block; then the global pool and the classifier.
  std::int32_t chain_step = 0;
  /// True for ops on the projection shortcut (their input is the block
  /// input, not the previous op's output).
  bool on_shortcut = false;
};

/// Analytic description of one ResNet.
class ResNetSpec {
 public:
  static ResNetSpec make(ResNetVariant variant, int num_classes = 1000,
                         std::int64_t in_channels = 3);

  [[nodiscard]] ResNetVariant variant() const noexcept { return variant_; }
  [[nodiscard]] std::string name() const { return name_of(variant_); }
  [[nodiscard]] int depth() const { return depth_of(variant_); }
  [[nodiscard]] const std::vector<OpSpec>& ops() const noexcept { return ops_; }
  [[nodiscard]] int num_chain_steps() const noexcept { return num_chain_steps_; }

  /// Exact trainable parameter count (conv + bn affine + fc).
  [[nodiscard]] std::int64_t param_count() const;

  /// Exact total activation elements (one per op output element) for a
  /// square image of @p image_size pixels and batch @p batch.
  [[nodiscard]] std::int64_t activation_elems(int image_size,
                                              std::int64_t batch) const;

  /// Activation elements produced within each chain step -- the per-step
  /// M_A of the executable chain.
  [[nodiscard]] std::vector<std::int64_t> chain_step_activation_elems(
      int image_size, std::int64_t batch) const;

  /// Forward cost (multiply-accumulates, plus element ops) per chain step.
  [[nodiscard]] std::vector<double> chain_step_forward_costs(
      int image_size, std::int64_t batch) const;

  /// Output elements of each chain step (the last main-branch op's output)
  /// -- the boundary states a checkpoint slot holds between steps, and the
  /// sizes calib::predict_resnet prices spills with.
  [[nodiscard]] std::vector<std::int64_t> chain_step_output_elems(
      int image_size, std::int64_t batch) const;

 private:
  ResNetVariant variant_{ResNetVariant::ResNet18};
  int num_classes_ = 1000;
  std::int64_t in_channels_ = 3;
  int num_chain_steps_ = 0;
  std::vector<OpSpec> ops_;
};

/// Executable ResNet built from ResNetSpec::make(@p variant, @p num_classes,
/// @p in_channels): one layer per chain step, so size() equals
/// num_chain_steps(). Layers are constructed in op order, so a fixed @p rng
/// state gives fixed weights.
[[nodiscard]] nn::LayerChain build_resnet_chain(ResNetVariant variant,
                                                int num_classes,
                                                std::int64_t in_channels,
                                                std::mt19937& rng);

}  // namespace edgetrain::models
