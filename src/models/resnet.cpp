#include "models/resnet.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::models {

const std::array<ResNetVariant, 5>& all_resnet_variants() {
  static const std::array<ResNetVariant, 5> variants = {
      ResNetVariant::ResNet18, ResNetVariant::ResNet34, ResNetVariant::ResNet50,
      ResNetVariant::ResNet101, ResNetVariant::ResNet152};
  return variants;
}

int depth_of(ResNetVariant variant) {
  switch (variant) {
    case ResNetVariant::ResNet18: return 18;
    case ResNetVariant::ResNet34: return 34;
    case ResNetVariant::ResNet50: return 50;
    case ResNetVariant::ResNet101: return 101;
    case ResNetVariant::ResNet152: return 152;
  }
  throw std::invalid_argument("unknown ResNet variant");
}

std::string name_of(ResNetVariant variant) {
  return "ResNet" + std::to_string(depth_of(variant));
}

std::array<int, 4> stage_blocks(ResNetVariant variant) {
  switch (variant) {
    case ResNetVariant::ResNet18: return {2, 2, 2, 2};
    case ResNetVariant::ResNet34: return {3, 4, 6, 3};
    case ResNetVariant::ResNet50: return {3, 4, 6, 3};
    case ResNetVariant::ResNet101: return {3, 4, 23, 3};
    case ResNetVariant::ResNet152: return {3, 8, 36, 3};
  }
  throw std::invalid_argument("unknown ResNet variant");
}

bool uses_bottleneck(ResNetVariant variant) {
  return variant == ResNetVariant::ResNet50 ||
         variant == ResNetVariant::ResNet101 ||
         variant == ResNetVariant::ResNet152;
}

// ---------------------------------------------------------------------------
// Spec construction
// ---------------------------------------------------------------------------

namespace {
constexpr std::int64_t kStageWidths[4] = {64, 128, 256, 512};
}  // namespace

ResNetSpec ResNetSpec::make(ResNetVariant variant, int num_classes,
                            std::int64_t in_channels) {
  ResNetSpec spec;
  spec.variant_ = variant;
  spec.num_classes_ = num_classes;
  spec.in_channels_ = in_channels;

  const bool bottleneck = uses_bottleneck(variant);
  const std::array<int, 4> blocks = stage_blocks(variant);
  auto& ops = spec.ops_;
  std::int32_t step = 0;

  auto conv = [&](std::int64_t cin, std::int64_t cout, std::int64_t k,
                  std::int64_t stride, std::int64_t pad, bool shortcut) {
    ops.push_back({OpKind::Conv, cin, cout, k, stride, pad, step, shortcut});
  };
  auto bn = [&](std::int64_t c, bool shortcut) {
    ops.push_back({OpKind::BatchNorm, c, c, 0, 1, 0, step, shortcut});
  };
  auto relu = [&](std::int64_t c) {
    ops.push_back({OpKind::ReLU, c, c, 0, 1, 0, step, false});
  };

  // Stem and head ops are one chain step each; a residual block is one.
  auto alone = [&](OpSpec op) { op.chain_step = step++; ops.push_back(op); };
  alone({OpKind::Conv, in_channels, 64, 7, 2, 3});
  alone({OpKind::BatchNorm, 64, 64});
  alone({OpKind::ReLU, 64, 64});
  alone({OpKind::MaxPool, 64, 64, 3, 2, 1});

  std::int64_t current = 64;  // channels entering the next block
  for (int stage = 0; stage < 4; ++stage) {
    const std::int64_t width = kStageWidths[stage];
    const std::int64_t out = bottleneck ? width * 4 : width;
    for (int b = 0; b < blocks[static_cast<std::size_t>(stage)]; ++b) {
      const std::int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      if (bottleneck) {
        conv(current, width, 1, 1, 0, false);
        bn(width, false);
        relu(width);
        conv(width, width, 3, stride, 1, false);
        bn(width, false);
        relu(width);
        conv(width, out, 1, 1, 0, false);
        bn(out, false);
      } else {
        conv(current, width, 3, stride, 1, false);
        bn(width, false);
        relu(width);
        conv(width, width, 3, 1, 1, false);
        bn(width, false);
      }
      if (stride != 1 || current != out) {  // projection shortcut
        conv(current, out, 1, stride, 0, true);
        bn(out, true);
      }
      ops.push_back({OpKind::Add, out, out, 0, 1, 0, step, false});
      relu(out);
      current = out;
      ++step;
    }
  }

  alone({OpKind::GlobalAvgPool, current, current});
  alone({OpKind::Linear, current, num_classes});
  spec.num_chain_steps_ = step;
  return spec;
}

std::int64_t ResNetSpec::param_count() const {
  std::int64_t total = 0;
  for (const OpSpec& op : ops_) {
    switch (op.kind) {
      case OpKind::Conv:
        total += op.kernel * op.kernel * op.in_channels * op.out_channels;
        break;
      case OpKind::BatchNorm:
        total += 2 * op.out_channels;  // affine gamma + beta
        break;
      case OpKind::Linear:
        total += op.in_channels * op.out_channels + op.out_channels;
        break;
      default:
        break;
    }
  }
  return total;
}

namespace {
/// Replays op shapes on a square image: visit(op, output elems per sample).
template <typename Visitor>
void replay(const std::vector<OpSpec>& ops, int image_size, Visitor&& visit) {
  std::int64_t side = image_size;  // running side on the main branch
  std::int64_t entry = side;       // block-entry side, for shortcut branches
  std::int64_t shortcut = side;    // running side on the shortcut branch
  std::int32_t current_step = 0;

  for (const OpSpec& op : ops) {
    if (op.chain_step != current_step) {
      current_step = op.chain_step;
      entry = side;
    }
    std::int64_t elems = 0;
    switch (op.kind) {
      case OpKind::Conv:
      case OpKind::MaxPool:
        if (op.on_shortcut) {
          shortcut = ops::conv_out_size(entry, op.kernel, op.stride, op.pad);
        } else {
          side = ops::conv_out_size(side, op.kernel, op.stride, op.pad);
        }
        [[fallthrough]];
      case OpKind::BatchNorm:
      case OpKind::ReLU:
      case OpKind::Add: {
        const std::int64_t s = op.on_shortcut ? shortcut : side;
        elems = op.out_channels * s * s;
        break;
      }
      case OpKind::GlobalAvgPool:
        side = 1;
        [[fallthrough]];
      case OpKind::Linear:
        elems = op.out_channels;
        break;
    }
    visit(op, elems);
  }
}
}  // namespace

std::int64_t ResNetSpec::activation_elems(int image_size,
                                          std::int64_t batch) const {
  std::int64_t total = 0;
  replay(ops_, image_size,
         [&](const OpSpec&, std::int64_t elems) { total += elems; });
  return total * batch;
}

std::vector<std::int64_t> ResNetSpec::chain_step_activation_elems(
    int image_size, std::int64_t batch) const {
  std::vector<std::int64_t> per_step(
      static_cast<std::size_t>(num_chain_steps_), 0);
  replay(ops_, image_size, [&](const OpSpec& op, std::int64_t elems) {
    per_step[static_cast<std::size_t>(op.chain_step)] += elems * batch;
  });
  return per_step;
}

std::vector<double> ResNetSpec::chain_step_forward_costs(
    int image_size, std::int64_t batch) const {
  std::vector<double> per_step(static_cast<std::size_t>(num_chain_steps_),
                               0.0);
  replay(ops_, image_size, [&](const OpSpec& op, std::int64_t elems) {
    double cost = 0.0;
    switch (op.kind) {
      case OpKind::Conv:
        // MACs: output elems * (k^2 * in_channels)
        cost = static_cast<double>(elems) *
               static_cast<double>(op.kernel * op.kernel * op.in_channels);
        break;
      case OpKind::Linear:
        cost = static_cast<double>(op.in_channels) *
               static_cast<double>(op.out_channels);
        break;
      case OpKind::MaxPool:
        cost = static_cast<double>(elems) *
               static_cast<double>(op.kernel * op.kernel);
        break;
      default:
        cost = static_cast<double>(elems);
        break;
    }
    per_step[static_cast<std::size_t>(op.chain_step)] +=
        cost * static_cast<double>(batch);
  });
  return per_step;
}

std::vector<std::int64_t> ResNetSpec::chain_step_output_elems(
    int image_size, std::int64_t batch) const {
  std::vector<std::int64_t> per_step(
      static_cast<std::size_t>(num_chain_steps_), 0);
  replay(ops_, image_size, [&](const OpSpec& op, std::int64_t elems) {
    // The step's boundary is the output of its last main-branch op;
    // shortcut branches merge before the boundary.
    if (!op.on_shortcut) {
      per_step[static_cast<std::size_t>(op.chain_step)] = elems * batch;
    }
  });
  return per_step;
}

// ---------------------------------------------------------------------------
// Executable builder
// ---------------------------------------------------------------------------

namespace {
/// The layer a one-op chain step runs.
std::unique_ptr<nn::Layer> make_layer(const OpSpec& op, std::mt19937& rng) {
  switch (op.kind) {
    case OpKind::Conv:
      return std::make_unique<nn::Conv2d>(op.in_channels, op.out_channels,
                                          op.kernel, op.stride, op.pad, false,
                                          rng);
    case OpKind::BatchNorm:
      return std::make_unique<nn::BatchNorm2d>(op.out_channels);
    case OpKind::ReLU: return std::make_unique<nn::ReLU>();
    case OpKind::MaxPool:
      return std::make_unique<nn::MaxPool2d>(op.kernel, op.stride, op.pad);
    case OpKind::GlobalAvgPool: return std::make_unique<nn::GlobalAvgPool>();
    case OpKind::Linear:
      return std::make_unique<nn::Linear>(op.in_channels, op.out_channels,
                                          true, rng);
    case OpKind::Add: break;
  }
  throw std::logic_error("build_resnet_chain: op cannot run as a chain step");
}
}  // namespace

nn::LayerChain build_resnet_chain(ResNetVariant variant, int num_classes,
                                  std::int64_t in_channels, std::mt19937& rng) {
  const ResNetSpec spec = ResNetSpec::make(variant, num_classes, in_channels);
  const std::vector<OpSpec>& ops = spec.ops();
  nn::LayerChain chain;
  std::size_t end = 0;
  for (std::int32_t step = 0; step < spec.num_chain_steps(); ++step) {
    const std::size_t first = end;
    std::int64_t stride = 1;  // a block's stride is that of its strided conv
    for (; end < ops.size() && ops[end].chain_step == step; ++end) {
      stride = std::max(stride, ops[end].stride);
    }
    // A multi-op step is a residual block; its first conv gives the input
    // channels and the width.
    const OpSpec& op = ops[first];
    if (end - first == 1) {
      chain.push(make_layer(op, rng));
    } else if (uses_bottleneck(variant)) {
      chain.push(std::make_unique<nn::Bottleneck>(
          op.in_channels, op.out_channels, stride, rng));
    } else {
      chain.push(std::make_unique<nn::BasicBlock>(
          op.in_channels, op.out_channels, stride, rng));
    }
  }
  return chain;
}

}  // namespace edgetrain::models
