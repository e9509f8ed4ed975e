#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "tensor/parallel.hpp"

namespace edgetrain::ops {
namespace {

TEST(ConvOutSize, MatchesFormula) {
  EXPECT_EQ(conv_out_size(224, 7, 2, 3), 112);
  EXPECT_EQ(conv_out_size(112, 3, 2, 1), 56);
  EXPECT_EQ(conv_out_size(8, 3, 1, 1), 8);
  EXPECT_EQ(conv_out_size(5, 3, 1, 0), 3);
  EXPECT_EQ(conv_out_size(5, 2, 2, 0), 2);
}

// Naive triple-loop GEMM reference.
void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  std::mt19937 rng(11);
  const std::int64_t m = 7;
  const std::int64_t n = 9;
  const std::int64_t k = 13;
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
  Tensor c = Tensor::zeros(Shape{m, n});
  Tensor ref = Tensor::zeros(Shape{m, n});
  gemm(ta, tb, m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
  naive_gemm(ta, tb, m, n, k, a.data(), b.data(), ref.data());
  EXPECT_LT(Tensor::max_abs_diff(c, ref), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Gemm, AlphaBetaSemantics) {
  std::mt19937 rng(3);
  Tensor a = Tensor::randn(Shape{4, 5}, rng);
  Tensor b = Tensor::randn(Shape{5, 6}, rng);
  Tensor c = Tensor::full(Shape{4, 6}, 1.0F);
  Tensor expect = Tensor::zeros(Shape{4, 6});
  naive_gemm(false, false, 4, 6, 5, a.data(), b.data(), expect.data());
  // c = 2*A*B + 3*c
  gemm(false, false, 4, 6, 5, 2.0F, a.data(), b.data(), 3.0F, c.data());
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), 2.0F * expect.at(i) + 3.0F, 1e-4F);
  }
}

// Naive convolution reference.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                  const ConvParams& p) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t cin = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t wd = x.shape()[3];
  const std::int64_t cout = w.shape()[0];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(wd, kw, p.stride, p.pad);
  Tensor y = Tensor::zeros(Shape{n, cout, ho, wo});
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          double acc = bias.defined() ? bias.at(co) : 0.0;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = oy * p.stride - p.pad + ky;
                const std::int64_t ix = ox * p.stride - p.pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(
                           x.data()[((img * cin + ci) * h + iy) * wd + ix]) *
                       w.data()[((co * cin + ci) * kh + ky) * kw + kx];
              }
            }
          }
          y.data()[((img * cout + co) * ho + oy) * wo + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

// gtest names each case by the raw bytes of its parameter, and ctest keeps
// that name, so the struct must have no padding: padding bytes would carry
// whatever the stack held. `name_bytes` fills the 7 bytes after `bias` with
// zeros, which keeps every case name fixed.
struct ConvCase {
  std::int64_t stride;
  std::int64_t pad;
  std::int64_t kernel;
  bool bias;
  std::array<std::uint8_t, 7> name_bytes{};
};
static_assert(sizeof(ConvCase) == 32, "ConvCase must have no padding");

class ConvTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvTest, ForwardMatchesNaive) {
  const ConvCase c = GetParam();
  std::mt19937 rng(7);
  Tensor x = Tensor::randn(Shape{2, 3, 9, 9}, rng);
  Tensor w = Tensor::randn(Shape{4, 3, c.kernel, c.kernel}, rng);
  Tensor b = c.bias ? Tensor::randn(Shape{4}, rng) : Tensor{};
  const ConvParams p{c.stride, c.pad};
  Tensor got = conv2d_forward(x, w, b, p);
  Tensor ref = naive_conv(x, w, b, p);
  EXPECT_EQ(got.shape(), ref.shape());
  EXPECT_LT(Tensor::max_abs_diff(got, ref), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvTest,
    ::testing::Values(ConvCase{1, 0, 3, false}, ConvCase{1, 1, 3, true},
                      ConvCase{2, 1, 3, false}, ConvCase{2, 3, 7, true},
                      ConvCase{1, 0, 1, false}, ConvCase{2, 0, 1, false}));

TEST(Conv, BackwardNumericGradient) {
  std::mt19937 rng(19);
  Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  Tensor b = Tensor::randn(Shape{3}, rng);
  const ConvParams p{1, 1};
  Tensor cot = Tensor::randn(Shape{1, 3, 6, 6}, rng);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor y = conv2d_forward(xx, ww, bb, p);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.at(i)) * cot.at(i);
    }
    return acc;
  };

  Conv2dGrads grads = conv2d_backward(cot, x, w, p, true);
  const float eps = 1e-2F;
  // Spot-check a handful of coordinates in each gradient.
  for (const std::int64_t idx : {0L, 5L, 17L, 40L}) {
    Tensor xp = x.clone();
    xp.at(idx) += eps;
    Tensor xm = x.clone();
    xm.at(idx) -= eps;
    const double numeric = (loss(xp, w, b) - loss(xm, w, b)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_x.at(idx), numeric, 2e-2);
  }
  for (const std::int64_t idx : {0L, 9L, 31L}) {
    Tensor wp = w.clone();
    wp.at(idx) += eps;
    Tensor wm = w.clone();
    wm.at(idx) -= eps;
    const double numeric = (loss(x, wp, b) - loss(x, wm, b)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_w.at(idx), numeric, 2e-2);
  }
  for (const std::int64_t idx : {0L, 2L}) {
    Tensor bp = b.clone();
    bp.at(idx) += eps;
    Tensor bm = b.clone();
    bm.at(idx) -= eps;
    const double numeric = (loss(x, w, bp) - loss(x, w, bm)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_b.at(idx), numeric, 2e-2);
  }
}

TEST(Im2Col, RoundTripAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> : adjointness of the lowering.
  std::mt19937 rng(23);
  const std::int64_t ch = 2;
  const std::int64_t h = 5;
  const std::int64_t w = 5;
  const std::int64_t k = 3;
  const ConvParams p{2, 1};
  const std::int64_t ho = conv_out_size(h, k, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, k, p.stride, p.pad);
  Tensor x = Tensor::randn(Shape{ch, h, w}, rng);
  Tensor c = Tensor::randn(Shape{ch * k * k, ho * wo}, rng);
  Tensor col = Tensor::zeros(Shape{ch * k * k, ho * wo});
  im2col(x.data(), ch, h, w, k, k, p, col.data());
  Tensor xadj = Tensor::zeros(Shape{ch, h, w});
  col2im(c.data(), ch, h, w, k, k, p, xadj.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < col.numel(); ++i) {
    lhs += static_cast<double>(col.at(i)) * c.at(i);
  }
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.at(i)) * xadj.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2Col, StridedMatchesNaiveLoop) {
  // The ResNet's strided lowerings (7x7/s2/p3 stem, 3x3/s2/p1 downsample,
  // 1x1/s2 projection), stride 3, and stride-1 "same" convs (output as
  // wide as the input, one copy per row), on odd sizes: im2col equals a
  // per-pixel bounds-checked copy and col2im a per-pixel accumulation in
  // (channel, ki, kj, oy, ox) order, bit for bit.
  struct Case {
    std::int64_t h, w, k, stride, pad;
  };
  const Case cases[] = {{23, 19, 7, 2, 3}, {15, 17, 3, 2, 1}, {13, 11, 1, 2, 0},
                        {9, 7, 3, 1, 1},   {10, 13, 3, 3, 1}, {5, 3, 7, 2, 3},
                        {2, 2, 3, 2, 1},   {6, 11, 5, 1, 2},  {1, 1, 3, 1, 1},
                        {7, 2, 3, 1, 1},   {5, 9, 3, 1, 0}};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  std::mt19937 rng(29);
  for (const Case& cs : cases) {
    const std::int64_t ch = 3;
    const ConvParams p{cs.stride, cs.pad};
    const std::int64_t ho = conv_out_size(cs.h, cs.k, p.stride, p.pad);
    const std::int64_t wo = conv_out_size(cs.w, cs.k, p.stride, p.pad);
    const std::int64_t rows = ch * cs.k * cs.k;
    const Tensor x = Tensor::randn(Shape{ch, cs.h, cs.w}, rng);
    const Tensor c = Tensor::randn(Shape{rows, ho * wo}, rng);
    Tensor want_col = Tensor::empty(Shape{rows, ho * wo});
    Tensor want_x = Tensor::randn(Shape{ch, cs.h, cs.w}, rng);
    Tensor got_x = want_x.clone();
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t chan = r / (cs.k * cs.k);
      const std::int64_t ki = (r / cs.k) % cs.k;
      const std::int64_t kj = r % cs.k;
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          const std::int64_t iy = oy * p.stride - p.pad + ki;
          const std::int64_t ix = ox * p.stride - p.pad + kj;
          const bool in = iy >= 0 && iy < cs.h && ix >= 0 && ix < cs.w;
          const std::int64_t at = (chan * cs.h + iy) * cs.w + ix;
          want_col.data()[r * ho * wo + oy * wo + ox] =
              in ? x.data()[at] : 0.0F;
          if (in) want_x.data()[at] += c.data()[r * ho * wo + oy * wo + ox];
        }
      }
    }
    Tensor got_col = Tensor::full(Shape{rows, ho * wo}, 5.0F);
    im2col(x.data(), ch, cs.h, cs.w, cs.k, cs.k, p, got_col.data());
    col2im(c.data(), ch, cs.h, cs.w, cs.k, cs.k, p, got_x.data());
    for (std::int64_t i = 0; i < got_col.numel(); ++i) {
      ASSERT_EQ(bits(got_col.data()[i]), bits(want_col.data()[i]))
          << "im2col " << i << " of k=" << cs.k << " s=" << cs.stride;
    }
    for (std::int64_t i = 0; i < got_x.numel(); ++i) {
      ASSERT_EQ(bits(got_x.data()[i]), bits(want_x.data()[i]))
          << "col2im " << i << " of k=" << cs.k << " s=" << cs.stride;
    }
  }
}

TEST(Relu, ForwardAndBackward) {
  Tensor x = Tensor::from_values({-1.0F, 0.0F, 2.0F});
  Tensor y = relu_forward(x);
  EXPECT_FLOAT_EQ(y.at(0), 0.0F);
  EXPECT_FLOAT_EQ(y.at(1), 0.0F);
  EXPECT_FLOAT_EQ(y.at(2), 2.0F);
  Tensor g = Tensor::from_values({5.0F, 5.0F, 5.0F});
  Tensor gx = relu_backward(g, y);
  EXPECT_FLOAT_EQ(gx.at(0), 0.0F);
  EXPECT_FLOAT_EQ(gx.at(1), 0.0F);
  EXPECT_FLOAT_EQ(gx.at(2), 5.0F);
}

TEST(Relu, BackwardMatchesNaiveOnSignedZeroNanAndInf) {
  // Every pairing of special values for y and grad_y, at a length with a
  // vector remainder; the result must match the scalar select bit for bit.
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> kValues = {
      -0.0F, 0.0F, kNan, -kNan, kInf, -kInf, 1.5F, -2.25F,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min()};
  const auto count = static_cast<std::int64_t>(kValues.size());
  const std::int64_t n = count * count * 3 + 7;
  Tensor y = Tensor::empty(Shape{n});
  Tensor gy = Tensor::empty(Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    y.data()[i] = kValues[static_cast<std::size_t>(i % count)];
    gy.data()[i] = kValues[static_cast<std::size_t>((i / count) % count)];
  }
  const Tensor gx = relu_backward(gy, y);
  for (std::int64_t i = 0; i < n; ++i) {
    const float want = y.data()[i] > 0.0F ? gy.data()[i] : 0.0F;
    std::uint32_t got_bits = 0;
    std::uint32_t want_bits = 0;
    std::memcpy(&got_bits, gx.data() + i, sizeof got_bits);
    std::memcpy(&want_bits, &want, sizeof want_bits);
    EXPECT_EQ(got_bits, want_bits)
        << "y=" << y.data()[i] << " gy=" << gy.data()[i] << " at " << i;
  }
}

TEST(MaxPool, ForwardPicksMaxAndBackwardRoutes) {
  Tensor x = Tensor::zeros(Shape{1, 1, 4, 4});
  x.data()[5] = 3.0F;   // (1,1)
  x.data()[10] = 7.0F;  // (2,2)
  MaxPoolResult r = maxpool2d_forward(x, 2, ConvParams{2, 0});
  EXPECT_EQ(r.y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(r.y.data()[0], 3.0F);
  EXPECT_FLOAT_EQ(r.y.data()[3], 7.0F);

  Tensor gy = Tensor::full(Shape{1, 1, 2, 2}, 1.0F);
  Tensor gx = maxpool2d_backward(gy, r.argmax, x.shape());
  EXPECT_FLOAT_EQ(gx.data()[5], 1.0F);
  EXPECT_FLOAT_EQ(gx.data()[10], 1.0F);
  float total = 0.0F;
  for (std::int64_t i = 0; i < gx.numel(); ++i) total += gx.at(i);
  EXPECT_FLOAT_EQ(total, 4.0F);  // all gradient mass routed
}

TEST(MaxPool, ForwardMatchesNaiveOnBordersTiesAndNegInf) {
  // Every tap bounds-checked, window scanned row by row, first strict max
  // kept: the semantics the interior fast path must reproduce exactly.
  const auto naive = [](const Tensor& x, std::int64_t k, const ConvParams& p) {
    const std::int64_t planes = x.shape()[0] * x.shape()[1];
    const std::int64_t h = x.shape()[2];
    const std::int64_t w = x.shape()[3];
    const std::int64_t ho = conv_out_size(h, k, p.stride, p.pad);
    const std::int64_t wo = conv_out_size(w, k, p.stride, p.pad);
    MaxPoolResult r;
    r.y = Tensor::empty(Shape{x.shape()[0], x.shape()[1], ho, wo});
    for (std::int64_t pl = 0; pl < planes; ++pl) {
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (std::int64_t ki = 0; ki < k; ++ki) {
            for (std::int64_t kj = 0; kj < k; ++kj) {
              const std::int64_t iy = oy * p.stride - p.pad + ki;
              const std::int64_t ix = ox * p.stride - p.pad + kj;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
              const float v = x.data()[pl * h * w + iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          r.y.data()[(pl * ho + oy) * wo + ox] = best;
          r.argmax.push_back(static_cast<std::int32_t>(best_idx));
        }
      }
    }
    return r;
  };
  struct Case {
    std::int64_t h, w, k, stride, pad;
  };
  std::vector<Case> cases = {
      {7, 9, 3, 2, 1},  {8, 8, 3, 2, 1}, {6, 7, 2, 2, 0},   {5, 5, 3, 1, 1},
      {9, 6, 3, 2, 0},  {11, 10, 5, 3, 2}, {2, 3, 3, 1, 1}, {1, 1, 3, 2, 1},
      {12, 13, 4, 3, 2},
  };
  // Every k in {2, 3}, stride in {1, 2} and pad in {0, 1}, on sizes whose
  // interior rows are shorter than, equal to and longer than a vector
  // block, odd and even: the patch CNN's 24 and 12, the stem's 56.
  const std::pair<std::int64_t, std::int64_t> sizes[] = {
      {24, 24}, {12, 12}, {56, 56}, {7, 9}, {11, 37}, {5, 6}, {3, 3}, {2, 2}};
  for (const auto& [h, w] : sizes) {
    for (const std::int64_t k : {2, 3}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t pad : {0, 1}) {
          if (h + 2 * pad >= k && w + 2 * pad >= k) {
            cases.push_back({h, w, k, stride, pad});
          }
        }
      }
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // A small value set makes ties common (signed zeros among them, which
  // only a bit comparison tells apart); -inf and NaN entries (and one plane
  // that is entirely -inf) exercise the windows whose max never moves.
  const float values[] = {-1.0F, 0.0F, -0.0F, 2.0F, -inf, nan};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  std::mt19937 rng(41);
  for (const Case& cs : cases) {
    Tensor x = Tensor::empty(Shape{2, 3, cs.h, cs.w});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = values[rng() % 6];
    }
    for (std::int64_t i = 0; i < cs.h * cs.w; ++i) x.data()[i] = -inf;
    const ConvParams p{cs.stride, cs.pad};
    const MaxPoolResult got = maxpool2d_forward(x, cs.k, p);
    const MaxPoolResult want = naive(x, cs.k, p);
    const Tensor values_only = maxpool2d_values(x, cs.k, p);
    ASSERT_EQ(got.y.shape(), want.y.shape());
    ASSERT_EQ(values_only.shape(), want.y.shape());
    EXPECT_EQ(got.argmax, want.argmax)
        << cs.h << "x" << cs.w << " k=" << cs.k << " s=" << cs.stride
        << " p=" << cs.pad;
    for (std::int64_t i = 0; i < got.y.numel(); ++i) {
      ASSERT_EQ(bits(got.y.data()[i]), bits(want.y.data()[i]))
          << "output " << i << " of " << cs.h << "x" << cs.w << " k=" << cs.k
          << " s=" << cs.stride << " p=" << cs.pad;
      ASSERT_EQ(bits(values_only.data()[i]), bits(want.y.data()[i]))
          << "values-only output " << i;
    }
  }
}

TEST(GlobalAvgPool, ForwardBackward) {
  Tensor x = Tensor::zeros(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) x.data()[i] = 4.0F;      // channel 0
  for (std::int64_t i = 4; i < 8; ++i) x.data()[i] = 8.0F;      // channel 1
  Tensor y = global_avgpool_forward(x);
  EXPECT_FLOAT_EQ(y.data()[0], 4.0F);
  EXPECT_FLOAT_EQ(y.data()[1], 8.0F);
  Tensor gy = Tensor::from_values({1.0F, 2.0F}).reshaped(Shape{1, 2});
  Tensor gx = global_avgpool_backward(gy, x.shape());
  EXPECT_FLOAT_EQ(gx.data()[0], 0.25F);
  EXPECT_FLOAT_EQ(gx.data()[7], 0.5F);
}

TEST(Linear, ForwardBackwardNumeric) {
  std::mt19937 rng(31);
  Tensor x = Tensor::randn(Shape{3, 4}, rng);
  Tensor w = Tensor::randn(Shape{5, 4}, rng);
  Tensor b = Tensor::randn(Shape{5}, rng);
  Tensor cot = Tensor::randn(Shape{3, 5}, rng);
  auto loss = [&](const Tensor& xx, const Tensor& ww) {
    Tensor y = linear_forward(xx, ww, b);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.at(i)) * cot.at(i);
    }
    return acc;
  };
  LinearGrads grads = linear_backward(cot, x, w, true);
  const float eps = 1e-2F;
  for (const std::int64_t idx : {0L, 7L, 11L}) {
    Tensor xp = x.clone();
    xp.at(idx) += eps;
    Tensor xm = x.clone();
    xm.at(idx) -= eps;
    EXPECT_NEAR(grads.grad_x.at(idx),
                (loss(xp, w) - loss(xm, w)) / (2.0 * eps), 2e-2);
  }
  for (const std::int64_t idx : {0L, 13L, 19L}) {
    Tensor wp = w.clone();
    wp.at(idx) += eps;
    Tensor wm = w.clone();
    wm.at(idx) -= eps;
    EXPECT_NEAR(grads.grad_w.at(idx),
                (loss(x, wp) - loss(x, wm)) / (2.0 * eps), 2e-2);
  }
  // grad_b = column sums of cot.
  for (std::int64_t j = 0; j < 5; ++j) {
    float expect = 0.0F;
    for (std::int64_t i = 0; i < 3; ++i) expect += cot.at(i * 5 + j);
    EXPECT_NEAR(grads.grad_b.at(j), expect, 1e-4F);
  }
}

TEST(BatchNorm, NormalisesToZeroMeanUnitVar) {
  std::mt19937 rng(41);
  Tensor x = Tensor::randn(Shape{4, 3, 5, 5}, rng, 3.0F);
  Tensor gamma = Tensor::full(Shape{3}, 1.0F);
  Tensor beta = Tensor::zeros(Shape{3});
  Tensor rm = Tensor::zeros(Shape{3});
  Tensor rv = Tensor::full(Shape{3}, 1.0F);
  BatchNormState state =
      batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, true);
  // Per-channel mean ~0, var ~1 of the output.
  const std::int64_t area = 25;
  for (std::int64_t ch = 0; ch < 3; ++ch) {
    double sum = 0.0;
    double sumsq = 0.0;
    for (std::int64_t img = 0; img < 4; ++img) {
      const float* p = state.y.data() + (img * 3 + ch) * area;
      for (std::int64_t i = 0; i < area; ++i) {
        sum += p[i];
        sumsq += static_cast<double>(p[i]) * p[i];
      }
    }
    const double mean = sum / 100.0;
    const double var = sumsq / 100.0 - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsUpdateOnlyWhenAsked) {
  std::mt19937 rng(43);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  Tensor gamma = Tensor::full(Shape{2}, 1.0F);
  Tensor beta = Tensor::zeros(Shape{2});
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::full(Shape{2}, 1.0F);
  (void)batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
  EXPECT_FLOAT_EQ(rm.at(0), 0.0F);
  EXPECT_FLOAT_EQ(rv.at(0), 1.0F);
  (void)batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, true);
  EXPECT_NE(rm.at(0), 0.0F);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  Tensor x = Tensor::full(Shape{1, 1, 2, 2}, 3.0F);
  Tensor gamma = Tensor::full(Shape{1}, 2.0F);
  Tensor beta = Tensor::full(Shape{1}, 1.0F);
  Tensor rm = Tensor::full(Shape{1}, 1.0F);
  Tensor rv = Tensor::full(Shape{1}, 4.0F);
  Tensor y = batchnorm2d_infer(x, gamma, beta, rm, rv, 0.0F);
  // (3-1)/2 * 2 + 1 = 3
  EXPECT_NEAR(y.at(0), 3.0F, 1e-4F);
}

TEST(BatchNorm, BackwardNumericGradient) {
  std::mt19937 rng(47);
  Tensor x = Tensor::randn(Shape{2, 2, 3, 3}, rng);
  Tensor gamma = Tensor::uniform(Shape{2}, rng, 0.5F, 1.5F);
  Tensor beta = Tensor::randn(Shape{2}, rng, 0.1F);
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::full(Shape{2}, 1.0F);
  Tensor cot = Tensor::randn(Shape{2, 2, 3, 3}, rng);

  auto loss = [&](const Tensor& xx) {
    BatchNormState s =
        batchnorm2d_forward(xx, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
    double acc = 0.0;
    for (std::int64_t i = 0; i < s.y.numel(); ++i) {
      acc += static_cast<double>(s.y.at(i)) * cot.at(i);
    }
    return acc;
  };

  BatchNormState state =
      batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
  BatchNormGrads grads = batchnorm2d_backward(cot, x, gamma, state);
  const float eps = 1e-2F;
  for (const std::int64_t idx : {0L, 8L, 17L, 30L}) {
    Tensor xp = x.clone();
    xp.at(idx) += eps;
    Tensor xm = x.clone();
    xm.at(idx) -= eps;
    EXPECT_NEAR(grads.grad_x.at(idx), (loss(xp) - loss(xm)) / (2.0 * eps),
                5e-2);
  }
}

// Shapes of the in-situ student ([16,8,24,24]), the ResNet stem
// ([1,64,56,56]) and its last stage ([4,512,4,4]), a 1x1 plane, and areas
// that are not a multiple of the 16 summation lanes (49, 196, 15, 7).
const Shape kBnShapes[] = {
    Shape{16, 8, 24, 24}, Shape{1, 64, 56, 56}, Shape{4, 512, 4, 4},
    Shape{2, 3, 1, 1},    Shape{3, 5, 7, 7},    Shape{2, 4, 14, 14},
    Shape{5, 2, 3, 5},    Shape{1, 3, 1, 7}};

struct BnInputs {
  Tensor x;
  Tensor gy;
  Tensor gamma;
  Tensor beta;
};

BnInputs bn_inputs(const Shape& shape, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const std::int64_t c = shape[1];
  BnInputs in;
  // An offset mean, so the statistics see cancellation as real
  // activations do.
  in.x = Tensor::randn(shape, rng, 2.0F);
  for (std::int64_t i = 0; i < in.x.numel(); ++i) in.x.data()[i] += 0.75F;
  in.gy = Tensor::randn(shape, rng);
  in.gamma = Tensor::uniform(Shape{c}, rng, 0.5F, 1.5F);
  in.beta = Tensor::randn(Shape{c}, rng, 0.2F);
  return in;
}

TEST(BatchNorm, ForwardAndBackwardMatchLongDoubleReference) {
  // Reference: two-pass long-double statistics and exact formulas. Stated
  // tolerance, relative to each quantity's scale: the kernels round the
  // statistics to float and evaluate y and grad_x in float, a few float
  // ulps (2^-24 ~ 6e-8) per operation, so 2e-6 of the scale bounds them
  // with room while still catching a dropped lane or tail.
  constexpr long double kTol = 2e-6L;
  constexpr float kEps = 1e-5F;
  for (const Shape& shape : kBnShapes) {
    const BnInputs in = bn_inputs(shape, 59);
    const std::int64_t n = shape[0];
    const std::int64_t c = shape[1];
    const std::int64_t area = shape[2] * shape[3];
    const auto count = static_cast<long double>(n * area);
    Tensor rm = Tensor::zeros(Shape{c});
    Tensor rv = Tensor::full(Shape{c}, 1.0F);
    const BatchNormState state = batchnorm2d_forward(
        in.x, in.gamma, in.beta, rm, rv, 0.1F, kEps, false);
    const BatchNormGrads grads =
        batchnorm2d_backward(in.gy, in.x, in.gamma, state);
    const auto at = [&](std::int64_t img, std::int64_t ch, std::int64_t i) {
      return (img * c + ch) * area + i;
    };
    for (std::int64_t ch = 0; ch < c; ++ch) {
      long double mean = 0.0L;
      for (std::int64_t img = 0; img < n; ++img) {
        for (std::int64_t i = 0; i < area; ++i) mean += in.x.data()[at(img, ch, i)];
      }
      mean /= count;
      long double var = 0.0L;
      for (std::int64_t img = 0; img < n; ++img) {
        for (std::int64_t i = 0; i < area; ++i) {
          const long double d = in.x.data()[at(img, ch, i)] - mean;
          var += d * d;
        }
      }
      var /= count;
      const long double istd = 1.0L / std::sqrt(var + kEps);
      const long double g = in.gamma.data()[ch];
      const long double b = in.beta.data()[ch];
      ASSERT_NEAR(state.mean.data()[ch], mean, kTol * (std::fabs(mean) + 1.0L))
          << shape.to_string() << " channel " << ch;
      ASSERT_NEAR(state.inv_std.data()[ch], istd, kTol * istd)
          << shape.to_string() << " channel " << ch;
      // Backward against the same float statistics the kernel was given.
      const long double mu_f = state.mean.data()[ch];
      const long double istd_f = state.inv_std.data()[ch];
      long double sum_gy = 0.0L;
      long double sum_gy_xhat = 0.0L;
      long double scale_gy = 0.0L;
      long double scale_gy_xhat = 0.0L;
      for (std::int64_t img = 0; img < n; ++img) {
        for (std::int64_t i = 0; i < area; ++i) {
          const long double gy = in.gy.data()[at(img, ch, i)];
          const long double xhat = (in.x.data()[at(img, ch, i)] - mu_f) * istd_f;
          sum_gy += gy;
          sum_gy_xhat += gy * xhat;
          scale_gy += std::fabs(gy);
          scale_gy_xhat += std::fabs(gy * xhat);
        }
      }
      ASSERT_NEAR(grads.grad_beta.data()[ch], sum_gy, kTol * scale_gy)
          << shape.to_string() << " channel " << ch;
      ASSERT_NEAR(grads.grad_gamma.data()[ch], sum_gy_xhat,
                  kTol * scale_gy_xhat)
          << shape.to_string() << " channel " << ch;
      for (std::int64_t img = 0; img < n; ++img) {
        for (std::int64_t i = 0; i < area; ++i) {
          const std::int64_t e = at(img, ch, i);
          const long double xv = in.x.data()[e];
          const long double y = (xv - mean) * istd * g + b;
          ASSERT_NEAR(state.y.data()[e], y,
                      kTol * (std::fabs((xv - mean) * istd * g) + std::fabs(b) +
                              std::fabs(mean * istd * g) + 1.0L))
              << shape.to_string() << " y " << e;
          const long double xhat = (xv - mu_f) * istd_f;
          const long double mean_gy = sum_gy / count;
          const long double mean_gy_xhat = sum_gy_xhat / count;
          const long double gx = g * istd_f *
                                 (in.gy.data()[e] - mean_gy - xhat * mean_gy_xhat);
          const long double gx_scale =
              g * istd_f *
              (std::fabs(in.gy.data()[e]) + std::fabs(mean_gy) +
               std::fabs(xhat * mean_gy_xhat));
          ASSERT_NEAR(grads.grad_x.data()[e], gx, kTol * (gx_scale + 1e-3L))
              << shape.to_string() << " grad_x " << e;
        }
      }
    }
  }
}

TEST(BatchNorm, OutputIsScaleShiftOfReturnedStatistics) {
  // y = x * scale + shift in float, from the returned mean and inv_std, bit
  // for bit. Products go through a volatile so that no build of this test
  // contracts one into an FMA the kernel does not use.
  const auto mul = [](float a, float b) {
    const volatile float product = a * b;
    return static_cast<float>(product);
  };
  for (const Shape& shape : kBnShapes) {
    const BnInputs in = bn_inputs(shape, 61);
    const std::int64_t c = shape[1];
    const std::int64_t area = shape[2] * shape[3];
    Tensor rm = Tensor::zeros(Shape{c});
    Tensor rv = Tensor::full(Shape{c}, 1.0F);
    const BatchNormState state = batchnorm2d_forward(
        in.x, in.gamma, in.beta, rm, rv, 0.1F, 1e-5F, true);
    for (std::int64_t e = 0; e < in.x.numel(); ++e) {
      const std::int64_t ch = (e / area) % c;
      const float scale = mul(state.inv_std.data()[ch], in.gamma.data()[ch]);
      const float shift = in.beta.data()[ch] - mul(state.mean.data()[ch], scale);
      const float want = mul(in.x.data()[e], scale) + shift;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(state.y.data()[e]),
                std::bit_cast<std::uint32_t>(want))
          << shape.to_string() << " element " << e;
    }
  }
}

TEST(BatchNorm, BitIdenticalAcrossPoolSizes) {
  // A channel is one task and its sums run in fixed lanes, so the pool
  // size cannot move a bit of any output.
  const auto run = [](const BnInputs& in) {
    const std::int64_t c = in.x.shape()[1];
    Tensor rm = Tensor::zeros(Shape{c});
    Tensor rv = Tensor::full(Shape{c}, 1.0F);
    const BatchNormState state = batchnorm2d_forward(
        in.x, in.gamma, in.beta, rm, rv, 0.1F, 1e-5F, true);
    const BatchNormGrads grads =
        batchnorm2d_backward(in.gy, in.x, in.gamma, state);
    return std::vector<Tensor>{state.y,       state.mean,       state.inv_std,
                               rm,            rv,               grads.grad_x,
                               grads.grad_gamma, grads.grad_beta};
  };
  for (const Shape& shape : kBnShapes) {
    const BnInputs in = bn_inputs(shape, 67);
    ThreadPool::set_global_threads(1);
    const std::vector<Tensor> want = run(in);
    for (const unsigned threads : {2U, 3U, 4U}) {
      ThreadPool::set_global_threads(threads);
      const std::vector<Tensor> got = run(in);
      for (std::size_t t = 0; t < want.size(); ++t) {
        ASSERT_EQ(got[t].numel(), want[t].numel());
        EXPECT_EQ(std::memcmp(got[t].data(), want[t].data(), got[t].bytes()), 0)
            << shape.to_string() << " output " << t << " threads " << threads;
      }
    }
  }
  ThreadPool::set_global_threads(0);
}

TEST(SoftmaxXent, KnownValuesAndGradient) {
  Tensor logits = Tensor::from_values({1.0F, 1.0F, 2.0F, 0.0F})
                      .reshaped(Shape{2, 2});
  const std::vector<std::int32_t> labels{0, 0};
  SoftmaxXentResult r = softmax_xent_forward(logits, labels);
  // Row 0: uniform -> loss ln 2; row 1: p(correct)=sigmoid(2).
  const double l0 = std::log(2.0);
  const double l1 = -std::log(1.0 / (1.0 + std::exp(-2.0)));
  EXPECT_NEAR(r.loss, (l0 + l1) / 2.0, 1e-5);

  Tensor grad = softmax_xent_backward(r.probs, labels);
  // Each row sums to 0 and matches (p - onehot)/N.
  EXPECT_NEAR(grad.at(0) + grad.at(1), 0.0F, 1e-6F);
  EXPECT_NEAR(grad.at(0), (0.5F - 1.0F) / 2.0F, 1e-5F);
}

TEST(SoftmaxXent, NumericallyStableForLargeLogits) {
  Tensor logits =
      Tensor::from_values({1000.0F, 999.0F}).reshaped(Shape{1, 2});
  SoftmaxXentResult r = softmax_xent_forward(logits, {0});
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.probs.at(0) + r.probs.at(1), 1.0F, 1e-5F);
}

TEST(AvgPool, ForwardAveragesAndBackwardSpreads) {
  Tensor x = Tensor::zeros(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x.data()[i] = static_cast<float>(i);
  Tensor y = avgpool2d_forward(x, 2, ConvParams{2, 0});
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.data()[0], (0 + 1 + 4 + 5) / 4.0F);
  EXPECT_FLOAT_EQ(y.data()[3], (10 + 11 + 14 + 15) / 4.0F);

  Tensor gy = Tensor::full(Shape{1, 1, 2, 2}, 4.0F);
  Tensor gx = avgpool2d_backward(gy, 2, ConvParams{2, 0}, x.shape());
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(gx.data()[i], 1.0F);
}

TEST(AvgPool, PaddedWindowsCountPadding) {
  Tensor x = Tensor::full(Shape{1, 1, 2, 2}, 4.0F);
  // 3x3 window, pad 1: the corner window sees 4 real pixels out of 9.
  Tensor y = avgpool2d_forward(x, 3, ConvParams{1, 1});
  EXPECT_FLOAT_EQ(y.data()[0], 4.0F * 4.0F / 9.0F);
}

TEST(Sigmoid, KnownValuesAndGradient) {
  Tensor x = Tensor::from_values({0.0F, 100.0F, -100.0F});
  Tensor y = sigmoid_forward(x);
  EXPECT_FLOAT_EQ(y.at(0), 0.5F);
  EXPECT_NEAR(y.at(1), 1.0F, 1e-6F);
  EXPECT_NEAR(y.at(2), 0.0F, 1e-6F);
  Tensor g = Tensor::full(Shape{3}, 1.0F);
  Tensor gx = sigmoid_backward(g, y);
  EXPECT_FLOAT_EQ(gx.at(0), 0.25F);  // y(1-y) at y=0.5
  EXPECT_NEAR(gx.at(1), 0.0F, 1e-6F);
}

TEST(Tanh, KnownValuesAndGradient) {
  Tensor x = Tensor::from_values({0.0F, 1.0F});
  Tensor y = tanh_forward(x);
  EXPECT_FLOAT_EQ(y.at(0), 0.0F);
  EXPECT_NEAR(y.at(1), std::tanh(1.0F), 1e-6F);
  Tensor g = Tensor::full(Shape{2}, 1.0F);
  Tensor gx = tanh_backward(g, y);
  EXPECT_FLOAT_EQ(gx.at(0), 1.0F);  // 1 - tanh(0)^2
}

TEST(Dropout, DeterministicForSeed) {
  std::mt19937 rng(71);
  Tensor x = Tensor::randn(Shape{1024}, rng);
  Tensor a = dropout_forward(x, 0.4F, 123);
  Tensor b = dropout_forward(x, 0.4F, 123);
  EXPECT_EQ(Tensor::max_abs_diff(a, b), 0.0F);
  Tensor c = dropout_forward(x, 0.4F, 124);
  EXPECT_GT(Tensor::max_abs_diff(a, c), 0.0F);
}

TEST(Dropout, DropRateAndInvertedScaling) {
  Tensor x = Tensor::full(Shape{100000}, 1.0F);
  const float rate = 0.3F;
  Tensor y = dropout_forward(x, rate, 99);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0F) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.at(i), 1.0F / (1.0F - rate), 1e-5F);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(y.numel()),
              rate, 0.01);
  // Inverted dropout preserves the expectation.
  EXPECT_NEAR(y.sum() / static_cast<float>(y.numel()), 1.0F, 0.02F);
}

TEST(Dropout, BackwardUsesSameMask) {
  std::mt19937 rng(73);
  Tensor x = Tensor::randn(Shape{256}, rng);
  Tensor y = dropout_forward(x, 0.5F, 7);
  Tensor g = Tensor::full(Shape{256}, 1.0F);
  Tensor gx = dropout_backward(g, 0.5F, 7);
  for (std::int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(gx.at(i) == 0.0F, y.at(i) == 0.0F) << i;
  }
}

TEST(Dropout, RejectsBadRate) {
  Tensor x = Tensor::zeros(Shape{4});
  EXPECT_THROW((void)dropout_forward(x, 1.0F, 1), std::invalid_argument);
  EXPECT_THROW((void)dropout_forward(x, -0.1F, 1), std::invalid_argument);
}

TEST(SoftmaxRows, TemperatureFlattens) {
  Tensor logits = Tensor::from_values({2.0F, 0.0F}).reshaped(Shape{1, 2});
  Tensor sharp = softmax_rows(logits, 1.0F);
  Tensor soft = softmax_rows(logits, 4.0F);
  EXPECT_GT(sharp.at(0), soft.at(0));
  EXPECT_NEAR(soft.at(0) + soft.at(1), 1.0F, 1e-6F);
}

TEST(Distill, PureHardEqualsSoftmaxXent) {
  std::mt19937 rng(79);
  Tensor zs = Tensor::randn(Shape{3, 4}, rng);
  Tensor zt = Tensor::randn(Shape{3, 4}, rng);
  const std::vector<std::int32_t> labels{0, 2, 3};
  const DistillResult distill = distill_loss(zs, zt, labels, 1.0F, 2.0F);
  const SoftmaxXentResult hard = softmax_xent_forward(zs, labels);
  EXPECT_NEAR(distill.loss, hard.loss, 1e-5F);
  Tensor hard_grad = softmax_xent_backward(hard.probs, labels);
  EXPECT_LT(Tensor::max_abs_diff(distill.grad_student_logits, hard_grad),
            1e-6F);
}

TEST(Distill, PureSoftZeroWhenStudentMatchesTeacher) {
  std::mt19937 rng(83);
  Tensor z = Tensor::randn(Shape{2, 5}, rng);
  const std::vector<std::int32_t> labels{0, 1};
  const DistillResult result = distill_loss(z, z, labels, 0.0F, 3.0F);
  EXPECT_NEAR(result.loss, 0.0F, 1e-5F);
  EXPECT_LT(result.grad_student_logits.max_abs(), 1e-6F);
}

TEST(Distill, GradientMatchesFiniteDifferences) {
  std::mt19937 rng(89);
  Tensor zs = Tensor::randn(Shape{2, 3}, rng);
  Tensor zt = Tensor::randn(Shape{2, 3}, rng);
  const std::vector<std::int32_t> labels{1, 2};
  const float alpha = 0.4F;
  const float temperature = 2.5F;
  const DistillResult result = distill_loss(zs, zt, labels, alpha, temperature);
  const float eps = 1e-2F;
  for (std::int64_t i = 0; i < zs.numel(); ++i) {
    Tensor up = zs.clone();
    up.at(i) += eps;
    Tensor down = zs.clone();
    down.at(i) -= eps;
    const float numeric =
        (distill_loss(up, zt, labels, alpha, temperature).loss -
         distill_loss(down, zt, labels, alpha, temperature).loss) /
        (2.0F * eps);
    EXPECT_NEAR(result.grad_student_logits.at(i), numeric, 5e-3F) << i;
  }
}

TEST(Distill, RejectsBadArguments) {
  Tensor a = Tensor::zeros(Shape{1, 2});
  Tensor b = Tensor::zeros(Shape{1, 3});
  EXPECT_THROW((void)distill_loss(a, b, {0}, 0.5F, 1.0F),
               std::invalid_argument);
  Tensor c = Tensor::zeros(Shape{1, 2});
  EXPECT_THROW((void)distill_loss(a, c, {0}, 1.5F, 1.0F),
               std::invalid_argument);
}

TEST(ArgmaxRows, PicksRowMaxima) {
  Tensor logits = Tensor::from_values({0.1F, 0.9F, 3.0F, -1.0F})
                      .reshaped(Shape{2, 2});
  const auto result = argmax_rows(logits);
  EXPECT_EQ(result[0], 1);
  EXPECT_EQ(result[1], 0);
}

}  // namespace
}  // namespace edgetrain::ops
