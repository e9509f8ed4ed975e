// Exhaustive correctness tests for the blocked, packed GEMM.
//
// The kernel blocks at kMR=8 / kNR=16 (register tile), kMC=120 / kKC=256 /
// kNC=256 (cache tiles), so shapes are chosen to land on, just under and
// just over every blocking edge, plus odd/prime shapes that exercise the
// zero-padded fringe panels. Every trans_a/trans_b combination is crossed
// with alpha, beta in {0, 1, 0.5}. A second suite pins the exact bits: the
// kernel must reproduce a kKC-blocked, p-sequential reference element for
// element, with or without fused multiply-add.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include "tensor/convert.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::ops {
namespace {

struct GemmShape {
  std::int64_t m;
  std::int64_t n;
  std::int64_t k;
};

// Edges of the register tile (8, 16), the cache tiles (120, 256) and primes
// that divide none of them.
const std::vector<GemmShape>& shapes() {
  static const std::vector<GemmShape> kShapes = {
      {1, 1, 1},      {1, 16, 1},    {6, 16, 1},     {8, 16, 1},
      {3, 5, 7},      {5, 6, 7},     {7, 17, 16},    {9, 17, 16},
      {15, 16, 17},   {17, 19, 23},  {31, 17, 29},   {6, 32, 64},
      {12, 48, 16},   {67, 129, 65}, {119, 120, 121}, {120, 16, 256},
      {121, 257, 129},
  };
  return kShapes;
}

/// Naive triple-loop reference with full alpha/beta semantics, accumulated
/// in double so it is strictly more accurate than the kernel under test.
void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, const float* b,
                float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      const double prev = beta == 0.0F ? 0.0 : static_cast<double>(c[i * n + j]) * beta;
      c[i * n + j] = static_cast<float>(static_cast<double>(alpha) * acc + prev);
    }
  }
}

float tolerance(std::int64_t k) {
  // Error grows with the reduction depth; 1e-4 covers k up to a few hundred.
  return 1e-4F * std::max<std::int64_t>(1, k / 64);
}

class BlockedGemmTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(BlockedGemmTest, MatchesReferenceAcrossShapesAndScalars) {
  const auto [ta, tb] = GetParam();
  const float kScalars[] = {0.0F, 1.0F, 0.5F};
  std::mt19937 rng(97);
  for (const GemmShape& s : shapes()) {
    Tensor a = Tensor::randn(ta ? Shape{s.k, s.m} : Shape{s.m, s.k}, rng);
    Tensor b = Tensor::randn(tb ? Shape{s.n, s.k} : Shape{s.k, s.n}, rng);
    Tensor c0 = Tensor::randn(Shape{s.m, s.n}, rng);
    for (const float alpha : kScalars) {
      for (const float beta : kScalars) {
        Tensor c = c0.clone();
        Tensor ref = c0.clone();
        gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), beta,
             c.data());
        naive_gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), beta,
                   ref.data());
        EXPECT_LT(Tensor::max_abs_diff(c, ref), tolerance(s.k))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " ta=" << ta << " tb=" << tb << " alpha=" << alpha
            << " beta=" << beta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, BlockedGemmTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// a * b rounded to float on its own: the volatile store keeps the compiler
// from contracting it into a neighbouring add.
float mul_rounded(float a, float b) {
  volatile float product = a * b;
  return product;
}

/// The kernel's arithmetic spelled out per element: depth in kKC = 256
/// blocks, each block summed p-sequentially from zero (with one fused
/// multiply-add per step, or a rounded multiply then add), then folded into
/// C as alpha * acc + beta * c, where beta is 1 after the first block.
void blocked_reference(bool ta, bool tb, std::int64_t m, std::int64_t n,
                       std::int64_t k, float alpha, const float* a,
                       const float* b, float beta, float* c, bool fused) {
  constexpr std::int64_t kKC = 256;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& out = c[i * n + j];
      for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
        float acc = 0.0F;
        for (std::int64_t p = p0; p < std::min(k, p0 + kKC); ++p) {
          const float av = ta ? a[p * m + i] : a[i * k + p];
          const float bv = tb ? b[j * k + p] : b[p * n + j];
          acc = fused ? std::fma(av, bv, acc) : acc + mul_rounded(av, bv);
        }
        const float scaled = mul_rounded(alpha, acc);
        const float fold = p0 == 0 ? beta : 1.0F;
        if (fold == 0.0F) {
          out = scaled;
        } else if (fold == 1.0F) {
          out = out + scaled;
        } else {
          out = scaled + mul_rounded(fold, out);
        }
      }
    }
  }
}

std::uint32_t bits(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Shapes on the kMR = 8 tile edges, across kKC = 256 block boundaries, and
// the skinny batch-1 ResNet-18 conv GEMMs: N = 16 / 49 (stage 4 / stage 3
// forward and grad_x), K = 16 / 49 (their grad_w), and M = 4608 rows of a
// transposed A (stage 4 grad_x, K cut to 64 to keep the reference cheap).
const std::vector<GemmShape>& exact_shapes() {
  static const std::vector<GemmShape> kShapes = {
      {7, 16, 9},     {8, 16, 9},    {9, 16, 9},    {15, 15, 31},
      {16, 16, 257},  {17, 17, 513}, {24, 32, 40},  {40, 16, 600},
      {64, 49, 300},  {33, 49, 49},  {64, 200, 16}, {48, 300, 49},
      {4608, 16, 64}, {100, 1, 300}, {3, 10, 512},
  };
  return kShapes;
}

class BlockedGemmExactTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(BlockedGemmExactTest, BitExactToBlockedSequentialReference) {
  const auto [ta, tb] = GetParam();
  // Powers of two keep alpha * acc and beta * c exact, so the final fold
  // rounds once whether or not a build contracts it.
  const float kAlphas[] = {1.0F, 0.5F};
  const float kBetas[] = {0.0F, 1.0F, 0.5F};
  std::mt19937 rng(113);
  for (const GemmShape& s : exact_shapes()) {
    Tensor a = Tensor::randn(ta ? Shape{s.k, s.m} : Shape{s.m, s.k}, rng);
    Tensor b = Tensor::randn(tb ? Shape{s.n, s.k} : Shape{s.k, s.n}, rng);
    Tensor c0 = Tensor::randn(Shape{s.m, s.n}, rng);
    // The bf16 engine widens exactly at packing time, so its reference is
    // the same arithmetic on the widened operands.
    std::vector<std::uint16_t> a16(static_cast<std::size_t>(a.numel()));
    std::vector<std::uint16_t> b16(static_cast<std::size_t>(b.numel()));
    convert::fp32_to_bf16(a.data(), a16.data(), a.numel());
    convert::fp32_to_bf16(b.data(), b16.data(), b.numel());
    Tensor a_wide = Tensor::empty(a.shape());
    Tensor b_wide = Tensor::empty(b.shape());
    convert::bf16_to_fp32(a16.data(), a_wide.data(), a.numel());
    convert::bf16_to_fp32(b16.data(), b_wide.data(), b.numel());
    for (const bool bf16 : {false, true}) {
      const float* ra = bf16 ? a_wide.data() : a.data();
      const float* rb = bf16 ? b_wide.data() : b.data();
      for (const float alpha : kAlphas) {
        for (const float beta : kBetas) {
          Tensor c = c0.clone();
          Tensor fused = c0.clone();
          Tensor unfused = c0.clone();
          if (bf16) {
            gemm_bf16(ta, tb, s.m, s.n, s.k, alpha, a16.data(), b16.data(),
                      beta, c.data());
          } else {
            gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), beta,
                 c.data());
          }
          blocked_reference(ta, tb, s.m, s.n, s.k, alpha, ra, rb, beta,
                            fused.data(), true);
          blocked_reference(ta, tb, s.m, s.n, s.k, alpha, ra, rb, beta,
                            unfused.data(), false);
          std::int64_t mismatches = 0;
          for (std::int64_t e = 0; e < c.numel(); ++e) {
            const std::uint32_t got = bits(c.data()[e]);
            if (got != bits(fused.data()[e]) &&
                got != bits(unfused.data()[e])) {
              ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0)
              << "m=" << s.m << " n=" << s.n << " k=" << s.k << " ta=" << ta
              << " tb=" << tb << " alpha=" << alpha << " beta=" << beta
              << " bf16=" << bf16;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, BlockedGemmExactTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(BlockedGemm, DeepReductionCrossesMultipleKcBlocks) {
  // k = 600 spans three kKC=256 panels; checks the beta=1 continuation
  // between panels and the alpha scaling applied exactly once.
  std::mt19937 rng(5);
  const std::int64_t m = 13;
  const std::int64_t n = 33;
  const std::int64_t k = 600;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c = Tensor::full(Shape{m, n}, 2.0F);
  Tensor ref = Tensor::full(Shape{m, n}, 2.0F);
  gemm(false, false, m, n, k, 0.5F, a.data(), b.data(), 0.5F, c.data());
  naive_gemm(false, false, m, n, k, 0.5F, a.data(), b.data(), 0.5F,
             ref.data());
  EXPECT_LT(Tensor::max_abs_diff(c, ref), tolerance(k));
}

TEST(BlockedGemm, BitForBitDeterministic) {
  // Every C tile has one writer with a fixed k order, so repeated runs must
  // agree bitwise, not just within tolerance.
  std::mt19937 rng(31);
  const std::int64_t m = 131;
  const std::int64_t n = 261;
  const std::int64_t k = 300;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor first = Tensor::zeros(Shape{m, n});
  gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F, first.data());
  for (int run = 0; run < 3; ++run) {
    Tensor again = Tensor::zeros(Shape{m, n});
    gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F,
         again.data());
    EXPECT_EQ(0, std::memcmp(first.data(), again.data(),
                             static_cast<std::size_t>(first.numel()) *
                                 sizeof(float)))
        << "run " << run;
  }
}

TEST(BlockedGemm, DegenerateKScalesCOnly) {
  Tensor c = Tensor::full(Shape{3, 4}, 3.0F);
  gemm(false, false, 3, 4, 0, 1.0F, nullptr, nullptr, 0.5F, c.data());
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_FLOAT_EQ(c.data()[i], 1.5F);
  }
}

}  // namespace
}  // namespace edgetrain::ops
