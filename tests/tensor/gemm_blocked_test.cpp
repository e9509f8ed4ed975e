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
#include "tensor/parallel.hpp"
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

/// The kernel's arithmetic spelled out for element (i, j): depth in
/// kKC = 256 blocks, each block summed p-sequentially from zero (with one
/// fused multiply-add per step, or a rounded multiply then add). Returns
/// the block sums; fold() turns them into the element of C.
std::vector<float> block_sums(bool ta, bool tb, std::int64_t m, std::int64_t n,
                              std::int64_t k, const float* a, const float* b,
                              std::int64_t i, std::int64_t j, bool fused) {
  constexpr std::int64_t kKC = 256;
  std::vector<float> sums;
  for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
    float acc = 0.0F;
    for (std::int64_t p = p0; p < std::min(k, p0 + kKC); ++p) {
      const float av = ta ? a[p * m + i] : a[i * k + p];
      const float bv = tb ? b[j * k + p] : b[p * n + j];
      acc = fused ? std::fma(av, bv, acc) : acc + mul_rounded(av, bv);
    }
    sums.push_back(acc);
  }
  return sums;
}

/// Folds the block sums into C's old value c as alpha * acc + beta * c,
/// where beta is 1 after the first block.
float fold(const std::vector<float>& sums, float alpha, float beta, float c) {
  float out = c;
  for (std::size_t blk = 0; blk < sums.size(); ++blk) {
    const float scaled = mul_rounded(alpha, sums[blk]);
    const float f = blk == 0 ? beta : 1.0F;
    if (f == 0.0F) {
      out = scaled;
    } else if (f == 1.0F) {
      out = out + scaled;
    } else {
      out = scaled + mul_rounded(f, out);
    }
  }
  return out;
}

std::uint32_t bits(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Shapes on the kMR = 8 / kTR = 16 tile edges, across kKC = 256 block
// boundaries, and the batch-1 ResNet-18 conv GEMMs. Each shape class of
// the kernel (a tall op(A), m >= 120, with a narrow N, one B panel under a
// transposed A, or a single depth block under a wide C) is hit with M
// multiples of 8 and 16 and M that is neither, so the packed fallbacks
// run, N in {1, 15, 16, 17, 49, 64, 65} and K in {16, 255, 256, 257, 4608}.
// Under the other transposes the same shapes take the other paths.
const std::vector<GemmShape>& exact_shapes() {
  static const std::vector<GemmShape> kShapes = {
      {7, 16, 9},     {8, 16, 9},    {9, 16, 9},     {15, 15, 31},
      {16, 16, 257},  {17, 17, 513}, {24, 32, 40},   {40, 16, 600},
      {64, 49, 300},  {33, 49, 49},  {64, 200, 16},  {48, 300, 49},
      {4608, 16, 64}, {100, 1, 300}, {3, 10, 512},
      // Stage 4: forward, downsample forward, grad_x, downsample grad_x,
      // grad_w; stage 3: forward, grad_x, grad_w.
      {512, 16, 4608}, {512, 16, 256}, {4608, 16, 512}, {256, 16, 512},
      {512, 4608, 16}, {256, 49, 2304}, {2304, 49, 256}, {256, 2304, 49},
      // Ragged M around the narrow-N and transposed-sweep tiles.
      {125, 1, 257},  {131, 15, 255}, {137, 17, 16},  {123, 64, 256},
      {129, 65, 300}, {1157, 16, 257}, {130, 1, 255}, {135, 15, 16},
      {127, 16, 4608}, {121, 49, 4608},
      // Wide C over one depth block, and just past its edges.
      {123, 257, 16}, {130, 300, 17}, {1030, 264, 256}, {125, 1000, 1},
      {121, 513, 257},
  };
  return kShapes;
}

/// Rows whose elements are compared: all of them up to 2^23 multiply-adds,
/// otherwise every 7th row (each residue of 8 and 16 in turn) and the
/// last 20, which hold the ragged tiles.
std::vector<std::int64_t> checked_rows(const GemmShape& s) {
  std::vector<std::int64_t> rows;
  const bool all = s.m * s.n * s.k <= (std::int64_t{1} << 23);
  for (std::int64_t i = 0; i < s.m; ++i) {
    if (all || i % 7 == 0 || i >= s.m - 20) rows.push_back(i);
  }
  return rows;
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
    const std::vector<std::int64_t> rows = checked_rows(s);
    for (const bool bf16 : {false, true}) {
      const float* ra = bf16 ? a_wide.data() : a.data();
      const float* rb = bf16 ? b_wide.data() : b.data();
      std::vector<std::vector<float>> fused_sums;
      std::vector<std::vector<float>> plain_sums;
      for (const std::int64_t i : rows) {
        for (std::int64_t j = 0; j < s.n; ++j) {
          fused_sums.push_back(
              block_sums(ta, tb, s.m, s.n, s.k, ra, rb, i, j, true));
          plain_sums.push_back(
              block_sums(ta, tb, s.m, s.n, s.k, ra, rb, i, j, false));
        }
      }
      // 0 is the default pool, one thread per core.
      for (const unsigned threads : {1U, 3U, 0U}) {
        ThreadPool::set_global_threads(threads);
        for (const float alpha : kAlphas) {
          for (const float beta : kBetas) {
            Tensor c = c0.clone();
            if (bf16) {
              gemm_bf16(ta, tb, s.m, s.n, s.k, alpha, a16.data(), b16.data(),
                        beta, c.data());
            } else {
              gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), beta,
                   c.data());
            }
            std::int64_t mismatches = 0;
            std::size_t e = 0;
            for (const std::int64_t i : rows) {
              for (std::int64_t j = 0; j < s.n; ++j, ++e) {
                const float old = c0.data()[i * s.n + j];
                const std::uint32_t got = bits(c.data()[i * s.n + j]);
                if (got != bits(fold(fused_sums[e], alpha, beta, old)) &&
                    got != bits(fold(plain_sums[e], alpha, beta, old))) {
                  ++mismatches;
                }
              }
            }
            EXPECT_EQ(mismatches, 0)
                << "m=" << s.m << " n=" << s.n << " k=" << s.k << " ta=" << ta
                << " tb=" << tb << " alpha=" << alpha << " beta=" << beta
                << " bf16=" << bf16 << " threads=" << threads;
          }
        }
      }
    }
  }
  ThreadPool::set_global_threads(0);
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
  // agree bitwise, not just within tolerance, at every pool size: on the
  // plain grid and on each shape class (narrow N, the transposed sweep
  // with and without a ragged tile, a wide C over one depth block).
  struct Case {
    bool ta;
    bool tb;
    GemmShape shape;
  };
  const Case kCases[] = {
      {false, false, {131, 261, 300}},  {false, false, {512, 16, 4608}},
      {false, false, {250, 49, 700}},   {true, false, {4608, 16, 512}},
      {true, true, {1157, 15, 300}},    {false, true, {512, 4608, 16}},
      {true, true, {1030, 264, 256}},
  };
  std::mt19937 rng(31);
  for (const Case& cs : kCases) {
    const GemmShape& s = cs.shape;
    Tensor a = Tensor::randn(cs.ta ? Shape{s.k, s.m} : Shape{s.m, s.k}, rng);
    Tensor b = Tensor::randn(cs.tb ? Shape{s.n, s.k} : Shape{s.k, s.n}, rng);
    Tensor first;
    for (const unsigned threads : {1U, 2U, 3U, 4U, 1U}) {
      ThreadPool::set_global_threads(threads);
      Tensor again = Tensor::zeros(Shape{s.m, s.n});
      gemm(cs.ta, cs.tb, s.m, s.n, s.k, 1.0F, a.data(), b.data(), 0.0F,
           again.data());
      if (!first.defined()) {
        first = again;
        continue;
      }
      EXPECT_EQ(0, std::memcmp(first.data(), again.data(),
                               static_cast<std::size_t>(first.numel()) *
                                   sizeof(float)))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " ta=" << cs.ta
          << " tb=" << cs.tb << " threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(0);
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
