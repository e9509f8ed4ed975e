// e2ebench: the reference kernel that the gated timings are divided by.
//
// On a shared host the CPU speed a run gets moves by 1.3-1.6x over seconds
// to minutes, with the load of other tenants. The untraced loops time this
// fixed kernel on the same thread right after every step or cycle, so a
// step's time over the kernel's time cancels most of that drift while a
// change to the library still moves it in full: the kernel is compiled
// here from plain loops and calls nothing under ../src.
#include <cstddef>
#include <cstring>
#include <vector>

#include "bench.hpp"

namespace e2ebench {
namespace {

// A GEMM that stays in L2, a copy through the last-level cache and a
// momentum-style update streamed from DRAM: the three kinds of work a
// training step does, about 3, 3 and 10 ms. Timed apart over five runs
// per workload on a shared host, their sum gave the step-to-reference
// ratio that moved least (IQR/median 2-5% on every workload, against
// 12-19% for the raw step median); the GEMM alone over-corrected the
// ResNet steps (13-14%).
constexpr int kGemmN = 192;
constexpr int kGemmRepeats = 3;
constexpr std::size_t kCopyBytes = std::size_t{8} << 20;
constexpr int kCopyRepeats = 2;
constexpr std::size_t kStreamFloats = std::size_t{12} << 20;

/// Written with the kernel's result so the compiler keeps the work.
volatile float sink = 0.0F;

void gemm(const float* a, const float* b, float* c, int n) {
  for (int i = 0; i < n; ++i) {
    float* ci = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) ci[j] = 0.0F;
    for (int k = 0; k < n; ++k) {
      const float aik = a[static_cast<std::ptrdiff_t>(i) * n + k];
      const float* bk = b + static_cast<std::ptrdiff_t>(k) * n;
      for (int j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

}  // namespace

double reference_ms() {
  constexpr std::size_t kElems = std::size_t{kGemmN} * kGemmN;
  static std::vector<float> a(kElems, 0.5F);
  static std::vector<float> b(kElems, 0.25F);
  static std::vector<float> c(kElems);
  static std::vector<char> src(kCopyBytes, 1);
  static std::vector<char> dst(kCopyBytes);
  static std::vector<float> x(kStreamFloats, 1.0F);
  static std::vector<float> y(kStreamFloats, 2.0F);

  const auto start = Clock::now();
  for (int r = 0; r < kGemmRepeats; ++r) gemm(a.data(), b.data(), c.data(), kGemmN);
  for (int r = 0; r < kCopyRepeats; ++r) {
    std::memcpy(dst.data(), src.data(), kCopyBytes);
    src[static_cast<std::size_t>(r)] = dst[kCopyBytes - 1];
  }
  for (std::size_t i = 0; i < kStreamFloats; ++i) {
    y[i] = 0.999F * y[i] + 0.001F * x[i];
  }
  const double ms = ms_since(start);
  sink = c[kElems - 1] + static_cast<float>(dst[0]) + y[kStreamFloats - 1];
  return ms;
}

}  // namespace e2ebench
