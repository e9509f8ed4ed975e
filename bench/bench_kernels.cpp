// Substrate throughput benchmarks (google-benchmark): GEMM (all transpose
// combinations), conv2d forward/backward, batch norm and max-pool, and the
// thread-pool scaling that stands in for the Waggle node's 4+4 cores.
//
// Each compute benchmark exports a GFLOPS counter (rate over wall time, the
// honest metric when the pool keeps multiple threads busy). Besides the
// console table, a machine-readable copy of every run is written to
// BENCH_kernels.json in the working directory so perf regressions can be
// diffed across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>
#include <random>

#include "bench_json.hpp"
#include "tensor/convert.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/quant.hpp"

namespace {

using namespace edgetrain;

void set_flops(benchmark::State& state, double flops_per_iter) {
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * flops_per_iter));
  state.counters["GFLOPS"] =
      benchmark::Counter(flops_per_iter * static_cast<double>(state.iterations()) * 1e-9,
                         benchmark::Counter::kIsRate);
}

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  std::mt19937 rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(false, false, n, n, n, 1.0F, a.data(), b.data(), 0.0F,
              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->UseRealTime();

// The packed kernels specialise per transpose combination; benchmark each
// so a regression in one packing path shows up. Arg encodes (trans_a,
// trans_b) as 2*ta + tb.
void BM_GemmTrans(benchmark::State& state) {
  const bool ta = (state.range(0) & 2) != 0;
  const bool tb = (state.range(0) & 1) != 0;
  const std::int64_t n = 192;
  std::mt19937 rng(6);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(ta, tb, n, n, n, 1.0F, a.data(), b.data(), 0.0F, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmTrans)->DenseRange(0, 3)->UseRealTime();

// The skinny GEMMs a batch-1 ResNet-18 step at 112x112 runs: the 3x3 conv
// of each stage (the 7x7 stem for stage 0) lowered through im2col, as
// conv2d_forward / conv2d_backward_acc call gemm. Arg 0 is the stage
// (0 = stem, 1..4), arg 1 the call: 0 forward W * col, 1 grad_w += gy *
// col^T, 2 grad_x col = W^T * gy. One pool thread, like the training step
// the end-to-end benchmark times.
struct ConvShape {
  std::int64_t cout;
  std::int64_t col_rows;  // cin * kh * kw
  std::int64_t area;      // ho * wo
};
constexpr ConvShape kEdgeStages[] = {
    {64, 3 * 49, 56 * 56}, {64, 64 * 9, 28 * 28},  {128, 128 * 9, 14 * 14},
    {256, 256 * 9, 7 * 7}, {512, 512 * 9, 4 * 4},
};

/// Times one edge call, each iteration taking the next of `copies` copies
/// of the weight-shaped operand (W for the forward and grad_x, the weight
/// gradient for grad_w).
void run_gemm_edge(benchmark::State& state, std::int64_t copies) {
  const ConvShape s = kEdgeStages[state.range(0)];
  const auto call = state.range(1);
  ThreadPool::set_global_threads(1);
  std::mt19937 rng(9);
  std::vector<Tensor> weights;
  for (std::int64_t i = 0; i < copies; ++i) {
    weights.push_back(call == 1
                          ? Tensor::zeros(Shape{s.cout, s.col_rows})
                          : Tensor::randn(Shape{s.cout, s.col_rows}, rng));
  }
  Tensor col = Tensor::randn(Shape{s.col_rows, s.area}, rng);
  Tensor gy = Tensor::randn(Shape{s.cout, s.area}, rng);
  std::size_t next = 0;
  for (auto _ : state) {
    float* w = weights[next].data();
    next = (next + 1) % weights.size();
    if (call == 0) {
      ops::gemm(false, false, s.cout, s.area, s.col_rows, 1.0F, w,
                col.data(), 0.0F, gy.data());
      benchmark::DoNotOptimize(gy.data());
    } else if (call == 1) {
      ops::gemm(false, true, s.cout, s.col_rows, s.area, 1.0F, gy.data(),
                col.data(), 1.0F, w);
      benchmark::DoNotOptimize(w);
    } else {
      ops::gemm(true, false, s.col_rows, s.area, s.cout, 1.0F, w, gy.data(),
                0.0F, col.data());
      benchmark::DoNotOptimize(col.data());
    }
    benchmark::ClobberMemory();
  }
  ThreadPool::set_global_threads(0);
  set_flops(state, 2.0 * static_cast<double>(s.cout) * s.col_rows * s.area);
}

// Every operand warm in cache.
void BM_GemmEdge(benchmark::State& state) { run_gemm_edge(state, 1); }
BENCHMARK(BM_GemmEdge)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}})
    ->ArgNames({"stage", "call"})
    ->UseRealTime();

// The weight-shaped operand cold, as in a training step, where the rest of
// the network runs between two uses of a layer's weight: the calls rotate
// through enough copies of it to fill 32 MiB, well past any core's L2.
void BM_GemmEdgeCold(benchmark::State& state) {
  const ConvShape s = kEdgeStages[state.range(0)];
  const std::int64_t bytes =
      s.cout * s.col_rows * static_cast<std::int64_t>(sizeof(float));
  constexpr std::int64_t kRotationBytes = std::int64_t{32} << 20;
  run_gemm_edge(state, std::max<std::int64_t>(2, kRotationBytes / bytes));
}
BENCHMARK(BM_GemmEdgeCold)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}})
    ->ArgNames({"stage", "call"})
    ->UseRealTime();

void BM_Conv2dForward(benchmark::State& state) {
  const auto channels = state.range(0);
  std::mt19937 rng(2);
  Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor w = Tensor::randn(Shape{channels, channels, 3, 3}, rng);
  const ops::ConvParams p{1, 1};
  for (auto _ : state) {
    Tensor y = ops::conv2d_forward(x, w, Tensor{}, p);
    benchmark::DoNotOptimize(y.data());
  }
  set_flops(state,
            2.0 * static_cast<double>(channels) * channels * 9 * 32 * 32);
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32)->UseRealTime();

void BM_Conv2dBackward(benchmark::State& state) {
  const auto channels = state.range(0);
  std::mt19937 rng(3);
  Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor w = Tensor::randn(Shape{channels, channels, 3, 3}, rng);
  Tensor gy = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  const ops::ConvParams p{1, 1};
  for (auto _ : state) {
    ops::Conv2dGrads grads = ops::conv2d_backward(gy, x, w, p, false);
    benchmark::DoNotOptimize(grads.grad_x.data());
  }
  // Backward = two GEMMs of the forward's shape (dX and dW).
  set_flops(state,
            4.0 * static_cast<double>(channels) * channels * 9 * 32 * 32);
}
BENCHMARK(BM_Conv2dBackward)->Arg(8)->Arg(16)->Arg(32)->UseRealTime();

// The memory-bound layers at the in-situ student's and the ResNet-18
// stem's shapes, timed at one thread like the end-to-end step (the first
// two batch-norm rows keep their original shape and the default pool).
// Each row reports the bytes of the layer's input tensor as
// bytes_per_second, so a row at calib.memcpy_gbps costs what one memcpy of
// its input costs.
constexpr std::int64_t kStudentShape[] = {16, 8, 24, 24};  // in-situ student
constexpr std::int64_t kStemShape[] = {1, 64, 56, 56};     // ResNet-18 stem

Shape nchw(const std::int64_t (&dims)[4]) {
  return Shape{dims[0], dims[1], dims[2], dims[3]};
}

void set_input_bytes(benchmark::State& state, const Tensor& x) {
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.bytes()));
}

void BM_BatchNormForward(benchmark::State& state, const Shape& shape,
                         unsigned threads) {
  std::mt19937 rng(4);
  const std::int64_t c = shape[1];
  Tensor x = Tensor::randn(shape, rng);
  Tensor gamma = Tensor::full(Shape{c}, 1.0F);
  Tensor beta = Tensor::zeros(Shape{c});
  Tensor rm = Tensor::zeros(Shape{c});
  Tensor rv = Tensor::full(Shape{c}, 1.0F);
  ThreadPool::set_global_threads(threads);
  for (auto _ : state) {
    ops::BatchNormState s =
        ops::batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
    benchmark::DoNotOptimize(s.y.data());
    benchmark::ClobberMemory();
  }
  ThreadPool::set_global_threads(0);
  set_input_bytes(state, x);
}
BENCHMARK_CAPTURE(BM_BatchNormForward, 16, Shape{4, 16, 28, 28}, 0);
BENCHMARK_CAPTURE(BM_BatchNormForward, 64, Shape{4, 64, 28, 28}, 0);
BENCHMARK_CAPTURE(BM_BatchNormForward, student, nchw(kStudentShape), 1);
BENCHMARK_CAPTURE(BM_BatchNormForward, stem, nchw(kStemShape), 1);

void BM_BatchNormBackward(benchmark::State& state, const Shape& shape) {
  std::mt19937 rng(6);
  const std::int64_t c = shape[1];
  Tensor x = Tensor::randn(shape, rng);
  Tensor gy = Tensor::randn(shape, rng);
  Tensor gamma = Tensor::full(Shape{c}, 1.0F);
  Tensor beta = Tensor::zeros(Shape{c});
  Tensor rm = Tensor::zeros(Shape{c});
  Tensor rv = Tensor::full(Shape{c}, 1.0F);
  ThreadPool::set_global_threads(1);
  const ops::BatchNormState saved =
      ops::batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
  for (auto _ : state) {
    ops::BatchNormGrads g = ops::batchnorm2d_backward(gy, x, gamma, saved);
    benchmark::DoNotOptimize(g.grad_x.data());
    benchmark::ClobberMemory();
  }
  ThreadPool::set_global_threads(0);
  set_input_bytes(state, x);
}
BENCHMARK_CAPTURE(BM_BatchNormBackward, student, nchw(kStudentShape));
BENCHMARK_CAPTURE(BM_BatchNormBackward, stem, nchw(kStemShape));

/// The model's pool at each shape: 2x2/s2 in the student, 3x3/s2/p1 after
/// the stem; with the argmax (a saving forward) or values only (recompute).
void BM_MaxPool(benchmark::State& state, const Shape& shape, bool argmax) {
  std::mt19937 rng(8);
  Tensor x = Tensor::randn(shape, rng);
  const bool student = shape[2] == kStudentShape[2];
  const std::int64_t k = student ? 2 : 3;
  const ops::ConvParams p{2, student ? 0 : 1};
  for (auto _ : state) {
    if (argmax) {
      ops::MaxPoolResult r = ops::maxpool2d_forward(x, k, p);
      benchmark::DoNotOptimize(r.argmax.data());
    } else {
      Tensor y = ops::maxpool2d_values(x, k, p);
      benchmark::DoNotOptimize(y.data());
    }
    benchmark::ClobberMemory();
  }
  set_input_bytes(state, x);
}
BENCHMARK_CAPTURE(BM_MaxPool, student_argmax, nchw(kStudentShape), true);
BENCHMARK_CAPTURE(BM_MaxPool, student_values, nchw(kStudentShape), false);
BENCHMARK_CAPTURE(BM_MaxPool, stem_argmax, nchw(kStemShape), true);
BENCHMARK_CAPTURE(BM_MaxPool, stem_values, nchw(kStemShape), false);

// Thread-count sweep arguments: powers of two up to this machine's
// hardware_concurrency, with hardware_concurrency itself always the last
// point. The same grid calib::calibrate() measures, so the JSON rows are
// directly comparable with a cached device profile.
void thread_sweep_args(benchmark::internal::Benchmark* bench) {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  for (unsigned t = 1; t < hw; t *= 2) {
    bench->Arg(static_cast<std::int64_t>(t));
  }
  bench->Arg(static_cast<std::int64_t>(hw));
  bench->UseRealTime();
}

// Thread scaling of the pool on an embarrassingly parallel GEMM: emulates
// little/big core counts of the Waggle node.
void BM_GemmThreads(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  std::mt19937 rng(5);
  const std::int64_t n = 192;
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  for (auto _ : state) {
    ops::gemm(false, false, n, n, n, 1.0F, a.data(), b.data(), 0.0F,
              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  ThreadPool::set_global_threads(0);  // restore the default pool
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmThreads)->Apply(thread_sweep_args);

// bf16 GEMM across the same thread grid, operands pre-rounded once (the
// steady-state shape: persistent bf16 weights). GFLOPS compares directly
// against BM_GemmThreads -- the quantized-teacher speedup in isolation.
void BM_GemmBf16(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  std::mt19937 rng(8);
  const std::int64_t n = 192;
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c = Tensor::zeros(Shape{n, n});
  std::vector<std::uint16_t> a16(static_cast<std::size_t>(n * n));
  std::vector<std::uint16_t> b16(static_cast<std::size_t>(n * n));
  convert::fp32_to_bf16(a.data(), a16.data(), n * n);
  convert::fp32_to_bf16(b.data(), b16.data(), n * n);
  for (auto _ : state) {
    ops::gemm_bf16(false, false, n, n, n, 1.0F, a16.data(), b16.data(), 0.0F,
                   c.data());
    benchmark::DoNotOptimize(c.data());
  }
  ThreadPool::set_global_threads(0);
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmBf16)->Apply(thread_sweep_args);

// int8 GEMM (s8 weights x u8 activations -> s32) across the thread grid.
// One MAC counts as 2 "flops" so the GFLOPS column compares directly with
// the fp32 rows.
void BM_GemmInt8(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  const std::int64_t n = 192;
  std::vector<std::int8_t> a8(static_cast<std::size_t>(n * n));
  std::vector<std::uint8_t> b8(static_cast<std::size_t>(n * n));
  for (std::size_t i = 0; i < a8.size(); ++i) {
    a8[i] = static_cast<std::int8_t>(static_cast<int>(i * 37 % 255) - 127);
    b8[i] = static_cast<std::uint8_t>(i * 101 % 256);
  }
  std::vector<std::int32_t> c32(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    quant::gemm_s8u8(n, n, n, a8.data(), b8.data(), /*zp_b=*/128, c32.data());
    benchmark::DoNotOptimize(c32.data());
  }
  ThreadPool::set_global_threads(0);
  set_flops(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmInt8)->Apply(thread_sweep_args);

// Same sweep for conv2d forward+backward: the thread point a training step
// actually runs at (and the probe calibrate() fits conv_gflops from).
void BM_ConvThreads(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<unsigned>(state.range(0)));
  std::mt19937 rng(7);
  const std::int64_t c = 32;
  Tensor x = Tensor::randn(Shape{1, c, 32, 32}, rng);
  Tensor w = Tensor::randn(Shape{c, c, 3, 3}, rng);
  Tensor gy = Tensor::randn(Shape{1, c, 32, 32}, rng);
  const ops::ConvParams p{1, 1};
  for (auto _ : state) {
    Tensor y = ops::conv2d_forward(x, w, Tensor{}, p);
    ops::Conv2dGrads grads = ops::conv2d_backward(gy, x, w, p, true);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(grads.grad_x.data());
  }
  ThreadPool::set_global_threads(0);
  // Forward one GEMM-equivalent, backward two (dX, dW).
  set_flops(state, 6.0 * static_cast<double>(c) * c * 9 * 32 * 32);
}
BENCHMARK(BM_ConvThreads)->Apply(thread_sweep_args);

}  // namespace

// Custom main: report to the console as usual AND mirror every run into
// BENCH_kernels.json (machine-readable, git-ignored). Implemented by
// injecting the out-file flags ahead of the user's arguments, so an
// explicit --benchmark_out=... on the command line still wins.
//
// The JSON mirror is only produced by Release builds: committed BENCH
// baselines diffed across commits must never be polluted by -O0/sanitizer
// numbers, and the build type is recorded in the JSON context so a stray
// file can be audited after the fact.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (edgetrain::bench::release_json_allowed("bench_kernels",
                                             "BENCH_kernels.json")) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
    benchmark::AddCustomContext("edgetrain_build_type", "Release");
  } else {
    benchmark::AddCustomContext("edgetrain_build_type", "Debug");
  }
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
