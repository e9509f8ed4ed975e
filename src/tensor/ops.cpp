#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "tensor/convert.hpp"
#include "tensor/guards.hpp"
#include "tensor/parallel.hpp"
#include "tensor/workspace.hpp"

namespace edgetrain::ops {

namespace {
void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}
}  // namespace

std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t pad) noexcept {
  return (in + 2 * pad - kernel) / stride + 1;
}

// ---------------------------------------------------------------------------
// GEMM: cache-blocked, packed, register-tiled (BLIS-style).
//
// op(A)/op(B) are packed into contiguous panels drawn from the per-thread
// Workspace arena -- A as column-major micro-panels of kMR rows, B as
// row-major micro-panels of kNR columns -- so the inner kernel streams two
// contiguous buffers regardless of the trans_a/trans_b combination. When an
// N-block is a single B panel every A panel is read exactly once, so fp32 A
// is then read in place through its row/column strides instead of packed.
// The kMR x kNR accumulator tile lives in registers (one kernel version per
// AVX-512/AVX2/SSE level, dispatched at load time; no intrinsics), and full
// tiles are written to C straight from those registers.
// Work is parallelised 2-D over (M-block x N-block) tasks; each C tile is
// written by exactly one task with a fixed reduction order, so results are
// bit-for-bit reproducible for any worker count.
//
// Three shape classes change only the order in which tiles and depth blocks
// are visited (DESIGN.md section 8). Each has a tall op(A) -- at least one
// full kMC-row M-block -- and packs its small operand once per call, shared
// read-only by every task:
//   1. narrow N, A not transposed: each row panel runs over the whole depth
//      reading A in place, so every row of A streams end to end once;
//   2. one B panel, A transposed: a sweep over kTR-row tiles, one cache
//      line of A^T wide, in depth chunks of kPC, so kPC rows of A^T stream
//      side by side while the tiles' sums wait in L2 scratch;
//   3. one depth block, a C wider than kNC and at least four times the
//      size of op(B), which every row panel re-reads from L2: the N-block
//      spans the whole row, so each row panel of C streams end to end.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kMR = 8;    // micro-tile rows (register blocking)
constexpr std::int64_t kNR = 16;   // micro-tile cols (one AVX-512 vector)
constexpr std::int64_t kMC = 120;  // A-block rows per task (multiple of kMR)
constexpr std::int64_t kKC = 256;  // packed panel depth (L1/L2 resident)
constexpr std::int64_t kNC = 256;  // B-block cols per task (multiple of kNR)
constexpr std::int64_t kTR = 16;   // transposed-sweep tile rows (64 bytes)
constexpr std::int64_t kPC = 16;   // transposed-sweep depth chunk
// Narrow N: op(B) is at most this many columns (a few B panels).
constexpr std::int64_t kNarrowN = 4 * kNR;
// What one call keeps resident beside its streamed operand: half of a
// 2 MiB L2, in floats.
constexpr std::int64_t kL2Floats = 256 * 1024;

// Micro-architecture levels (not bare ISA bits: v3/v4 imply FMA, which the
// accumulator update contracts into): block_kernel has one version per
// level, dispatched by the loader's ifunc resolver, so the standard build
// needs no -march flags.
//
// Sanitizer builds must NOT multi-version: the ifunc resolver runs during
// relocation, before __tsan_init/__asan_init, and gcc instruments it like
// any other function -- the first __tsan_func_entry then dereferences
// uninitialised sanitizer TLS and the binary segfaults before main.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define EDGETRAIN_KERNEL_VERSIONS 1
#endif

// GNU vector extensions give the micro-kernel named vector accumulators the
// compiler keeps in registers for the whole k loop; a plain scalar tile
// written through a pointer gets spilled to the stack every iteration
// (load-op-store per row), which is ~40x slower. Portable across GCC/Clang
// on every target. A vector wider than the target's registers has no
// register mode and lives on the stack, so each version picks the width
// its registers hold.
using Vec4f = float __attribute__((vector_size(16)));
using Vec8f = float __attribute__((vector_size(32)));
using Vec16f = float __attribute__((vector_size(64)));

/// Packing-time element widening: fp32 operands copy through, bf16 bit
/// patterns decode (exactly -- bf16 is truncated fp32) while the panel is
/// being laid out, so the micro-kernel always consumes fp32 and both
/// precisions share one engine. The decode is inlined (same bit pattern as
/// convert::bf16_to_fp32_scalar, exhaustively cross-checked in tests) so
/// the packer loops stay call-free and vectorisable.
inline float widen(float v) { return v; }
inline float widen(std::uint16_t v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v) << 16);
}

/// Packs op(A)[i0:i0+mc, p0:p0+kc] as ceil(mc/kMR) micro-panels; panel ir
/// holds kc columns of kMR rows each (zero-padded past the matrix edge).
template <typename TA>
void pack_a(const TA* a, bool trans, std::int64_t lda, std::int64_t i0,
            std::int64_t mc, std::int64_t p0, std::int64_t kc, float* dst) {
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t rows = std::min(kMR, mc - ir);
    if (trans) {
      // op(A)[i, p] = a[p * lda + i]: rows are contiguous in memory.
      for (std::int64_t p = 0; p < kc; ++p) {
        const TA* src = a + (p0 + p) * lda + i0 + ir;
        float* out = dst + p * kMR;
        for (std::int64_t r = 0; r < rows; ++r) out[r] = widen(src[r]);
        for (std::int64_t r = rows; r < kMR; ++r) out[r] = 0.0F;
      }
    } else {
      // a[i * lda + p]: depth is contiguous, scatter into panel slots.
      for (std::int64_t r = 0; r < kMR; ++r) {
        if (r < rows) {
          const TA* src = a + (i0 + ir + r) * lda + p0;
          for (std::int64_t p = 0; p < kc; ++p) {
            dst[p * kMR + r] = widen(src[p]);
          }
        } else {
          for (std::int64_t p = 0; p < kc; ++p) dst[p * kMR + r] = 0.0F;
        }
      }
    }
    dst += kMR * kc;
  }
}

/// Packs op(B)[p0:p0+kc, j0:j0+nc] as ceil(nc/kNR) micro-panels; panel jr
/// holds kc rows of kNR columns each (zero-padded past the matrix edge).
template <typename TB>
void pack_b(const TB* b, bool trans, std::int64_t ldb, std::int64_t p0,
            std::int64_t kc, std::int64_t j0, std::int64_t nc, float* dst) {
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jr);
    if (trans) {
      // op(B)[p, j] = b[j * ldb + p]: depth is contiguous per column.
      for (std::int64_t j = 0; j < kNR; ++j) {
        if (j < cols) {
          const TB* src = b + (j0 + jr + j) * ldb + p0;
          for (std::int64_t p = 0; p < kc; ++p) {
            dst[p * kNR + j] = widen(src[p]);
          }
        } else {
          for (std::int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = 0.0F;
        }
      }
    } else {
      // b[p * ldb + j]: columns are contiguous per depth step.
      for (std::int64_t p = 0; p < kc; ++p) {
        const TB* src = b + (p0 + p) * ldb + j0 + jr;
        float* out = dst + p * kNR;
        for (std::int64_t j = 0; j < cols; ++j) out[j] = widen(src[j]);
        for (std::int64_t j = cols; j < kNR; ++j) out[j] = 0.0F;
      }
    }
    dst += kNR * kc;
  }
}

/// Packs all of op(B) (k x n) once: the panels pack_b lays out for depth
/// block p0 land at dst + p0 * n_pad, n_pad being n rounded up to kNR.
template <typename TB>
void pack_b_all(const TB* b, bool trans, std::int64_t ldb, std::int64_t k,
                std::int64_t n, float* dst) {
  const std::int64_t n_pad = ceil_div(n, kNR) * kNR;
  for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
    pack_b(b, trans, ldb, p0, std::min(kKC, k - p0), 0, n, dst + p0 * n_pad);
  }
}

/// c[rows, cols] = alpha * acc + beta * c (beta folds the previous value;
/// rows/cols clip the zero-padded accumulator at the matrix edge).
/// noinline keeps it at the baseline ISA: inlined into an FMA clone, the
/// alpha/beta update would contract and round differently.
[[gnu::noinline]] void apply_tile(const float* acc, float* c, std::int64_t ldc,
                                  std::int64_t rows, std::int64_t cols,
                                  float alpha, float beta) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* src = acc + i * kNR;
    float* dst = c + i * ldc;
    if (beta == 0.0F) {
      for (std::int64_t j = 0; j < cols; ++j) dst[j] = alpha * src[j];
    } else if (beta == 1.0F) {
      for (std::int64_t j = 0; j < cols; ++j) dst[j] += alpha * src[j];
    } else {
      for (std::int64_t j = 0; j < cols; ++j) {
        dst[j] = alpha * src[j] + beta * dst[j];
      }
    }
  }
}

/// Where the micro-kernel reads A: element (r, p) of the row panel that
/// starts at block row ir is data[ir * step + r * rs + p * cs]. Packed
/// panels have rs = 1, cs = kMR, step = kc; fp32 A read in place has its
/// own row/column strides and step = rs.
struct APanels {
  const float* data;
  std::int64_t rs;
  std::int64_t cs;
  std::int64_t step;
};

/// One (mc x nc x kc) block of C and where its operands are read.
struct Block {
  APanels a;
  const float* b;  // packed B panels
  float* c;
  std::int64_t ldc;
  std::int64_t mc;
  std::int64_t nc;
  std::int64_t kc;
  float alpha;
  float beta;
};

/// Every kMR x kNR tile of the block: acc = sum_p op(A)[i, p] * B[p, :],
/// accumulated p-sequentially in vector registers (kNR / lanes per row),
/// kRows rows per pass over the depth. A full tile with alpha == 1 is then
/// written as C = acc or C = C + acc straight from the registers; edge
/// tiles and other scalars go through apply_tile. Either way each C element
/// gets the same operations in the same order, whatever kRows and the
/// vector width of the version that runs.
template <typename Vec, std::int64_t kRows>
[[gnu::always_inline]] inline void block_tiles(const Block& blk) {
  static_assert(kMR % kRows == 0);
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
  constexpr std::size_t kParts = static_cast<std::size_t>(kNR) / kLanes;
  const bool store_from_regs =
      blk.alpha == 1.0F && (blk.beta == 0.0F || blk.beta == 1.0F);
  const std::int64_t rs = blk.a.rs;
  const std::int64_t cs = blk.a.cs;
  for (std::int64_t ir = 0; ir < blk.mc; ir += kMR) {
    const float* apanel = blk.a.data + ir * blk.a.step;
    const std::int64_t rows = std::min(kMR, blk.mc - ir);
    for (std::int64_t jr = 0; jr < blk.nc; jr += kNR) {
      const std::int64_t cols = std::min(kNR, blk.nc - jr);
      float* c = blk.c + ir * blk.ldc + jr;
      const bool direct = store_from_regs && rows == kMR && cols == kNR;
      alignas(64) float tile[kMR * kNR];
      for (std::int64_t h = 0; h < rows; h += kRows) {
        const float* ap = apanel + h * rs;
        const float* bp = blk.b + jr * blk.kc;
        Vec acc[static_cast<std::size_t>(kRows)][kParts] = {};
        for (std::int64_t p = 0; p < blk.kc; ++p) {
          Vec bv[kParts];
#pragma GCC unroll 4
          for (std::size_t q = 0; q < kParts; ++q) {
            std::memcpy(&bv[q], bp + q * kLanes, sizeof(Vec));
          }
#pragma GCC unroll 8
          for (std::int64_t i = 0; i < kRows; ++i) {
            const float av = ap[i * rs];
#pragma GCC unroll 4
            for (std::size_t q = 0; q < kParts; ++q) acc[i][q] += av * bv[q];
          }
          ap += cs;
          bp += kNR;
        }
#pragma GCC unroll 8
        for (std::int64_t i = 0; i < kRows; ++i) {
          float* row = direct ? c + (h + i) * blk.ldc : tile + (h + i) * kNR;
#pragma GCC unroll 4
          for (std::size_t q = 0; q < kParts; ++q) {
            float* dst = row + q * kLanes;
            if (direct && blk.beta == 1.0F) {
              Vec old;
              std::memcpy(&old, dst, sizeof old);
              acc[i][q] = old + acc[i][q];
            }
            std::memcpy(dst, &acc[i][q], sizeof(Vec));
          }
        }
      }
      if (!direct) {
        apply_tile(tile, c, blk.ldc, rows, cols, blk.alpha, blk.beta);
      }
    }
  }
}

// A 16-wide row accumulator is one zmm register under x86-64-v4 (32 of
// them), so one pass over all kMR rows keeps kMR independent FMA chains in
// flight. AVX2 holds a row in two of its 16 ymm registers and SSE in four
// of its 16 xmm registers, so those versions take the same panels in
// passes of kMR / 2 and kMR / 4 rows.
#if defined(EDGETRAIN_KERNEL_VERSIONS)
[[gnu::target("arch=x86-64-v4")]] void block_kernel(const Block& blk) {
  block_tiles<Vec16f, kMR>(blk);
}
[[gnu::target("arch=x86-64-v3")]] void block_kernel(const Block& blk) {
  block_tiles<Vec8f, kMR / 2>(blk);
}
[[gnu::target("default")]] void block_kernel(const Block& blk) {
  block_tiles<Vec4f, kMR / 4>(blk);
}
#else
void block_kernel(const Block& blk) { block_tiles<Vec4f, kMR / 4>(blk); }
#endif

/// One depth block of the transposed-A sweep over a task's rows: element
/// (i, p) of op(A) is a[p * lda + i], a ragged last tile is read from tail
/// (packed as kc rows of kTR), b is one packed B panel (kc rows of kNR) and
/// acc holds the rows' running sums, kNR per row.
struct Sweep {
  const float* a;
  std::int64_t lda;
  const float* tail;
  const float* b;
  float* acc;
  std::int64_t rows;
  std::int64_t kc;
};

/// acc[i, :] += sum_p op(A)[i, p] * B[p, :] over every kTR-row tile, one
/// depth chunk of kPC at a time: each chunk sweeps all tiles, so kPC rows
/// of A^T stream side by side from end to end, and a tile's sums go back
/// to acc between chunks. A stored sum is the same float the registers
/// held, so each element still gets one p-sequential chain per depth
/// block, exactly as in block_tiles, whatever kRows and the vector width.
template <typename Vec, std::int64_t kRows>
[[gnu::always_inline]] inline void sweep_tiles(const Sweep& s) {
  static_assert(kTR % kRows == 0);
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
  constexpr std::size_t kParts = static_cast<std::size_t>(kNR) / kLanes;
  for (std::int64_t pc = 0; pc < s.kc; pc += kPC) {
    const std::int64_t depth = std::min(kPC, s.kc - pc);
    for (std::int64_t it = 0; it < s.rows; it += kTR) {
      const bool packed = it + kTR > s.rows;
      const float* tile_a = packed ? s.tail + pc * kTR : s.a + pc * s.lda + it;
      const std::int64_t cs = packed ? kTR : s.lda;
      for (std::int64_t h = 0; h < kTR; h += kRows) {
        float* sums = s.acc + (it + h) * kNR;
        Vec acc[static_cast<std::size_t>(kRows)][kParts];
#pragma GCC unroll 16
        for (std::int64_t i = 0; i < kRows; ++i) {
#pragma GCC unroll 4
          for (std::size_t q = 0; q < kParts; ++q) {
            std::memcpy(&acc[i][q], sums + i * kNR + q * kLanes, sizeof(Vec));
          }
        }
        const float* ap = tile_a + h;
        const float* bp = s.b + pc * kNR;
        for (std::int64_t p = 0; p < depth; ++p) {
          Vec bv[kParts];
#pragma GCC unroll 4
          for (std::size_t q = 0; q < kParts; ++q) {
            std::memcpy(&bv[q], bp + q * kLanes, sizeof(Vec));
          }
#pragma GCC unroll 16
          for (std::int64_t i = 0; i < kRows; ++i) {
            const float av = ap[i];
#pragma GCC unroll 4
            for (std::size_t q = 0; q < kParts; ++q) acc[i][q] += av * bv[q];
          }
          ap += cs;
          bp += kNR;
        }
#pragma GCC unroll 16
        for (std::int64_t i = 0; i < kRows; ++i) {
#pragma GCC unroll 4
          for (std::size_t q = 0; q < kParts; ++q) {
            std::memcpy(sums + i * kNR + q * kLanes, &acc[i][q], sizeof(Vec));
          }
        }
      }
    }
  }
}

// The sweep tile is kTR = 16 rows: 16 zmm sums under v4, taken by v3 in
// passes of 4 rows (8 ymm) and by default/SSE in passes of 2 rows (8 xmm).
#if defined(EDGETRAIN_KERNEL_VERSIONS)
[[gnu::target("arch=x86-64-v4")]] void sweep_kernel(const Sweep& s) {
  sweep_tiles<Vec16f, kTR>(s);
}
[[gnu::target("arch=x86-64-v3")]] void sweep_kernel(const Sweep& s) {
  sweep_tiles<Vec8f, kTR / 4>(s);
}
[[gnu::target("default")]] void sweep_kernel(const Sweep& s) {
  sweep_tiles<Vec4f, kTR / 8>(s);
}
#else
void sweep_kernel(const Sweep& s) { sweep_tiles<Vec4f, kTR / 8>(s); }
#endif

/// C *= beta for the degenerate k == 0 / alpha == 0 cases.
void scale_c(float* c, std::int64_t m, std::int64_t n, float beta) {
  if (beta == 1.0F) return;
  parallel_for(0, m, 64, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      float* row = c + i * n;
      if (beta == 0.0F) {
        std::memset(row, 0, static_cast<std::size_t>(n) * sizeof(float));
      } else {
        for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
      }
    }
  });
}

/// Shape class 2: C = alpha * op(A) op(B) + beta * C with A transposed
/// (fp32, read in place) and n <= kNR. Every task sums its rows' depth
/// block into L2 scratch that starts from exactly zero, then folds it into
/// C as apply_tile does for any tile: the same arithmetic per element as
/// block_tiles, in another visiting order.
template <typename TB>
void gemm_sweep(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, const TB* b, bool trans_b, std::int64_t ldb,
                float beta, float* c) {
  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* packed_b = ws.alloc(k * kNR);
  pack_b_all(b, trans_b, ldb, k, n, packed_b);
  parallel_for(0, ceil_div(m, kTR), 1, [&](std::int64_t t0, std::int64_t t1) {
    Workspace& task_ws = Workspace::tls();
    const WorkspaceScope task_scope(task_ws);
    const std::int64_t i0 = t0 * kTR;
    const std::int64_t rows = std::min(m, t1 * kTR) - i0;
    const std::int64_t full = rows / kTR * kTR;
    const std::int64_t sums = (t1 - t0) * kTR * kNR;
    float* acc = task_ws.alloc(sums);
    float* tail = full < rows ? task_ws.alloc(kKC * kTR) : nullptr;
    for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
      const std::int64_t kc = std::min(kKC, k - p0);
      if (tail != nullptr) {
        for (std::int64_t p = 0; p < kc; ++p) {
          const float* src = a + (p0 + p) * m + i0 + full;
          for (std::int64_t r = 0; r < kTR; ++r) {
            tail[p * kTR + r] = r < rows - full ? src[r] : 0.0F;
          }
        }
      }
      std::fill_n(acc, sums, 0.0F);
      sweep_kernel(
          Sweep{a + p0 * m + i0, m, tail, packed_b + p0 * kNR, acc, rows, kc});
      apply_tile(acc, c + i0 * n, n, rows, n, alpha, p0 == 0 ? beta : 1.0F);
    }
  });
}

/// Shared blocked driver: fp32 and bf16 gemm differ only in the element
/// type the packers widen from, so the task grid, workspace use and
/// accumulation order -- hence the determinism guarantees -- are one piece
/// of code. Callers have already handled degenerate shapes and guards.
template <typename TA, typename TB>
void gemm_blocked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const TA* a, const TB* b,
                  float beta, float* c) {
  // Row-major: A is m x k (lda=k) or, transposed, stored k x m (lda=m).
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;
  constexpr bool kFloatA = std::is_same_v<TA, float>;

  // The shape classes of the header comment; anything else takes the
  // plain (M-block x N-block) grid. Whatever op(B) a class shares must fit
  // beside the streamed operand in L2.
  const std::int64_t n_pad = ceil_div(n, kNR) * kNR;
  const bool tall = m >= kMC;
  const bool b_fits = k * n_pad <= kL2Floats;
  if constexpr (kFloatA) {
    if (tall && trans_a && n <= kNR && (m + k) * kNR <= kL2Floats) {
      gemm_sweep(m, n, k, alpha, a, b, trans_b, ldb, beta, c);
      return;
    }
  }
  const bool depth_inner = tall && !trans_a && n <= kNarrowN && b_fits;
  const bool wide_c = tall && k <= kKC && n > kNC && 4 * k <= m && b_fits;
  const bool shared_b = depth_inner || wide_c;
  const std::int64_t nc_max = shared_b ? n : kNC;

  // 2-D task grid over (M-block x N-block). When the natural kMC blocking
  // yields fewer tasks than workers, M-blocks shrink (to a kMR multiple) so
  // every worker gets a disjoint slab of C. The grid depends only on the
  // shapes and the pool size, and each C tile has a single writer with a
  // fixed k-accumulation order: results are deterministic.
  const std::int64_t n_blocks = ceil_div(n, nc_max);
  const auto threads = static_cast<std::int64_t>(ThreadPool::global().size());
  std::int64_t m_blocks = ceil_div(m, kMC);
  const std::int64_t max_m_blocks = ceil_div(m, kMR);
  if (m_blocks * n_blocks < threads) {
    m_blocks = std::min(max_m_blocks, ceil_div(threads, n_blocks));
  }
  const std::int64_t mc_max = ceil_div(ceil_div(m, m_blocks), kMR) * kMR;
  m_blocks = ceil_div(m, mc_max);

  // A single B panel means each A panel feeds exactly one tile, so packing
  // A is a pure extra copy: fp32 A is read in place instead, as it is when
  // a row panel runs over the whole depth. A ragged last row panel, which
  // the kernel would read past, is packed.
  const bool a_in_place = kFloatA && (n <= kNR || depth_inner);
  const std::int64_t pass_rows = depth_inner ? kMR : mc_max;

  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* all_b = nullptr;
  if (shared_b) {
    all_b = ws.alloc(k * n_pad);
    pack_b_all(b, trans_b, ldb, k, n, all_b);
  }

  parallel_for(0, m_blocks * n_blocks, 1, [&](std::int64_t t0,
                                              std::int64_t t1) {
    Workspace& task_ws = Workspace::tls();
    const WorkspaceScope task_scope(task_ws);
    float* packed_a = task_ws.alloc(pass_rows * kKC);
    float* packed_b = shared_b ? nullptr : task_ws.alloc(kKC * kNC);
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t i0 = (t % m_blocks) * mc_max;
      const std::int64_t j0 = (t / m_blocks) * nc_max;
      const std::int64_t mc = std::min(mc_max, m - i0);
      for (std::int64_t ir = i0; ir < i0 + mc; ir += pass_rows) {
        Block blk{};
        blk.c = c + ir * n + j0;
        blk.ldc = n;
        blk.mc = std::min(pass_rows, i0 + mc - ir);
        blk.nc = std::min(nc_max, n - j0);
        blk.alpha = alpha;
        const bool in_place = a_in_place && blk.mc % kMR == 0;
        for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
          blk.kc = std::min(kKC, k - p0);
          blk.beta = p0 == 0 ? beta : 1.0F;
          if (!in_place) {
            pack_a(a, trans_a, lda, ir, blk.mc, p0, blk.kc, packed_a);
            blk.a = APanels{packed_a, 1, kMR, blk.kc};
          } else if constexpr (kFloatA) {
            blk.a = trans_a ? APanels{a + p0 * lda + ir, 1, lda, 1}
                            : APanels{a + ir * lda + p0, lda, 1, lda};
          }
          if (shared_b) {
            blk.b = all_b + p0 * n_pad;
          } else {
            pack_b(b, trans_b, ldb, p0, blk.kc, j0, blk.nc, packed_b);
            blk.b = packed_b;
          }
          block_kernel(blk);
        }
      }
    }
  });
}

// Per-thread gemm compute mode. thread_local (not global) so a bf16-scoped
// training step never changes what a concurrently running fp32 caller sees;
// pool workers never call gemm themselves, so the mode of the thread that
// *enters* gemm is the one that applies to the whole operation.
thread_local GemmPrecision tls_gemm_precision = GemmPrecision::Fp32;

}  // namespace

void set_gemm_precision(GemmPrecision mode) noexcept {
  tls_gemm_precision = mode;
}

GemmPrecision gemm_precision() noexcept { return tls_gemm_precision; }

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0F) {
    scale_c(c, m, n, beta);
    return;
  }
  if (tls_gemm_precision == GemmPrecision::Bf16) {
    // Mixed-precision mode: round both operands to bf16 in workspace
    // scratch and run the bf16 engine (fp32 accumulate). C (and beta's
    // read of it) stays full fp32 -- that is the master-weight contract.
    Workspace& ws = Workspace::tls();
    const WorkspaceScope scope(ws);
    auto* ab = reinterpret_cast<std::uint16_t*>(ws.alloc((m * k + 1) / 2));
    auto* bb = reinterpret_cast<std::uint16_t*>(ws.alloc((k * n + 1) / 2));
    convert::fp32_to_bf16(a, ab, m * k);
    convert::fp32_to_bf16(b, bb, k * n);
    gemm_bf16(trans_a, trans_b, m, n, k, alpha, ab, bb, beta, c);
    return;
  }

  // C tiles are written by concurrent workers that read A and B unsynchronised;
  // an in-place gemm would race.
  EDGETRAIN_GUARD_DISJOINT("gemm", {a, m * k}, {b, k * n}, {c, m * n});

  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const std::uint16_t* a,
               const std::uint16_t* b, float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0F) {
    scale_c(c, m, n, beta);
    return;
  }
  EDGETRAIN_GUARD_DISJOINT("gemm_bf16",
                           {reinterpret_cast<const float*>(a), (m * k + 1) / 2},
                           {reinterpret_cast<const float*>(b), (k * n + 1) / 2},
                           {c, m * n});
  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

namespace {

/// The outputs [lo, hi) of a row whose tap kj reads an input column inside
/// [0, w): ix = ox * stride - pad + kj. Hoisted out of the row loops, so
/// the rows copy runs with no per-pixel bounds checks.
std::pair<std::int64_t, std::int64_t> valid_cols(std::int64_t w,
                                                 std::int64_t wo,
                                                 std::int64_t kj,
                                                 const ConvParams& p) {
  const std::int64_t lo =
      std::min(wo, p.pad > kj ? ceil_div(p.pad - kj, p.stride) : 0);
  const std::int64_t end = w + p.pad - kj;  // ix < w <=> ox * stride < end
  const std::int64_t hi =
      end <= 0 ? lo : std::max(lo, std::min(wo, ceil_div(end, p.stride)));
  return {lo, hi};
}

/// dst[j] = src[j * stride]; stride 2 (every strided conv in a ResNet) is a
/// compile-time stride the loop vectorises with.
void gather_run(const float* src, std::int64_t stride, float* dst,
                std::int64_t n) {
  if (stride == 1) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
  } else if (stride == 2) {
    for (std::int64_t j = 0; j < n; ++j) dst[j] = src[j * 2];
  } else {
    for (std::int64_t j = 0; j < n; ++j) dst[j] = src[j * stride];
  }
}

/// dst[j * stride] += src[j], in increasing j.
void scatter_add_run(const float* src, std::int64_t stride, float* dst,
                     std::int64_t n) {
  if (stride == 1) {
    for (std::int64_t j = 0; j < n; ++j) dst[j] += src[j];
  } else if (stride == 2) {
    for (std::int64_t j = 0; j < n; ++j) dst[j * 2] += src[j];
  } else {
    for (std::int64_t j = 0; j < n; ++j) dst[j * stride] += src[j];
  }
}

/// One im2col row of a stride-1 conv whose output is as wide as its input
/// (w == wo, the "same" 3x3/p1 convs): a source pixel then sits at a fixed
/// offset from its destination, so the output rows whose tap row is inside
/// the input take one copy from the first valid pixel to the last. The
/// fringe columns that copy fills with the neighbouring rows' edge pixels
/// are zeroed after it, and the other rows are zero.
void same_width_row(const float* plane, std::int64_t h, std::int64_t w,
                    std::int64_t ho, std::int64_t ki, std::int64_t kj,
                    std::int64_t pad, std::int64_t lo, std::int64_t hi,
                    float* dst) {
  const std::int64_t oy_a = std::clamp<std::int64_t>(pad - ki, 0, ho);
  const std::int64_t oy_b = std::clamp<std::int64_t>(h + pad - ki, oy_a, ho);
  std::memset(dst, 0, static_cast<std::size_t>(oy_a * w) * sizeof(float));
  std::memset(dst + oy_b * w, 0,
              static_cast<std::size_t>((ho - oy_b) * w) * sizeof(float));
  if (oy_b == oy_a) return;
  const std::int64_t first = oy_a * w + lo;
  const std::int64_t last = (oy_b - 1) * w + hi;
  std::memcpy(dst + first, plane + first + (ki - pad) * w + kj - pad,
              static_cast<std::size_t>(last - first) * sizeof(float));
  // Column by column: a loop along a row would become a memset call each.
  const auto zero_column = [&](std::int64_t ox) {
    for (std::int64_t oy = oy_a; oy < oy_b; ++oy) dst[oy * w + ox] = 0.0F;
  };
  for (std::int64_t ox = 0; ox < lo; ++ox) zero_column(ox);
  for (std::int64_t ox = hi; ox < w; ++ox) zero_column(ox);
}

}  // namespace

// Both lowerings visit (channel, ki, kj, oy) in the same order and touch
// only a row's valid span [lo, hi): zero fringes in im2col, skipped ones in
// col2im, so each input element gets its additions in the same order as
// a per-pixel bounds-checked loop.
void im2col(const float* x, std::int64_t channels, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            const ConvParams& p, float* col) {
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, kw, p.stride, p.pad);
  const std::int64_t out_area = ho * wo;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const std::int64_t row = (c * kh + ki) * kw + kj;
        float* dst = col + row * out_area;
        const auto [lo, hi] = valid_cols(w, wo, kj, p);
        if (p.stride == 1 && w == wo && hi > lo) {
          same_width_row(x + c * h * w, h, w, ho, ki, kj, p.pad, lo, hi, dst);
          continue;
        }
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * p.stride - p.pad + ki;
          float* drow = dst + oy * wo;
          if (iy < 0 || iy >= h || hi == lo) {
            std::memset(drow, 0, static_cast<std::size_t>(wo) * sizeof(float));
            continue;
          }
          std::memset(drow, 0, static_cast<std::size_t>(lo) * sizeof(float));
          gather_run(x + (c * h + iy) * w + lo * p.stride - p.pad + kj,
                     p.stride, drow + lo, hi - lo);
          std::memset(drow + hi, 0,
                      static_cast<std::size_t>(wo - hi) * sizeof(float));
        }
      }
    }
  }
}

void col2im(const float* col, std::int64_t channels, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            const ConvParams& p, float* x) {
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, kw, p.stride, p.pad);
  const std::int64_t out_area = ho * wo;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const std::int64_t row = (c * kh + ki) * kw + kj;
        const float* src = col + row * out_area;
        const auto [lo, hi] = valid_cols(w, wo, kj, p);
        if (hi == lo) continue;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * p.stride - p.pad + ki;
          if (iy < 0 || iy >= h) continue;
          scatter_add_run(src + oy * wo + lo, p.stride,
                          x + (c * h + iy) * w + lo * p.stride - p.pad + kj,
                          hi - lo);
        }
      }
    }
  }
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                      const ConvParams& p) {
  check(x.shape().rank() == 4, "conv2d: x must be NCHW");
  check(w.shape().rank() == 4, "conv2d: w must be [Cout,Cin,kh,kw]");
  const std::int64_t n = x.shape()[0];
  const std::int64_t cin = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t wd = x.shape()[3];
  const std::int64_t cout = w.shape()[0];
  check(w.shape()[1] == cin, "conv2d: channel mismatch");
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(wd, kw, p.stride, p.pad);
  check(ho > 0 && wo > 0, "conv2d: empty output");

  Tensor y = Tensor::empty(Shape{n, cout, ho, wo});
  const std::int64_t col_rows = cin * kh * kw;
  const std::int64_t out_area = ho * wo;
  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* col = ws.alloc(col_rows * out_area);

  for (std::int64_t img = 0; img < n; ++img) {
    im2col(x.data() + img * cin * h * wd, cin, h, wd, kh, kw, p, col);
    // y[img] = W[cout, col_rows] * col
    gemm(false, false, cout, out_area, col_rows, 1.0F, w.data(), col,
         0.0F, y.data() + img * cout * out_area);
    if (bias.defined()) {
      float* yp = y.data() + img * cout * out_area;
      for (std::int64_t c = 0; c < cout; ++c) {
        const float b = bias.data()[c];
        for (std::int64_t i = 0; i < out_area; ++i) yp[c * out_area + i] += b;
      }
    }
  }
  return y;
}

Tensor conv2d_backward_acc(const Tensor& grad_y, const Tensor& x,
                           const Tensor& w, const ConvParams& p,
                           Tensor& grad_w_acc, Tensor* grad_b_acc) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t cin = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t wd = x.shape()[3];
  const std::int64_t cout = w.shape()[0];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t ho = grad_y.shape()[2];
  const std::int64_t wo = grad_y.shape()[3];
  const std::int64_t out_area = ho * wo;
  const std::int64_t col_rows = cin * kh * kw;
  check(grad_w_acc.shape() == w.shape(), "conv2d_backward: grad_w shape");

  Tensor grad_x = Tensor::zeros(x.shape());

  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* col = ws.alloc(col_rows * out_area);
  float* col_grad = ws.alloc(col_rows * out_area);

  for (std::int64_t img = 0; img < n; ++img) {
    const float* gy = grad_y.data() + img * cout * out_area;
    // grad_w += gy[cout, area] * col^T -> [cout, col_rows]
    im2col(x.data() + img * cin * h * wd, cin, h, wd, kh, kw, p, col);
    gemm(false, true, cout, col_rows, out_area, 1.0F, gy, col, 1.0F,
         grad_w_acc.data());
    // col_grad = W^T[col_rows, cout] * gy
    gemm(true, false, col_rows, out_area, cout, 1.0F, w.data(), gy, 0.0F,
         col_grad);
    col2im(col_grad, cin, h, wd, kh, kw, p,
           grad_x.data() + img * cin * h * wd);
    if (grad_b_acc != nullptr) {
      float* gb = grad_b_acc->data();
      for (std::int64_t c = 0; c < cout; ++c) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < out_area; ++i) acc += gy[c * out_area + i];
        gb[c] += static_cast<float>(acc);
      }
    }
  }
  return grad_x;
}

Conv2dGrads conv2d_backward(const Tensor& grad_y, const Tensor& x,
                            const Tensor& w, const ConvParams& p,
                            bool with_bias) {
  Conv2dGrads grads;
  grads.grad_w = Tensor::zeros(w.shape());
  if (with_bias) grads.grad_b = Tensor::zeros(Shape{w.shape()[0]});
  grads.grad_x =
      conv2d_backward_acc(grad_y, x, w, p, grads.grad_w,
                          with_bias ? &grads.grad_b : nullptr);
  return grads;
}

// ---------------------------------------------------------------------------
// Activation / pooling
// ---------------------------------------------------------------------------

Tensor relu_forward(const Tensor& x) {
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  EDGETRAIN_GUARD_DISJOINT("relu_forward", {xp, n}, {yp, n});
  parallel_for(0, n, 1 << 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) yp[i] = xp[i] > 0.0F ? xp[i] : 0.0F;
  });
  return y;
}

Tensor relu_backward(const Tensor& grad_y, const Tensor& y) {
  check(grad_y.shape() == y.shape(), "relu_backward: shape mismatch");
  Tensor gx = Tensor::empty(y.shape());
  const float* gy = grad_y.data();
  const float* yp = y.data();
  float* gp = gx.data();
  const std::int64_t n = y.numel();
  EDGETRAIN_GUARD_DISJOINT("relu_backward", {gy, n}, {yp, n}, {gp, n});
  parallel_for(0, n, 1 << 16, [&](std::int64_t b, std::int64_t e) {
    // gy[i] is loaded whether or not it is kept: a load under the condition
    // keeps the loop scalar, an unconditional one makes it a vector select.
    for (std::int64_t i = b; i < e; ++i) {
      const float g = gy[i];
      gp[i] = yp[i] > 0.0F ? g : 0.0F;
    }
  });
  return gx;
}

namespace {

/// `run` consecutive interior outputs of one pool row, one at a time:
/// output j's window has its top-left tap at src[j * stride] and its row r
/// at r * w further; idx0 is the plane offset of src. The taps are visited
/// row by row and the first strict maximum kept.
template <bool kArgmax>
[[gnu::always_inline]] inline void pool_row(const float* src, std::int64_t w,
                                            std::int64_t k,
                                            std::int64_t stride,
                                            std::int32_t idx0,
                                            std::int64_t run, float* y,
                                            std::int32_t* am) {
  for (std::int64_t j = 0; j < run; ++j) {
    float best = -std::numeric_limits<float>::infinity();
    std::int32_t best_idx = 0;
    for (std::int64_t ki = 0; ki < k; ++ki) {
      for (std::int64_t kj = 0; kj < k; ++kj) {
        const std::int64_t off = ki * w + j * stride + kj;
        const float v = src[off];
        if constexpr (kArgmax) {
          best_idx = v > best ? idx0 + static_cast<std::int32_t>(off) : best_idx;
        }
        best = v > best ? v : best;
      }
    }
    y[j] = best;
    if constexpr (kArgmax) am[j] = best_idx;
  }
}

/// V pool outputs in vector registers (GNU vector extensions, like the
/// GEMM tiles): float values and the int32 offsets of their argmax.
template <std::size_t V>
struct PoolLanes {
  typedef float Values __attribute__((vector_size(4 * V)));
  typedef std::int32_t Offsets __attribute__((vector_size(4 * V)));

  /// p[0], p[2], ..., p[2V - 2], read as two vectors that end at the last
  /// of them (so no read passes the window) and one two-source shuffle.
  template <std::size_t... L>
  [[gnu::always_inline]] static void even(const float* p, Values& out,
                                          std::index_sequence<L...> /*l*/) {
    Values lo;
    Values hi;
    std::memcpy(&lo, p, sizeof lo);
    std::memcpy(&hi, p + V - 1, sizeof hi);
    out = __builtin_shufflevector(lo, hi, (L < V / 2 ? 2 * L : 2 * L + 1)...);
  }

  /// out = {0, 2, 4, ...}.
  template <std::size_t... L>
  [[gnu::always_inline]] static void twice_iota(
      Offsets& out, std::index_sequence<L...> /*l*/) {
    out = Offsets{static_cast<std::int32_t>(2 * L)...};
  }
};

/// Outputs [j, j + V) of a stride-2 pool row (pool_row's layout), the
/// window's taps in the same order with the same selects, V lanes at once.
template <std::int64_t kK, bool kArgmax, std::size_t V>
[[gnu::always_inline]] inline void pool_block_s2(const float* src,
                                                 std::int64_t w,
                                                 std::int32_t idx0,
                                                 std::int64_t j, float* y,
                                                 std::int32_t* am) {
  using Lanes = PoolLanes<V>;
  constexpr auto kLanes = std::make_index_sequence<V>{};
  typename Lanes::Values best =
      typename Lanes::Values{} - std::numeric_limits<float>::infinity();
  typename Lanes::Offsets best_idx{};
  typename Lanes::Offsets first;
  Lanes::twice_iota(first, kLanes);
  first += idx0 + static_cast<std::int32_t>(2 * j);
  for (std::int64_t ki = 0; ki < kK; ++ki) {
    for (std::int64_t kj = 0; kj < kK; ++kj) {
      const std::int64_t tap = ki * w + kj;
      typename Lanes::Values v;
      Lanes::even(src + tap + 2 * j, v, kLanes);
      const typename Lanes::Offsets take = v > best;
      if constexpr (kArgmax) {
        best_idx = take ? first + static_cast<std::int32_t>(tap) : best_idx;
      }
      best = take ? v : best;
    }
  }
  std::memcpy(y + j, &best, sizeof best);
  if constexpr (kArgmax) std::memcpy(am + j, &best_idx, sizeof best_idx);
}

/// A stride-2 pool row in blocks of V outputs; the last block ends at the
/// row's end, overlapping its predecessor (recomputed outputs are the same
/// bits). Rows shorter than V take narrower blocks, under 4 one at a time.
template <std::int64_t kK, bool kArgmax, std::size_t V>
[[gnu::always_inline]] inline void pool_row_s2(const float* src,
                                               std::int64_t w,
                                               std::int32_t idx0,
                                               std::int64_t run, float* y,
                                               std::int32_t* am) {
  constexpr auto kV = static_cast<std::int64_t>(V);
  if (run < kV) {
    if constexpr (V > 4) {
      pool_row_s2<kK, kArgmax, V / 2>(src, w, idx0, run, y, am);
    } else {
      pool_row<kArgmax>(src, w, kK, 2, idx0, run, y, am);
    }
    return;
  }
  for (std::int64_t j = 0; j + kV < run; j += kV) {
    pool_block_s2<kK, kArgmax, V>(src, w, idx0, j, y, am);
  }
  pool_block_s2<kK, kArgmax, V>(src, w, idx0, run - kV, y, am);
}

/// Max pooling of @p planes contiguous h x w planes. Outputs in [lo, hi)
/// along one axis have their whole window inside the input, so the
/// interior skips the per-tap bounds checks; kK fixes the window at
/// compile time (0: the runtime k and p.stride), and then the stride is 2
/// and the interior runs in blocks of V lanes. Every path keeps the first
/// strict maximum of a row-by-row scan, so ties, NaN and all -inf windows
/// (which keep index 0) come out the same. kArgmax false writes y alone.
/// Offsets fit in int32 (the argmax type).
template <std::int64_t kK, bool kArgmax, std::size_t V>
[[gnu::always_inline]] inline void maxpool_planes(
    const float* x, std::int64_t planes, std::int64_t h, std::int64_t w,
    std::int64_t k_arg, const ConvParams& p, float* y, std::int32_t* am) {
  const std::int64_t k = kK > 0 ? kK : k_arg;
  const std::int64_t s = kK > 0 ? 2 : p.stride;
  const std::int64_t ho = conv_out_size(h, k, s, p.pad);
  const std::int64_t wo = conv_out_size(w, k, s, p.pad);
  const auto inside = [&](std::int64_t size, std::int64_t out) {
    const std::int64_t lo = std::min(out, ceil_div(p.pad, s));
    const std::int64_t last = size + p.pad - k;
    const std::int64_t hi = last < 0 ? lo : std::min(out, last / s + 1);
    return std::pair{lo, std::max(lo, hi)};
  };
  const auto [oy_lo, oy_hi] = inside(h, ho);
  const auto [ox_lo, ox_hi] = inside(w, wo);

  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* plane = x + pl * h * w;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      float* y_row = y + (pl * ho + oy) * wo;
      std::int32_t* am_row = kArgmax ? am + (pl * ho + oy) * wo : nullptr;
      const std::int64_t iy0 = oy * s - p.pad;
      const auto border = [&](std::int64_t ox) {
        const std::int64_t ix0 = ox * s - p.pad;
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ki = 0; ki < k; ++ki) {
          const std::int64_t iy = iy0 + ki;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kj = 0; kj < k; ++kj) {
            const std::int64_t ix = ix0 + kj;
            if (ix < 0 || ix >= w) continue;
            const float v = plane[iy * w + ix];
            if (v > best) {
              best = v;
              best_idx = iy * w + ix;
            }
          }
        }
        y_row[ox] = best;
        if constexpr (kArgmax) am_row[ox] = static_cast<std::int32_t>(best_idx);
      };
      if (oy < oy_lo || oy >= oy_hi) {
        for (std::int64_t ox = 0; ox < wo; ++ox) border(ox);
        continue;
      }
      for (std::int64_t ox = 0; ox < ox_lo; ++ox) border(ox);
      const std::int64_t first = iy0 * w + ox_lo * s - p.pad;
      const auto idx0 = static_cast<std::int32_t>(first);
      float* y_run = y_row + ox_lo;
      std::int32_t* am_run = kArgmax ? am_row + ox_lo : nullptr;
      if constexpr (kK > 0) {
        pool_row_s2<kK, kArgmax, V>(plane + first, w, idx0, ox_hi - ox_lo,
                                    y_run, am_run);
      } else {
        pool_row<kArgmax>(plane + first, w, k, s, idx0, ox_hi - ox_lo, y_run,
                          am_run);
      }
      for (std::int64_t ox = ox_hi; ox < wo; ++ox) border(ox);
    }
  }
}

/// One max-pool call: `planes` contiguous h x w planes of x into y, and
/// the argmax into am unless it is null.
struct PoolArgs {
  const float* x;
  std::int64_t planes;
  std::int64_t h;
  std::int64_t w;
  std::int64_t k;
  ConvParams p;
  float* y;
  std::int32_t* am;
};

/// The pool's two windows in use get compile-time sizes: 2x2/s2 (the patch
/// CNN) and 3x3/s2 (the ResNet stem).
template <bool kArgmax, std::size_t V>
[[gnu::always_inline]] inline void maxpool_windows(const PoolArgs& a) {
  if (a.k == 2 && a.p.stride == 2) {
    maxpool_planes<2, kArgmax, V>(a.x, a.planes, a.h, a.w, a.k, a.p, a.y,
                                  a.am);
  } else if (a.k == 3 && a.p.stride == 2) {
    maxpool_planes<3, kArgmax, V>(a.x, a.planes, a.h, a.w, a.k, a.p, a.y,
                                  a.am);
  } else {
    maxpool_planes<0, kArgmax, V>(a.x, a.planes, a.h, a.w, a.k, a.p, a.y,
                                  a.am);
  }
}

template <std::size_t V>
[[gnu::always_inline]] inline void maxpool_all(const PoolArgs& a) {
  if (a.am != nullptr) {
    maxpool_windows<true, V>(a);
  } else {
    maxpool_windows<false, V>(a);
  }
}

// One version per micro-architecture level, like block_kernel. Blocks of
// 8 lanes (one ymm) beat 16 on the patch CNN's 12- and 6-wide rows.
#if defined(EDGETRAIN_KERNEL_VERSIONS)
[[gnu::target("arch=x86-64-v4")]] void maxpool_kernel(const PoolArgs& a) {
  maxpool_all<8>(a);
}
[[gnu::target("arch=x86-64-v3")]] void maxpool_kernel(const PoolArgs& a) {
  maxpool_all<8>(a);
}
[[gnu::target("default")]] void maxpool_kernel(const PoolArgs& a) {
  maxpool_all<4>(a);
}
#else
void maxpool_kernel(const PoolArgs& a) { maxpool_all<4>(a); }
#endif

Shape pooled_shape(const Tensor& x, std::int64_t k, const ConvParams& p) {
  check(x.shape().rank() == 4, "maxpool2d: x must be NCHW");
  return Shape{x.shape()[0], x.shape()[1],
               conv_out_size(x.shape()[2], k, p.stride, p.pad),
               conv_out_size(x.shape()[3], k, p.stride, p.pad)};
}

}  // namespace

MaxPoolResult maxpool2d_forward(const Tensor& x, std::int64_t k,
                                const ConvParams& p) {
  MaxPoolResult result;
  result.y = Tensor::empty(pooled_shape(x, k, p));
  result.argmax.resize(static_cast<std::size_t>(result.y.numel()));
  maxpool_kernel({x.data(), x.shape()[0] * x.shape()[1], x.shape()[2],
                  x.shape()[3], k, p, result.y.data(), result.argmax.data()});
  return result;
}

Tensor maxpool2d_values(const Tensor& x, std::int64_t k, const ConvParams& p) {
  Tensor y = Tensor::empty(pooled_shape(x, k, p));
  maxpool2d_values(x.data(), x.shape()[0] * x.shape()[1], x.shape()[2],
                   x.shape()[3], k, p, y.data());
  return y;
}

void maxpool2d_values(const float* x, std::int64_t planes, std::int64_t h,
                      std::int64_t w, std::int64_t k, const ConvParams& p,
                      float* y) {
  maxpool_kernel({x, planes, h, w, k, p, y, nullptr});
}

Tensor maxpool2d_backward(const Tensor& grad_y, const PoolArgmax& argmax,
                          const Shape& x_shape) {
  Tensor gx = Tensor::zeros(x_shape);
  const std::int64_t n = grad_y.shape()[0];
  const std::int64_t c = grad_y.shape()[1];
  const std::int64_t area_out = grad_y.shape()[2] * grad_y.shape()[3];
  const std::int64_t area_in = x_shape[2] * x_shape[3];
  const float* gy = grad_y.data();
  float* gp = gx.data();
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* gy_plane = gy + plane * area_out;
    float* gx_plane = gp + plane * area_in;
    const std::int32_t* am = argmax.data() + plane * area_out;
    for (std::int64_t i = 0; i < area_out; ++i) {
      gx_plane[am[i]] += gy_plane[i];
    }
  }
  return gx;
}

Tensor global_avgpool_forward(const Tensor& x) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];
  Tensor y = Tensor::empty(Shape{n, c});
  const float* xp = x.data();
  float* yp = y.data();
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    double acc = 0.0;
    const float* src = xp + plane * area;
    for (std::int64_t i = 0; i < area; ++i) acc += src[i];
    yp[plane] = static_cast<float>(acc / static_cast<double>(area));
  }
  return y;
}

Tensor global_avgpool_backward(const Tensor& grad_y, const Shape& x_shape) {
  const std::int64_t n = x_shape[0];
  const std::int64_t c = x_shape[1];
  const std::int64_t area = x_shape[2] * x_shape[3];
  Tensor gx = Tensor::empty(x_shape);
  const float* gy = grad_y.data();
  float* gp = gx.data();
  const float inv_area = 1.0F / static_cast<float>(area);
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float g = gy[plane] * inv_area;
    float* dst = gp + plane * area;
    for (std::int64_t i = 0; i < area; ++i) dst[i] = g;
  }
  return gx;
}

Tensor avgpool2d_forward(const Tensor& x, std::int64_t k,
                         const ConvParams& p) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t w = x.shape()[3];
  const std::int64_t ho = conv_out_size(h, k, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, k, p.stride, p.pad);
  Tensor y = Tensor::empty(Shape{n, c, ho, wo});
  const float* xp = x.data();
  float* yp = y.data();
  const float inv = 1.0F / static_cast<float>(k * k);
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* src = xp + plane * h * w;
    float* dst = yp + plane * ho * wo;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        double acc = 0.0;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * p.stride - p.pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox * p.stride - p.pad + kx;
            if (ix < 0 || ix >= w) continue;
            acc += src[iy * w + ix];
          }
        }
        dst[oy * wo + ox] = static_cast<float>(acc) * inv;
      }
    }
  }
  return y;
}

Tensor avgpool2d_backward(const Tensor& grad_y, std::int64_t k,
                          const ConvParams& p, const Shape& x_shape) {
  const std::int64_t n = x_shape[0];
  const std::int64_t c = x_shape[1];
  const std::int64_t h = x_shape[2];
  const std::int64_t w = x_shape[3];
  const std::int64_t ho = grad_y.shape()[2];
  const std::int64_t wo = grad_y.shape()[3];
  Tensor gx = Tensor::zeros(x_shape);
  const float* gy = grad_y.data();
  float* gp = gx.data();
  const float inv = 1.0F / static_cast<float>(k * k);
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* src = gy + plane * ho * wo;
    float* dst = gp + plane * h * w;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        const float g = src[oy * wo + ox] * inv;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * p.stride - p.pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox * p.stride - p.pad + kx;
            if (ix < 0 || ix >= w) continue;
            dst[iy * w + ix] += g;
          }
        }
      }
    }
  }
  return gx;
}

Tensor sigmoid_forward(const Tensor& x) {
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    yp[i] = 1.0F / (1.0F + std::exp(-xp[i]));
  }
  return y;
}

Tensor sigmoid_backward(const Tensor& grad_y, const Tensor& y) {
  Tensor gx = Tensor::empty(y.shape());
  const float* gy = grad_y.data();
  const float* yp = y.data();
  float* gp = gx.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    gp[i] = gy[i] * yp[i] * (1.0F - yp[i]);
  }
  return gx;
}

Tensor tanh_forward(const Tensor& x) {
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) yp[i] = std::tanh(xp[i]);
  return y;
}

Tensor tanh_backward(const Tensor& grad_y, const Tensor& y) {
  Tensor gx = Tensor::empty(y.shape());
  const float* gy = grad_y.data();
  const float* yp = y.data();
  float* gp = gx.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) gp[i] = gy[i] * (1.0F - yp[i] * yp[i]);
  return gx;
}

namespace {
/// SplitMix64: high-quality counter-based hash; uniform in [0, 1).
inline float unit_hash(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<float>(z >> 40) * (1.0F / 16777216.0F);
}
}  // namespace

Tensor dropout_forward(const Tensor& x, float rate, std::uint64_t seed) {
  check(rate >= 0.0F && rate < 1.0F, "dropout: rate must be in [0,1)");
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const float scale = 1.0F / (1.0F - rate);
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    yp[i] = unit_hash(seed, static_cast<std::uint64_t>(i)) >= rate
                ? xp[i] * scale
                : 0.0F;
  }
  return y;
}

Tensor dropout_backward(const Tensor& grad_y, float rate, std::uint64_t seed) {
  Tensor gx = Tensor::empty(grad_y.shape());
  const float* gy = grad_y.data();
  float* gp = gx.data();
  const float scale = 1.0F / (1.0F - rate);
  const std::int64_t n = grad_y.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    gp[i] = unit_hash(seed, static_cast<std::uint64_t>(i)) >= rate
                ? gy[i] * scale
                : 0.0F;
  }
  return gx;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& b) {
  check(x.shape().rank() == 2, "linear: x must be [N,in]");
  const std::int64_t n = x.shape()[0];
  const std::int64_t in = x.shape()[1];
  const std::int64_t out = w.shape()[0];
  check(w.shape()[1] == in, "linear: dim mismatch");
  Tensor y = Tensor::empty(Shape{n, out});
  // y = x[n,in] * w^T[in,out]
  gemm(false, true, n, out, in, 1.0F, x.data(), w.data(), 0.0F, y.data());
  if (b.defined()) {
    float* yp = y.data();
    const float* bp = b.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out; ++j) yp[i * out + j] += bp[j];
    }
  }
  return y;
}

Tensor linear_backward_acc(const Tensor& grad_y, const Tensor& x,
                           const Tensor& w, Tensor& grad_w_acc,
                           Tensor* grad_b_acc) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t in = x.shape()[1];
  const std::int64_t out = w.shape()[0];
  check(grad_w_acc.shape() == w.shape(), "linear_backward: grad_w shape");
  Tensor grad_x = Tensor::empty(Shape{n, in});
  // grad_x = gy[n,out] * w[out,in]
  gemm(false, false, n, in, out, 1.0F, grad_y.data(), w.data(), 0.0F,
       grad_x.data());
  // grad_w += gy^T[out,n] * x[n,in]
  gemm(true, false, out, in, n, 1.0F, grad_y.data(), x.data(), 1.0F,
       grad_w_acc.data());
  if (grad_b_acc != nullptr) {
    float* gb = grad_b_acc->data();
    const float* gy = grad_y.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out; ++j) gb[j] += gy[i * out + j];
    }
  }
  return grad_x;
}

LinearGrads linear_backward(const Tensor& grad_y, const Tensor& x,
                            const Tensor& w, bool with_bias) {
  LinearGrads grads;
  grads.grad_w = Tensor::zeros(w.shape());
  if (with_bias) grads.grad_b = Tensor::zeros(Shape{w.shape()[0]});
  grads.grad_x = linear_backward_acc(grad_y, x, w, grads.grad_w,
                                     with_bias ? &grads.grad_b : nullptr);
  return grads;
}

// ---------------------------------------------------------------------------
// Batch normalisation
//
// Memory-bound: per channel, one pass sums x and x^2 (forward) or gy and
// gy * xhat (backward) in double, and a second applies the float
// per-element formula. The sums run in kBnLanes double lanes: element i of
// each plane goes to lane i mod kBnLanes (a plane's partial last block is
// padded with zeros, which add nothing), plane after plane, and the lanes
// are then folded pairwise in a fixed order. A statistic therefore depends
// on the tensor's shape alone: not on the pool size (a channel is one
// task) nor on the version that runs (each holds the same lanes, in
// registers of its width). The section is compiled without FP
// contraction, so the per-element formulas and the scalar statistics are
// the same float and double operations in every version (DESIGN.md
// section 8).
// ---------------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

namespace {

constexpr std::int64_t kBnLanes = 16;

/// Two kBnLanes-lane double sums, a += f and b += f * g, held as vectors of
/// W lanes. Lane l of a block of kBnLanes floats is always lane l of a sum.
template <std::size_t W>
struct LaneSums {
  typedef float VecF __attribute__((vector_size(4 * W)));
  typedef double VecD __attribute__((vector_size(8 * W)));
  static constexpr std::size_t kVecs = static_cast<std::size_t>(kBnLanes) / W;

  VecD a[kVecs] = {};
  VecD b[kVecs] = {};

  static void load(const float* src, VecF (&v)[kVecs]) {
    for (std::size_t i = 0; i < kVecs; ++i) {
      std::memcpy(&v[i], src + i * W, sizeof(VecF));
    }
  }

  void add(const VecF (&f)[kVecs], const VecF (&g)[kVecs]) {
    for (std::size_t i = 0; i < kVecs; ++i) {
      const VecD fd = __builtin_convertvector(f[i], VecD);
      a[i] += fd;
      b[i] += fd * __builtin_convertvector(g[i], VecD);
    }
  }

  /// lane[l] += lane[l + half] for half = kBnLanes / 2, ..., 1.
  static double fold(const VecD (&acc)[kVecs]) {
    double lanes[kBnLanes];
    std::memcpy(lanes, acc, sizeof lanes);
    for (std::int64_t half = kBnLanes / 2; half > 0; half /= 2) {
      for (std::int64_t l = 0; l < half; ++l) lanes[l] += lanes[l + half];
    }
    return lanes[0];
  }
};

/// One batch-norm call: n images of c channels of `area` floats.
struct BnArgs {
  std::int64_t n;
  std::int64_t c;
  std::int64_t area;
  const float* x;
  const float* gamma;
};

struct BnForwardArgs : BnArgs {
  const float* beta;
  float* y;
  float* mean;
  float* inv_std;
  float* running_mean;  // null: running statistics left as they are
  float* running_var;
  float momentum;
  float eps;
};

struct BnBackwardArgs : BnArgs {
  const float* gy;
  const float* mean;
  const float* inv_std;
  float* gx;
  float* grad_gamma;
  float* grad_beta;
};

template <std::size_t W>
[[gnu::always_inline]] inline void bn_forward_tiles(const BnForwardArgs& a,
                                                    std::int64_t c0,
                                                    std::int64_t c1) {
  using Sums = LaneSums<W>;
  const std::int64_t count = a.n * a.area;
  for (std::int64_t ch = c0; ch < c1; ++ch) {
    Sums sums;
    typename Sums::VecF v[Sums::kVecs];
    for (std::int64_t img = 0; img < a.n; ++img) {
      const float* src = a.x + (img * a.c + ch) * a.area;
      std::int64_t i = 0;
      for (; i + kBnLanes <= a.area; i += kBnLanes) {
        Sums::load(src + i, v);
        sums.add(v, v);
      }
      if (i < a.area) {
        float tail[kBnLanes] = {};
        std::memcpy(tail, src + i,
                    static_cast<std::size_t>(a.area - i) * sizeof(float));
        Sums::load(tail, v);
        sums.add(v, v);
      }
    }
    const double mu = Sums::fold(sums.a) / static_cast<double>(count);
    const double var =
        Sums::fold(sums.b) / static_cast<double>(count) - mu * mu;
    const double istd = 1.0 / std::sqrt(std::max(var, 0.0) + a.eps);
    a.mean[ch] = static_cast<float>(mu);
    a.inv_std[ch] = static_cast<float>(istd);
    const float scale = static_cast<float>(istd) * a.gamma[ch];
    const float shift = a.beta[ch] - static_cast<float>(mu) * scale;
    for (std::int64_t img = 0; img < a.n; ++img) {
      const float* src = a.x + (img * a.c + ch) * a.area;
      float* dst = a.y + (img * a.c + ch) * a.area;
      for (std::int64_t i = 0; i < a.area; ++i) dst[i] = src[i] * scale + shift;
    }
    if (a.running_mean != nullptr) {
      a.running_mean[ch] = (1.0F - a.momentum) * a.running_mean[ch] +
                           a.momentum * static_cast<float>(mu);
      a.running_var[ch] = (1.0F - a.momentum) * a.running_var[ch] +
                          a.momentum * static_cast<float>(var);
    }
  }
}

template <std::size_t W>
[[gnu::always_inline]] inline void bn_backward_tiles(const BnBackwardArgs& a,
                                                     std::int64_t c0,
                                                     std::int64_t c1) {
  using Sums = LaneSums<W>;
  const std::int64_t count = a.n * a.area;
  for (std::int64_t ch = c0; ch < c1; ++ch) {
    const float mu = a.mean[ch];
    const float istd = a.inv_std[ch];
    const float g = a.gamma[ch];
    Sums sums;
    typename Sums::VecF gv[Sums::kVecs];
    typename Sums::VecF xv[Sums::kVecs];
    for (std::int64_t img = 0; img < a.n; ++img) {
      const float* src = a.x + (img * a.c + ch) * a.area;
      const float* gsrc = a.gy + (img * a.c + ch) * a.area;
      std::int64_t i = 0;
      for (; i + kBnLanes <= a.area; i += kBnLanes) {
        Sums::load(gsrc + i, gv);
        Sums::load(src + i, xv);
        for (auto& xhat : xv) xhat = (xhat - mu) * istd;
        sums.add(gv, xv);
      }
      if (i < a.area) {
        float gtail[kBnLanes] = {};
        float xtail[kBnLanes] = {};
        for (std::int64_t j = 0; j < a.area - i; ++j) {
          gtail[j] = gsrc[i + j];
          xtail[j] = (src[i + j] - mu) * istd;
        }
        Sums::load(gtail, gv);
        Sums::load(xtail, xv);
        sums.add(gv, xv);
      }
    }
    const double sum_gy = Sums::fold(sums.a);
    const double sum_gy_xhat = Sums::fold(sums.b);
    a.grad_gamma[ch] = static_cast<float>(sum_gy_xhat);
    a.grad_beta[ch] = static_cast<float>(sum_gy);
    const float mean_gy =
        static_cast<float>(sum_gy / static_cast<double>(count));
    const float mean_gy_xhat =
        static_cast<float>(sum_gy_xhat / static_cast<double>(count));
    for (std::int64_t img = 0; img < a.n; ++img) {
      const float* src = a.x + (img * a.c + ch) * a.area;
      const float* gsrc = a.gy + (img * a.c + ch) * a.area;
      float* dst = a.gx + (img * a.c + ch) * a.area;
      for (std::int64_t i = 0; i < a.area; ++i) {
        const float xhat = (src[i] - mu) * istd;
        dst[i] = g * istd * (gsrc[i] - mean_gy - xhat * mean_gy_xhat);
      }
    }
  }
}

// One version per micro-architecture level, like block_kernel: 16 lanes
// are two zmm, four ymm or eight xmm registers per sum.
#if defined(EDGETRAIN_KERNEL_VERSIONS)
[[gnu::target("arch=x86-64-v4")]] void bn_forward_channels(
    const BnForwardArgs& a, std::int64_t c0, std::int64_t c1) {
  bn_forward_tiles<8>(a, c0, c1);
}
[[gnu::target("arch=x86-64-v3")]] void bn_forward_channels(
    const BnForwardArgs& a, std::int64_t c0, std::int64_t c1) {
  bn_forward_tiles<4>(a, c0, c1);
}
[[gnu::target("default")]] void bn_forward_channels(
    const BnForwardArgs& a, std::int64_t c0, std::int64_t c1) {
  bn_forward_tiles<2>(a, c0, c1);
}
[[gnu::target("arch=x86-64-v4")]] void bn_backward_channels(
    const BnBackwardArgs& a, std::int64_t c0, std::int64_t c1) {
  bn_backward_tiles<8>(a, c0, c1);
}
[[gnu::target("arch=x86-64-v3")]] void bn_backward_channels(
    const BnBackwardArgs& a, std::int64_t c0, std::int64_t c1) {
  bn_backward_tiles<4>(a, c0, c1);
}
[[gnu::target("default")]] void bn_backward_channels(
    const BnBackwardArgs& a, std::int64_t c0, std::int64_t c1) {
  bn_backward_tiles<2>(a, c0, c1);
}
#else
void bn_forward_channels(const BnForwardArgs& a, std::int64_t c0,
                         std::int64_t c1) {
  bn_forward_tiles<2>(a, c0, c1);
}
void bn_backward_channels(const BnBackwardArgs& a, std::int64_t c0,
                          std::int64_t c1) {
  bn_backward_tiles<2>(a, c0, c1);
}
#endif

}  // namespace

BatchNormState batchnorm2d_forward(const Tensor& x, const Tensor& gamma,
                                   const Tensor& beta, Tensor& running_mean,
                                   Tensor& running_var, float momentum,
                                   float eps, bool update_running) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];

  BatchNormState state;
  state.y = Tensor::empty(x.shape());
  state.mean = Tensor::empty(Shape{c});
  state.inv_std = Tensor::empty(Shape{c});

  BnForwardArgs args{};
  args.n = n;
  args.c = c;
  args.area = area;
  args.x = x.data();
  args.gamma = gamma.data();
  args.beta = beta.data();
  args.y = state.y.data();
  args.mean = state.mean.data();
  args.inv_std = state.inv_std.data();
  args.running_mean = update_running ? running_mean.data() : nullptr;
  args.running_var = update_running ? running_var.data() : nullptr;
  args.momentum = momentum;
  args.eps = eps;

  EDGETRAIN_GUARD_DISJOINT("batchnorm2d_forward", {args.x, n * c * area},
                           {args.y, n * c * area}, {args.mean, c},
                           {args.inv_std, c});
  parallel_for(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
    bn_forward_channels(args, c0, c1);
  });
  return state;
}

Tensor batchnorm2d_infer(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, const Tensor& running_mean,
                         const Tensor& running_var, float eps) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float istd =
        1.0F / std::sqrt(running_var.data()[ch] + eps);
    const float scale = istd * gamma.data()[ch];
    const float shift = beta.data()[ch] - running_mean.data()[ch] * scale;
    for (std::int64_t img = 0; img < n; ++img) {
      const float* src = xp + (img * c + ch) * area;
      float* dst = yp + (img * c + ch) * area;
      for (std::int64_t i = 0; i < area; ++i) dst[i] = src[i] * scale + shift;
    }
  }
  return y;
}

BatchNormGrads batchnorm2d_backward(const Tensor& grad_y, const Tensor& x,
                                    const Tensor& gamma,
                                    const BatchNormState& state) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];

  BatchNormGrads grads;
  grads.grad_x = Tensor::empty(x.shape());
  grads.grad_gamma = Tensor::empty(Shape{c});
  grads.grad_beta = Tensor::empty(Shape{c});

  BnBackwardArgs args{};
  args.n = n;
  args.c = c;
  args.area = area;
  args.x = x.data();
  args.gamma = gamma.data();
  args.gy = grad_y.data();
  args.mean = state.mean.data();
  args.inv_std = state.inv_std.data();
  args.gx = grads.grad_x.data();
  args.grad_gamma = grads.grad_gamma.data();
  args.grad_beta = grads.grad_beta.data();

  EDGETRAIN_GUARD_DISJOINT("batchnorm2d_backward", {args.x, n * c * area},
                           {args.gy, n * c * area}, {args.gx, n * c * area},
                           {args.grad_gamma, c}, {args.grad_beta, c});
  parallel_for(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
    bn_backward_channels(args, c0, c1);
  });
  return grads;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

SoftmaxXentResult softmax_xent_forward(const Tensor& logits,
                                       const std::vector<std::int32_t>& labels) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  check(static_cast<std::int64_t>(labels.size()) == n,
        "softmax_xent: label count mismatch");
  SoftmaxXentResult result;
  result.probs = Tensor::empty(logits.shape());
  const float* lp = logits.data();
  float* pp = result.probs.data();
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = lp + i * k;
    float* prow = pp + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      prow[j] = std::exp(row[j] - mx);
      denom += prow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < k; ++j) prow[j] *= inv;
    const std::int32_t label = labels[static_cast<std::size_t>(i)];
    check(label >= 0 && label < k, "softmax_xent: label out of range");
    loss -= std::log(std::max(static_cast<double>(prow[label]), 1e-12));
  }
  result.loss = static_cast<float>(loss / static_cast<double>(n));
  return result;
}

Tensor softmax_xent_backward(const Tensor& probs,
                             const std::vector<std::int32_t>& labels) {
  const std::int64_t n = probs.shape()[0];
  const std::int64_t k = probs.shape()[1];
  Tensor grad = probs.clone();
  float* gp = grad.data();
  const float inv_n = 1.0F / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    gp[i * k + labels[static_cast<std::size_t>(i)]] -= 1.0F;
    for (std::int64_t j = 0; j < k; ++j) gp[i * k + j] *= inv_n;
  }
  return grad;
}

std::vector<std::int32_t> argmax_rows(const Tensor& logits) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  const float* lp = logits.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = lp + i * k;
    std::int32_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = static_cast<std::int32_t>(j);
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits, float temperature) {
  check(temperature > 0.0F, "softmax_rows: temperature must be > 0");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  Tensor probs = Tensor::empty(logits.shape());
  const float* lp = logits.data();
  float* pp = probs.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = lp + i * k;
    float* prow = pp + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      prow[j] = std::exp((row[j] - mx) / temperature);
      denom += prow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < k; ++j) prow[j] *= inv;
  }
  return probs;
}

DistillResult distill_loss(const Tensor& student_logits,
                           const Tensor& teacher_logits,
                           const std::vector<std::int32_t>& labels,
                           float alpha, float temperature) {
  check(student_logits.shape() == teacher_logits.shape(),
        "distill: logits shape mismatch");
  check(alpha >= 0.0F && alpha <= 1.0F, "distill: alpha must be in [0,1]");
  const std::int64_t n = student_logits.shape()[0];
  const std::int64_t k = student_logits.shape()[1];

  DistillResult result;
  result.grad_student_logits = Tensor::zeros(student_logits.shape());
  float* grad = result.grad_student_logits.data();
  double loss = 0.0;
  const float inv_n = 1.0F / static_cast<float>(n);

  // Hard-label term.
  if (alpha > 0.0F) {
    const SoftmaxXentResult hard =
        softmax_xent_forward(student_logits, labels);
    loss += static_cast<double>(alpha) * hard.loss;
    const float* p = hard.probs.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < k; ++j) {
        const float onehot =
            j == labels[static_cast<std::size_t>(i)] ? 1.0F : 0.0F;
        grad[i * k + j] += alpha * (p[i * k + j] - onehot) * inv_n;
      }
    }
  }

  // Soft-label term: T^2 * KL(p_teacher^T || p_student^T); gradient
  // T^2 * (1/T) * (ps - pt) = T * (ps - pt).
  if (alpha < 1.0F) {
    const Tensor ps = softmax_rows(student_logits, temperature);
    const Tensor pt = softmax_rows(teacher_logits, temperature);
    const float t2 = temperature * temperature;
    const float soft_weight = 1.0F - alpha;
    double kl = 0.0;
    for (std::int64_t i = 0; i < n * k; ++i) {
      const double teacher_p = std::max<double>(pt.data()[i], 1e-12);
      const double student_p = std::max<double>(ps.data()[i], 1e-12);
      kl += teacher_p * std::log(teacher_p / student_p);
      grad[i] += soft_weight * temperature *
                 (ps.data()[i] - pt.data()[i]) * inv_n;
    }
    loss += static_cast<double>(soft_weight) * t2 * kl /
            static_cast<double>(n);
  }

  result.loss = static_cast<float>(loss);
  return result;
}

}  // namespace edgetrain::ops
