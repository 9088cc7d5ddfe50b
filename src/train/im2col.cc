// im2col lowering and the blocked GEMM family (the fast kernel layer).
//
// The GEMMs are cache-blocked over N (a packed B panel of kPanelCols
// columns) with a register-blocked kMR x kNR micro-kernel and parallelism
// over M row blocks on util::parallel_for. Bit-identity with the naive
// triple loops is by construction: every output element C[i,j] is computed
// by exactly one thread as a single pass over p = 0..K-1 in increasing
// order with the same accumulator type as the naive loop (float for
// matmul/matmul_at/matmul_bt_f32, double for matmul_bt), so the rounded
// operation sequence per element is unchanged at any thread count or tile
// size. The naive loops' `if (v == 0) continue` sparsity skips are dropped
// on the blocked path (the small-shape path keeps the seed's skip):
// for finite operands, adding a +/-0 term never changes a float
// accumulator that is not -0.0, and the accumulators here start at +0.0
// (or a bias that SGD can never drive to -0.0) and can never become -0.0
// — exact cancellation rounds to +0.0 and +/-0 terms preserve the sign —
// so the skip was a pure optimization, not a semantic. (The one exception
// is non-finite data: 0 * Inf is NaN where the skipping loop left the
// output untouched. A training run whose tensors hold Inf/NaN has already
// diverged, so the determinism contract is scoped to finite values.)
// Two dispatch refinements on top of the PR-3 design, both preserving the
// per-element operation sequence exactly: (1) small shapes (K < 128 and a
// C that fits in L1) skip the panel pack and tile machinery entirely —
// packing cost more than it saved there (BENCH_PR3: 0.88x at K=65) — and
// run direct loops instead; (2) the packed B panel is workspace-arena
// scratch (util::Arena), not a fresh std::vector, so the blocked path
// performs no heap allocation per call.
//
// PR 6 adds the ISA dispatch layer: the microkernels this file defines are
// the PORTABLE family (baseline target, compiler-autovectorized), and the
// blocked driver calls whichever detail::MicroKernels table
// active_microkernels() resolves — this one, or the explicit AVX2 family
// in gemm_avx2.cc (MBS_KERNEL overrides, CPUID decides by default). The
// small-shape fast path is shared by both ISAs (below the cutoff the pack
// machinery, not the arithmetic, dominates), so MBS_KERNEL only affects
// the blocked path. Both families honor the same per-element contract
// documented in gemm_microkernels.h, so the dispatch is bit-invisible.
#include "train/im2col.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>

#include "train/gemm_microkernels.h"
#include "util/arena.h"
#include "util/cpu.h"
#include "util/parallel.h"

namespace mbs::train {

namespace {

int out_dim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

constexpr int kPanelCols = 64;  // packed B panel width (multiple of kNR)
constexpr int kMR = 4;          // micro-kernel rows
constexpr int kNR = 8;          // micro-kernel columns

/// Packs B columns [j0, j0+nc) of a [K,N] row-major matrix into
/// panel[p*nc + jj].
void pack_panel_kn(const float* b, std::int64_t n, int k, std::int64_t j0,
                   int nc, float* panel) {
  for (int p = 0; p < k; ++p)
    std::memcpy(panel + static_cast<std::int64_t>(p) * nc, b + p * n + j0,
                static_cast<std::size_t>(nc) * sizeof(float));
}

/// Packs rows [j0, j0+nc) of a [N,K] row-major matrix (columns of B^T)
/// into panel[p*nc + jj].
void pack_panel_nk(const float* b, int k, std::int64_t j0, int nc,
                   float* panel) {
  for (int jj = 0; jj < nc; ++jj) {
    const float* src = b + (j0 + jj) * k;
    for (int p = 0; p < k; ++p) panel[static_cast<std::int64_t>(p) * nc + jj] = src[p];
  }
}

/// Float micro-kernel: C rows [i0, i1) x panel columns [0, nc), K-major
/// single pass. A is addressed a[i*ars + p*acs] so the same kernel serves
/// both A-normal (ars=K, acs=1) and A-transposed (ars=1, acs=M) layouts.
/// init (length >= j0+nc) seeds each column's accumulator; null = 0.
void gemm_panel_f32(const float* a, std::int64_t ars, std::int64_t acs,
                    const float* panel, int k, int nc, const float* init,
                    std::int64_t j0, float* c, std::int64_t ldc,
                    std::int64_t i0, std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; i += kMR) {
    const int mr = static_cast<int>(i1 - i < kMR ? i1 - i : kMR);
    for (int j = 0; j < nc; j += kNR) {
      const int nr = nc - j < kNR ? nc - j : kNR;
      float acc[kMR][kNR];
      for (int ii = 0; ii < mr; ++ii)
        for (int jj = 0; jj < nr; ++jj)
          acc[ii][jj] = init ? init[j0 + j + jj] : 0.0f;
      const float* bp = panel + j;
      for (int p = 0; p < k; ++p, bp += nc) {
        float av[kMR];
        for (int ii = 0; ii < mr; ++ii) av[ii] = a[(i + ii) * ars + p * acs];
        for (int ii = 0; ii < mr; ++ii)
          for (int jj = 0; jj < nr; ++jj) acc[ii][jj] += av[ii] * bp[jj];
      }
      for (int ii = 0; ii < mr; ++ii)
        for (int jj = 0; jj < nr; ++jj)
          c[(i + ii) * ldc + j0 + j + jj] = acc[ii][jj];
    }
  }
}

/// Double-accumulator micro-kernel (matmul_bt semantics): the product is
/// computed in double — static_cast<double>(a) * b, as in the naive loop —
/// and the accumulator rounds to float only on the final store.
void gemm_panel_f64(const float* a, std::int64_t ars, std::int64_t acs,
                    const float* panel, int k, int nc, std::int64_t j0,
                    float* c, std::int64_t ldc, std::int64_t i0,
                    std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; i += kMR) {
    const int mr = static_cast<int>(i1 - i < kMR ? i1 - i : kMR);
    for (int j = 0; j < nc; j += kNR) {
      const int nr = nc - j < kNR ? nc - j : kNR;
      double acc[kMR][kNR];
      for (int ii = 0; ii < mr; ++ii)
        for (int jj = 0; jj < nr; ++jj) acc[ii][jj] = 0.0;
      const float* bp = panel + j;
      for (int p = 0; p < k; ++p, bp += nc) {
        double av[kMR];
        for (int ii = 0; ii < mr; ++ii)
          av[ii] = static_cast<double>(a[(i + ii) * ars + p * acs]);
        for (int ii = 0; ii < mr; ++ii)
          for (int jj = 0; jj < nr; ++jj) acc[ii][jj] += av[ii] * bp[jj];
      }
      for (int ii = 0; ii < mr; ++ii)
        for (int jj = 0; jj < nr; ++jj)
          c[(i + ii) * ldc + j0 + j + jj] = static_cast<float>(acc[ii][jj]);
    }
  }
}

/// Row-block grain sized so a range is worth a pool dispatch.
std::int64_t row_grain(int k) {
  const std::int64_t g = 32768 / (k < 1 ? 1 : k);
  return g < kMR ? kMR : g;
}

/// Portable peak probe: 8 independent unfused scalar mul+add chains (the
/// exact op mix of the portable f32 kernels), autovectorized however the
/// baseline target allows. The AVX2 family carries its own FMA probe.
double peak_probe_gflops_portable() {
  constexpr int kChains = 8;
  constexpr std::int64_t kIters = 4000000;
  const float m = 0.999f, a = 1e-3f;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {  // rep 0 is warm-up
    float acc[kChains];
    for (int r = 0; r < kChains; ++r)
      acc[r] = 1.0f + 0.01f * static_cast<float>(r);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t it = 0; it < kIters; ++it)
      for (int r = 0; r < kChains; ++r) acc[r] = acc[r] * m + a;
    const auto t1 = std::chrono::steady_clock::now();
    float total = 0;
    for (int r = 0; r < kChains; ++r) total += acc[r];
    volatile float escape = total;
    (void)escape;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double flops = static_cast<double>(kIters) * kChains * 2;
    if (rep > 0 && secs > 0) best = best > flops / secs ? best : flops / secs;
  }
  return best / 1e9;
}

enum class PanelLayout { kKN, kNK };

/// Shared blocked-GEMM driver: packs one B panel per column block into
/// workspace-arena scratch, then fans the M dimension across the pool.
/// The panel is over-allocated by detail::kPanelSlack floats so the AVX2
/// family's unmasked 8-wide loads on the last row's column tail stay in
/// bounds (the extra lanes are never stored).
template <typename Kernel>
void blocked_gemm(std::int64_t m, std::int64_t n, int k, PanelLayout layout,
                  const float* b, const detail::MicroKernels& mk,
                  const Kernel& kernel) {
  util::ArenaScope scope;
  float* panel = scope.floats(static_cast<std::int64_t>(k) *
                                  (n < kPanelCols ? n : kPanelCols) +
                              detail::kPanelSlack);
  for (std::int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const int nc =
        static_cast<int>(n - j0 < kPanelCols ? n - j0 : kPanelCols);
    if (layout == PanelLayout::kKN)
      pack_panel_kn(b, n, k, j0, nc, panel);
    else
      mk.pack_nk(b, k, j0, nc, panel);
    util::parallel_for(m, row_grain(k),
                       [&](std::int64_t i0, std::int64_t i1) {
                         kernel(panel, nc, j0, i0, i1);
                       });
  }
}

// ---- Small-shape fast path --------------------------------------------------
// Below this cutoff the pack + register-tile machinery costs more than it
// saves; the direct loops keep the identical per-element K-order pass and
// accumulator types, so the dispatch threshold is bit-irrelevant.

bool small_gemm_shape(std::int64_t m, std::int64_t n, int k) {
  return k < 128 && m * n <= std::int64_t{32} * 1024;
}

/// Grain for row loops whose per-row cost is ~n*k.
std::int64_t small_row_grain(std::int64_t n, int k) {
  const std::int64_t cost = n * (k < 1 ? 1 : k);
  const std::int64_t g = 32768 / (cost < 1 ? 1 : cost);
  return g < 1 ? 1 : g;
}

/// B in [K,N] row-major: C rows accumulated in p order — the seed's naive
/// matmul loop nest verbatim, zero skip included (the skip only drops +/-0
/// addends, and measurably helps codegen even on dense data). A is
/// addressed a[i*ars + p*acs], serving both A-normal (matmul) and
/// A-transposed (matmul_at) callers.
void small_gemm_kn_f32(const float* a, std::int64_t ars, std::int64_t acs,
                       const float* b, std::int64_t m, std::int64_t n, int k,
                       float* c) {
  util::parallel_for(
      m, small_row_grain(n, k), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float* __restrict__ crow = c + i * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
          for (int p = 0; p < k; ++p) {
            const float av = a[i * ars + p * acs];
            if (av == 0.0f) continue;
            const float* __restrict__ brow =
                b + static_cast<std::int64_t>(p) * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      });
}

}  // namespace

// ---- ISA dispatch -----------------------------------------------------------

namespace detail {

const MicroKernels& portable_microkernels() {
  static const MicroKernels mk{gemm_panel_f32, gemm_panel_f64, pack_panel_nk,
                               peak_probe_gflops_portable};
  return mk;
}

namespace {

std::atomic<int> g_active_isa{-1};  // -1 = unresolved

util::KernelIsa resolved_isa() {
  int v = g_active_isa.load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(
        util::resolve_kernel_isa(avx2_microkernels() != nullptr));
    g_active_isa.store(v, std::memory_order_release);
  }
  return static_cast<util::KernelIsa>(v);
}

}  // namespace

const MicroKernels& active_microkernels() {
  return resolved_isa() == util::KernelIsa::kAvx2 ? *avx2_microkernels()
                                                  : portable_microkernels();
}

void reset_microkernel_dispatch() {
  g_active_isa.store(-1, std::memory_order_release);
}

double measured_peak_gflops() {
  // The machine's ceiling, not the active path's: portable roofline rows
  // report their fraction of the same hardware peak, which is exactly the
  // "what's left on the table" number. Measured once per process.
  static const double peak = [] {
    const MicroKernels* avx2 = avx2_microkernels();
    if (avx2 && util::cpu_supports_avx2()) return avx2->peak_probe();
    return portable_microkernels().peak_probe();
  }();
  return peak;
}

}  // namespace detail

util::KernelIsa active_gemm_isa() { return detail::resolved_isa(); }

Tensor im2col(const Tensor& x, int kernel_h, int kernel_w, int stride,
              int pad_h, int pad_w) {
  assert(x.ndim() == 4);
  const int n = x.dim(0), ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int oh = out_dim(ih, kernel_h, stride, pad_h);
  const int ow = out_dim(iw, kernel_w, stride, pad_w);
  Tensor cols({n * oh * ow, ci * kernel_h * kernel_w});  // zero-initialized
  im2col_into(x, kernel_h, kernel_w, stride, pad_h, pad_w, 0, n,
              cols.data());
  return cols;
}

void im2col_into(const Tensor& x, int kernel_h, int kernel_w, int stride,
                 int pad_h, int pad_w, int first, int count, float* cd) {
  assert(x.ndim() == 4 && first >= 0 && first + count <= x.dim(0));
  util::ScopedKernelTimer timer(util::KernelKind::kIm2col);
  const int ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int oh = out_dim(ih, kernel_h, stride, pad_h);
  const int ow = out_dim(iw, kernel_w, stride, pad_w);
  const int k = ci * kernel_h * kernel_w;
  const float* xd = x.data();
  util::parallel_for(
      static_cast<std::int64_t>(count) * oh * ow, row_grain(k),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t row = begin; row < end; ++row) {
          const int b = first + static_cast<int>(
                                    row / (static_cast<std::int64_t>(oh) * ow));
          const int rest = static_cast<int>(row % (static_cast<std::int64_t>(oh) * ow));
          const int yh = rest / ow, yw = rest % ow;
          float* out = cd + row * k;
          const int xw0 = yw * stride - pad_w;
          const int s_lo = xw0 < 0 ? -xw0 : 0;
          const int s_hi = iw - xw0 < kernel_w ? iw - xw0 : kernel_w;
          for (int c = 0; c < ci; ++c)
            for (int r = 0; r < kernel_h; ++r) {
              const int xh = yh * stride - pad_h + r;
              if (xh < 0 || xh >= ih) continue;  // padded row stays zero
              const float* src =
                  xd + ((static_cast<std::int64_t>(b) * ci + c) * ih + xh) * iw +
                  xw0;
              float* dst = out + (static_cast<std::int64_t>(c) * kernel_h + r) *
                                     kernel_w;
              for (int s = s_lo; s < s_hi; ++s) dst[s] = src[s];
            }
        }
      });
}

Tensor col2im(const Tensor& cols, const std::vector<int>& x_shape,
              int kernel_h, int kernel_w, int stride, int pad_h, int pad_w) {
  util::ScopedKernelTimer timer(util::KernelKind::kIm2col);
  const int n = x_shape[0], ci = x_shape[1], ih = x_shape[2], iw = x_shape[3];
  const int oh = out_dim(ih, kernel_h, stride, pad_h);
  const int ow = out_dim(iw, kernel_w, stride, pad_w);
  const int k = ci * kernel_h * kernel_w;
  assert(cols.dim(0) == n * oh * ow && cols.dim(1) == k);
  Tensor x(x_shape);
  const float* cd = cols.data();
  float* xd = x.data();
  // The scatter-add stays inside one sample, so partitioning over samples
  // keeps every x element owned by one thread in unchanged (yh,yw,r,s)
  // accumulation order.
  util::parallel_for(n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      std::int64_t row = b * oh * ow;
      for (int yh = 0; yh < oh; ++yh)
        for (int yw = 0; yw < ow; ++yw, ++row) {
          const float* in = cd + row * k;
          const int xw0 = yw * stride - pad_w;
          const int s_lo = xw0 < 0 ? -xw0 : 0;
          const int s_hi = iw - xw0 < kernel_w ? iw - xw0 : kernel_w;
          for (int c = 0; c < ci; ++c)
            for (int r = 0; r < kernel_h; ++r) {
              const int xh = yh * stride - pad_h + r;
              if (xh < 0 || xh >= ih) continue;
              float* dst =
                  xd + ((b * ci + c) * ih + xh) * iw + xw0;
              const float* src =
                  in + (static_cast<std::int64_t>(c) * kernel_h + r) * kernel_w;
              for (int s = s_lo; s < s_hi; ++s) dst[s] += src[s];
            }
        }
    }
  });
  return x;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(0));
  util::ScopedKernelTimer timer(util::KernelKind::kGemm);
  const std::int64_t m = a.dim(0), n = b.dim(1);
  const int k = a.dim(1);
  util::note_kernel_flops(2 * m * n * k);
  Tensor c({static_cast<int>(m), static_cast<int>(n)});
  const float* ad = a.data();
  float* cd = c.data();
  if (small_gemm_shape(m, n, k)) {
    small_gemm_kn_f32(ad, k, 1, b.data(), m, n, k, cd);
    return c;
  }
  const detail::MicroKernels& mk = detail::active_microkernels();
  blocked_gemm(m, n, k, PanelLayout::kKN, b.data(), mk,
               [&](const float* panel, int nc, std::int64_t j0,
                   std::int64_t i0, std::int64_t i1) {
                 mk.gemm_f32(ad, k, 1, panel, k, nc, nullptr, j0, cd, n, i0,
                             i1);
               });
  return c;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  assert(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(1));
  util::ScopedKernelTimer timer(util::KernelKind::kGemm);
  const std::int64_t m = a.dim(0), n = b.dim(0);
  const int k = a.dim(1);
  util::note_kernel_flops(2 * m * n * k);
  Tensor c({static_cast<int>(m), static_cast<int>(n)});
  const float* ad = a.data();
  float* cd = c.data();
  const detail::MicroKernels& mk = detail::active_microkernels();
  blocked_gemm(m, n, k, PanelLayout::kNK, b.data(), mk,
               [&](const float* panel, int nc, std::int64_t j0,
                   std::int64_t i0, std::int64_t i1) {
                 mk.gemm_f64(ad, k, 1, panel, k, nc, j0, cd, n, i0, i1);
               });
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  assert(a.ndim() == 2 && b.ndim() == 2 && a.dim(0) == b.dim(0));
  const std::int64_t m = a.dim(1), n = b.dim(1);
  Tensor c({static_cast<int>(m), static_cast<int>(n)});
  matmul_at_into(a.data(), m, b.data(), n, a.dim(0), c.data());
  return c;
}

void matmul_at_into(const float* a, std::int64_t m, const float* b,
                    std::int64_t n, int k, float* c) {
  util::ScopedKernelTimer timer(util::KernelKind::kGemm);
  util::note_kernel_flops(2 * m * n * k);
  if (small_gemm_shape(m, n, k)) {
    small_gemm_kn_f32(a, 1, m, b, m, n, k, c);
    return;
  }
  const detail::MicroKernels& mk = detail::active_microkernels();
  blocked_gemm(m, n, k, PanelLayout::kKN, b, mk,
               [&](const float* panel, int nc, std::int64_t j0,
                   std::int64_t i0, std::int64_t i1) {
                 mk.gemm_f32(a, 1, m, panel, k, nc, nullptr, j0, c, n, i0,
                             i1);
               });
}

Tensor matmul_bt_f32(const Tensor& a, const Tensor& b, const Tensor& init) {
  assert(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(1));
  assert(init.empty() || init.size() == b.dim(0));
  const std::int64_t m = a.dim(0), n = b.dim(0);
  Tensor c({static_cast<int>(m), static_cast<int>(n)});
  matmul_bt_f32_into(a.data(), m, b.data(), n, a.dim(1),
                     init.empty() ? nullptr : init.data(), c.data());
  return c;
}

void matmul_bt_f32_into(const float* a, std::int64_t m, const float* b,
                        std::int64_t n, int k, const float* init, float* c) {
  util::ScopedKernelTimer timer(util::KernelKind::kGemm);
  util::note_kernel_flops(2 * m * n * k);
  const detail::MicroKernels& mk = detail::active_microkernels();
  blocked_gemm(m, n, k, PanelLayout::kNK, b, mk,
               [&](const float* panel, int nc, std::int64_t j0,
                   std::int64_t i0, std::int64_t i1) {
                 mk.gemm_f32(a, k, 1, panel, k, nc, init, j0, c, n, i0, i1);
               });
}

Tensor column_sums_f32(const Tensor& m) {
  assert(m.ndim() == 2);
  Tensor sums({m.dim(1)});
  column_sums_f32_into(m.data(), m.dim(0), m.dim(1), sums.data());
  return sums;
}

void column_sums_f32_into(const float* m, std::int64_t rows, int n,
                          float* out) {
  for (int j = 0; j < n; ++j) out[j] = 0.0f;
  for (std::int64_t r = 0; r < rows; ++r)
    for (int j = 0; j < n; ++j) out[j] += m[r * n + j];
}

Tensor nchw_to_rows(const Tensor& t) {
  assert(t.ndim() == 4);
  const int n = t.dim(0), c = t.dim(1);
  const std::int64_t hw = static_cast<std::int64_t>(t.dim(2)) * t.dim(3);
  Tensor rows({static_cast<int>(n * hw), c});
  nchw_to_rows_into(t, rows.data());
  return rows;
}

void nchw_to_rows_into(const Tensor& t, float* rd) {
  assert(t.ndim() == 4);
  const int c = t.dim(1);
  const std::int64_t hw = static_cast<std::int64_t>(t.dim(2)) * t.dim(3);
  const float* td = t.data();
  util::parallel_for(static_cast<std::int64_t>(t.dim(0)) * hw, row_grain(c),
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t row = begin; row < end; ++row) {
                         const std::int64_t b = row / hw, pos = row % hw;
                         for (int ch = 0; ch < c; ++ch)
                           rd[row * c + ch] = td[(b * c + ch) * hw + pos];
                       }
                     });
}

Tensor rows_to_nchw(const Tensor& rows, const std::vector<int>& shape4) {
  assert(rows.ndim() == 2 && shape4.size() == 4);
  assert(rows.dim(0) == static_cast<std::int64_t>(shape4[0]) * shape4[2] *
                            shape4[3] &&
         rows.dim(1) == shape4[1]);
  Tensor t(shape4);
  rows_to_nchw_into(rows.data(), t);
  return t;
}

void rows_to_nchw_into(const float* rd, Tensor& t) {
  assert(t.ndim() == 4);
  const int c = t.dim(1);
  const std::int64_t hw = static_cast<std::int64_t>(t.dim(2)) * t.dim(3);
  float* td = t.data();
  util::parallel_for(static_cast<std::int64_t>(t.dim(0)) * hw, row_grain(c),
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t row = begin; row < end; ++row) {
                         const std::int64_t b = row / hw, pos = row % hw;
                         for (int ch = 0; ch < c; ++ch)
                           td[(b * c + ch) * hw + pos] = rd[row * c + ch];
                       }
                     });
}

Tensor kxn_to_conv_weights(const Tensor& m, int co, int ci, int kh, int kw) {
  assert(m.ndim() == 2 &&
         m.dim(0) == static_cast<std::int64_t>(ci) * kh * kw &&
         m.dim(1) == co);
  Tensor w({co, ci, kh, kw});
  kxn_to_conv_weights_into(m.data(), co, ci, kh, kw, w.data());
  return w;
}

void kxn_to_conv_weights_into(const float* md, int co, int ci, int kh, int kw,
                              float* wd) {
  const std::int64_t k = static_cast<std::int64_t>(ci) * kh * kw;
  for (std::int64_t i = 0; i < k; ++i)
    for (int o = 0; o < co; ++o)
      wd[static_cast<std::int64_t>(o) * k + i] = md[i * co + o];
}

Tensor conv2d_forward_im2col(const Tensor& x, const Tensor& w,
                             const Tensor& bias, int stride, int pad) {
  const int n = x.dim(0);
  const int co = w.dim(0), ci = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const int oh = out_dim(x.dim(2), kh, stride, pad);
  const int ow = out_dim(x.dim(3), kw, stride, pad);

  // A [N*Ho*Wo, Ci*Kh*Kw]; B = W reshaped [Co, Ci*Kh*Kw], used transposed.
  const Tensor a = im2col(x, kh, kw, stride, pad, pad);
  Tensor w2({co, ci * kh * kw});
  std::memcpy(w2.data(), w.data(),
              static_cast<std::size_t>(w.size()) * sizeof(float));
  const Tensor c = matmul_bt(a, w2);  // [N*Ho*Wo, Co]

  // Repack [N*Ho*Wo, Co] -> [N, Co, Ho, Wo] and add bias.
  Tensor y = rows_to_nchw(c, {n, co, oh, ow});
  if (!bias.empty()) {
    const std::int64_t hw = static_cast<std::int64_t>(oh) * ow;
    float* yd = y.data();
    for (int b = 0; b < n; ++b)
      for (int o = 0; o < co; ++o) {
        float* row = yd + (static_cast<std::int64_t>(b) * co + o) * hw;
        for (std::int64_t i = 0; i < hw; ++i) row[i] += bias[o];
      }
  }
  return y;
}

Conv2dIm2colGrads conv2d_backward_im2col(const Tensor& x, const Tensor& w,
                                         const Tensor& dy, int stride,
                                         int pad) {
  const int co = w.dim(0), ci = w.dim(1), kh = w.dim(2), kw = w.dim(3);
  const std::int64_t k = static_cast<std::int64_t>(ci) * kh * kw;

  // dY as a [N*Ho*Wo, Co] matrix.
  const Tensor dy2 = nchw_to_rows(dy);

  Conv2dIm2colGrads g;

  // Weight gradient (Tab. 1): im2col(x)^T * dY, repacked to [Co,Ci,Kh,Kw].
  const Tensor a = im2col(x, kh, kw, stride, pad, pad);
  g.dw = kxn_to_conv_weights(matmul_at(a, dy2), co, ci, kh, kw);

  // Bias gradient: column sums of dY.
  g.dbias = column_sums_f32(dy2);

  // Data gradient (Tab. 1): dA = dY * W [Gh, K], scattered back with col2im.
  Tensor w2({co, static_cast<int>(k)});
  std::memcpy(w2.data(), w.data(),
              static_cast<std::size_t>(w.size()) * sizeof(float));
  const Tensor da = matmul(dy2, w2);  // [N*Ho*Wo, Ci*Kh*Kw]
  g.dx = col2im(da, x.shape(), kh, kw, stride, pad, pad);
  return g;
}

}  // namespace mbs::train
