// Internal contract between the blocked-GEMM driver (im2col.cc) and its
// microkernel families (the portable scalar kernels in im2col.cc and the
// explicit AVX2 kernels in gemm_avx2.cc).
//
// A microkernel computes C rows [i0, i1) against ONE packed B panel of nc
// columns (panel[p*nc + jj], p-major), each output element as a single
// in-order pass over p = 0..K-1 with a fixed accumulator type. That
// per-element operation sequence is the bit-identity contract: every
// family must produce byte-identical results, which is what lets
// MBS_KERNEL switch families without perturbing the committed golden
// outputs. Concretely that means the f32 kernels perform an UNFUSED
// multiply-then-add per term (the portable baseline targets plain x86-64,
// which has no FMA instruction, so the AVX2 family must not contract
// either — gemm_avx2.cc is additionally built with -ffp-contract=off so
// the compiler cannot fuse behind our back). The f64 kernel may use FMA
// freely: both factors are exact float-to-double promotions, so the
// 48-bit product is exact in double and fused vs. separate rounding are
// the same bits.
//
// Panel slack: blocked_gemm over-allocates every panel by kPanelSlack
// floats so 8-wide vector loads on the last row's column remainder stay
// inside the allocation (the lanes past nc are garbage and are never
// stored — tail stores are masked).
#pragma once

#include <cstdint>

#include "util/cpu.h"

namespace mbs::train::detail {

/// Extra floats appended to every packed panel allocation (see above).
constexpr int kPanelSlack = 8;

struct MicroKernels {
  /// Float-accumulating kernel (matmul / matmul_at / matmul_bt_f32):
  /// C[i, j0+jj] = init[j0+jj] (or 0) + sum_p a[i*ars + p*acs] *
  /// panel[p*nc + jj], accumulated in float, one unfused mul+add per term.
  void (*gemm_f32)(const float* a, std::int64_t ars, std::int64_t acs,
                   const float* panel, int k, int nc, const float* init,
                   std::int64_t j0, float* c, std::int64_t ldc,
                   std::int64_t i0, std::int64_t i1);
  /// Double-accumulating kernel (matmul_bt): products
  /// double(a) * double(b), rounded to float only on the final store.
  void (*gemm_f64)(const float* a, std::int64_t ars, std::int64_t acs,
                   const float* panel, int k, int nc, std::int64_t j0,
                   float* c, std::int64_t ldc, std::int64_t i0,
                   std::int64_t i1);
  /// Packs rows [j0, j0+nc) of a [N,K] row-major matrix (columns of B^T)
  /// into panel[p*nc + jj] — a transpose, pure data movement.
  void (*pack_nk)(const float* b, int k, std::int64_t j0, int nc,
                  float* panel);
  /// Measures this family's single-core peak GFLOP/s (the roofline
  /// ceiling probe; FMA chains for the AVX2 family, unfused scalar
  /// chains for the portable one).
  double (*peak_probe)();
};

/// The AVX2 microkernel family, or nullptr when the build target couldn't
/// compile it (non-x86, or a compiler without -mavx2/-mfma). Defined in
/// gemm_avx2.cc; whether it is *used* is a separate runtime decision.
const MicroKernels* avx2_microkernels();

/// The portable scalar family (always available; defined in im2col.cc).
const MicroKernels& portable_microkernels();

/// The family the next blocked-GEMM call will run, resolved once from
/// util::resolve_kernel_isa (MBS_KERNEL x CPUID x build support) and
/// cached. Thread-safe.
const MicroKernels& active_microkernels();

/// Drops the cached resolution so the next call re-reads MBS_KERNEL — for
/// tests and benchmarks that A/B the two paths inside one process. Not
/// safe concurrently with running GEMMs.
void reset_microkernel_dispatch();

/// Measured peak GFLOP/s of one core's FMA (or mul+add, when the AVX2
/// family is unavailable) throughput — the roofline ceiling the
/// micro-benchmarks report achieved fractions against. Measured once per
/// process on first call, on the calling thread.
double measured_peak_gflops();

}  // namespace mbs::train::detail

namespace mbs::train {

/// The ISA the GEMM family dispatches to (for stats lines and benchmark
/// labels). Same cached resolution as detail::active_microkernels().
util::KernelIsa active_gemm_isa();

}  // namespace mbs::train
