// Runtime CPU feature detection and kernel-ISA resolution.
//
// The training GEMMs ship two microkernel families: a portable scalar one
// (the historical blocked path, autovectorized by the compiler for the
// baseline target) and an explicit AVX2 one compiled into a single
// -mavx2/-mfma translation unit. Which family runs is a *runtime* decision
// so one binary serves every x86-64 host:
//
//   MBS_KERNEL=avx2|portable  forces a path (avx2 falls back to portable
//                             when the CPU or the build lacks it);
//   unset                     picks avx2 when CPUID says the host has
//                             AVX2+FMA with OS-enabled YMM state.
//
// resolve_kernel_isa takes the CPU capability as an argument, so tests
// exercise the fallback path on hosts that do have AVX2 by passing false.
#pragma once

namespace mbs::util {

/// The microkernel families a GEMM call can dispatch to.
enum class KernelIsa {
  kPortable = 0,  ///< blocked scalar kernels (baseline target, SSE2 autovec)
  kAvx2,          ///< explicit 8-wide AVX2 kernels (gemm_avx2.cc)
};

const char* to_string(KernelIsa isa);

/// True when the host CPU supports AVX2 + FMA and the OS has enabled YMM
/// state (CPUID + XGETBV, checked once and cached). Always false on
/// non-x86 builds.
bool cpu_supports_avx2();

/// Resolves which ISA the GEMM dispatch should use, combining the
/// MBS_KERNEL override, whether the binary actually carries AVX2 kernels
/// (`have_avx2_kernels`, false when the compiler or target couldn't build
/// them) and whether the CPU runs them (`cpu_has_avx2`, normally
/// cpu_supports_avx2()). An explicit MBS_KERNEL=avx2 on an unsupported host
/// falls back cleanly to kPortable; an unrecognized MBS_KERNEL value aborts
/// loudly (a typo'd A/B run must not silently measure the wrong path).
KernelIsa resolve_kernel_isa(bool have_avx2_kernels, bool cpu_has_avx2);

}  // namespace mbs::util
