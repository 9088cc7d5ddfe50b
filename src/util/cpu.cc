#include "util/cpu.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace mbs::util {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool detect_avx2() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  if (!osxsave || !avx || !fma) return false;
  // XGETBV(0): the OS must have enabled XMM (bit 1) and YMM (bit 2) state,
  // or executing VEX-256 instructions faults.
  unsigned lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  if ((lo & 0x6u) != 0x6u) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) != 0;  // AVX2
}
#else
bool detect_avx2() { return false; }
#endif

}  // namespace

const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return "portable";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "?";
}

bool cpu_supports_avx2() {
  static const bool hw = detect_avx2();  // CPUID once
  return hw;
}

KernelIsa resolve_kernel_isa(bool have_avx2_kernels, bool cpu_has_avx2) {
  const bool avx2_ok = have_avx2_kernels && cpu_has_avx2;
  const char* env = std::getenv("MBS_KERNEL");
  if (!env || !*env) return avx2_ok ? KernelIsa::kAvx2 : KernelIsa::kPortable;
  if (std::strcmp(env, "portable") == 0) return KernelIsa::kPortable;
  if (std::strcmp(env, "avx2") == 0)
    return avx2_ok ? KernelIsa::kAvx2 : KernelIsa::kPortable;
  std::fprintf(stderr,
               "bad MBS_KERNEL value '%s': expected 'avx2' or 'portable'\n",
               env);
  std::abort();
}

}  // namespace mbs::util
