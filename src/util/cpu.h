#ifndef VKG_UTIL_CPU_H_
#define VKG_UTIL_CPU_H_

#include <string>

namespace vkg::util {

/// Runtime CPU feature probe backing the per-ISA kernel dispatch in
/// embedding/batch_kernels.* (the easel esl_cpu discipline: probe once,
/// dispatch per process). On x86-64 the flags come from
/// __builtin_cpu_supports; on arm64 NEON (ASIMD) is architecturally
/// mandatory so it is always true. Unknown architectures report
/// everything false and the portable kernel runs.
struct CpuFeatures {
  // x86-64
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  // arm64
  bool neon = false;
};

/// The process-wide probe result (computed once, then cached).
const CpuFeatures& CpuInfo();

/// Comma-separated list of the detected features ("avx2,fma,avx512f",
/// "neon", or "none") for logs and bench context.
std::string CpuFeatureString();

}  // namespace vkg::util

#endif  // VKG_UTIL_CPU_H_
