#include "util/cpu.h"

namespace vkg::util {

namespace {

CpuFeatures Probe() {
  CpuFeatures f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
#elif defined(__aarch64__)
  f.neon = true;  // ASIMD is mandatory in AArch64.
#endif
  return f;
}

}  // namespace

const CpuFeatures& CpuInfo() {
  static const CpuFeatures features = Probe();
  return features;
}

std::string CpuFeatureString() {
  const CpuFeatures& f = CpuInfo();
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (f.avx2) add("avx2");
  if (f.fma) add("fma");
  if (f.avx512f) add("avx512f");
  if (f.neon) add("neon");
  if (out.empty()) out = "none";
  return out;
}

}  // namespace vkg::util
