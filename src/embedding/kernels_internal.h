#ifndef VKG_EMBEDDING_KERNELS_INTERNAL_H_
#define VKG_EMBEDDING_KERNELS_INTERNAL_H_

#include <cstddef>

// Shared contract between the per-ISA kernel translation units
// (kernels_portable.cc, kernels_avx2.cc, kernels_avx512.cc,
// kernels_neon.cc — the easel discipline of one file per ISA) and the
// dispatcher in batch_kernels.cc.
//
// THE CANONICAL KERNEL. Every variant computes exactly this, bit for
// bit:
//
//   double lanes[16] = {0};
//   for (j = 0; j < dim; ++j) {
//     d = (double)r[j] - (double)q[j];
//     lanes[j % 16] += d * d;          // separate mul then add — no FMA
//   }
//   pairwise reduce: ((l0+l1)+(l2+l3)) + ... fixed binary tree
//
// 16 double lanes is two AVX-512 vectors, four AVX2 vectors, eight NEON
// vectors, or sixteen scalar chains — each ISA holds the lanes in
// native registers for the body (element j lands in lane j mod 16) and
// spills to a double[16] for the shared tail + reduction below. Because
// every variant performs the identical multiplications and additions in
// the identical association, portable/AVX2/AVX-512/NEON and the
// row-major/SoA/gather layouts all agree bit for bit; the cross-variant
// property test (tests/kernel_variants_test.cc) holds this line.
//
// Two rules keep that true:
//   1. No FMA anywhere — a fused multiply-add rounds once where the
//      contract rounds twice. The build also sets -ffp-contract=off so
//      the compiler cannot fuse the separate mul/add on ISAs where FMA
//      is baseline (aarch64, -march=native x86).
//   2. Zero padding is a bitwise no-op — a padded element contributes
//      d*d = +0.0, lanes are sums of squares (never -0.0), and
//      x + (+0.0) == x bitwise — which is what lets the padded SoA
//      layout (store.padded_dim() a multiple of 16) run the tail-free
//      body over padded_dim and still match the row-major path on dim.

namespace vkg::embedding::internal {

/// Accumulator lanes of the canonical kernel; also the SoA padding
/// quantum: 16 floats = 64 bytes = one cache line = one padded-row
/// alignment unit.
inline constexpr size_t kKernelLanes = 16;

using RowKernel = double (*)(const float* r, const float* q, size_t dim);

/// Scalar continuation (elements [j, dim) keep the lane mapping) plus
/// the canonical pairwise reduction. Every variant funnels through this
/// after spilling its native accumulators into `lanes`.
inline double FinishRow(double* lanes, const float* r, const float* q,
                        size_t dim, size_t j) {
  for (; j < dim; ++j) {
    const double d = static_cast<double>(r[j]) - static_cast<double>(q[j]);
    lanes[j % kKernelLanes] += d * d;
  }
  double s8[8];
  for (size_t i = 0; i < 8; ++i) s8[i] = lanes[2 * i] + lanes[2 * i + 1];
  double s4[4];
  for (size_t i = 0; i < 4; ++i) s4[i] = s8[2 * i] + s8[2 * i + 1];
  const double s2a = s4[0] + s4[1];
  const double s2b = s4[2] + s4[3];
  return s2a + s2b;
}

double RowL2Portable(const float* r, const float* q, size_t dim);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VKG_KERNELS_X86 1
double RowL2Avx2(const float* r, const float* q, size_t dim);
double RowL2Avx512(const float* r, const float* q, size_t dim);
#endif

#if defined(__aarch64__)
#define VKG_KERNELS_NEON 1
double RowL2Neon(const float* r, const float* q, size_t dim);
#endif

}  // namespace vkg::embedding::internal

#endif  // VKG_EMBEDDING_KERNELS_INTERNAL_H_
