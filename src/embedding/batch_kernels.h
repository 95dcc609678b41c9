#ifndef VKG_EMBEDDING_BATCH_KERNELS_H_
#define VKG_EMBEDDING_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "embedding/store.h"

namespace vkg::embedding {

/// Blocked distance kernels for the hot candidate-evaluation loops
/// (LinearScan, Algorithm 3 exact re-rank, aggregate sampling).
///
/// Every variant — portable, AVX2, AVX-512 on x86-64, NEON on arm64 —
/// implements one canonical 16-lane accumulation contract (see
/// kernels_internal.h), so all variants and all layouts (row-major
/// blocked, padded SoA, gather) agree BIT FOR BIT: a row's result
/// depends only on (row values, q values, dim). They may differ from
/// the strictly-sequential scalar `L2DistanceSquared` in the last few
/// ulps (different association of the same exact products).
///
/// Which variant runs is resolved once per process from the
/// util::CpuInfo() probe — widest runnable wins (avx512 > avx2 > neon >
/// portable) — or forced with the VKG_KERNEL environment variable
/// (`portable|avx2|avx512|neon`). Forcing a variant the build or the
/// CPU cannot run is a hard startup failure, not a silent fallback.
///
/// When the store carries a padded SoA mirror (EmbeddingStore::
/// BuildPaddedMirror), the contiguous store overload runs the tail-free
/// aligned fast path over 64-byte-aligned rows; zero padding is a
/// bitwise no-op under the canonical contract, so results are identical
/// to the row-major path. The vkg_kernel_rows_{soa,rowmajor,gather}_total
/// counters record which path served each row.

/// The kernel variants the dispatcher knows about.
enum class KernelVariant : uint8_t {
  kPortable = 0,
  kAvx2,
  kAvx512,
  kNeon,
};

/// Stable lowercase name ("portable", "avx2", "avx512", "neon").
std::string_view KernelVariantName(KernelVariant v);

/// Parses a VKG_KERNEL-style name. Returns false on unknown names.
bool KernelVariantFromName(std::string_view name, KernelVariant* out);

/// Variants that are both compiled into this binary and runnable on
/// this CPU, portable first, then ascending width.
std::vector<KernelVariant> RunnableKernelVariants();

/// The process-wide pick (resolved once, then cached): the VKG_KERNEL
/// override when set, else the widest runnable variant.
KernelVariant DispatchedKernelVariant();
std::string_view DispatchedKernelName();

/// out[i] = ||rows[i*dim .. i*dim+dim) - q||^2 for i in [0, n).
/// `rows` must hold n contiguous row-major vectors of size q.size().
void BatchL2DistanceSquared(std::span<const float> q, const float* rows,
                            size_t n, double* out);

/// Convenience overload over a contiguous id range of the store:
/// out[i] = ||store[first + i] - q||^2 for i in [0, n). Takes the
/// aligned tail-free SoA path when the store has a padded mirror.
void BatchL2DistanceSquared(std::span<const float> q,
                            const EmbeddingStore& store, uint32_t first,
                            size_t n, double* out);

/// Gather path for candidate-ID lists (the re-rank step of Algorithm 3):
/// out[i] = ||store[ids[i]] - q||^2.
void GatherL2DistanceSquared(std::span<const float> q,
                             const EmbeddingStore& store,
                             std::span<const uint32_t> ids, double* out);

/// Variant-forced entry points for parity tests and the bench's
/// per-variant enumeration. `v` must be in RunnableKernelVariants().
void BatchL2DistanceSquaredVariant(KernelVariant v, std::span<const float> q,
                                   const float* rows, size_t n, double* out);
void BatchL2DistanceSquaredVariant(KernelVariant v, std::span<const float> q,
                                   const EmbeddingStore& store, uint32_t first,
                                   size_t n, double* out);
void GatherL2DistanceSquaredVariant(KernelVariant v, std::span<const float> q,
                                    const EmbeddingStore& store,
                                    std::span<const uint32_t> ids, double* out);

}  // namespace vkg::embedding

#endif  // VKG_EMBEDDING_BATCH_KERNELS_H_
