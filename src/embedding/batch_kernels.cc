#include "embedding/batch_kernels.h"

#include <cstdlib>
#include <cstring>

#include "embedding/kernels_internal.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/cpu.h"

namespace vkg::embedding {

namespace {

using internal::kKernelLanes;
using internal::RowKernel;

#if defined(__GNUC__) || defined(__clang__)
inline void PrefetchRow(const float* p) { __builtin_prefetch(p, 0, 1); }
#else
inline void PrefetchRow(const float*) {}
#endif

// The per-path row counters, cached once (handles are stable for the
// life of the process). Incremented per batch, not per row.
struct KernelMetrics {
  obs::Counter& rows_soa;
  obs::Counter& rows_rowmajor;
  obs::Counter& rows_gather;

  static KernelMetrics& Get() {
    static KernelMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new KernelMetrics{
          reg.GetCounter("vkg_kernel_rows_soa_total"),
          reg.GetCounter("vkg_kernel_rows_rowmajor_total"),
          reg.GetCounter("vkg_kernel_rows_gather_total")};
    }();
    return *metrics;
  }
};

/// The compiled-in kernel for a variant, or null when this build does
/// not carry it (e.g. kNeon on x86).
RowKernel VariantKernel(KernelVariant v) {
  switch (v) {
    case KernelVariant::kPortable:
      return internal::RowL2Portable;
#ifdef VKG_KERNELS_X86
    case KernelVariant::kAvx2:
      return internal::RowL2Avx2;
    case KernelVariant::kAvx512:
      return internal::RowL2Avx512;
#endif
#ifdef VKG_KERNELS_NEON
    case KernelVariant::kNeon:
      return internal::RowL2Neon;
#endif
    default:
      return nullptr;
  }
}

bool VariantRunnable(KernelVariant v) {
  if (VariantKernel(v) == nullptr) return false;
  const util::CpuFeatures& cpu = util::CpuInfo();
  switch (v) {
    case KernelVariant::kPortable:
      return true;
    case KernelVariant::kAvx2:
      return cpu.avx2;
    case KernelVariant::kAvx512:
      return cpu.avx512f;
    case KernelVariant::kNeon:
      return cpu.neon;
  }
  return false;
}

KernelVariant ResolveVariant() {
  if (const char* forced = std::getenv("VKG_KERNEL");
      forced != nullptr && forced[0] != '\0') {
    KernelVariant v;
    VKG_CHECK_MSG(KernelVariantFromName(forced, &v),
                  "VKG_KERNEL=%s is not a kernel variant "
                  "(portable|avx2|avx512|neon)",
                  forced);
    VKG_CHECK_MSG(VariantRunnable(v),
                  "VKG_KERNEL=%s is not runnable here (cpu features: %s)",
                  forced, util::CpuFeatureString().c_str());
    return v;
  }
  for (KernelVariant v : {KernelVariant::kAvx512, KernelVariant::kAvx2,
                          KernelVariant::kNeon}) {
    if (VariantRunnable(v)) return v;
  }
  return KernelVariant::kPortable;
}

/// The process-wide pick and its kernel pointer, resolved exactly once
/// so every batch in a process runs the same variant.
struct Dispatch {
  KernelVariant variant;
  RowKernel row;
};

const Dispatch& Dispatched() {
  static const Dispatch d = [] {
    const KernelVariant v = ResolveVariant();
    return Dispatch{v, VariantKernel(v)};
  }();
  return d;
}

/// q zero-extended to the store's padded dimension, reused across
/// batches on this thread. Padding the query with zeros (matching the
/// zero-padded rows) is a bitwise no-op under the canonical kernel
/// contract — see kernels_internal.h.
const float* PaddedQuery(std::span<const float> q, size_t padded_dim) {
  static thread_local std::vector<float> buf;
  if (buf.size() < padded_dim) buf.resize(padded_dim);
  std::memcpy(buf.data(), q.data(), q.size() * sizeof(float));
  std::memset(buf.data() + q.size(), 0,
              (padded_dim - q.size()) * sizeof(float));
  return buf.data();
}

void BatchRows(RowKernel kernel, const float* q, const float* rows,
               size_t stride, size_t dim, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    // Pull upcoming rows into cache while this one computes.
    if (i + 4 < n) PrefetchRow(rows + (i + 4) * stride);
    out[i] = kernel(rows + i * stride, q, dim);
  }
}

void BatchStore(RowKernel kernel, std::span<const float> q,
                const EmbeddingStore& store, uint32_t first, size_t n,
                double* out) {
  VKG_DCHECK(first + n <= store.num_entities());
  VKG_DCHECK(q.size() == store.dim());
  if (n == 0) return;
  if (store.has_padded_mirror()) {
    // Aligned tail-free fast path: rows start on cache lines and
    // padded_dim is a multiple of the 16-lane block, so the kernel body
    // never enters its scalar tail.
    const size_t pdim = store.padded_dim();
    BatchRows(kernel, PaddedQuery(q, pdim), store.PaddedEntity(first), pdim,
              pdim, n, out);
    KernelMetrics::Get().rows_soa.Inc(n);
    return;
  }
  BatchRows(kernel, q.data(), store.Entity(first).data(), store.dim(),
            store.dim(), n, out);
  KernelMetrics::Get().rows_rowmajor.Inc(n);
}

void GatherStore(RowKernel kernel, std::span<const float> q,
                 const EmbeddingStore& store, std::span<const uint32_t> ids,
                 double* out) {
  VKG_DCHECK(q.size() == store.dim());
  const size_t dim = store.dim();
  const float* qp = q.data();
  const size_t n = ids.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + 4 < n) PrefetchRow(store.Entity(ids[i + 4]).data());
    out[i] = kernel(store.Entity(ids[i]).data(), qp, dim);
  }
  KernelMetrics::Get().rows_gather.Inc(n);
}

RowKernel CheckedVariantKernel(KernelVariant v) {
  RowKernel kernel = VariantKernel(v);
  VKG_CHECK_MSG(kernel != nullptr && VariantRunnable(v),
                "kernel variant %.*s is not runnable here (cpu features: %s)",
                static_cast<int>(KernelVariantName(v).size()),
                KernelVariantName(v).data(), util::CpuFeatureString().c_str());
  return kernel;
}

}  // namespace

std::string_view KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kPortable:
      return "portable";
    case KernelVariant::kAvx2:
      return "avx2";
    case KernelVariant::kAvx512:
      return "avx512";
    case KernelVariant::kNeon:
      return "neon";
  }
  return "unknown";
}

bool KernelVariantFromName(std::string_view name, KernelVariant* out) {
  for (KernelVariant v : {KernelVariant::kPortable, KernelVariant::kAvx2,
                          KernelVariant::kAvx512, KernelVariant::kNeon}) {
    if (name == KernelVariantName(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::vector<KernelVariant> RunnableKernelVariants() {
  std::vector<KernelVariant> variants;
  for (KernelVariant v : {KernelVariant::kPortable, KernelVariant::kAvx2,
                          KernelVariant::kAvx512, KernelVariant::kNeon}) {
    if (VariantRunnable(v)) variants.push_back(v);
  }
  return variants;
}

KernelVariant DispatchedKernelVariant() { return Dispatched().variant; }

std::string_view DispatchedKernelName() {
  return KernelVariantName(Dispatched().variant);
}

void BatchL2DistanceSquared(std::span<const float> q, const float* rows,
                            size_t n, double* out) {
  BatchRows(Dispatched().row, q.data(), rows, q.size(), q.size(), n, out);
}

void BatchL2DistanceSquared(std::span<const float> q,
                            const EmbeddingStore& store, uint32_t first,
                            size_t n, double* out) {
  BatchStore(Dispatched().row, q, store, first, n, out);
}

void GatherL2DistanceSquared(std::span<const float> q,
                             const EmbeddingStore& store,
                             std::span<const uint32_t> ids, double* out) {
  GatherStore(Dispatched().row, q, store, ids, out);
}

void BatchL2DistanceSquaredVariant(KernelVariant v, std::span<const float> q,
                                   const float* rows, size_t n, double* out) {
  BatchRows(CheckedVariantKernel(v), q.data(), rows, q.size(), q.size(), n,
            out);
}

void BatchL2DistanceSquaredVariant(KernelVariant v, std::span<const float> q,
                                   const EmbeddingStore& store, uint32_t first,
                                   size_t n, double* out) {
  BatchStore(CheckedVariantKernel(v), q, store, first, n, out);
}

void GatherL2DistanceSquaredVariant(KernelVariant v, std::span<const float> q,
                                    const EmbeddingStore& store,
                                    std::span<const uint32_t> ids,
                                    double* out) {
  GatherStore(CheckedVariantKernel(v), q, store, ids, out);
}

}  // namespace vkg::embedding
