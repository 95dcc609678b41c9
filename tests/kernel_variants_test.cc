// Cross-variant and cross-layout bit-identity of the distance kernels.
//
// Every kernel variant (portable, AVX2, AVX-512, NEON — whatever this
// binary compiled in and this CPU can run) implements one canonical
// 16-lane accumulation contract (src/embedding/kernels_internal.h), and
// the padded SoA mirror adds only zero pairs, so:
//
//   * every runnable variant returns the same BITS for the same row,
//   * the row-major, padded-SoA and gather layouts return the same
//     BITS through any one variant,
//
// across every dim in [3, 257] (remainders, exact multiples, padding).
// Seeded from VKG_PROPERTY_SEED like the other property suites.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/batch_kernels.h"
#include "embedding/store.h"
#include "obs/metrics.h"
#include "util/cpu.h"

namespace vkg::embedding {
namespace {

uint64_t PropertySeed() {
  uint64_t seed;
  if (const char* env = std::getenv("VKG_PROPERTY_SEED");
      env != nullptr && env[0] != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    seed = std::random_device{}();
  }
  std::printf("[ SEED     ] VKG_PROPERTY_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

// A store whose entities are the given row-major rows (relations
// unused). Built through the mutable span accessor, then mirrored.
EmbeddingStore MakeStore(const std::vector<float>& rows, size_t n,
                         size_t dim) {
  EmbeddingStore store(n, 1, dim);
  for (size_t e = 0; e < n; ++e) {
    std::memcpy(store.Entity(static_cast<uint32_t>(e)).data(),
                rows.data() + e * dim, dim * sizeof(float));
  }
  store.BuildPaddedMirror();
  return store;
}

TEST(KernelVariantsTest, NamesRoundTrip) {
  for (KernelVariant v : {KernelVariant::kPortable, KernelVariant::kAvx2,
                          KernelVariant::kAvx512, KernelVariant::kNeon}) {
    KernelVariant parsed;
    ASSERT_TRUE(KernelVariantFromName(KernelVariantName(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
  KernelVariant out;
  EXPECT_FALSE(KernelVariantFromName("", &out));
  EXPECT_FALSE(KernelVariantFromName("avx-512", &out));
  EXPECT_FALSE(KernelVariantFromName("PORTABLE", &out));
  // No SVE kernel exists, so VKG_KERNEL=sve fails as an unknown name.
  EXPECT_FALSE(KernelVariantFromName("sve", &out));
}

TEST(KernelVariantsTest, DispatchPicksARunnableVariant) {
  const std::vector<KernelVariant> runnable = RunnableKernelVariants();
  ASSERT_FALSE(runnable.empty());
  // Portable always runs, everywhere.
  EXPECT_EQ(runnable.front(), KernelVariant::kPortable);
  const KernelVariant picked = DispatchedKernelVariant();
  EXPECT_NE(std::find(runnable.begin(), runnable.end(), picked),
            runnable.end())
      << "dispatched " << DispatchedKernelName();
  // When CI forces a variant via VKG_KERNEL, the dispatch must honor it
  // — this is what makes the forced matrix runs meaningful.
  if (const char* forced = std::getenv("VKG_KERNEL");
      forced != nullptr && forced[0] != '\0') {
    EXPECT_EQ(DispatchedKernelName(), std::string_view(forced));
  }
}

// The tentpole property: same bits from every variant and every layout.
TEST(KernelVariantsTest, CrossVariantCrossLayoutBitIdentity) {
  std::mt19937_64 rng(PropertySeed());
  std::uniform_real_distribution<float> value(-2.0f, 2.0f);
  std::uniform_int_distribution<size_t> random_dim(3, 257);

  const std::vector<KernelVariant> runnable = RunnableKernelVariants();
  ASSERT_FALSE(runnable.empty());

  // Boundary dims (tail lengths 0/1/15 around the 16-float block) plus
  // a few random draws.
  std::vector<size_t> dims = {3,  4,  15, 16, 17,  31,  32, 33,
                              63, 64, 65, 100, 127, 128, 129, 257};
  for (int i = 0; i < 4; ++i) dims.push_back(random_dim(rng));

  for (size_t dim : dims) {
    SCOPED_TRACE(testing::Message() << "dim=" << dim);
    const size_t n = 57;  // not a multiple of anything interesting
    std::vector<float> rows(n * dim);
    std::vector<float> q(dim);
    for (float& v : rows) v = value(rng);
    for (float& v : q) v = value(rng);
    EmbeddingStore store = MakeStore(rows, n, dim);
    ASSERT_TRUE(store.has_padded_mirror());
    ASSERT_EQ(store.padded_dim() % EmbeddingStore::kPadFloats, 0u);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(store.PaddedEntity(0)) %
                  EmbeddingStore::kPadAlign,
              0u);

    std::vector<uint32_t> ids(n);
    for (size_t e = 0; e < n; ++e) ids[e] = static_cast<uint32_t>(e);

    // Reference: portable over raw row-major rows.
    std::vector<double> reference(n);
    BatchL2DistanceSquaredVariant(KernelVariant::kPortable, q, rows.data(), n,
                                  reference.data());

    std::vector<double> got(n);
    for (KernelVariant v : runnable) {
      SCOPED_TRACE(testing::Message()
                   << "variant=" << KernelVariantName(v));
      // Row-major layout.
      BatchL2DistanceSquaredVariant(v, q, rows.data(), n, got.data());
      ASSERT_EQ(0,
                std::memcmp(got.data(), reference.data(), n * sizeof(double)))
          << "row-major bits differ from portable";
      // Padded SoA layout (store overload with mirror).
      BatchL2DistanceSquaredVariant(v, q, store, /*first=*/0, n, got.data());
      ASSERT_EQ(0,
                std::memcmp(got.data(), reference.data(), n * sizeof(double)))
          << "SoA bits differ from portable row-major";
      // Gather layout.
      GatherL2DistanceSquaredVariant(v, q, store, ids, got.data());
      ASSERT_EQ(0,
                std::memcmp(got.data(), reference.data(), n * sizeof(double)))
          << "gather bits differ from portable row-major";
    }

    // And the process-dispatched entry points agree too.
    BatchL2DistanceSquared(q, store, 0, n, got.data());
    ASSERT_EQ(0,
              std::memcmp(got.data(), reference.data(), n * sizeof(double)));
  }
}

// The SoA fast path is actually taken (and only when a mirror exists):
// this counter is what the arm64 CI job asserts NEON runs the aligned
// no-tail path.
TEST(KernelVariantsTest, SoaFastPathCounterAdvances) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& soa = reg.GetCounter("vkg_kernel_rows_soa_total");
  obs::Counter& rowmajor = reg.GetCounter("vkg_kernel_rows_rowmajor_total");

  const size_t n = 40, dim = 37;
  std::vector<float> rows(n * dim, 0.5f);
  std::vector<float> q(dim, 0.25f);
  EmbeddingStore store = MakeStore(rows, n, dim);
  std::vector<double> out(n);

  const uint64_t soa_before = soa.Value();
  BatchL2DistanceSquared(q, store, 0, n, out.data());
  EXPECT_EQ(soa.Value(), soa_before + n);

  // Mutable access invalidates the mirror; the row-major path serves.
  store.Entity(0)[0] = 1.0f;
  EXPECT_FALSE(store.has_padded_mirror());
  const uint64_t rowmajor_before = rowmajor.Value();
  BatchL2DistanceSquared(q, store, 0, n, out.data());
  EXPECT_EQ(rowmajor.Value(), rowmajor_before + n);

  // Rebuild: fast path again, and the mutated row is reflected.
  store.BuildPaddedMirror();
  std::vector<double> out2(n);
  BatchL2DistanceSquared(q, store, 0, n, out2.data());
  EXPECT_EQ(soa.Value(), soa_before + 2 * n);
  EXPECT_EQ(0, std::memcmp(out.data(), out2.data(), n * sizeof(double)));
}

TEST(KernelVariantsTest, CpuProbeIsConsistentWithRunnableSet) {
  const util::CpuFeatures& cpu = util::CpuInfo();
  const std::vector<KernelVariant> runnable = RunnableKernelVariants();
  const auto has = [&runnable](KernelVariant v) {
    return std::find(runnable.begin(), runnable.end(), v) != runnable.end();
  };
#if defined(__x86_64__)
  EXPECT_EQ(has(KernelVariant::kAvx2), cpu.avx2);
  EXPECT_EQ(has(KernelVariant::kAvx512), cpu.avx512f);
  EXPECT_FALSE(has(KernelVariant::kNeon));
#elif defined(__aarch64__)
  EXPECT_TRUE(cpu.neon);
  EXPECT_TRUE(has(KernelVariant::kNeon));
  EXPECT_FALSE(has(KernelVariant::kAvx2));
  EXPECT_FALSE(has(KernelVariant::kAvx512));
#endif
  EXPECT_FALSE(util::CpuFeatureString().empty());
}

}  // namespace
}  // namespace vkg::embedding
