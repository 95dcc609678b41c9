// Tests for the JL transform and the Theorem 1 bound calculators,
// including parameterized property tests validating the analytical tail
// bounds empirically across (alpha, eps) combinations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "embedding/vector_ops.h"
#include "transform/jl_bounds.h"
#include "transform/jl_transform.h"
#include "util/random.h"

namespace vkg::transform {
namespace {

TEST(JlTransformTest, ShapeAndDeterminism) {
  JlTransform t(50, 3, 42);
  EXPECT_EQ(t.input_dim(), 50u);
  EXPECT_EQ(t.output_dim(), 3u);
  std::vector<float> x(50, 1.0f);
  auto a = t.Apply(x);
  JlTransform t2(50, 3, 42);
  auto b = t2.Apply(x);
  EXPECT_EQ(a, b);
  JlTransform t3(50, 3, 43);
  EXPECT_NE(t3.Apply(x), a);
}

TEST(JlTransformTest, Linearity) {
  JlTransform t(20, 4, 1);
  util::Rng rng(2);
  std::vector<float> x(20), y(20), sum(20);
  for (size_t i = 0; i < 20; ++i) {
    x[i] = static_cast<float>(rng.Gaussian());
    y[i] = static_cast<float>(rng.Gaussian());
    sum[i] = x[i] + y[i];
  }
  auto tx = t.Apply(x);
  auto ty = t.Apply(y);
  auto tsum = t.Apply(sum);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(tsum[i], tx[i] + ty[i], 1e-4);
  }
}

TEST(JlTransformTest, NormPreservedInExpectation) {
  // E[||T(x)||^2] = ||x||^2 thanks to the 1/sqrt(alpha) scaling.
  const size_t d = 40, alpha = 3;
  util::Rng rng(3);
  std::vector<float> x(d);
  for (float& v : x) v = static_cast<float>(rng.Gaussian());
  double norm2 = embedding::Dot(x, x);
  double sum = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    JlTransform t(d, alpha, 1000 + i);
    auto y = t.Apply(x);
    sum += embedding::Dot(y, y);
  }
  EXPECT_NEAR(sum / trials / norm2, 1.0, 0.06);
}

TEST(JlTransformTest, ApplyToEntities) {
  embedding::EmbeddingStore store(7, 1, 10);
  util::Rng rng(4);
  store.RandomInitialize(rng);
  JlTransform t(10, 3, 5);
  auto all = t.ApplyToEntities(store);
  ASSERT_EQ(all.size(), 21u);
  auto single = t.Apply(store.Entity(3));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(all[3 * 3 + i], single[i]);
  }
}

// The bulk path (threaded at and above kParallelMinRows) must equal
// per-row Apply bit for bit: for a row count no thread count divides,
// and for one below the threshold (serial).
TEST(JlTransformTest, ApplyToEntitiesBitIdenticalToPerRowApply) {
  for (size_t n : {JlTransform::kParallelMinRows + 7, size_t{257}}) {
    SCOPED_TRACE(n);
    embedding::EmbeddingStore store(n, 1, 24);
    util::Rng rng(11);
    store.RandomInitialize(rng);
    const embedding::EmbeddingStore& frozen = store;
    JlTransform t(24, 3, 9);
    const std::vector<float> all = t.ApplyToEntities(frozen);
    ASSERT_EQ(all.size(), n * 3);
    std::vector<float> want(n * 3);
    for (size_t e = 0; e < n; ++e) {
      t.Apply(frozen.Entity(static_cast<kg::EntityId>(e)),
              {want.data() + e * 3, 3});
    }
    const size_t bytes = want.size() * sizeof(float);
    EXPECT_EQ(std::memcmp(all.data(), want.data(), bytes), 0);
  }
}

// --- Theorem 1 bound functions -------------------------------------------------

TEST(JlBoundsTest, PaperExamples) {
  // Section III-B: eps = 3, alpha = 3 -> confidence ~91.2% that l2 < 2 l1.
  double upper = DeltaUpper(3.0, 3);
  EXPECT_NEAR(1.0 - upper, 0.912, 0.005);
  // eps = 15/16, alpha = 3 -> confidence ~94% that l2 > l1 / 4 (the
  // paper rounds; the exact bound evaluates to 0.0638).
  double lower = DeltaLower(15.0 / 16.0, 3);
  EXPECT_NEAR(lower, 0.0638, 0.001);
}

TEST(JlBoundsTest, MonotoneInEps) {
  for (size_t alpha : {2u, 3u, 6u}) {
    double prev = 1.0;
    for (double eps = 0.5; eps < 8.0; eps += 0.5) {
      double v = DeltaUpper(eps, alpha);
      EXPECT_LT(v, prev);
      prev = v;
    }
  }
}

TEST(JlBoundsTest, MonotoneInAlpha) {
  EXPECT_GT(DeltaUpper(2.0, 2), DeltaUpper(2.0, 4));
  EXPECT_GT(DeltaLower(0.5, 2), DeltaLower(0.5, 4));
}

TEST(JlBoundsTest, MissProbabilityEdgeCases) {
  EXPECT_DOUBLE_EQ(MissProbability(1.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(MissProbability(0.5, 3), 1.0);
  EXPECT_LT(MissProbability(2.0, 3), 0.1);
  EXPECT_LT(MissProbability(3.0, 3), MissProbability(2.0, 3));
}

TEST(JlBoundsTest, EpsForUpperConfidenceInverts) {
  for (size_t alpha : {2u, 3u, 6u}) {
    for (double target : {0.2, 0.05, 0.01}) {
      double eps = EpsForUpperConfidence(target, alpha);
      EXPECT_LE(DeltaUpper(eps, alpha), target * 1.0001);
      EXPECT_GE(DeltaUpper(eps * 0.9, alpha), target);
    }
  }
}

TEST(JlBoundsTest, FalseInclusionDecreasing) {
  double prev = 1.0;
  for (double ep = 0.1; ep < 1.0; ep += 0.1) {
    double v = FalseInclusionBound(ep, 3);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
}

// --- Empirical validation of Theorem 1 across (alpha, eps) ----------------------

struct BoundCase {
  size_t alpha;
  double eps;
};

class TheoremOneTest : public ::testing::TestWithParam<BoundCase> {};

TEST_P(TheoremOneTest, UpperTailBoundHolds) {
  const auto [alpha, eps] = GetParam();
  const size_t d = 50;
  util::Rng rng(31 + alpha * 100);
  std::vector<float> u(d), v(d);
  for (size_t i = 0; i < d; ++i) {
    u[i] = static_cast<float>(rng.Gaussian());
    v[i] = static_cast<float>(rng.Gaussian());
  }
  const double l1 = embedding::L2Distance(u, v);
  const double threshold = std::sqrt(1.0 + eps) * l1;
  const int trials = 4000;
  int exceed = 0;
  for (int i = 0; i < trials; ++i) {
    JlTransform t(d, alpha, 5000 + i);
    double l2 = embedding::L2Distance(t.Apply(u), t.Apply(v));
    if (l2 >= threshold) ++exceed;
  }
  double empirical = static_cast<double>(exceed) / trials;
  double bound = DeltaUpper(eps, alpha);
  // The analytical bound must hold (with slack for sampling noise).
  EXPECT_LE(empirical, bound + 0.03)
      << "alpha=" << alpha << " eps=" << eps;
}

TEST_P(TheoremOneTest, LowerTailBoundHolds) {
  const auto [alpha, eps] = GetParam();
  if (eps >= 1.0) GTEST_SKIP() << "lower bound needs eps < 1";
  const size_t d = 50;
  util::Rng rng(77 + alpha);
  std::vector<float> u(d), v(d);
  for (size_t i = 0; i < d; ++i) {
    u[i] = static_cast<float>(rng.Gaussian());
    v[i] = static_cast<float>(rng.Gaussian());
  }
  const double l1 = embedding::L2Distance(u, v);
  const double threshold = std::sqrt(1.0 - eps) * l1;
  const int trials = 4000;
  int below = 0;
  for (int i = 0; i < trials; ++i) {
    JlTransform t(d, alpha, 9000 + i);
    double l2 = embedding::L2Distance(t.Apply(u), t.Apply(v));
    if (l2 <= threshold) ++below;
  }
  double empirical = static_cast<double>(below) / trials;
  double bound = DeltaLower(eps, alpha);
  EXPECT_LE(empirical, bound + 0.03)
      << "alpha=" << alpha << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremOneTest,
    ::testing::Values(BoundCase{2, 0.5}, BoundCase{2, 1.0}, BoundCase{2, 3.0},
                      BoundCase{3, 0.5}, BoundCase{3, 1.0}, BoundCase{3, 3.0},
                      BoundCase{3, 0.9375}, BoundCase{6, 0.5},
                      BoundCase{6, 2.0}),
    [](const ::testing::TestParamInfo<BoundCase>& info) {
      return "alpha" + std::to_string(info.param.alpha) + "_eps" +
             std::to_string(static_cast<int>(info.param.eps * 100));
    });

}  // namespace
}  // namespace vkg::transform
