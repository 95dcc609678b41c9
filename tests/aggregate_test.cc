// Tests for aggregate query processing (Section V-B): estimator
// correctness on hand-built geometry, sampling convergence, MAX/MIN
// estimation, and input validation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/virtual_graph.h"
#include "data/movielens_gen.h"
#include "data/workload.h"
#include "obs/metrics.h"
#include "query/aggregate_engine.h"
#include "query/metrics.h"
#include "query/prob_model.h"
#include "transform/jl_transform.h"

namespace vkg::query {
namespace {

// --- ProbabilityModel -------------------------------------------------------

TEST(ProbModelTest, CalibratedInverseDistance) {
  ProbabilityModel pm(0.5);
  EXPECT_DOUBLE_EQ(pm.ProbabilityAt(0.5), 1.0);
  EXPECT_DOUBLE_EQ(pm.ProbabilityAt(0.25), 1.0);  // closer than d_min
  EXPECT_DOUBLE_EQ(pm.ProbabilityAt(1.0), 0.5);
  EXPECT_DOUBLE_EQ(pm.ProbabilityAt(5.0), 0.1);
}

TEST(ProbModelTest, RadiusInvertsThreshold) {
  ProbabilityModel pm(0.2);
  double r = pm.RadiusForThreshold(0.05);
  EXPECT_DOUBLE_EQ(r, 4.0);
  EXPECT_DOUBLE_EQ(pm.ProbabilityAt(r), 0.05);
}

TEST(ProbModelTest, ZeroDistanceClamped) {
  ProbabilityModel pm(0.0);
  EXPECT_GT(pm.d_min(), 0.0);
  EXPECT_LE(pm.ProbabilityAt(1.0), 1.0);
}

// --- Engine on a controlled dataset ------------------------------------------

// Builds a tiny graph whose embeddings are hand-placed in 4 dimensions so
// ball membership and probabilities are known in closed form.
struct ControlledSetup {
  kg::KnowledgeGraph graph;
  embedding::EmbeddingStore store;
  std::unique_ptr<transform::JlTransform> jl;
  std::unique_ptr<index::PointSet> points;
  std::unique_ptr<index::CrackingRTree> tree;
  std::unique_ptr<AggregateEngine> engine;

  ControlledSetup() : store(12, 1, 4) {
    // Anchor entity 0 at origin; relation vector zero: query center = 0.
    // Entities 1..9 on the x-axis at distances 1, 2, ..., 9.
    // Entities 10, 11 far away.
    graph.AddEntities(12, "e");
    graph.AddRelation("r");
    for (int i = 1; i <= 9; ++i) {
      store.Entity(i)[0] = static_cast<float>(i);
      graph.attributes().Set("value", i, 10.0 * i);
    }
    store.Entity(10)[1] = 500.0f;
    store.Entity(11)[2] = 500.0f;
    graph.attributes().Set("value", 10, 1e6);
    graph.attributes().Set("value", 11, 1e6);

    jl = std::make_unique<transform::JlTransform>(4, 3, 7);
    points = std::make_unique<index::PointSet>(jl->ApplyToEntities(store), 3);
    tree = std::make_unique<index::CrackingRTree>(points.get(),
                                                  index::RTreeConfig{});
    engine = std::make_unique<AggregateEngine>(&graph, &store, jl.get(),
                                               tree.get(), /*eps=*/1.0,
                                               /*crack=*/true);
  }

  AggregateSpec Spec(AggKind kind, double p_tau, size_t sample = 0) {
    AggregateSpec spec;
    spec.query = {0, 0, kg::Direction::kTail};
    spec.kind = kind;
    spec.attribute = "value";
    spec.prob_threshold = p_tau;
    spec.sample_size = sample;
    return spec;
  }
};

TEST(AggregateExactTest, CountMatchesClosedForm) {
  ControlledSetup s;
  // d_min = 1 (entity 1). p_tau = 0.25 -> radius 4: entities at 1..4.
  // probabilities 1, 1/2, 1/3, 1/4 -> expected count = 25/12.
  auto r = s.engine->ExactAggregate(s.Spec(AggKind::kCount, 0.25));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->accessed, 4u);
  EXPECT_NEAR(r->value, 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-9);
}

TEST(AggregateExactTest, SumMatchesClosedForm) {
  ControlledSetup s;
  // SUM over the same ball: sum v_i p_i with a = b (scale = 1):
  // 10*1 + 20/2 + 30/3 + 40/4 = 40.
  auto r = s.engine->ExactAggregate(s.Spec(AggKind::kSum, 0.25));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->value, 40.0, 1e-9);
}

TEST(AggregateExactTest, AvgIsSumOverCount) {
  ControlledSetup s;
  auto sum = s.engine->ExactAggregate(s.Spec(AggKind::kSum, 0.25));
  auto count = s.engine->ExactAggregate(s.Spec(AggKind::kCount, 0.25));
  auto avg = s.engine->ExactAggregate(s.Spec(AggKind::kAvg, 0.25));
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->value, sum->value / count->value, 1e-9);
}

TEST(AggregateExactTest, MaxEstimateIsReasonable) {
  ControlledSetup s;
  auto r = s.engine->ExactAggregate(s.Spec(AggKind::kMax, 0.25));
  ASSERT_TRUE(r.ok());
  // True max attribute inside the ball is 40; the estimator blends the
  // probabilistic sample max with an extrapolation term.
  EXPECT_GT(r->value, 10.0);
  EXPECT_LT(r->value, 80.0);
}

TEST(AggregateExactTest, MinMirrorsMax) {
  ControlledSetup s;
  auto min = s.engine->ExactAggregate(s.Spec(AggKind::kMin, 0.25));
  ASSERT_TRUE(min.ok());
  EXPECT_LT(min->value, 20.0);  // true min in ball is 10
}

TEST(AggregateIndexTest, IndexEngineTracksExact) {
  ControlledSetup s;
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
    auto exact = s.engine->ExactAggregate(s.Spec(kind, 0.25));
    auto approx = s.engine->Aggregate(s.Spec(kind, 0.25));
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(approx.ok());
    EXPECT_GT(AggregateAccuracy(approx->value, exact->value), 0.8)
        << AggKindName(kind);
  }
}

TEST(AggregateIndexTest, SampleSizeLimitsAccess) {
  ControlledSetup s;
  auto r = s.engine->Aggregate(s.Spec(AggKind::kCount, 0.1, /*sample=*/3));
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->accessed, 3u);
  EXPECT_GE(r->estimated_total, static_cast<double>(r->accessed));
}

// The d_min probe is part of the aggregate, not a top-k query of its
// own: one aggregate moves the aggregate counters only.
TEST(AggregateIndexTest, CountsOnceInMetrics) {
  ControlledSetup s;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t agg_before = reg.GetCounter("vkg_agg_queries_total").Value();
  const uint64_t topk_before =
      reg.GetCounter("vkg_topk_queries_total").Value();
  ASSERT_TRUE(s.engine->Aggregate(s.Spec(AggKind::kCount, 0.25)).ok());
  EXPECT_EQ(reg.GetCounter("vkg_agg_queries_total").Value(), agg_before + 1);
  EXPECT_EQ(reg.GetCounter("vkg_topk_queries_total").Value(), topk_before);
}

TEST(AggregateIndexTest, ValidationErrors) {
  ControlledSetup s;
  auto spec = s.Spec(AggKind::kSum, 0.25);
  spec.attribute = "ghost";
  EXPECT_EQ(s.engine->Aggregate(spec).status().code(),
            util::StatusCode::kNotFound);
  spec = s.Spec(AggKind::kCount, 0.0);
  EXPECT_EQ(s.engine->Aggregate(spec).status().code(),
            util::StatusCode::kInvalidArgument);
  spec = s.Spec(AggKind::kCount, 1.5);
  EXPECT_FALSE(s.engine->Aggregate(spec).ok());
}

// Ids outside the graph are rejected before they reach the embedding
// store or the visit stamps, whose bounds checks would abort.
TEST(AggregateIndexTest, OutOfRangeIdsAreInvalidArgument) {
  ControlledSetup s;
  auto vkg = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
      &s.graph, s.store, core::VkgOptions{});
  ASSERT_TRUE(vkg.ok()) << vkg.status().ToString();
  const auto bad_anchor =
      static_cast<kg::EntityId>(s.graph.num_entities() + 1000);
  const auto bad_relation =
      static_cast<kg::RelationId>(s.graph.num_relations() + 5);
  for (const data::Query& query :
       {data::Query{bad_anchor, 0, kg::Direction::kTail},
        data::Query{0, bad_relation, kg::Direction::kHead},
        data::Query{bad_anchor, bad_relation, kg::Direction::kTail}}) {
    AggregateSpec spec = s.Spec(AggKind::kCount, 0.25, /*sample=*/3);
    spec.query = query;
    EXPECT_EQ(s.engine->Aggregate(spec).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(s.engine->ExactAggregate(spec).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ((*vkg)->Aggregate(spec).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ((*vkg)->ExactAggregate(spec).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(AggregateIndexTest, MissingAttributesAreExcluded) {
  ControlledSetup s;
  // Entity 2 loses its value: it should drop out of SUM.
  s.graph.attributes().Set("value", 2,
                           std::numeric_limits<double>::quiet_NaN());
  auto r = s.engine->ExactAggregate(s.Spec(AggKind::kSum, 0.25));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->value, 40.0 - 10.0, 1e-9);  // 20/2 term gone
}

// --- Convergence on a generated dataset -----------------------------------------

TEST(AggregateConvergenceTest, AccuracyGrowsWithSample) {
  data::MovieLensConfig config;
  config.num_users = 1200;
  config.num_movies = 600;
  config.seed = 51;
  data::Dataset ds = data::GenerateMovieLensLike(config);
  transform::JlTransform jl(ds.embeddings.dim(), 3, 52);
  index::PointSet points(jl.ApplyToEntities(ds.embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  AggregateEngine engine(&ds.graph, &ds.embeddings, &jl, &tree, 1.0, true);

  data::WorkloadConfig wc;
  wc.num_queries = 10;
  wc.seed = 53;
  kg::RelationId likes = ds.graph.relation_names().Lookup("likes");
  wc.only_relation = likes;
  wc.tail_fraction = 1.0;
  auto queries = data::GenerateWorkload(ds.graph, wc);
  ASSERT_FALSE(queries.empty());

  double acc_small = 0, acc_large = 0;
  size_t counted = 0;
  for (const data::Query& q : queries) {
    AggregateSpec spec;
    spec.query = q;
    spec.kind = AggKind::kAvg;
    spec.attribute = "year";
    spec.prob_threshold = 0.1;
    auto exact = engine.ExactAggregate(spec);
    ASSERT_TRUE(exact.ok());
    if (exact->accessed < 8) continue;  // degenerate ball
    spec.sample_size = 2;
    auto small = engine.Aggregate(spec);
    spec.sample_size = 0;
    auto large = engine.Aggregate(spec);
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(large.ok());
    acc_small += AggregateAccuracy(small->value, exact->value);
    acc_large += AggregateAccuracy(large->value, exact->value);
    ++counted;
  }
  ASSERT_GT(counted, 0u);
  // Full access should be at least as accurate on average.
  EXPECT_GE(acc_large + 0.02 * counted, acc_small);
  EXPECT_GE(acc_large / counted, 0.9);
}

}  // namespace
}  // namespace vkg::query
