// Tests for the top-k query engines (Algorithm 3 and the baselines):
// skip semantics, ground-truth equivalence of the exact engines, and
// recall of the approximate R-tree engine against the linear scan.

#include <gtest/gtest.h>

#include "data/movielens_gen.h"
#include "data/workload.h"
#include "query/metrics.h"
#include "query/topk_engine.h"
#include "transform/jl_transform.h"

namespace vkg::query {
namespace {

class TopKEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 1500;
    config.num_movies = 800;
    config.seed = 31;
    ds_ = new data::Dataset(data::GenerateMovieLensLike(config));
    data::WorkloadConfig wc;
    wc.num_queries = 20;
    wc.seed = 32;
    workload_ =
        new std::vector<data::Query>(data::GenerateWorkload(ds_->graph, wc));
  }
  static void TearDownTestSuite() {
    delete ds_;
    delete workload_;
  }
  static data::Dataset* ds_;
  static std::vector<data::Query>* workload_;
};
data::Dataset* TopKEngineTest::ds_ = nullptr;
std::vector<data::Query>* TopKEngineTest::workload_ = nullptr;

// Differential: the neighbour-list predicate skips exactly the anchor
// and the ids the graph's triples link to it by the query's relation,
// for every entity, in both directions, and stamps exactly that set.
TEST_F(TopKEngineTest, SkipFnMatchesTriples) {
  const size_t n = ds_->graph.num_entities();
  QueryContext ctx;
  for (const data::Query& workload_query : *workload_) {
    for (kg::Direction dir : {kg::Direction::kTail, kg::Direction::kHead}) {
      data::Query q = workload_query;
      q.direction = dir;
      std::vector<bool> expected(n, false);
      expected[q.anchor] = true;
      for (const kg::Triple& t : ds_->graph.triples().triples()) {
        if (t.relation != q.relation) continue;
        if (dir == kg::Direction::kTail && t.head == q.anchor) {
          expected[t.tail] = true;
        }
        if (dir == kg::Direction::kHead && t.tail == q.anchor) {
          expected[t.head] = true;
        }
      }
      const SkipFn skip = MakeSkipFn(ds_->graph, q);
      const QueryContext::Stamped visited = ctx.BeginQuery(n);
      skip.StampInto(visited, n);
      for (kg::EntityId e = 0; e < n; ++e) {
        ASSERT_EQ(skip(e), expected[e]) << "anchor " << q.anchor << " e " << e;
        ASSERT_EQ(visited.stamps[e] == visited.stamp, expected[e]);
      }
    }
  }
}

TEST_F(TopKEngineTest, LinearEngineDistancesAscending) {
  LinearTopKEngine engine(&ds_->graph, &ds_->embeddings);
  for (const data::Query& q : *workload_) {
    TopKResult r = engine.TopKQuery(q, 10);
    ASSERT_EQ(r.hits.size(), 10u);
    for (size_t i = 1; i < r.hits.size(); ++i) {
      EXPECT_GE(r.hits[i].distance, r.hits[i - 1].distance);
    }
  }
}

TEST_F(TopKEngineTest, RTreeEngineRecallIsHigh) {
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 41);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  RTreeTopKEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree,
                         /*eps=*/1.0, /*crack_after_query=*/true, "crack");
  LinearTopKEngine truth(&ds_->graph, &ds_->embeddings);

  double precision = 0;
  for (const data::Query& q : *workload_) {
    precision += PrecisionAtK(engine.TopKQuery(q, 10),
                              truth.TopKQuery(q, 10));
  }
  EXPECT_GE(precision / workload_->size(), 0.9);
}

TEST_F(TopKEngineTest, LargerEpsImprovesRecall) {
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 42);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  LinearTopKEngine truth(&ds_->graph, &ds_->embeddings);

  auto recall_for = [&](double eps) {
    index::CrackingRTree tree(&points, index::RTreeConfig{});
    RTreeTopKEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree, eps,
                           true, "crack");
    double p = 0;
    for (const data::Query& q : *workload_) {
      p += PrecisionAtK(engine.TopKQuery(q, 10), truth.TopKQuery(q, 10));
    }
    return p / workload_->size();
  };
  double small = recall_for(0.05);
  double large = recall_for(2.0);
  EXPECT_GE(large + 1e-9, small);
  EXPECT_GE(large, 0.95);
}

TEST_F(TopKEngineTest, WorkExaminedShrinksOverQuerySequence) {
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 43);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  RTreeTopKEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree, 1.0,
                         true, "crack");
  // First query hits the monolithic root partition; later queries touch
  // refined contour elements and examine (weakly) fewer candidates.
  size_t first = engine.TopKQuery((*workload_)[0], 10).candidates_examined;
  size_t later_total = 0;
  for (size_t i = 1; i < workload_->size(); ++i) {
    later_total += engine.TopKQuery((*workload_)[i], 10).candidates_examined;
  }
  size_t later_avg = later_total / (workload_->size() - 1);
  // The first query scans (nearly) everything: all entities minus the
  // anchor and its existing neighbors.
  EXPECT_GT(first, ds_->graph.num_entities() * 9 / 10);
  EXPECT_LT(later_avg, first);
}

TEST_F(TopKEngineTest, KZeroAndHugeK) {
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 44);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  RTreeTopKEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree, 1.0,
                         true, "crack");
  EXPECT_TRUE(engine.TopKQuery((*workload_)[0], 0).hits.empty());
  TopKResult all =
      engine.TopKQuery((*workload_)[0], ds_->graph.num_entities() * 2);
  EXPECT_LE(all.hits.size(), ds_->graph.num_entities());
  EXPECT_GT(all.hits.size(), 0u);
}

TEST_F(TopKEngineTest, H2AlshEngineFindsNearNeighbors) {
  index::H2AlshConfig config;
  H2AlshTopKEngine engine(&ds_->graph, &ds_->embeddings, config);
  LinearTopKEngine truth(&ds_->graph, &ds_->embeddings);
  double precision = 0;
  for (const data::Query& q : *workload_) {
    precision += PrecisionAtK(engine.TopKQuery(q, 10),
                              truth.TopKQuery(q, 10));
  }
  EXPECT_GE(precision / workload_->size(), 0.5);
}

TEST_F(TopKEngineTest, EnginesAgreeOnDistancesForSharedHits) {
  // Any entity returned by both the R-tree engine and the linear scan
  // must carry the same S1 distance.
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 45);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  RTreeTopKEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree, 1.0,
                         true, "crack");
  LinearTopKEngine truth(&ds_->graph, &ds_->embeddings);
  TopKResult a = engine.TopKQuery((*workload_)[3], 10);
  TopKResult b = truth.TopKQuery((*workload_)[3], 10);
  for (const auto& ha : a.hits) {
    for (const auto& hb : b.hits) {
      if (ha.entity == hb.entity) {
        EXPECT_NEAR(ha.distance, hb.distance, 1e-9);
      }
    }
  }
}

// --- metrics -------------------------------------------------------------------

TEST(MetricsTest, PrecisionAtK) {
  TopKResult truth;
  truth.hits = {{1, 0.1, 1.0}, {2, 0.2, 0.5}, {3, 0.3, 0.3}};
  TopKResult perfect = truth;
  EXPECT_DOUBLE_EQ(PrecisionAtK(perfect, truth), 1.0);
  TopKResult partial;
  partial.hits = {{1, 0.1, 1.0}, {9, 0.2, 0.5}, {3, 0.3, 0.3}};
  EXPECT_NEAR(PrecisionAtK(partial, truth), 2.0 / 3.0, 1e-12);
  TopKResult empty;
  EXPECT_DOUBLE_EQ(PrecisionAtK(empty, truth), 0.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(empty, empty), 1.0);
}

TEST(MetricsTest, AggregateAccuracy) {
  EXPECT_DOUBLE_EQ(AggregateAccuracy(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(AggregateAccuracy(90, 100), 0.9);
  EXPECT_DOUBLE_EQ(AggregateAccuracy(300, 100), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(AggregateAccuracy(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(AggregateAccuracy(1, 0), 0.0);
}

TEST(MetricsTest, LatencySeries) {
  LatencySeries s;
  s.Add(0.001);
  s.Add(0.003);
  s.Add(0.002);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_NEAR(s.MeanMillis(), 2.0, 1e-9);
  EXPECT_NEAR(s.PercentileMillis(50), 2.0, 1e-9);
  EXPECT_NEAR(s.TotalSeconds(), 0.006, 1e-12);
  EXPECT_NEAR(s.AtMillis(1), 3.0, 1e-9);
}

}  // namespace
}  // namespace vkg::query
