// Pins the R-tree engines' answers by digest: a seeded sequence of top-k
// queries and aggregates, run in order against one tree per method so
// the cracks (and with them the tree shapes) are deterministic, is hashed
// field by field. The expected values were recorded from the reference
// implementation; any change to which candidates the contour walk
// examines, in which order, or to how an aggregate estimates its
// unaccessed remainder moves them.
//
// Embeddings and relation vectors come from integer Rng draws scaled by
// powers of two, so S1 distances do not depend on the platform's libm.
// The JL matrix and the aggregates' membership estimates (exp, log,
// lgamma) do, which is why this suite pins x86-64 answers only.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/cracking_rtree.h"
#include "index/factory.h"
#include "kg/graph.h"
#include "query/aggregate_engine.h"
#include "query/topk_engine.h"
#include "transform/jl_transform.h"
#include "util/random.h"

namespace vkg::query {
namespace {

constexpr size_t kEntities = 3000;
constexpr size_t kDim = 16;
constexpr size_t kClusters = 12;

class AnswerDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void AddDouble(double v) { Add(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Entity i belongs to cluster i % kClusters: an integer-grid center
// jittered by multiples of 1/32. Relation r0 links each entity to three
// cluster mates, so the skip predicate removes near candidates.
struct DigestFixture {
  kg::KnowledgeGraph graph;
  embedding::EmbeddingStore store{kEntities, 2, kDim};
  transform::JlTransform jl{kDim, 3, 7};
  std::unique_ptr<index::PointSet> points;

  DigestFixture() {
    graph.AddEntities(kEntities, "e");
    graph.AddRelation("r0");
    graph.AddRelation("r1");
    util::Rng rng(20);
    std::vector<float> centers(kClusters * kDim);
    for (float& v : centers) v = static_cast<float>(rng.NextU64() % 16);
    for (size_t e = 0; e < kEntities; ++e) {
      std::span<float> x = store.Entity(static_cast<kg::EntityId>(e));
      for (size_t d = 0; d < kDim; ++d) {
        const int jitter = static_cast<int>(rng.NextU64() % 129) - 64;
        x[d] = centers[(e % kClusters) * kDim + d] + jitter / 32.0f;
      }
      if (e % 5 != 0) {
        graph.attributes().Set("value", static_cast<kg::EntityId>(e),
                               static_cast<double>((e * 37) % 1000));
      }
    }
    for (kg::RelationId r = 0; r < 2; ++r) {
      for (float& v : store.Relation(r)) {
        v = static_cast<float>(static_cast<int>(rng.NextU64() % 17) - 8) /
            8.0f;
      }
    }
    for (size_t e = 0; e < kEntities; ++e) {
      for (size_t j = 1; j <= 3; ++j) {
        const size_t mate = e + j * kClusters;
        if (mate < kEntities) {
          graph.AddEdge(static_cast<kg::EntityId>(e), 0,
                        static_cast<kg::EntityId>(mate));
        }
      }
      graph.AddEdge(static_cast<kg::EntityId>(e), 1,
                    static_cast<kg::EntityId>(rng.NextU64() % kEntities));
    }
    points = std::make_unique<index::PointSet>(jl.ApplyToEntities(store), 3);
  }
};

void DigestTopK(const TopKResult& r, AnswerDigest& digest) {
  digest.Add(r.hits.size());
  for (const TopKHit& hit : r.hits) {
    digest.Add(hit.entity);
    digest.AddDouble(hit.distance);
    digest.AddDouble(hit.probability);
  }
  digest.Add(r.candidates_examined);
  digest.AddDouble(r.quality.certified_radius);
  digest.Add(r.quality.exact ? 1 : 0);
}

void DigestAggregate(const util::Result<AggregateResult>& r,
                     AnswerDigest& digest) {
  digest.Add(r.ok() ? 1 : 0);
  if (!r.ok()) return;
  digest.AddDouble(r->value);
  digest.AddDouble(r->estimated_total);
  digest.Add(r->accessed);
  digest.AddDouble(r->prob_mass_accessed);
  digest.AddDouble(r->prob_mass_estimated);
  digest.Add(r->quality.exact ? 1 : 0);
}

struct EngineDigestCase {
  index::MethodKind method;
  uint64_t digest;
};

class EngineDigestTest : public ::testing::TestWithParam<EngineDigestCase> {};

TEST_P(EngineDigestTest, AnswersArePinned) {
  static const DigestFixture* fixture = new DigestFixture();
  const index::MethodKind method = GetParam().method;
  index::RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 4;
  config.split_choices = std::max<size_t>(1, index::SplitChoicesFor(method));
  index::CrackingRTree tree(fixture->points.get(), config);
  const bool bulk = method == index::MethodKind::kBulkRTree;
  if (bulk) tree.BuildFull();
  const RTreeTopKEngine topk(&fixture->graph, &fixture->store, &fixture->jl,
                             &tree, /*eps=*/1.0, /*crack_after_query=*/!bulk,
                             index::MethodName(method));
  const AggregateEngine aggregate(&fixture->graph, &fixture->store,
                                  &fixture->jl, &tree, /*eps=*/1.0,
                                  /*crack_after_query=*/!bulk);

  constexpr AggKind kKinds[] = {AggKind::kCount, AggKind::kSum,
                                AggKind::kAvg, AggKind::kMax, AggKind::kMin};
  constexpr size_t kSamples[] = {32, 512, 0};
  AnswerDigest digest;
  util::Rng rng(21);
  size_t aggregates = 0, degraded_topk = 0, degraded_agg = 0;
  for (size_t q = 0; q < 180; ++q) {
    data::Query query;
    query.anchor = static_cast<kg::EntityId>(rng.NextU64() % kEntities);
    query.relation = static_cast<kg::RelationId>(rng.NextU64() % 2);
    query.direction =
        rng.NextU64() % 2 == 0 ? kg::Direction::kTail : kg::Direction::kHead;
    QueryContext ctx;
    if (q % 3 == 2) {
      util::ResourceBudget budget;
      budget.max_points = 16 + rng.NextU64() % 2048;
      ctx.control().set_budget(budget);
    }
    if (q % 4 < 2) {
      const TopKResult r = topk.TopKQuery(query, q % 4 == 0 ? 1 : 10, ctx);
      DigestTopK(r, digest);
      if (!r.quality.exact) ++degraded_topk;
      continue;
    }
    AggregateSpec spec;
    spec.query = query;
    spec.kind = kKinds[aggregates % 5];
    spec.attribute = "value";
    spec.prob_threshold = aggregates % 2 == 0 ? 0.15 : 0.3;
    spec.sample_size = kSamples[(aggregates / 5) % 3];
    ++aggregates;
    const util::Result<AggregateResult> r = aggregate.Aggregate(spec, ctx);
    DigestAggregate(r, digest);
    if (r.ok() && !r->quality.exact) ++degraded_agg;
  }
  // The budgeted queries must actually degrade on both paths, or the
  // digest would not cover the stop handling.
  EXPECT_GT(degraded_topk, 0u);
  EXPECT_GT(degraded_agg, 0u);
  EXPECT_EQ(Hex(digest.value()), Hex(GetParam().digest));
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, EngineDigestTest,
    ::testing::Values(
        EngineDigestCase{index::MethodKind::kCracking, 0x10b8f45a5fd22d63},
        EngineDigestCase{index::MethodKind::kCracking2, 0xd8ad2c19a6ca93da},
        EngineDigestCase{index::MethodKind::kBulkRTree, 0x065e9898d7a2fc95}),
    [](const ::testing::TestParamInfo<EngineDigestCase>& info) {
      std::string name(index::MethodName(info.param.method));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Answers `queries` in order on a fresh cracking tree over `fixture`:
// top-k at k = 1, 10 and 40, then COUNT at a = 32 and SUM over the whole
// ball. Checks the E'-only semantics on every hit and returns the digest.
uint64_t DigestQueries(const DigestFixture& fixture,
                       const std::vector<data::Query>& queries) {
  index::RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 4;
  index::CrackingRTree tree(fixture.points.get(), config);
  const RTreeTopKEngine topk(&fixture.graph, &fixture.store, &fixture.jl,
                             &tree, /*eps=*/1.0, /*crack_after_query=*/true,
                             "crack");
  const AggregateEngine aggregate(&fixture.graph, &fixture.store,
                                  &fixture.jl, &tree, /*eps=*/1.0,
                                  /*crack_after_query=*/true);
  AnswerDigest digest;
  for (const data::Query& query : queries) {
    for (size_t k : {1, 10, 40}) {
      const TopKResult r = topk.TopKQuery(query, k);
      for (const TopKHit& hit : r.hits) {
        const bool known =
            query.direction == kg::Direction::kTail
                ? fixture.graph.HasEdge(query.anchor, query.relation,
                                        hit.entity)
                : fixture.graph.HasEdge(hit.entity, query.relation,
                                        query.anchor);
        EXPECT_FALSE(known || hit.entity == query.anchor)
            << "anchor " << query.anchor << " hit " << hit.entity;
      }
      DigestTopK(r, digest);
    }
    AggregateSpec spec;
    spec.query = query;
    spec.attribute = "value";
    spec.prob_threshold = 0.15;
    spec.kind = AggKind::kCount;
    spec.sample_size = 32;
    DigestAggregate(aggregate.Aggregate(spec), digest);
    spec.kind = AggKind::kSum;
    spec.sample_size = 0;
    DigestAggregate(aggregate.Aggregate(spec), digest);
  }
  return digest.value();
}

// The `count` entities nearest the query center in S1, anchor excluded.
std::vector<kg::EntityId> Nearest(const DigestFixture& fixture,
                                  const data::Query& query, size_t count) {
  const std::vector<float> center = fixture.store.QueryCenter(
      query.anchor, query.relation, query.direction);
  std::vector<std::pair<double, kg::EntityId>> by_distance;
  for (kg::EntityId e = 0; e < kEntities; ++e) {
    if (e == query.anchor) continue;
    double d2 = 0.0;
    std::span<const float> x = fixture.store.Entity(e);
    for (size_t d = 0; d < kDim; ++d) {
      const double diff = static_cast<double>(x[d]) - center[d];
      d2 += diff * diff;
    }
    by_distance.emplace_back(d2, e);
  }
  std::sort(by_distance.begin(), by_distance.end());
  std::vector<kg::EntityId> nearest;
  for (size_t i = 0; i < count; ++i) nearest.push_back(by_distance[i].second);
  return nearest;
}

// Anchors whose known neighbours outnumber one 256-id examine block and
// crowd the query center: entity 0 already links by r1 to the 400
// entities nearest its tail query, and the 300 entities nearest entity
// 1's head query link to it.
TEST(EngineDigestEdgeCases, HubAnchorIsPinned) {
  DigestFixture fixture;
  const data::Query tail_query{0, 1, kg::Direction::kTail};
  const data::Query head_query{1, 1, kg::Direction::kHead};
  for (kg::EntityId t : Nearest(fixture, tail_query, 400)) {
    fixture.graph.AddEdge(0, 1, t);
  }
  for (kg::EntityId h : Nearest(fixture, head_query, 300)) {
    fixture.graph.AddEdge(h, 1, 1);
  }
  const uint64_t digest =
      DigestQueries(fixture, {tail_query, head_query, tail_query});
  EXPECT_EQ(Hex(digest), Hex(0xa10464ddc4b69152));
}

// Edges added after the engines and the tree exist: each query's best
// answer becomes a known fact and must drop out of the next answer.
TEST(EngineDigestEdgeCases, EdgeAddedAfterBuildIsPinned) {
  DigestFixture fixture;
  std::vector<data::Query> queries;
  util::Rng rng(22);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        {static_cast<kg::EntityId>(rng.NextU64() % kEntities),
         static_cast<kg::RelationId>(i % 2),
         i % 3 == 0 ? kg::Direction::kHead : kg::Direction::kTail});
  }
  index::RTreeConfig config;
  config.leaf_capacity = 16;
  config.fanout = 4;
  index::CrackingRTree tree(fixture.points.get(), config);
  const RTreeTopKEngine topk(&fixture.graph, &fixture.store, &fixture.jl,
                             &tree, /*eps=*/1.0, /*crack_after_query=*/true,
                             "crack");
  AnswerDigest digest;
  for (const data::Query& query : queries) {
    const TopKResult before = topk.TopKQuery(query, 10);
    ASSERT_FALSE(before.hits.empty());
    const kg::EntityId best = before.hits[0].entity;
    if (query.direction == kg::Direction::kTail) {
      ASSERT_TRUE(fixture.graph.AddEdge(query.anchor, query.relation, best));
    } else {
      ASSERT_TRUE(fixture.graph.AddEdge(best, query.relation, query.anchor));
    }
    const TopKResult after = topk.TopKQuery(query, 10);
    for (const TopKHit& hit : after.hits) EXPECT_NE(hit.entity, best);
    DigestTopK(before, digest);
    DigestTopK(after, digest);
  }
  // The grown graph through a fresh tree: aggregates included.
  const uint64_t queries_digest = DigestQueries(fixture, queries);
  digest.Add(queries_digest);
  EXPECT_EQ(Hex(digest.value()), Hex(0x51bc6bc7e232d6ba));
}

}  // namespace
}  // namespace vkg::query
