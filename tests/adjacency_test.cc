// Tests for the graph's per-(entity, relation) neighbour lists
// (KnowledgeGraph::Known), which the E'-only skip stamps from.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "data/movielens_gen.h"
#include "kg/graph.h"

namespace vkg::kg {
namespace {

std::vector<EntityId> AsVector(std::span<const EntityId> ids) {
  return {ids.begin(), ids.end()};
}

TEST(AdjacencyTest, SmallGraphNeighborLists) {
  KnowledgeGraph g;
  g.AddEntities(5, "n");
  RelationId r0 = g.AddRelation("r0");
  RelationId r1 = g.AddRelation("r1");
  g.AddEdge(0, r0, 2);
  g.AddEdge(0, r0, 1);
  g.AddEdge(0, r1, 3);
  g.AddEdge(4, r0, 2);

  EXPECT_EQ(AsVector(g.Known(0, r0, Direction::kTail)),
            (std::vector<EntityId>{1, 2}));  // ascending
  EXPECT_EQ(AsVector(g.Known(0, r1, Direction::kTail)),
            (std::vector<EntityId>{3}));
  EXPECT_TRUE(g.Known(1, r0, Direction::kTail).empty());
  EXPECT_TRUE(g.Known(0, 99, Direction::kTail).empty());

  EXPECT_EQ(AsVector(g.Known(2, r0, Direction::kHead)),
            (std::vector<EntityId>{0, 4}));
  EXPECT_EQ(AsVector(g.Known(3, r1, Direction::kHead)),
            (std::vector<EntityId>{0}));
  EXPECT_TRUE(g.Known(0, r0, Direction::kHead).empty());
}

TEST(AdjacencyTest, LiveAfterAddEdge) {
  KnowledgeGraph g;
  g.AddEntities(4, "n");
  RelationId r = g.AddRelation("r");
  g.AddEdge(0, r, 1);
  EXPECT_EQ(g.Known(0, r, Direction::kTail).size(), 1u);
  g.AddEdge(0, r, 2);
  EXPECT_EQ(AsVector(g.Known(0, r, Direction::kTail)),
            (std::vector<EntityId>{1, 2}));
  EXPECT_EQ(AsVector(g.Known(2, r, Direction::kHead)),
            (std::vector<EntityId>{0}));
  EXPECT_FALSE(g.AddEdge(0, r, 2));  // a duplicate changes nothing
  EXPECT_EQ(g.Known(0, r, Direction::kTail).size(), 2u);
}

TEST(AdjacencyTest, MaskRandomEdgesRemovesNeighbors) {
  KnowledgeGraph g;
  g.AddEntities(6, "n");
  RelationId r = g.AddRelation("r");
  for (EntityId t = 1; t < 6; ++t) g.AddEdge(0, r, t);
  util::Rng rng(5);
  const std::vector<Triple> masked = g.MaskRandomEdges(2, rng);
  ASSERT_EQ(masked.size(), 2u);
  std::span<const EntityId> tails = g.Known(0, r, Direction::kTail);
  EXPECT_EQ(tails.size(), 3u);
  EXPECT_TRUE(std::is_sorted(tails.begin(), tails.end()));
  for (const Triple& t : masked) {
    EXPECT_EQ(std::count(tails.begin(), tails.end(), t.tail), 0);
    EXPECT_TRUE(g.Known(t.tail, r, Direction::kHead).empty());
  }
}

TEST(AdjacencyTest, EmptyGraph) {
  KnowledgeGraph g;
  EXPECT_TRUE(g.Known(0, 0, Direction::kTail).empty());
  EXPECT_TRUE(g.Known(0, 0, Direction::kHead).empty());
}

TEST(AdjacencyTest, ConsistentWithTripleStoreOnGeneratedData) {
  data::MovieLensConfig config;
  config.num_users = 400;
  config.num_movies = 200;
  config.seed = 111;
  data::Dataset ds = data::GenerateMovieLensLike(config);
  const KnowledgeGraph& g = ds.graph;

  // Every listed neighbor is a fact, each list strictly ascending, and
  // the counts match a brute-force pass.
  size_t total_tails = 0;
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      std::span<const EntityId> tails = g.Known(e, r, Direction::kTail);
      std::span<const EntityId> heads = g.Known(e, r, Direction::kHead);
      EXPECT_TRUE(std::adjacent_find(tails.begin(), tails.end(),
                                     std::greater_equal<>()) == tails.end());
      EXPECT_TRUE(std::adjacent_find(heads.begin(), heads.end(),
                                     std::greater_equal<>()) == heads.end());
      for (EntityId t : tails) EXPECT_TRUE(g.HasEdge(e, r, t));
      for (EntityId h : heads) EXPECT_TRUE(g.HasEdge(h, r, e));
      total_tails += tails.size();
    }
  }
  EXPECT_EQ(total_tails, g.num_edges());
  EXPECT_GT(g.triples().MemoryBytes(), 0u);
}

TEST(AdjacencyTest, DegreesSumToGraphDegrees) {
  data::MovieLensConfig config;
  config.num_users = 300;
  config.num_movies = 150;
  config.seed = 112;
  data::Dataset ds = data::GenerateMovieLensLike(config);
  const KnowledgeGraph& g = ds.graph;
  auto deg = g.Degrees();
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    size_t sum = 0;
    for (RelationId r = 0; r < g.num_relations(); ++r) {
      sum += g.Known(e, r, Direction::kTail).size() +
             g.Known(e, r, Direction::kHead).size();
    }
    EXPECT_EQ(sum, deg[e]);
  }
}

}  // namespace
}  // namespace vkg::kg
