// Tests for the VirtualKnowledgeGraph facade: build paths, validation,
// name-based queries, prediction, and option normalization.

#include <gtest/gtest.h>

#include "core/virtual_graph.h"
#include "data/movielens_gen.h"

namespace vkg::core {
namespace {

kg::KnowledgeGraph TinyGraph() {
  kg::KnowledgeGraph g;
  g.AddEntity("a", "user");
  g.AddEntity("b", "user");
  g.AddEntity("x", "item");
  g.AddEntity("y", "item");
  g.AddEntity("z", "item");
  kg::RelationId likes = g.AddRelation("likes");
  g.AddEdge(0, likes, 2);
  g.AddEdge(0, likes, 3);
  g.AddEdge(1, likes, 3);
  g.AddEdge(1, likes, 4);
  return g;
}

TEST(OptionsTest, NormalizedSyncsSplitChoices) {
  VkgOptions o;
  o.method = index::MethodKind::kCracking4;
  o.rtree.split_choices = 1;
  EXPECT_EQ(o.Normalized().rtree.split_choices, 4u);
  o.method = index::MethodKind::kBulkRTree;
  o.rtree.split_choices = 3;
  EXPECT_EQ(o.Normalized().rtree.split_choices, 3u);  // untouched
}

TEST(MethodNameTest, ParseMethodInvertsMethodName) {
  for (int k = 0; k <= static_cast<int>(index::MethodKind::kH2Alsh); ++k) {
    const auto kind = static_cast<index::MethodKind>(k);
    auto parsed = index::ParseMethod(index::MethodName(kind));
    ASSERT_TRUE(parsed.ok()) << index::MethodName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(*index::ParseMethod("crack"), index::MethodKind::kCracking);
}

TEST(MethodNameTest, ParseMethodRejectsUnknownNames) {
  for (const char* name : {"", "crack2", "bulk", "noindex", "unknown"}) {
    EXPECT_EQ(index::ParseMethod(name).status().code(),
              util::StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(MethodNameTest, OnlyCrackingMethodsCrackOnline) {
  using index::MethodKind;
  for (MethodKind kind : {MethodKind::kCracking, MethodKind::kCracking2,
                          MethodKind::kCracking3, MethodKind::kCracking4}) {
    EXPECT_TRUE(index::CracksOnline(kind)) << index::MethodName(kind);
  }
  for (MethodKind kind : {MethodKind::kNoIndex, MethodKind::kPhTree,
                          MethodKind::kBulkRTree, MethodKind::kH2Alsh}) {
    EXPECT_FALSE(index::CracksOnline(kind)) << index::MethodName(kind);
  }
}

TEST(VirtualGraphTest, BuildValidation) {
  kg::KnowledgeGraph g = TinyGraph();
  VkgOptions options;

  EXPECT_FALSE(
      VirtualKnowledgeGraph::BuildWithEmbeddings(nullptr, {}, options).ok());

  embedding::EmbeddingStore too_small(2, 1, 8);
  auto r =
      VirtualKnowledgeGraph::BuildWithEmbeddings(&g, too_small, options);
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);

  embedding::EmbeddingStore fits(5, 1, 8);
  options.alpha = 0;
  EXPECT_FALSE(
      VirtualKnowledgeGraph::BuildWithEmbeddings(&g, fits, options).ok());
  options.alpha = index::kMaxDim + 1;
  EXPECT_FALSE(
      VirtualKnowledgeGraph::BuildWithEmbeddings(&g, fits, options).ok());
  options.alpha = 3;
  options.eps = 0.0;
  EXPECT_FALSE(
      VirtualKnowledgeGraph::BuildWithEmbeddings(&g, fits, options).ok());
}

TEST(VirtualGraphTest, TrainingPathWorks) {
  kg::KnowledgeGraph g = TinyGraph();
  VkgOptions options;
  options.alpha = 2;
  options.trainer.dim = 8;
  options.trainer.epochs = 50;
  options.trainer.num_threads = 1;
  auto vkg = VirtualKnowledgeGraph::BuildWithTraining(&g, options);
  ASSERT_TRUE(vkg.ok()) << vkg.status().ToString();
  auto result = (*vkg)->TopKTails(0, 0, 2);
  EXPECT_LE(result.hits.size(), 2u);
  // "a" already likes x and y; they must not be returned.
  for (const auto& h : result.hits) {
    EXPECT_NE(h.entity, 2u);
    EXPECT_NE(h.entity, 3u);
    EXPECT_NE(h.entity, 0u);
  }
}

TEST(VirtualGraphTest, TrainingOnEmptyGraphFails) {
  kg::KnowledgeGraph g;
  EXPECT_FALSE(VirtualKnowledgeGraph::BuildWithTraining(&g, {}).ok());
}

class FacadeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 800;
    config.num_movies = 400;
    config.seed = 71;
    ds_ = new data::Dataset(data::GenerateMovieLensLike(config));
    VkgOptions options;
    options.method = index::MethodKind::kCracking;
    embedding::EmbeddingStore store = ds_->embeddings;
    auto built = VirtualKnowledgeGraph::BuildWithEmbeddings(
        &ds_->graph, std::move(store), options);
    ASSERT_TRUE(built.ok());
    vkg_ = std::move(built).value().release();
  }
  static void TearDownTestSuite() {
    delete vkg_;
    delete ds_;
  }
  static data::Dataset* ds_;
  static VirtualKnowledgeGraph* vkg_;
};
data::Dataset* FacadeTest::ds_ = nullptr;
VirtualKnowledgeGraph* FacadeTest::vkg_ = nullptr;

TEST_F(FacadeTest, HeadsAndTailsDiffer) {
  kg::RelationId likes = ds_->graph.relation_names().Lookup("likes");
  kg::EntityId user = ds_->graph.EntitiesOfType("user")[0];
  kg::EntityId movie = ds_->graph.EntitiesOfType("movie")[0];
  auto tails = vkg_->TopKTails(user, likes, 5);
  auto heads = vkg_->TopKHeads(movie, likes, 5);
  // Tail queries return movies; head queries return users.
  for (const auto& h : tails.hits) {
    EXPECT_EQ(ds_->graph.EntityTypeName(h.entity), "movie");
  }
  for (const auto& h : heads.hits) {
    EXPECT_EQ(ds_->graph.EntityTypeName(h.entity), "user");
  }
}

TEST_F(FacadeTest, PredictProbability) {
  kg::RelationId likes = ds_->graph.relation_names().Lookup("likes");
  // An existing edge has probability 1.
  kg::Triple edge;
  for (const kg::Triple& t : ds_->graph.triples().triples()) {
    if (t.relation == likes) {
      edge = t;
      break;
    }
  }
  EXPECT_DOUBLE_EQ(
      vkg_->PredictProbability(edge.head, likes, edge.tail), 1.0);
  // The top predicted tail should score higher than a random far entity.
  auto top = vkg_->TopKTails(edge.head, likes, 1);
  ASSERT_FALSE(top.hits.empty());
  double p_top =
      vkg_->PredictProbability(edge.head, likes, top.hits[0].entity);
  EXPECT_DOUBLE_EQ(p_top, 1.0);  // closest entity calibrates to 1
}

TEST_F(FacadeTest, IndexStatsEvolve) {
  size_t before = vkg_->IndexStats().num_nodes;
  kg::RelationId likes = ds_->graph.relation_names().Lookup("likes");
  for (kg::EntityId u : ds_->graph.EntitiesOfType("user")) {
    vkg_->TopKTails(u, likes, 5);
    if (u > 20) break;
  }
  EXPECT_GE(vkg_->IndexStats().num_nodes, before);
  EXPECT_GT(vkg_->IndexStats().base_array_bytes, 0u);
}

TEST_F(FacadeTest, IntrospectionAccessors) {
  EXPECT_EQ(&vkg_->graph(), &ds_->graph);
  EXPECT_EQ(vkg_->embeddings().dim(), ds_->embeddings.dim());
  EXPECT_EQ(vkg_->jl().output_dim(), vkg_->options().alpha);
}

TEST_F(FacadeTest, MaterializeTopEdges) {
  kg::RelationId likes = ds_->graph.relation_names().Lookup("likes");
  auto users = ds_->graph.EntitiesOfType("user");
  std::vector<kg::EntityId> heads(users.begin(), users.begin() + 5);
  auto edges = vkg_->MaterializeTopEdges(heads, likes, 3);
  EXPECT_LE(edges.size(), 15u);
  EXPECT_GE(edges.size(), 5u);  // every user should get some prediction
  for (const auto& e : edges) {
    EXPECT_EQ(e.triple.relation, likes);
    EXPECT_GT(e.probability, 0.0);
    EXPECT_LE(e.probability, 1.0);
    // Materialized edges are genuinely new.
    EXPECT_FALSE(ds_->graph.HasEdge(e.triple.head, likes, e.triple.tail));
  }
}

}  // namespace
}  // namespace vkg::core
