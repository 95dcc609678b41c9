// Tests for the VirtualKnowledgeGraph facade: build paths, validation,
// name-based queries, prediction, option normalization, new facts,
// index persistence, and agreement between the query paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/virtual_graph.h"
#include "data/movielens_gen.h"
#include "data/workload.h"

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

// Each case builds its own VKG: some add facts to the graph or load a
// saved index, so cases share no state.
class FacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::MovieLensConfig config;
    config.num_users = 800;
    config.num_movies = 400;
    config.seed = 81;
    ds_ = std::make_unique<data::Dataset>(data::GenerateMovieLensLike(config));
    VkgOptions options;
    options.method = index::MethodKind::kCracking;
    embedding::EmbeddingStore store = ds_->embeddings;
    auto built = VirtualKnowledgeGraph::BuildWithEmbeddings(
        &ds_->graph, std::move(store), options);
    ASSERT_TRUE(built.ok());
    vkg_ = std::move(built).value();

    data::WorkloadConfig wc;
    wc.num_queries = 5;
    wc.tail_fraction = 1.0;
    wc.only_relation = ds_->graph.relation_names().Lookup("likes");
    wc.seed = 82;
    queries_ = data::GenerateWorkload(ds_->graph, wc);
    ASSERT_FALSE(queries_.empty());
  }

  std::unique_ptr<data::Dataset> ds_;
  std::unique_ptr<VirtualKnowledgeGraph> vkg_;
  std::vector<data::Query> queries_;
};

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

TEST_F(FacadeTest, NewFactsAreSkippedImmediately) {
  const data::Query& q = queries_[2];
  auto before = vkg_->TopK(q, 3);
  ASSERT_FALSE(before.hits.empty());
  kg::EntityId predicted = before.hits[0].entity;
  // The user acts on the recommendation: the fact enters E.
  ds_->graph.AddEdge(q.anchor, q.relation, predicted);
  auto after = vkg_->TopK(q, 3);
  for (const auto& h : after.hits) EXPECT_NE(h.entity, predicted);
}

TEST_F(FacadeTest, IndexPersistenceThroughFacade) {
  // Warm the index, save, rebuild a fresh VKG, load: results and index
  // shape must match the warmed instance.
  for (const auto& q : queries_) vkg_->TopK(q, 10);
  auto warmed_stats = vkg_->IndexStats();
  std::string path =
      (std::filesystem::temp_directory_path() / "vkg_facade_index.bin")
          .string();
  ASSERT_TRUE(vkg_->SaveIndex(path).ok());

  VkgOptions options;
  options.method = index::MethodKind::kCracking;
  embedding::EmbeddingStore store = ds_->embeddings;
  auto fresh = VirtualKnowledgeGraph::BuildWithEmbeddings(
      &ds_->graph, std::move(store), options);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->IndexStats().num_nodes, 1u);
  ASSERT_TRUE((*fresh)->LoadIndex(path).ok());
  EXPECT_EQ((*fresh)->IndexStats().num_nodes, warmed_stats.num_nodes);

  for (const auto& q : queries_) {
    auto a = vkg_->TopK(q, 10);
    auto b = (*fresh)->TopK(q, 10);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t i = 0; i < a.hits.size(); ++i) {
      EXPECT_EQ(a.hits[i].entity, b.hits[i].entity);
    }
  }
  std::remove(path.c_str());
}

TEST_F(FacadeTest, PaddedMirrorSurvivesBuildAndQueries) {
  // The batch kernels and the server's workers read the padded SoA
  // mirror; no build path or facade query may drop it.
  const data::Query& q = queries_[0];
  const kg::EntityId movie = ds_->graph.EntitiesOfType("movie")[0];
  for (int m = 0; m <= static_cast<int>(index::MethodKind::kH2Alsh); ++m) {
    VkgOptions options;
    options.method = static_cast<index::MethodKind>(m);
    const std::string_view name = index::MethodName(options.method);
    auto vkg = VirtualKnowledgeGraph::BuildWithEmbeddings(
        &ds_->graph, ds_->embeddings, options);
    ASSERT_TRUE(vkg.ok()) << name;
    EXPECT_TRUE((*vkg)->embeddings().has_padded_mirror())
        << name << ": dropped by the build";
    (*vkg)->PredictProbability(q.anchor, q.relation, movie);
    (*vkg)->TopK(q, 5);
    EXPECT_TRUE((*vkg)->embeddings().has_padded_mirror())
        << name << ": dropped by a query";
  }
}

void ExpectSameHits(const query::TopKResult& a, const query::TopKResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t h = 0; h < a.hits.size(); ++h) {
    EXPECT_EQ(a.hits[h].entity, b.hits[h].entity) << "hit " << h;
    EXPECT_EQ(a.hits[h].distance, b.hits[h].distance) << "hit " << h;
  }
}

TEST_F(FacadeTest, EveryPathReturnsTheSameAnswer) {
  // Facade TopK, the BatchTopK slot and the engine the server computes
  // on must agree, before and after each query's top answer becomes a
  // fact (which every path must then skip).
  data::WorkloadConfig wc;
  wc.num_queries = 50;
  wc.seed = 83;
  const std::vector<data::Query> queries =
      data::GenerateWorkload(ds_->graph, wc);
  ASSERT_EQ(queries.size(), 50u);
  std::vector<kg::EntityId> added(queries.size(), kg::kInvalidEntity);
  for (int round = 0; round < 2; ++round) {
    // Warm until no query publishes a crack, so all paths read one tree.
    for (int pass = 0; pass < 10; ++pass) {
      const uint64_t before = vkg_->rtree().crack_generation();
      for (const data::Query& q : queries) vkg_->TopK(q, 10);
      if (vkg_->rtree().crack_generation() == before) break;
    }
    const uint64_t generation = vkg_->rtree().crack_generation();
    auto batch = vkg_->BatchTopK(queries, 10);
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "round " << round << " query "
                                        << i);
      query::QueryContext ctx;
      const query::TopKResult facade = vkg_->TopK(queries[i], 10);
      ASSERT_FALSE(facade.hits.empty());
      ASSERT_TRUE(batch[i].ok());
      ExpectSameHits(facade, *batch[i]);
      ExpectSameHits(facade,
                     vkg_->topk_engine().TopKQuery(queries[i], 10, ctx));
      for (const auto& hit : facade.hits) EXPECT_NE(hit.entity, added[i]);
      if (round == 0) added[i] = facade.hits[0].entity;
    }
    EXPECT_EQ(vkg_->rtree().crack_generation(), generation)
        << "the tree changed between paths";
    if (round == 1) break;
    for (size_t i = 0; i < queries.size(); ++i) {
      const data::Query& q = queries[i];
      if (q.direction == kg::Direction::kTail) {
        ds_->graph.AddEdge(q.anchor, q.relation, added[i]);
      } else {
        ds_->graph.AddEdge(added[i], q.relation, q.anchor);
      }
    }
  }
}

}  // namespace
}  // namespace vkg::core
