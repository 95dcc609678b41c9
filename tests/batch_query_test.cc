// Tests for the batched execution layer (query/batch_executor.h) and
// the distance kernels behind it: BatchTopK/BatchAggregate must return
// exactly what sequential per-query execution returns, for every engine
// kind, under both 1-thread and many-thread pools; the blocked and
// gather kernels must agree with each other bit-for-bit and with the
// scalar kernel up to summation-order rounding.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "data/movielens_gen.h"
#include "data/workload.h"
#include "embedding/batch_kernels.h"
#include "embedding/vector_ops.h"
#include "index/cracking_rtree.h"
#include "index/phtree.h"
#include "query/batch_executor.h"
#include "query/topk_engine.h"
#include "transform/jl_transform.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace vkg::query {
namespace {

class BatchQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 1200;
    config.num_movies = 600;
    config.seed = 61;
    ds_ = new data::Dataset(data::GenerateMovieLensLike(config));
    data::WorkloadConfig wc;
    wc.num_queries = 24;
    wc.seed = 62;
    workload_ =
        new std::vector<data::Query>(data::GenerateWorkload(ds_->graph, wc));
  }
  static void TearDownTestSuite() {
    delete ds_;
    delete workload_;
  }

  // Batch results must be *identical* to sequential ones, not merely
  // close: both paths evaluate every distance through the same per-row
  // kernel, so even the tie-breaking inputs match bit-for-bit.
  // `compare_work` additionally requires equal candidates_examined; skip
  // it for online-cracking engines, where the crack schedule (and hence
  // the tree shape steering the traversal) differs run to run even
  // though the answers cannot.
  static void ExpectIdentical(const std::vector<TopKResult>& batch,
                              const std::vector<TopKResult>& seq,
                              bool compare_work = true) {
    ASSERT_EQ(batch.size(), seq.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].hits.size(), seq[i].hits.size()) << "query " << i;
      if (compare_work) {
        EXPECT_EQ(batch[i].candidates_examined, seq[i].candidates_examined)
            << "query " << i;
      }
      for (size_t h = 0; h < batch[i].hits.size(); ++h) {
        EXPECT_EQ(batch[i].hits[h].entity, seq[i].hits[h].entity)
            << "query " << i << " hit " << h;
        EXPECT_EQ(batch[i].hits[h].distance, seq[i].hits[h].distance)
            << "query " << i << " hit " << h;
        EXPECT_EQ(batch[i].hits[h].probability, seq[i].hits[h].probability)
            << "query " << i << " hit " << h;
      }
    }
  }

  // Per-slot statuses must all be OK for healthy queries; unwrap them so
  // the parity checks compare plain results.
  static std::vector<TopKResult> Unwrap(
      std::vector<util::Result<TopKResult>> batch) {
    std::vector<TopKResult> out;
    out.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(batch[i].ok())
          << "query " << i << ": " << batch[i].status().ToString();
      if (batch[i].ok()) out.push_back(std::move(batch[i].value()));
    }
    return out;
  }

  static std::vector<TopKResult> Sequential(const TopKEngine& engine,
                                            size_t k) {
    std::vector<TopKResult> out;
    out.reserve(workload_->size());
    for (const data::Query& q : *workload_) {
      out.push_back(engine.TopKQuery(q, k));
    }
    return out;
  }

  static void CheckEngineParity(const TopKEngine& engine, size_t k) {
    std::vector<TopKResult> seq = Sequential(engine, k);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      util::ThreadPool pool(threads);
      std::vector<TopKResult> batch =
          Unwrap(BatchTopK(engine, *workload_, k, &pool));
      ExpectIdentical(batch, seq);
    }
    // No pool at all: sequential path with one reused context.
    ExpectIdentical(Unwrap(BatchTopK(engine, *workload_, k, nullptr)), seq);
  }

  static data::Dataset* ds_;
  static std::vector<data::Query>* workload_;
};
data::Dataset* BatchQueryTest::ds_ = nullptr;
std::vector<data::Query>* BatchQueryTest::workload_ = nullptr;

TEST_F(BatchQueryTest, LinearEngineBatchMatchesSequential) {
  LinearTopKEngine engine(&ds_->graph, &ds_->embeddings);
  EXPECT_TRUE(engine.SupportsConcurrentQueries());
  CheckEngineParity(engine, 10);
}

TEST_F(BatchQueryTest, BulkRTreeEngineBatchMatchesSequential) {
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 63);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  tree.BuildFull();
  RTreeTopKEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree,
                         /*eps=*/1.0, /*crack_after_query=*/false, "bulk");
  EXPECT_TRUE(engine.SupportsConcurrentQueries());
  CheckEngineParity(engine, 10);
}

TEST_F(BatchQueryTest, CrackingRTreeEngineBatchMatchesSequential) {
  // A cracking engine mutates the shared tree per query, but the tree
  // synchronizes itself, so BatchTopK runs the parallel path. The crack
  // *order* (and hence tree shape) differs between runs — answers never
  // do: cracking refines cost, not results. Two fresh engines fed the
  // same queries must answer identically regardless of schedule.
  auto make = [&](auto&& run) {
    transform::JlTransform jl(ds_->embeddings.dim(), 3, 64);
    index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
    index::CrackingRTree tree(&points, index::RTreeConfig{});
    RTreeTopKEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree, 1.0,
                           /*crack_after_query=*/true, "crack");
    EXPECT_TRUE(engine.SupportsConcurrentQueries());
    return run(engine);
  };
  std::vector<TopKResult> seq =
      make([&](const TopKEngine& e) { return Sequential(e, 10); });
  util::ThreadPool pool(8);
  std::vector<TopKResult> batch = make([&](const TopKEngine& e) {
    return Unwrap(BatchTopK(e, *workload_, 10, &pool));
  });
  ExpectIdentical(batch, seq, /*compare_work=*/false);
}

TEST_F(BatchQueryTest, PhTreeEngineBatchMatchesSequential) {
  const auto& store = ds_->embeddings;
  index::PhTree tree(store.EntityBlock(), store.num_entities(), store.dim());
  PhTreeTopKEngine engine(&ds_->graph, &store, &tree);
  EXPECT_TRUE(engine.SupportsConcurrentQueries());
  CheckEngineParity(engine, 10);
}

TEST_F(BatchQueryTest, H2AlshEngineBatchMatchesSequential) {
  index::H2AlshConfig config;
  H2AlshTopKEngine engine(&ds_->graph, &ds_->embeddings, config);
  EXPECT_TRUE(engine.SupportsConcurrentQueries());
  CheckEngineParity(engine, 10);
}

// Many queries against one shared const engine on many threads; run
// under TSan (cmake -DCMAKE_CXX_FLAGS=-fsanitize=thread) to prove the
// engines really hold no shared mutable per-query state.
TEST_F(BatchQueryTest, ConcurrentStressSharedEngine) {
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 65);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  tree.BuildFull();
  RTreeTopKEngine rtree_engine(&ds_->graph, &ds_->embeddings, &jl, &tree,
                               1.0, false, "bulk");
  LinearTopKEngine linear_engine(&ds_->graph, &ds_->embeddings);

  // Replicate the workload so every shard gets several queries.
  std::vector<data::Query> many;
  for (int rep = 0; rep < 8; ++rep) {
    many.insert(many.end(), workload_->begin(), workload_->end());
  }
  util::ThreadPool pool(8);
  for (const TopKEngine* engine :
       {static_cast<const TopKEngine*>(&rtree_engine),
        static_cast<const TopKEngine*>(&linear_engine)}) {
    std::vector<TopKResult> batch =
        Unwrap(BatchTopK(*engine, many, 5, &pool));
    ASSERT_EQ(batch.size(), many.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      // Identical queries (i and i mod workload size) must get
      // identical answers regardless of which thread ran them.
      const TopKResult& first = batch[i % workload_->size()];
      ASSERT_EQ(batch[i].hits.size(), first.hits.size());
      for (size_t h = 0; h < batch[i].hits.size(); ++h) {
        EXPECT_EQ(batch[i].hits[h].entity, first.hits[h].entity);
        EXPECT_EQ(batch[i].hits[h].distance, first.hits[h].distance);
      }
    }
  }
}

TEST_F(BatchQueryTest, BatchAggregateMatchesSequential) {
  transform::JlTransform jl(ds_->embeddings.dim(), 3, 66);
  index::PointSet points(jl.ApplyToEntities(ds_->embeddings), 3);
  index::CrackingRTree tree(&points, index::RTreeConfig{});
  tree.BuildFull();
  AggregateEngine engine(&ds_->graph, &ds_->embeddings, &jl, &tree, 1.0,
                         /*crack_after_query=*/false);

  std::vector<AggregateSpec> specs;
  for (size_t i = 0; i < 12; ++i) {
    AggregateSpec spec;
    spec.query = (*workload_)[i];
    spec.kind = (i % 2 == 0) ? AggKind::kCount : AggKind::kAvg;
    spec.attribute = "year";
    spec.prob_threshold = 0.05;
    spec.sample_size = (i % 3 == 0) ? 0 : 50;
    specs.push_back(spec);
  }

  std::vector<util::Result<AggregateResult>> seq;
  for (const AggregateSpec& spec : specs) seq.push_back(engine.Aggregate(spec));

  for (size_t threads : {size_t{1}, size_t{8}}) {
    util::ThreadPool pool(threads);
    auto batch = BatchAggregate(engine, specs, &pool);
    ASSERT_EQ(batch.size(), seq.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].ok(), seq[i].ok()) << "spec " << i;
      if (!batch[i].ok()) continue;
      EXPECT_EQ(batch[i].value().value, seq[i].value().value) << "spec " << i;
      EXPECT_EQ(batch[i].value().accessed, seq[i].value().accessed);
      EXPECT_EQ(batch[i].value().estimated_total,
                seq[i].value().estimated_total);
    }
  }
}

// A malformed query must fail in its own slot only: every other query in
// the batch still gets its normal answer (satellite of the resilience
// layer; the full failure matrix lives in resilience_test.cc).
TEST_F(BatchQueryTest, InvalidQueryFailsOnlyItsSlot) {
  LinearTopKEngine engine(&ds_->graph, &ds_->embeddings);
  std::vector<TopKResult> seq = Sequential(engine, 5);

  std::vector<data::Query> queries = *workload_;
  const size_t bad = queries.size() / 2;
  queries[bad].anchor =
      static_cast<kg::EntityId>(ds_->graph.num_entities());  // out of range

  {
    auto batch = BatchTopK(engine, queries, 5, nullptr);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (i == bad) {
        ASSERT_FALSE(batch[i].ok());
        EXPECT_EQ(batch[i].status().code(),
                  util::StatusCode::kInvalidArgument);
      } else {
        ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
        ASSERT_EQ(batch[i]->hits.size(), seq[i].hits.size());
        EXPECT_EQ(batch[i]->hits[0].entity, seq[i].hits[0].entity);
      }
    }
  }
  util::ThreadPool pool(8);
  auto batch = BatchTopK(engine, queries, 5, &pool);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_FALSE(batch[bad].ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i != bad) {
      EXPECT_TRUE(batch[i].ok());
    }
  }
}

// --- kernels -------------------------------------------------------------

TEST(BatchKernelTest, BlockedGatherAndScalarAgree) {
  constexpr size_t kN = 1003;  // odd size: exercises remainder handling
  constexpr size_t kDim = 37;  // not a multiple of any SIMD width
  util::Rng rng(67);
  embedding::EmbeddingStore store(kN, 2, kDim);
  store.RandomInitialize(rng);
  std::vector<float> q(kDim);
  for (float& v : q) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

  std::vector<double> blocked(kN), gathered(kN);
  embedding::BatchL2DistanceSquared(q, store, 0, kN, blocked.data());
  std::vector<uint32_t> ids(kN);
  for (size_t i = 0; i < kN; ++i) {
    ids[i] = static_cast<uint32_t>(kN - 1 - i);  // reversed order
  }
  embedding::GatherL2DistanceSquared(q, store, ids, gathered.data());

  for (size_t e = 0; e < kN; ++e) {
    // Blocked and gather share the per-row kernel: exact agreement.
    EXPECT_EQ(gathered[e], blocked[ids[e]]) << "row " << e;
    // The scalar kernel sums in a different association: agreement up
    // to rounding only.
    double scalar = embedding::L2DistanceSquared(
        store.Entity(static_cast<uint32_t>(e)), q);
    EXPECT_NEAR(blocked[e], scalar, 1e-12 * std::max(scalar, 1.0))
        << "row " << e;
  }
}

TEST(BatchKernelTest, EmptyAndTinyInputs) {
  constexpr size_t kDim = 5;
  util::Rng rng(68);
  embedding::EmbeddingStore store(3, 1, kDim);
  store.RandomInitialize(rng);
  std::vector<float> q(kDim, 0.5f);

  embedding::BatchL2DistanceSquared(q, store, 0, 0, nullptr);  // no-op
  double one = -1.0;
  embedding::BatchL2DistanceSquared(q, store, 2, 1, &one);
  EXPECT_NEAR(one, embedding::L2DistanceSquared(store.Entity(2), q), 1e-12);

  std::vector<uint32_t> ids;
  embedding::GatherL2DistanceSquared(q, store, ids, nullptr);  // no-op
}

}  // namespace
}  // namespace vkg::query
