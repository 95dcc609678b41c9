// Multi-threaded chaos harness for concurrent online cracking: many
// threads storm one shared CrackingRTree (queries crack it while others
// traverse), with failpoints armed mid-storm, and every answer is
// checked against a single-threaded oracle. Run under TSan and ASan in
// CI; the thread count is overridable via VKG_CHAOS_THREADS so CI can
// sweep schedules.
//
// The load-bearing invariant: cracking refines *cost*, never *answers*.
// Whatever order concurrent cracks land in — including cracks abandoned
// by failpoints or deadlines — a query's hits must equal those of a
// sequential engine over the same points.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "data/movielens_gen.h"
#include "data/workload.h"
#include "embedding/vector_ops.h"
#include "core/virtual_graph.h"
#include "index/cracking_rtree.h"
#include "query/aggregate_engine.h"
#include "query/batch_executor.h"
#include "query/topk_engine.h"
#include "transform/jl_transform.h"
#include "util/epoch.h"
#include "util/failpoint.h"

namespace vkg::query {
namespace {

size_t ChaosThreads() {
  const char* env = std::getenv("VKG_CHAOS_THREADS");
  if (env != nullptr && env[0] != '\0') {
    long n = std::atol(env);
    if (n >= 1) return static_cast<size_t>(n);
  }
  return 4;
}

class ConcurrentCrackingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 1000;
    config.num_movies = 500;
    config.seed = 71;
    ds_ = new data::Dataset(data::GenerateMovieLensLike(config));
    data::WorkloadConfig wc;
    wc.num_queries = 48;
    wc.seed = 72;
    workload_ =
        new std::vector<data::Query>(data::GenerateWorkload(ds_->graph, wc));
  }
  static void TearDownTestSuite() {
    delete ds_;
    delete workload_;
  }
  void TearDown() override { util::FailPointRegistry::Instance().Clear(); }

  struct Rig {
    transform::JlTransform jl;
    index::PointSet points;
    index::CrackingRTree tree;
    RTreeTopKEngine engine;

    explicit Rig(const data::Dataset& ds, uint64_t jl_seed = 73)
        : jl(ds.embeddings.dim(), 3, jl_seed),
          points(jl.ApplyToEntities(ds.embeddings), 3),
          tree(&points, index::RTreeConfig{}),
          engine(&ds.graph, &ds.embeddings, &jl, &tree, /*eps=*/1.0,
                 /*crack_after_query=*/true, "crack") {}
  };

  // Every thread answers the WHOLE workload (maximal overlap: the same
  // regions get cracked, coalesced, and re-traversed concurrently);
  // thread 0's answers are returned for oracle comparison.
  static std::vector<TopKResult> Storm(const Rig& rig, size_t threads,
                                       size_t k) {
    std::vector<TopKResult> first(workload_->size());
    std::atomic<bool> failed{false};
    std::vector<std::thread> crew;
    crew.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      crew.emplace_back([&, t] {
        QueryContext ctx;
        for (size_t i = 0; i < workload_->size(); ++i) {
          // Stagger starting offsets so threads collide on different
          // regions at the same instant.
          size_t j = (i + t * 7) % workload_->size();
          ctx.control().ResetForQuery();
          TopKResult r = rig.engine.TopKQuery((*workload_)[j], k, ctx);
          if (r.hits.empty()) failed.store(true);
          if (t == 0) first[j] = std::move(r);
        }
      });
    }
    for (std::thread& th : crew) th.join();
    EXPECT_FALSE(failed.load()) << "a storm query returned no hits";
    return first;
  }

  static void ExpectSameAnswers(const std::vector<TopKResult>& got,
                                const std::vector<TopKResult>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].hits.size(), want[i].hits.size()) << "query " << i;
      for (size_t h = 0; h < got[i].hits.size(); ++h) {
        EXPECT_EQ(got[i].hits[h].entity, want[i].hits[h].entity)
            << "query " << i << " hit " << h;
        EXPECT_NEAR(got[i].hits[h].distance, want[i].hits[h].distance, 1e-9)
            << "query " << i << " hit " << h;
      }
    }
  }

  static data::Dataset* ds_;
  static std::vector<data::Query>* workload_;
};
data::Dataset* ConcurrentCrackingTest::ds_ = nullptr;
std::vector<data::Query>* ConcurrentCrackingTest::workload_ = nullptr;

TEST_F(ConcurrentCrackingTest, StormMatchesSequentialOracle) {
  // Oracle: a fresh tree over the same transform, answered one query at
  // a time. The storm's tree shape will differ (crack order is
  // nondeterministic) — the answers must not.
  Rig oracle(*ds_);
  std::vector<TopKResult> want;
  want.reserve(workload_->size());
  for (const data::Query& q : *workload_) {
    want.push_back(oracle.engine.TopKQuery(q, 10));
  }

  Rig shared(*ds_);
  std::vector<TopKResult> got = Storm(shared, ChaosThreads(), 10);
  ExpectSameAnswers(got, want);

  index::IndexStats stats = shared.tree.Stats();
  EXPECT_GT(stats.crack_publishes, 0u);
  // Each query issues exactly one Crack call, and every call is counted
  // exactly once as published, coalesced, or abandoned.
  EXPECT_EQ(stats.crack_publishes + stats.coalesced_cracks +
                stats.abandoned_cracks,
            ChaosThreads() * workload_->size());
}

TEST_F(ConcurrentCrackingTest, StormSurvivesFailpointsArmedMidStorm) {
  Rig oracle(*ds_);
  std::vector<TopKResult> want;
  for (const data::Query& q : *workload_) {
    want.push_back(oracle.engine.TopKQuery(q, 10));
  }

  Rig shared(*ds_);
  // Arm from a separate thread WHILE the storm runs: publishes stall
  // (crack waiters queue behind the held writer mutex; readers sail
  // past), then whole cracks abandon, then splits abandon, then
  // everything heals.
  std::thread arsonist([] {
    auto& reg = util::FailPointRegistry::Instance();
    ASSERT_TRUE(
        reg.ConfigureSite("cracking.publish", "2*delay(2),4*fail,off").ok());
    ASSERT_TRUE(reg.ConfigureSite("cracking.split", "8*off,4*fail,off").ok());
  });
  std::vector<TopKResult> got = Storm(shared, ChaosThreads(), 10);
  arsonist.join();

  // Abandoned cracks leave a less-refined tree, never a wrong one.
  ExpectSameAnswers(got, want);
}

TEST_F(ConcurrentCrackingTest, DeadlineStormDegradesInsteadOfStalling) {
  // A stalled publish holds the writer mutex while every other
  // thread's crack waits; with a deadline armed those waiters must give
  // up (abandoned / coalesced), not stall the storm. Answers within the
  // certified radius stay correct — verified against the exact scan.
  Rig shared(*ds_);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("cracking.publish", "delay(1)")
                  .ok());
  LinearTopKEngine truth(&ds_->graph, &ds_->embeddings);

  const size_t threads = ChaosThreads();
  const size_t k = 10;
  std::vector<std::thread> crew;
  std::atomic<size_t> checked{0};
  for (size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      QueryContext ctx;
      for (size_t i = 0; i < workload_->size(); ++i) {
        const data::Query& q = (*workload_)[(i + t * 5) % workload_->size()];
        ctx.control().ResetForQuery();
        ctx.control().set_deadline(util::Deadline::AfterMillis(2.0));
        TopKResult r = shared.engine.TopKQuery(q, k, ctx);
        EXPECT_FALSE(r.hits.empty());

        // Soundness of the (possibly degraded) answer: every entity
        // whose S2 distance is inside the certified radius and whose S1
        // distance beats the returned k-th must have been returned. A
        // query stopped before its first frontier pop certifies radius
        // 0 — nothing to verify beyond the non-empty answer above.
        const double certified = r.quality.certified_radius;
        if (certified <= 0.0) continue;
        std::vector<float> q_s1 = ds_->embeddings.QueryCenter(
            q.anchor, q.relation, q.direction);
        index::Point q_s2 =
            index::Point::FromSpan(shared.jl.Apply(q_s1));
        auto skip = MakeSkipFn(ds_->graph, q);
        const double kth = r.hits.size() < k
                               ? std::numeric_limits<double>::infinity()
                               : r.hits.back().distance;
        for (uint32_t e = 0; e < ds_->embeddings.num_entities(); ++e) {
          if (skip(e)) continue;
          double s2 =
              std::sqrt(shared.points.DistSquared(e, q_s2.AsSpan()));
          if (s2 >= certified - 1e-6) continue;
          double s1 = embedding::L2Distance(ds_->embeddings.Entity(e),
                                            q_s1);
          if (s1 >= kth - 1e-6 * (1.0 + kth)) continue;
          bool found = false;
          for (const TopKHit& h : r.hits) found |= (h.entity == e);
          EXPECT_TRUE(found)
              << "entity " << e << " (S2 " << s2 << " < certified "
              << certified << ", S1 " << s1 << " < kth " << kth
              << ") missing from degraded result";
        }
        checked.fetch_add(1);
      }
    });
  }
  for (std::thread& th : crew) th.join();
  // Most 2ms queries get past the first pop; require that the property
  // was actually exercised, not that every query certified something.
  EXPECT_GT(checked.load(), 0u);
}

TEST_F(ConcurrentCrackingTest, MixedTopKAndAggregateStorm) {
  // Top-k and aggregate threads share the tree; aggregates take nested
  // read pins (their d_min probe runs Algorithm 3's core under the
  // aggregate's pin) — the re-entrant epoch pin must nest cleanly.
  Rig shared(*ds_);
  AggregateEngine agg(&ds_->graph, &ds_->embeddings, &shared.jl,
                      &shared.tree, /*eps=*/1.0,
                      /*crack_after_query=*/true);
  const size_t threads = std::max<size_t>(2, ChaosThreads());
  std::vector<std::thread> crew;
  std::atomic<size_t> agg_failures{0};
  for (size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      QueryContext ctx;
      for (size_t i = 0; i < workload_->size(); ++i) {
        const data::Query& q = (*workload_)[(i + t * 3) % workload_->size()];
        ctx.control().ResetForQuery();
        if (t % 2 == 0) {
          TopKResult r = shared.engine.TopKQuery(q, 8, ctx);
          EXPECT_FALSE(r.hits.empty());
        } else {
          AggregateSpec spec;
          spec.query = q;
          spec.kind = AggKind::kCount;
          spec.prob_threshold = 0.2;
          auto r = agg.Aggregate(spec, ctx);
          if (!r.ok()) agg_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : crew) th.join();
  EXPECT_EQ(agg_failures.load(), 0u);
}

// Lower half of the tree's bounding box along dim 0: guaranteed to hold
// some but not all points, so cracking it always performs real splits
// (a region holding everything trips the stopping condition instead).
index::Rect HalfSpaceRegion(const index::CrackingRTree& tree) {
  index::Rect region = tree.root().mbr;
  region.hi[0] = 0.5f * (region.lo[0] + region.hi[0]);
  return region;
}

TEST_F(ConcurrentCrackingTest, CoalescesDuplicateCracks) {
  Rig rig(*ds_);
  index::Rect region = HalfSpaceRegion(rig.tree);
  rig.tree.Crack(region);
  index::IndexStats s1 = rig.tree.Stats();
  EXPECT_EQ(s1.crack_publishes, 1u);
  EXPECT_EQ(s1.coalesced_cracks, 0u);

  // Same region again, and a strictly contained one: both are covered
  // by the published crack and must not take the writer mutex.
  rig.tree.Crack(region);
  index::Rect inner = region;
  inner.hi[0] = 0.5f * (inner.lo[0] + inner.hi[0]);
  rig.tree.Crack(inner);
  index::IndexStats s2 = rig.tree.Stats();
  EXPECT_EQ(s2.crack_publishes, 1u);
  EXPECT_EQ(s2.coalesced_cracks, 2u);
}

TEST_F(ConcurrentCrackingTest, NoOpCrackCountsAsCoalesced) {
  // A crack of the whole bounding box splits nothing on a fresh tree
  // (every partition already needs all its leaf pages), so no version
  // is published: it must count as coalesced, not as a publish.
  Rig rig(*ds_);
  rig.tree.Crack(rig.tree.root().mbr);
  index::IndexStats stats = rig.tree.Stats();
  EXPECT_EQ(stats.crack_publishes, 0u);
  EXPECT_EQ(stats.coalesced_cracks, 1u);
  EXPECT_EQ(stats.abandoned_cracks, 0u);
  EXPECT_EQ(rig.tree.crack_generation(), 0u);
}

TEST_F(ConcurrentCrackingTest, CrackUnderOwnReadPinPublishes) {
  // Under the latch design a crack beneath the caller's own read guard
  // had to be abandoned (self-deadlock); with epoch-published versions
  // writers never wait for readers, so the same crack now publishes —
  // and the pinned snapshot keeps reading the OLD version unchanged.
  Rig rig(*ds_);
  index::Rect region = HalfSpaceRegion(rig.tree);
  {
    index::CrackingRTree::ReadPin pin = rig.tree.PinForRead();
    const index::Node& old_root = rig.tree.root();
    std::span<const uint32_t> ids = rig.tree.ElementIds(old_root, 0);
    std::vector<uint32_t> before(ids.begin(), ids.end());

    rig.tree.Crack(region);  // must publish, not deadlock or abandon

    // The captured version is immutable: same node object, same ids,
    // even though a newer (cracked) version is already published.
    EXPECT_TRUE(old_root.children.empty());
    std::span<const uint32_t> after = rig.tree.ElementIds(old_root, 0);
    ASSERT_EQ(after.size(), before.size());
    EXPECT_TRUE(std::equal(after.begin(), after.end(), before.begin()));
  }
  index::IndexStats stats = rig.tree.Stats();
  EXPECT_EQ(stats.crack_publishes, 1u);
  EXPECT_EQ(stats.abandoned_cracks, 0u);
}

TEST_F(ConcurrentCrackingTest, SnapshotsHeldAcrossQueriesStaySane) {
  // The epoch scheme's contract: a pinned reader may hold node pointers
  // and ElementIds spans arbitrarily long — across query boundaries —
  // while crackers retire version after version. Under ASan/TSan a
  // use-after-free on a retired node is the failure mode this hunts.
  Rig rig(*ds_);
  constexpr size_t kOrders = 3;  // JL target dim in this rig

  std::atomic<bool> stop{false};
  std::atomic<size_t> snapshots_checked{0};

  // Readers: pin, walk to a leaf, record its ids, run MORE queries
  // through the engine (still pinned), then re-verify the span.
  auto reader = [&](size_t seed) {
    QueryContext ctx;
    while (!stop.load(std::memory_order_relaxed)) {
      index::CrackingRTree::ReadPin pin = rig.tree.PinForRead();
      const index::Node* node = &rig.tree.root();
      while (node->kind == index::Node::Kind::kInternal) {
        node = node->children[seed % node->children.size()];
      }
      const size_t s = seed % kOrders;
      std::span<const uint32_t> ids = rig.tree.ElementIds(*node, s);
      std::vector<uint32_t> before(ids.begin(), ids.end());

      // Cross a few query boundaries while the snapshot is live.
      for (size_t i = 0; i < 3; ++i) {
        const data::Query& q =
            (*workload_)[(seed + i) % workload_->size()];
        ctx.control().ResetForQuery();
        TopKResult r = rig.engine.TopKQuery(q, 5, ctx);
        EXPECT_FALSE(r.hits.empty());
      }

      std::span<const uint32_t> after = rig.tree.ElementIds(*node, s);
      ASSERT_EQ(after.size(), before.size());
      EXPECT_TRUE(std::equal(after.begin(), after.end(), before.begin()))
          << "pinned snapshot mutated under concurrent cracking";
      snapshots_checked.fetch_add(1);
      ++seed;
    }
  };

  // Crackers: shrink a sliding window so successive cracks keep
  // refining (each strictly-contained region defeats coalescing until
  // the stopping condition bites, then full-width regions re-arm it).
  auto cracker = [&](size_t seed) {
    while (!stop.load(std::memory_order_relaxed)) {
      index::Rect region = rig.tree.root().mbr;
      const float span = region.hi[0] - region.lo[0];
      const float frac = 0.3f + 0.05f * static_cast<float>(seed % 9);
      region.lo[0] += 0.01f * static_cast<float>(seed % 17) * span;
      region.hi[0] = region.lo[0] + frac * span;
      rig.tree.Crack(region);
      ++seed;
    }
  };

  const size_t threads = std::max<size_t>(2, ChaosThreads());
  std::vector<std::thread> crew;
  for (size_t t = 0; t < threads; ++t) {
    if (t % 2 == 0) {
      crew.emplace_back(reader, t * 131);
    } else {
      crew.emplace_back(cracker, t * 37);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (std::thread& th : crew) th.join();
  EXPECT_GT(snapshots_checked.load(), 0u);

  // Pins are all released: retirement must be able to drain. (Advance
  // twice: items retired in the current epoch need two steps to age out.)
  util::EpochManager::Global().TryReclaim();
  util::EpochManager::Stats es = util::EpochManager::Global().GetStats();
  EXPECT_EQ(es.bytes_pinned, 0u)
      << "limbo not drained with zero pinned readers";
}

TEST_F(ConcurrentCrackingTest, PublishFailpointAbandonsBeforeMutation) {
  Rig rig(*ds_);
  index::Rect region = HalfSpaceRegion(rig.tree);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("cracking.publish", "1*fail,off")
                  .ok());
  size_t nodes_before = rig.tree.Stats().num_nodes;
  rig.tree.Crack(region);
  index::IndexStats stats = rig.tree.Stats();
  EXPECT_EQ(stats.abandoned_cracks, 1u);
  EXPECT_EQ(stats.crack_publishes, 0u);
  EXPECT_EQ(stats.num_nodes, nodes_before) << "abandoned crack mutated";

  // The region was NOT recorded as published, so a retry makes progress.
  rig.tree.Crack(region);
  EXPECT_EQ(rig.tree.Stats().crack_publishes, 1u);
  EXPECT_GT(rig.tree.Stats().num_nodes, nodes_before);
}

TEST_F(ConcurrentCrackingTest, VkgParallelBatchMatchesSequentialBatch) {
  // End-to-end acceptance: BatchTopK on a cracking engine with a pool
  // takes the parallel path and returns the same answers as the
  // sequential path over the same span.
  auto build = [&](size_t threads) {
    core::VkgOptions options;
    options.method = index::MethodKind::kCracking;
    options.query_threads = threads;
    embedding::EmbeddingStore copy = ds_->embeddings;
    auto vkg = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
        &ds_->graph, std::move(copy), options);
    EXPECT_TRUE(vkg.ok());
    return std::move(vkg.value());
  };
  auto sequential = build(0);
  auto parallel = build(ChaosThreads());

  auto seq = sequential->BatchTopK(*workload_, 10);
  auto par = parallel->BatchTopK(*workload_, 10);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok());
    ASSERT_TRUE(par[i].ok());
    ASSERT_EQ(seq[i]->hits.size(), par[i]->hits.size()) << "query " << i;
    for (size_t h = 0; h < seq[i]->hits.size(); ++h) {
      EXPECT_EQ(seq[i]->hits[h].entity, par[i]->hits[h].entity)
          << "query " << i << " hit " << h;
      EXPECT_NEAR(seq[i]->hits[h].distance, par[i]->hits[h].distance, 1e-9);
    }
  }
}

}  // namespace
}  // namespace vkg::query
