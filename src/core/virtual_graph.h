#ifndef VKG_CORE_VIRTUAL_GRAPH_H_
#define VKG_CORE_VIRTUAL_GRAPH_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "embedding/store.h"
#include "index/cracking_rtree.h"
#include "index/phtree.h"
#include "kg/graph.h"
#include "query/aggregate_engine.h"
#include "query/topk_bounds.h"
#include "query/topk_engine.h"
#include "transform/jl_transform.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace vkg::core {

/// The virtual knowledge graph (Definition 1): a knowledge graph G
/// extended with the predicted edges E' induced by an embedding
/// algorithm A, queryable through the online cracking index.
///
/// Typical usage:
///
///   kg::KnowledgeGraph g = ...;                 // load or generate
///   VkgOptions options;                         // defaults are sensible
///   auto vkg = VirtualKnowledgeGraph::BuildWithTraining(&g, options);
///   auto top = vkg->TopKTails(h, likes, 5);     // predicted edges
///   auto avg = vkg->Aggregate(spec);            // expected aggregates
///
/// The referenced KnowledgeGraph must outlive this object.
///
/// Thread safety: the query path is safe for concurrent use — top-k and
/// aggregate queries incrementally build the index, but readers
/// traverse immutable epoch-published tree versions lock-free and the
/// cracking R-tree serializes that mutation on a writer-side mutex
/// (DESIGN.md §6f). BatchTopK / BatchAggregate below exploit this by
/// fanning a query span over options.query_threads workers, and a
/// server::VkgServer's shard workers compute on the same engines and
/// tree. The embeddings are frozen at build time (embedding updates are
/// the paper's §VIII future work); new facts added to the graph reach
/// every query path through the known-edge exclusion. LoadIndex swaps
/// the tree and engines and must be externally synchronized against
/// in-flight queries; a VkgServer holding this VKG offers no such
/// point, so it is unsupported while one serves.
class VirtualKnowledgeGraph {
 public:
  /// Builds from precomputed S1 embeddings (the paper's setting: the
  /// embedding algorithm runs offline). Fails when the store does not
  /// cover the graph's entities/relations or alpha is out of range.
  static util::Result<std::unique_ptr<VirtualKnowledgeGraph>>
  BuildWithEmbeddings(const kg::KnowledgeGraph* graph,
                      embedding::EmbeddingStore store,
                      const VkgOptions& options);

  /// Trains TransE on the graph's edges first (options.trainer), then
  /// builds. Convenient for examples and small graphs.
  static util::Result<std::unique_ptr<VirtualKnowledgeGraph>>
  BuildWithTraining(const kg::KnowledgeGraph* graph,
                    const VkgOptions& options);

  // --- Top-k entity queries (Section V-A) ---------------------------------

  /// Top-k most likely tails t for (h, r, t) not already in E.
  query::TopKResult TopKTails(kg::EntityId h, kg::RelationId r, size_t k);
  /// Top-k most likely heads h for (h, r, t) not already in E.
  query::TopKResult TopKHeads(kg::EntityId t, kg::RelationId r, size_t k);
  /// Generic form. `trace` (optional) collects the query's phase spans
  /// — probe, seed, frontier, crack — for `vkg_cli --trace` style
  /// inspection (DESIGN.md §6e); null keeps the untraced hot path.
  query::TopKResult TopK(const data::Query& query, size_t k,
                         obs::Trace* trace = nullptr);

  /// Name-based convenience (NotFound for unknown names).
  util::Result<query::TopKResult> TopKByName(std::string_view anchor,
                                             std::string_view relation,
                                             kg::Direction direction,
                                             size_t k,
                                             obs::Trace* trace = nullptr);

  /// Answers queries[i] with k results each, fanned over the pool sized
  /// by options.query_threads (sequentially when < 2). Per-slot
  /// statuses. options.query_budget applies per query;
  /// options.query_deadline_ms becomes one batch-wide wall-clock cutoff
  /// (BatchOptions semantics — late queries degrade, never fail).
  std::vector<util::Result<query::TopKResult>> BatchTopK(
      std::span<const data::Query> queries, size_t k);

  /// Batch form of Aggregate(), fanned the same way.
  std::vector<util::Result<query::AggregateResult>> BatchAggregate(
      std::span<const query::AggregateSpec> specs);

  /// Theorem 2 guarantee for a returned result.
  query::TopKGuarantee GuaranteeFor(const query::TopKResult& result) const;

  // --- Aggregate queries (Section V-B) ------------------------------------

  /// Approximate aggregate via the index; see AggregateEngine. `trace`
  /// as in TopK().
  util::Result<query::AggregateResult> Aggregate(
      const query::AggregateSpec& spec, obs::Trace* trace = nullptr);

  /// Exact (no-index) aggregate: the accuracy baseline.
  util::Result<query::AggregateResult> ExactAggregate(
      const query::AggregateSpec& spec);

  // --- Point predictions ----------------------------------------------------

  /// Probability of the virtual edge (h, r, t) per the distance
  /// calibration of Section V-B (1 for the closest entity, inversely
  /// proportional to distance otherwise). Existing edges return 1.
  double PredictProbability(kg::EntityId h, kg::RelationId r,
                            kg::EntityId t);

  // --- Index persistence ------------------------------------------------------

  /// Persists the (possibly cracked) R-tree index, so a warmed index can
  /// be reloaded instead of re-cracking (Section VI's "fire off the
  /// first query before the real online queries come").
  util::Status SaveIndex(const std::string& path) const;

  /// Replaces the current R-tree with one previously saved over the same
  /// embeddings/options and rebinds the query engines to it. Load before
  /// creating a VkgServer over this VKG, never while one serves it.
  util::Status LoadIndex(const std::string& path);

  // --- Introspection --------------------------------------------------------

  const kg::KnowledgeGraph& graph() const { return *graph_; }
  const embedding::EmbeddingStore& embeddings() const { return store_; }
  const transform::JlTransform& jl() const { return *jl_; }
  index::IndexStats IndexStats() const { return rtree_->Stats(); }
  const VkgOptions& options() const { return options_; }
  const index::CrackingRTree& rtree() const { return *rtree_; }
  /// The engines behind TopK and Aggregate, for callers that bring their
  /// own QueryContext: the query server's shard workers compute on
  /// these, so serving refines this VKG's one tree. LoadIndex replaces
  /// them (and the tree), so re-read them per query and never load
  /// while another thread queries.
  const query::TopKEngine& topk_engine() const { return *topk_engine_; }
  const query::AggregateEngine& aggregate_engine() const {
    return *aggregate_engine_;
  }

 private:
  VirtualKnowledgeGraph(const kg::KnowledgeGraph* graph,
                        embedding::EmbeddingStore store, VkgOptions options);

  /// (Re)builds the engines that hold rtree_: the R-tree top-k engine
  /// (R-tree methods only) and the aggregate engine, cracking online iff
  /// index::CracksOnline(options_.method).
  void BindEngines();

  /// The lazily constructed batch-query pool; nullptr when
  /// options_.query_threads < 2 (sequential batches).
  util::ThreadPool* QueryPool();

  const kg::KnowledgeGraph* graph_;
  /// Frozen after build: const, so no non-const Entity() access can
  /// drop the padded SoA mirror the batch kernels and server read.
  const embedding::EmbeddingStore store_;
  VkgOptions options_;

  std::unique_ptr<transform::JlTransform> jl_;
  std::unique_ptr<index::PointSet> points_s2_;
  std::unique_ptr<index::CrackingRTree> rtree_;
  std::unique_ptr<index::PhTree> phtree_;  // only for kPhTree
  std::unique_ptr<query::TopKEngine> topk_engine_;
  std::unique_ptr<query::AggregateEngine> aggregate_engine_;
  std::unique_ptr<util::ThreadPool> query_pool_;
};

}  // namespace vkg::core

#endif  // VKG_CORE_VIRTUAL_GRAPH_H_
