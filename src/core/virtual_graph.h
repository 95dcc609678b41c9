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
/// tree. Dynamic updates (UpdateEntityEmbedding / CompactUpdates /
/// LoadIndex) swap engine state and must still be externally
/// synchronized against in-flight queries; a VkgServer holding this VKG
/// offers no such point, so they are unsupported while it serves.
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
  /// Note: the batch path queries the index directly — entities with
  /// pending embedding updates (pending_updates() > 0) are merged only
  /// by the single-query TopK() form.
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

  /// All entities whose predicted-edge probability for `query` is at
  /// least `prob_threshold`, ascending by distance (the "ball" of
  /// Section V-B as a first-class query). `max_results` == 0 means no
  /// cap. Served by the R-tree regardless of the top-k method.
  util::Result<std::vector<query::TopKHit>> Neighborhood(
      const data::Query& query, double prob_threshold,
      size_t max_results = 0);

  /// Materializes the top-k predicted edges of one relationship type for
  /// every head entity in `heads` (Definition 1's remark: edges of E'
  /// are never stored, "only the highest probability ones are retrieved
  /// on demand" — this is that retrieval in bulk, e.g. to precompute a
  /// recommendation table). Results are grouped by head, in input order.
  std::vector<kg::PredictedEdge> MaterializeTopEdges(
      std::span<const kg::EntityId> heads, kg::RelationId relation,
      size_t k_per_head);

  // --- Dynamic updates (paper §VIII, future work) ---------------------------
  //
  // Local updates to the knowledge graph change embeddings locally. New
  // *facts* need no index work at all: edge membership is read from the
  // caller-owned KnowledgeGraph, so adding edges there immediately
  // affects the E'-only skip semantics. Refreshed *embedding vectors*
  // are absorbed through a small overlay: the entity's stale S2 point
  // stays in the index (harmless — exact S1 distances are always
  // recomputed), while the overlay is scanned exactly by every top-k
  // query so the entity is also found at its new location. Call
  // CompactUpdates() to fold the overlay back into a fresh index once
  // it grows. Aggregate queries reflect refreshed vectors' exact
  // distances immediately but re-localize them only after compaction.

  /// Replaces the S1 embedding of `e` (size must equal dim). The update
  /// is visible to top-k queries immediately via the overlay.
  util::Status UpdateEntityEmbedding(kg::EntityId e,
                                     std::span<const float> vector);

  /// Number of entities currently in the overlay.
  size_t pending_updates() const { return overlay_.size(); }

  /// Rebuilds the transform target points and the index from the current
  /// embeddings and clears the overlay. The new cracking index is empty
  /// and re-cracks on demand. Not while a VkgServer serves this VKG.
  util::Status CompactUpdates();

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
  /// these, so serving refines this VKG's one tree. LoadIndex and
  /// CompactUpdates replace them (and the tree), so re-read them per
  /// query and never run either while another thread queries.
  const query::TopKEngine& topk_engine() const { return *topk_engine_; }
  const query::AggregateEngine& aggregate_engine() const {
    return *aggregate_engine_;
  }

 private:
  VirtualKnowledgeGraph(const kg::KnowledgeGraph* graph,
                        embedding::EmbeddingStore store, VkgOptions options);

  util::Status Initialize();

  /// (Re)builds the engines that hold rtree_: the R-tree top-k engine
  /// (R-tree methods only) and the aggregate engine, cracking online iff
  /// index::CracksOnline(options_.method).
  void BindEngines();

  /// The lazily constructed batch-query pool; nullptr when
  /// options_.query_threads < 2 (sequential batches).
  util::ThreadPool* QueryPool();

  const kg::KnowledgeGraph* graph_;
  embedding::EmbeddingStore store_;
  VkgOptions options_;

  std::unique_ptr<transform::JlTransform> jl_;
  std::unique_ptr<index::PointSet> points_s2_;
  std::unique_ptr<index::CrackingRTree> rtree_;
  std::unique_ptr<index::PhTree> phtree_;  // only for kPhTree
  std::unique_ptr<query::TopKEngine> topk_engine_;
  std::unique_ptr<query::AggregateEngine> aggregate_engine_;
  std::unique_ptr<util::ThreadPool> query_pool_;
  /// Entities whose embedding changed since the last compaction.
  std::vector<kg::EntityId> overlay_;
};

}  // namespace vkg::core

#endif  // VKG_CORE_VIRTUAL_GRAPH_H_
