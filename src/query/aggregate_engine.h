#ifndef VKG_QUERY_AGGREGATE_ENGINE_H_
#define VKG_QUERY_AGGREGATE_ENGINE_H_

#include <span>
#include <string>
#include <vector>

#include "data/workload.h"
#include "embedding/store.h"
#include "index/cracking_rtree.h"
#include "kg/graph.h"
#include "query/query_context.h"
#include "transform/jl_transform.h"
#include "util/status.h"

namespace vkg::query {

/// SQL-style aggregate kinds (Section II / Section V-B).
enum class AggKind { kCount, kSum, kAvg, kMax, kMin };

std::string_view AggKindName(AggKind kind);

/// Specification of one aggregate query over the predicted neighborhood
/// of (anchor, relation).
struct AggregateSpec {
  data::Query query;
  AggKind kind = AggKind::kCount;
  /// Attribute column aggregated (ignored for COUNT). Entities lacking
  /// the attribute are excluded from the relevant set.
  std::string attribute;
  /// p_tau: the ball holds entities with probability >= p_tau.
  double prob_threshold = 0.05;
  /// a: number of closest data points accessed; 0 accesses all in the
  /// ball (a = b).
  size_t sample_size = 0;
};

/// Result of an aggregate query.
struct AggregateResult {
  double value = 0.0;
  size_t accessed = 0;          // a
  double estimated_total = 0.0; // estimate of b
  double prob_mass_accessed = 0.0;   // sum of p_i over the sample
  double prob_mass_estimated = 0.0;  // estimated sum over all b points
  /// Values v_i of the accessed points (for Theorem 4 evaluation).
  std::vector<double> sample_values;
  /// Degradation marker: a deadline / budget trip shrinks the accessed
  /// sample (the unaccessed remainder is still estimated from the
  /// contour, widening the Theorem 4 error), it never fails the query.
  ResultQuality quality;
};

/// Approximate aggregate query processing over the S2 R-tree index
/// (Section V-B).
///
/// The engine finds the ball of relevant entities (radius r_tau derived
/// from p_tau via the probability model), walks candidates in ascending
/// *S2* distance — so per-point work scales with the sample size a — and
/// accesses the attribute records of the a closest points. The
/// probability mass of unaccessed points is estimated from their cheap
/// S2 distances (the JL transform preserves distances in expectation),
/// realizing the paper's contour-based estimate at per-point
/// granularity. Estimators: Eq. 3 for COUNT/SUM/AVG and Eq. 4 for
/// MAX/MIN.
class AggregateEngine {
 public:
  AggregateEngine(const kg::KnowledgeGraph* graph,
                  const embedding::EmbeddingStore* store,
                  const transform::JlTransform* jl,
                  index::CrackingRTree* tree, double eps,
                  bool crack_after_query);

  /// Answers `spec` using `ctx` for per-query scratch state; NotFound if
  /// the attribute column does not exist (except COUNT), InvalidArgument
  /// for a bad threshold. `ctx` must not be shared between concurrent
  /// callers.
  util::Result<AggregateResult> Aggregate(const AggregateSpec& spec,
                                          QueryContext& ctx) const;

  /// Single-query convenience form (fresh context per call).
  util::Result<AggregateResult> Aggregate(const AggregateSpec& spec) const {
    QueryContext ctx;
    return Aggregate(spec, ctx);
  }

  /// Exact ground truth: accesses every entity (no index), a = b, exact
  /// distances. Used for the accuracy metric of Figures 12-16.
  util::Result<AggregateResult> ExactAggregate(
      const AggregateSpec& spec) const;

  /// The cracking tree serializes its own mutation (DESIGN.md §6d), so
  /// concurrent aggregates are safe even when they crack; see
  /// TopKEngine::SupportsConcurrentQueries.
  bool SupportsConcurrentQueries() const { return true; }

  /// The knowledge graph answered over (for batch-side validation).
  const kg::KnowledgeGraph* graph() const { return graph_; }

 private:
  struct BallPoint {
    uint32_t id;
    double dist;  // S1 for accessed/exact, S2-estimate for unaccessed
    double prob;
  };

  AggregateResult Estimate(const AggregateSpec& spec,
                           std::span<const BallPoint> accessed,
                           double unaccessed_mass,
                           double unaccessed_count) const;

  const kg::KnowledgeGraph* graph_;
  const embedding::EmbeddingStore* store_;
  const transform::JlTransform* jl_;
  index::CrackingRTree* tree_;
  double eps_;
  bool crack_after_query_;
};

}  // namespace vkg::query

#endif  // VKG_QUERY_AGGREGATE_ENGINE_H_
