#ifndef VKG_EMBEDDING_EVALUATOR_H_
#define VKG_EMBEDDING_EVALUATOR_H_

#include <vector>

#include "embedding/transe.h"
#include "kg/graph.h"

namespace vkg::embedding {

/// Standard link-prediction metrics (Bordes et al.): for each held-out
/// triple, rank the true tail (resp. head) among all corruptions by
/// ascending energy.
struct LinkPredictionMetrics {
  double mean_rank = 0.0;
  double mean_reciprocal_rank = 0.0;
  double hits_at_1 = 0.0;
  double hits_at_10 = 0.0;
  size_t num_test_triples = 0;
};

/// Evaluates a trained TransE model on held-out triples.
///
/// `filtered` removes corruptions that are themselves known facts in E
/// before ranking ("filtered" setting of the TransE paper).
LinkPredictionMetrics EvaluateLinkPrediction(
    const TransE& model, const kg::KnowledgeGraph& graph,
    const std::vector<kg::Triple>& test_triples, bool filtered = true);

}  // namespace vkg::embedding

#endif  // VKG_EMBEDDING_EVALUATOR_H_
