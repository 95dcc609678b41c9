#ifndef VKG_EMBEDDING_TRAINER_H_
#define VKG_EMBEDDING_TRAINER_H_

#include <functional>
#include <vector>

#include "embedding/sampler.h"
#include "embedding/transe.h"
#include "kg/graph.h"
#include "util/status.h"

namespace vkg::embedding {

/// Hyperparameters for TransE margin-ranking-loss training.
struct TrainerConfig {
  size_t dim = 50;
  size_t epochs = 50;
  double learning_rate = 0.01;
  double margin = 1.0;
  Norm norm = Norm::kL2;
  CorruptionMode corruption = CorruptionMode::kBernoulli;
  size_t num_threads = 0;  // 0 = hardware concurrency
  uint64_t seed = 42;
};

/// Progress of one training epoch.
struct EpochStats {
  size_t epoch = 0;
  double mean_loss = 0.0;  // mean hinge loss over all positive triples
};

/// TransE margin-ranking-loss SGD trainer producing an EmbeddingStore.
///
/// This is the paper's algorithm A: a knowledge-graph embedding scheme
/// trained on the observed edges E, whose geometry then *induces* the
/// virtual knowledge graph.
class Trainer {
 public:
  Trainer(const kg::KnowledgeGraph& graph, TrainerConfig config);

  /// Trains from random initialization; `on_epoch` (optional) observes
  /// per-epoch loss. Returns the trained store, or InvalidArgument for a
  /// graph with no edges.
  util::Result<EmbeddingStore> Train(
      const std::function<void(const EpochStats&)>& on_epoch = nullptr);

 private:
  const kg::KnowledgeGraph& graph_;
  TrainerConfig config_;
};

}  // namespace vkg::embedding

#endif  // VKG_EMBEDDING_TRAINER_H_
