#include "embedding/trainer.h"

#include <atomic>
#include <thread>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace vkg::embedding {

Trainer::Trainer(const kg::KnowledgeGraph& graph, TrainerConfig config)
    : graph_(graph), config_(config) {}

util::Result<EmbeddingStore> Trainer::Train(
    const std::function<void(const EpochStats&)>& on_epoch) {
  if (graph_.num_edges() == 0) {
    return util::Status::InvalidArgument("cannot train on an empty graph");
  }
  if (config_.dim == 0) {
    return util::Status::InvalidArgument("embedding dim must be positive");
  }

  EmbeddingStore store(graph_.num_entities(), graph_.num_relations(),
                       config_.dim);
  util::Rng init_rng(config_.seed);
  store.RandomInitialize(init_rng);

  TransE model(&store, config_.norm);
  NegativeSampler sampler(graph_, config_.corruption);
  const auto& triples = graph_.triples().triples();

  size_t threads = config_.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  util::ThreadPool pool(threads);

  // Per-thread RNGs; hogwild updates on the shared store.
  std::vector<util::Rng> rngs;
  rngs.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    rngs.emplace_back(config_.seed + 0x9e3779b9ull * (i + 1));
  }

  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    model.NormalizeEntities();
    std::atomic<double> total_loss{0.0};
    const size_t n = triples.size();
    const size_t chunk = (n + threads - 1) / threads;
    for (size_t s = 0; s < threads; ++s) {
      size_t begin = s * chunk;
      size_t end = std::min(n, begin + chunk);
      if (begin >= end) break;
      pool.Submit([&, s, begin, end] {
        double local = 0.0;
        util::Rng& rng = rngs[s];
        for (size_t i = begin; i < end; ++i) {
          kg::Triple neg = sampler.Corrupt(triples[i], rng);
          local += model.Step(triples[i], neg, config_.margin,
                              config_.learning_rate);
        }
        // C++20 atomic<double>::fetch_add.
        total_loss.fetch_add(local);
      });
    }
    pool.Wait();
    if (on_epoch) {
      EpochStats stats;
      stats.epoch = epoch;
      stats.mean_loss = total_loss.load() / static_cast<double>(n);
      on_epoch(stats);
    }
  }
  return store;
}

}  // namespace vkg::embedding
