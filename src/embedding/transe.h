#ifndef VKG_EMBEDDING_TRANSE_H_
#define VKG_EMBEDDING_TRANSE_H_

#include "embedding/store.h"
#include "kg/types.h"

namespace vkg::embedding {

/// Distance norm used by the TransE energy function.
enum class Norm { kL1, kL2 };

/// TransE (Bordes et al., NIPS 2013): embeddings satisfy h + r ≈ t for
/// true triples; the energy is d(h + r, t) under L1 or L2.
///
/// This class scores triples and applies one SGD step of the margin-based
/// ranking loss  [γ + d(pos) − d(neg)]_+  to a shared EmbeddingStore.
/// Updates are lock-free (hogwild) when driven from multiple threads.
/// It is the paper's embedding algorithm A: its link plausibility is
/// nearest-neighbour search around a per-(h, r) centre in S1, which is
/// what the index answers.
class TransE {
 public:
  TransE(EmbeddingStore* store, Norm norm) : store_(store), norm_(norm) {}

  /// Energy d(h + r, t); lower means more plausible.
  double Score(const kg::Triple& t) const;

  /// One SGD step on the pair (positive, negative) with margin `margin`
  /// and learning rate `lr`. Returns the (pre-update) hinge loss; zero
  /// means the pair already satisfied the margin and no update was made.
  double Step(const kg::Triple& positive, const kg::Triple& negative,
              double margin, double lr);

  /// Projects all entity vectors back onto the unit L2 ball, as TransE
  /// does at the start of each epoch.
  void NormalizeEntities();

  Norm norm() const { return norm_; }
  EmbeddingStore* store() { return store_; }

 private:
  EmbeddingStore* store_;
  Norm norm_;
};

}  // namespace vkg::embedding

#endif  // VKG_EMBEDDING_TRANSE_H_
