#ifndef VKG_EMBEDDING_STORE_H_
#define VKG_EMBEDDING_STORE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kg/types.h"
#include "util/random.h"
#include "util/status.h"

namespace vkg::embedding {

/// Row-major storage for entity and relation embedding vectors in the
/// original embedding space S1 (dimensionality `dim`, typically 50-100).
///
/// This is the contract between the embedding algorithm A (trained here or
/// loaded from an external file) and the index/query layers, which only
/// consume the point cloud.
///
/// For the batch distance kernels the store can additionally carry a
/// padded SoA mirror of the entity block (BuildPaddedMirror): each row
/// zero-extended to a multiple of kPadFloats floats (= 64 bytes = the
/// kernels' 16-lane accumulation block) in one 64-byte-aligned
/// allocation, so every row starts on a cache line and the contiguous
/// kernel path issues only aligned full-width loads with no scalar
/// tail. Zero padding is bitwise invisible to the canonical kernel
/// contract (kernels_internal.h), so mirror and row-major results are
/// identical. The mirror is derived state: any mutable Entity() access
/// or RandomInitialize() drops it (a stale mirror is worse than none),
/// and whoever finished mutating rebuilds it (VirtualGraph does this
/// when it builds its indices).
class EmbeddingStore {
 public:
  /// Padding quantum of the mirror, in floats. Equals the kernels'
  /// accumulator lane count; 16 floats = 64 bytes = kPadAlign.
  static constexpr size_t kPadFloats = 16;
  /// Alignment of the mirror base and (because padded_dim() is a
  /// multiple of kPadFloats) of every mirrored row.
  static constexpr size_t kPadAlign = 64;

  EmbeddingStore() = default;
  EmbeddingStore(size_t num_entities, size_t num_relations, size_t dim);

  size_t num_entities() const { return num_entities_; }
  size_t num_relations() const { return num_relations_; }
  size_t dim() const { return dim_; }

  std::span<float> Entity(kg::EntityId e) {
    DropPaddedMirror();  // the caller may write through this span
    return {entities_.data() + static_cast<size_t>(e) * dim_, dim_};
  }
  std::span<const float> Entity(kg::EntityId e) const {
    return {entities_.data() + static_cast<size_t>(e) * dim_, dim_};
  }
  /// Every entity vector, row-major: num_entities() rows of dim().
  std::span<const float> EntityBlock() const { return entities_; }
  std::span<float> Relation(kg::RelationId r) {
    return {relations_.data() + static_cast<size_t>(r) * dim_, dim_};
  }
  std::span<const float> Relation(kg::RelationId r) const {
    return {relations_.data() + static_cast<size_t>(r) * dim_, dim_};
  }

  /// Builds (or rebuilds) the padded SoA entity mirror. Idempotent;
  /// costs one pass over the entity block.
  void BuildPaddedMirror();
  /// Releases the mirror (this copy's reference to it).
  void DropPaddedMirror() {
    padded_.reset();
    padded_dim_ = 0;
  }
  bool has_padded_mirror() const { return padded_ != nullptr; }
  /// dim() rounded up to a multiple of kPadFloats; 0 without a mirror.
  size_t padded_dim() const { return padded_dim_; }
  /// Row `e` of the mirror: 64-byte-aligned, padded_dim() floats, the
  /// trailing padded_dim()-dim() of them zero.
  const float* PaddedEntity(kg::EntityId e) const {
    return padded_.get() + static_cast<size_t>(e) * padded_dim_;
  }

  /// Fills every vector with i.i.d. Uniform(-6/sqrt(dim), 6/sqrt(dim))
  /// values (the TransE initialization), then L2-normalizes entities.
  void RandomInitialize(util::Rng& rng);

  /// The query center h + r (tail queries) or t - r (head queries) in S1.
  std::vector<float> QueryCenter(kg::EntityId anchor, kg::RelationId r,
                                 kg::Direction direction) const;
  /// Same, written into caller scratch (`out.size() == dim()`): the
  /// engines' arena path, no allocation here.
  void QueryCenterInto(kg::EntityId anchor, kg::RelationId r,
                       kg::Direction direction, std::span<float> out) const;

  /// Binary persistence (magic + dims + raw float payload, checksummed).
  /// Stores with a mirror write the v2 "VKGP" header carrying
  /// padded_dim; the payload stays row-major (the mirror is derived)
  /// and Load rebuilds the mirror. Plain stores write the v1 "VKGE"
  /// format unchanged, and Load accepts both.
  util::Status Save(const std::string& path) const;
  static util::Result<EmbeddingStore> Load(const std::string& path);

  size_t MemoryBytes() const {
    size_t bytes =
        (entities_.capacity() + relations_.capacity()) * sizeof(float);
    if (padded_) bytes += num_entities_ * padded_dim_ * sizeof(float);
    return bytes;
  }

 private:
  size_t num_entities_ = 0;
  size_t num_relations_ = 0;
  size_t dim_ = 0;
  std::vector<float> entities_;
  std::vector<float> relations_;
  // The mirror is immutable once built, so copies of the store may
  // share it (each copy drops only its own reference on mutation).
  std::shared_ptr<const float[]> padded_;
  size_t padded_dim_ = 0;
};

}  // namespace vkg::embedding

#endif  // VKG_EMBEDDING_STORE_H_
