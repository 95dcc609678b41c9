#ifndef VKG_TRANSFORM_JL_TRANSFORM_H_
#define VKG_TRANSFORM_JL_TRANSFORM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "embedding/store.h"
#include "util/status.h"

namespace vkg::transform {

/// Johnson-Lindenstrauss style Gaussian random projection from the
/// embedding space S1 (dim d, tens to hundreds) to the index space S2
/// (dim alpha, e.g. 3):
///
///     x  ↦  (1/sqrt(alpha)) · A · x
///
/// where A is alpha×d with i.i.d. N(0, 1) entries (Section III-B). The
/// mapping is linear, so T(h) + T(r) = T(h + r): query centers can be
/// transformed either before or after the addition.
class JlTransform {
 public:
  /// Builds the projection matrix. Requires 1 <= alpha and d >= 1.
  JlTransform(size_t input_dim, size_t output_dim, uint64_t seed);

  size_t input_dim() const { return input_dim_; }
  size_t output_dim() const { return output_dim_; }

  /// Applies the projection to one S1 vector (size input_dim) writing an
  /// S2 vector (size output_dim).
  void Apply(std::span<const float> in, std::span<float> out) const;

  /// Convenience overload returning a fresh vector.
  std::vector<float> Apply(std::span<const float> in) const;

  /// Projects all entity vectors of `store`, returning a row-major
  /// num_entities × output_dim array. Stores of at least
  /// kParallelMinRows entities are split over up to four threads; each
  /// row keeps Apply's summation order, so the result is bit-identical
  /// to per-row Apply either way.
  std::vector<float> ApplyToEntities(
      const embedding::EmbeddingStore& store) const;

  /// Below this many rows a bulk projection runs serially: starting a
  /// thread costs more than its share of the rows.
  static constexpr size_t kParallelMinRows = 4096;

 private:
  /// Apply's arithmetic, without the projection counter.
  void Project(const float* in, float* out) const;

  size_t input_dim_;
  size_t output_dim_;
  std::vector<float> matrix_;  // row-major alpha × d, pre-scaled
};

}  // namespace vkg::transform

#endif  // VKG_TRANSFORM_JL_TRANSFORM_H_
