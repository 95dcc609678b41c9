#ifndef VKG_INDEX_LINEAR_SCAN_H_
#define VKG_INDEX_LINEAR_SCAN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "embedding/batch_kernels.h"
#include "embedding/store.h"
#include "util/deadline.h"

namespace vkg::index {

/// The no-index baseline (Section VI): iterate over every entity in the
/// original embedding space S1 and keep the best matches. Also serves as
/// the ground truth for precision@K of the approximate index methods.
///
/// Distances are evaluated through the blocked kernels in
/// embedding/batch_kernels.h (bit-identical to the scalar kernel), and
/// the skip predicate is a template parameter so the per-entity test
/// inlines instead of going through std::function dispatch.
class LinearScan {
 public:
  /// `store` must outlive the scanner.
  explicit LinearScan(const embedding::EmbeddingStore* store)
      : store_(store) {}

  /// The k entities nearest to `q` (size = store dim) by L2 distance,
  /// ascending. `skip(id) == true` excludes an entity (e.g., existing
  /// neighbors in E and the query anchor itself).
  ///
  /// `control` (optional) is consulted at block boundaries: the scan
  /// accounts each block's distance evaluations and winds down early
  /// when the deadline, cancellation, or point budget trips. The first
  /// block is always evaluated, so even an already-expired deadline
  /// yields a non-empty best-effort answer.
  template <typename Skip>
  std::vector<std::pair<double, uint32_t>> TopK(
      std::span<const float> q, size_t k, Skip&& skip,
      util::QueryControl* control = nullptr) const {
    // Max-heap of the best k (distance, id) pairs seen so far.
    std::priority_queue<std::pair<double, uint32_t>> heap;
    const size_t n = store_->num_entities();
    double dist[kBlock];
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t len = std::min(kBlock, n - base);
      embedding::BatchL2DistanceSquared(q, *store_,
                                        static_cast<uint32_t>(base), len,
                                        dist);
      for (size_t i = 0; i < len; ++i) {
        const uint32_t e = static_cast<uint32_t>(base + i);
        if (skip(e)) continue;
        const double d2 = dist[i];
        if (heap.size() < k) {
          heap.emplace(d2, e);
        } else if (d2 < heap.top().first) {
          heap.pop();
          heap.emplace(d2, e);
        }
      }
      if (control != nullptr) {
        control->AddPoints(len);
        if (control->ShouldStop()) break;
      }
    }
    std::vector<std::pair<double, uint32_t>> out;
    out.reserve(heap.size());
    while (!heap.empty()) {
      out.emplace_back(std::sqrt(heap.top().first), heap.top().second);
      heap.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  size_t size() const { return store_->num_entities(); }

 private:
  static constexpr size_t kBlock = 256;

  const embedding::EmbeddingStore* store_;
};

}  // namespace vkg::index

#endif  // VKG_INDEX_LINEAR_SCAN_H_
