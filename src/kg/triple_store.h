#ifndef VKG_KG_TRIPLE_STORE_H_
#define VKG_KG_TRIPLE_STORE_H_

#include <algorithm>
#include <span>
#include <vector>

#include "kg/types.h"
#include "util/random.h"
#include "util/status.h"

namespace vkg::kg {

/// Deduplicated collection of (h, r, t) facts with per-(entity,
/// relation) neighbour lists, which also answer membership, and support
/// for masking edges out (to form held-out test sets).
class TripleStore {
 public:
  TripleStore() = default;

  /// Adds a triple; returns false if it was already present.
  bool Add(const Triple& t);

  /// True if (h, r, t) is a known fact (in E).
  bool Contains(const Triple& t) const {
    std::span<const EntityId> tails = Known(t.head, t.relation,
                                            Direction::kTail);
    return std::binary_search(tails.begin(), tails.end(), t.tail);
  }

  /// The entities E links to `e` by `r`, ascending: the tails t of
  /// (e, r, t) for kTail, the heads h of (h, r, e) for kHead. Add and
  /// MaskRandom keep the lists current; the span is valid until the
  /// store next changes.
  std::span<const EntityId> Known(EntityId e, RelationId r,
                                  Direction dir) const;

  size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }

  const std::vector<Triple>& triples() const { return triples_; }
  const Triple& at(size_t i) const { return triples_[i]; }

  /// Removes `count` uniformly chosen triples and returns them (used to
  /// mask edges for link-prediction evaluation). The removed triples no
  /// longer answer Contains() or appear in Known(). If count >= size,
  /// removes everything.
  std::vector<Triple> MaskRandom(size_t count, util::Rng& rng);

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

 private:
  // Per entity, one run per relation it has edges under, back to back:
  // [relation, count, id_1 < ... < id_count]. One flat vector per entity
  // keeps the lists at about 4 bytes per edge and 8 per (entity,
  // relation), with no per-list allocation.
  using Runs = std::vector<EntityId>;

  std::vector<Triple> triples_;
  std::vector<Runs> tails_;  // indexed by head
  std::vector<Runs> heads_;  // indexed by tail
};

}  // namespace vkg::kg

#endif  // VKG_KG_TRIPLE_STORE_H_
