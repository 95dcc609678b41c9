#ifndef VKG_KG_TYPES_H_
#define VKG_KG_TYPES_H_

#include <cstdint>

namespace vkg::kg {

/// Dense integer id of an entity (vertex).
using EntityId = uint32_t;
/// Dense integer id of a relationship type.
using RelationId = uint32_t;

inline constexpr EntityId kInvalidEntity = UINT32_MAX;
inline constexpr RelationId kInvalidRelation = UINT32_MAX;

/// A (head, relation, tail) fact. Edges in E have probability 1 by
/// definition (Definition 1); predicted edges carry probabilities at query
/// time and are never materialized.
struct Triple {
  EntityId head = kInvalidEntity;
  RelationId relation = kInvalidRelation;
  EntityId tail = kInvalidEntity;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.head == b.head && a.relation == b.relation && a.tail == b.tail;
  }
};

/// Query direction: given (h, r) ask for tails, or given (t, r) ask for
/// heads.
enum class Direction { kTail, kHead };

}  // namespace vkg::kg

#endif  // VKG_KG_TYPES_H_
