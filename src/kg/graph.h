#ifndef VKG_KG_GRAPH_H_
#define VKG_KG_GRAPH_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kg/attributes.h"
#include "kg/dictionary.h"
#include "kg/triple_store.h"
#include "kg/types.h"
#include "util/random.h"
#include "util/status.h"

namespace vkg::kg {

/// Structural statistics of a knowledge graph (Table I of the paper).
struct GraphStats {
  size_t num_entities = 0;
  size_t num_relation_types = 0;
  size_t num_edges = 0;
  double avg_out_degree = 0.0;
  size_t max_degree = 0;
};

/// A directed, heterogeneous knowledge graph G = (V, E).
///
/// Entities and relationship types are interned strings with dense ids.
/// Entities optionally carry a type (e.g., "user", "movie") and numeric
/// attributes used by aggregate queries.
class KnowledgeGraph {
 public:
  KnowledgeGraph() = default;

  // --- Construction -------------------------------------------------------

  /// Interns an entity by name, optionally with a type label.
  EntityId AddEntity(std::string_view name, std::string_view type = "");

  /// Interns a relationship type by name.
  RelationId AddRelation(std::string_view name);

  /// Adds an edge; entities/relations must already exist.
  /// Returns false if the edge was a duplicate.
  bool AddEdge(EntityId h, RelationId r, EntityId t);

  /// Declares `n` anonymous entities of `type` at once; returns the id of
  /// the first (ids are contiguous). Names are "<type>:<index>".
  EntityId AddEntities(size_t n, std::string_view type);

  // --- Access --------------------------------------------------------------

  size_t num_entities() const { return entity_names_.size(); }
  size_t num_relations() const { return relation_names_.size(); }
  size_t num_edges() const { return triples_.size(); }

  const Dictionary& entity_names() const { return entity_names_; }
  const Dictionary& relation_names() const { return relation_names_; }
  const TripleStore& triples() const { return triples_; }

  /// True iff (h, r, t) is a known fact in E. Top-k queries over E' skip
  /// such edges (Section II semantics).
  bool HasEdge(EntityId h, RelationId r, EntityId t) const {
    return triples_.Contains({h, r, t});
  }

  /// The entities E already links to `e` by `r` in direction `dir`,
  /// ascending (see TripleStore::Known); live across AddEdge and
  /// MaskRandomEdges.
  std::span<const EntityId> Known(EntityId e, RelationId r,
                                  Direction dir) const {
    return triples_.Known(e, r, dir);
  }

  /// Type label id of entity `e` (kInvalidEntity-safe: requires valid id).
  uint32_t EntityType(EntityId e) const { return entity_types_[e]; }
  const std::string& EntityTypeName(EntityId e) const {
    return type_names_.Name(entity_types_[e]);
  }
  const Dictionary& type_names() const { return type_names_; }

  /// All entity ids of a given type label; empty if the type is unknown.
  std::vector<EntityId> EntitiesOfType(std::string_view type) const;

  /// In-degree + out-degree of each entity (the paper's "popularity").
  std::vector<size_t> Degrees() const;

  AttributeTable& attributes() { return attributes_; }
  const AttributeTable& attributes() const { return attributes_; }

  GraphStats Stats() const;

  /// Removes `count` random edges and returns them (held-out evaluation).
  std::vector<Triple> MaskRandomEdges(size_t count, util::Rng& rng) {
    return triples_.MaskRandom(count, rng);
  }

  size_t MemoryBytes() const;

 private:
  Dictionary entity_names_;
  Dictionary relation_names_;
  Dictionary type_names_;
  std::vector<uint32_t> entity_types_;
  TripleStore triples_;
  AttributeTable attributes_;
};

}  // namespace vkg::kg

#endif  // VKG_KG_GRAPH_H_
