#include "kg/triple_store.h"

#include <algorithm>

namespace vkg::kg {

namespace {

// Offset of relation r's run header in `runs`, or runs.size() if absent.
size_t FindRun(const std::vector<EntityId>& runs, RelationId r) {
  size_t i = 0;
  while (i < runs.size() && runs[i] != r) i += 2 + runs[i + 1];
  return i;
}

// Adds `id` to e's run for r; false if it is already there.
bool InsertNeighbor(std::vector<std::vector<EntityId>>& lists, EntityId e,
                    RelationId r, EntityId id) {
  if (e >= lists.size()) lists.resize(static_cast<size_t>(e) + 1);
  std::vector<EntityId>& runs = lists[e];
  const size_t i = FindRun(runs, r);
  if (i == runs.size()) runs.insert(runs.end(), {r, 0});
  const auto begin = runs.begin() + i + 2;
  const auto pos = std::lower_bound(begin, begin + runs[i + 1], id);
  if (pos != begin + runs[i + 1] && *pos == id) return false;
  runs.insert(pos, id);
  ++runs[i + 1];
  return true;
}

void EraseNeighbor(std::vector<EntityId>& runs, RelationId r, EntityId id) {
  const size_t i = FindRun(runs, r);
  const auto begin = runs.begin() + i + 2;
  runs.erase(std::lower_bound(begin, begin + runs[i + 1], id));
  if (--runs[i + 1] == 0) runs.erase(runs.begin() + i, runs.begin() + i + 2);
}

}  // namespace

bool TripleStore::Add(const Triple& t) {
  if (!InsertNeighbor(tails_, t.head, t.relation, t.tail)) return false;
  InsertNeighbor(heads_, t.tail, t.relation, t.head);
  triples_.push_back(t);
  return true;
}

std::span<const EntityId> TripleStore::Known(EntityId e, RelationId r,
                                             Direction dir) const {
  const std::vector<Runs>& lists = dir == Direction::kTail ? tails_ : heads_;
  if (e >= lists.size()) return {};
  const Runs& runs = lists[e];
  const size_t i = FindRun(runs, r);
  if (i == runs.size()) return {};
  return {runs.data() + i + 2, runs[i + 1]};
}

std::vector<Triple> TripleStore::MaskRandom(size_t count, util::Rng& rng) {
  count = std::min(count, triples_.size());
  std::vector<Triple> removed;
  removed.reserve(count);
  // Swap-remove `count` random positions.
  for (size_t i = 0; i < count; ++i) {
    size_t pos = rng.UniformIndex(triples_.size());
    Triple t = triples_[pos];
    triples_[pos] = triples_.back();
    triples_.pop_back();
    EraseNeighbor(tails_[t.head], t.relation, t.tail);
    EraseNeighbor(heads_[t.tail], t.relation, t.head);
    removed.push_back(t);
  }
  return removed;
}

size_t TripleStore::MemoryBytes() const {
  size_t bytes = triples_.capacity() * sizeof(Triple);
  for (const std::vector<Runs>* lists : {&tails_, &heads_}) {
    bytes += lists->capacity() * sizeof(Runs);
    for (const Runs& runs : *lists) {
      bytes += runs.capacity() * sizeof(EntityId);
    }
  }
  return bytes;
}

}  // namespace vkg::kg
