#ifndef VKG_QUERY_CONTOUR_WALK_H_
#define VKG_QUERY_CONTOUR_WALK_H_

#include <cmath>
#include <functional>
#include <queue>
#include <span>
#include <utility>

#include "index/rtree_node.h"
#include "util/arena.h"

namespace vkg::query {

/// The best-first contour walk behind both R-tree engines (Algorithm 3's
/// shrinking ball, Section V-B's aggregate ball). Pops (mindist², node)
/// off an arena-backed frontier in non-decreasing MBR distance to `q`.
/// Each pop calls `on_pop(mindist)` first; false, or a pop beyond
/// `radius`, ends the walk. Internal nodes push their children within
/// `radius`; contour elements go to `on_element(node)`, and false ends
/// the walk. `radius` is re-read at every pop, so top-k shrinks it while
/// aggregates hold it fixed. The caller holds a ReadPin on root's tree.
template <typename OnPop, typename OnElement>
void WalkContour(const index::Node& root, std::span<const float> q,
                 const double& radius, util::Arena& arena, OnPop&& on_pop,
                 OnElement&& on_element) {
  using Entry = std::pair<double, const index::Node*>;
  util::ArenaVector<Entry> store{util::ArenaAllocator<Entry>(&arena)};
  store.reserve(64);
  std::priority_queue<Entry, util::ArenaVector<Entry>, std::greater<>>
      frontier(std::greater<>(), std::move(store));
  frontier.emplace(root.mbr.MinDistSquared(q), &root);
  while (!frontier.empty()) {
    const auto [d2, node] = frontier.top();
    frontier.pop();
    const double mindist = std::sqrt(d2);
    if (!on_pop(mindist) || mindist > radius) return;
    if (node->kind == index::Node::Kind::kInternal) {
      for (const index::Node* child : node->children) {
        const double cd2 = child->mbr.MinDistSquared(q);
        if (std::sqrt(cd2) <= radius) frontier.emplace(cd2, child);
      }
      continue;
    }
    if (!on_element(*node)) return;
  }
}

}  // namespace vkg::query

#endif  // VKG_QUERY_CONTOUR_WALK_H_
