#ifndef VKG_INDEX_FACTORY_H_
#define VKG_INDEX_FACTORY_H_

#include <string_view>

#include "util/status.h"

namespace vkg::index {

/// The query-processing methods compared in the paper's experiments.
enum class MethodKind {
  kNoIndex,     // linear scan over S1 (ground truth)
  kPhTree,      // high-dimensional PH-tree over S1
  kBulkRTree,   // offline bulk-loaded R-tree over S2 (Algorithm 1)
  kCracking,    // greedy cracking index (INCREMENTALINDEXBUILD)
  kCracking2,   // TOP-KSPLITSINDEXBUILD, 2 split choices
  kCracking3,   // TOP-KSPLITSINDEXBUILD, 3 split choices
  kCracking4,   // TOP-KSPLITSINDEXBUILD, 4 split choices
  kH2Alsh,      // H2-ALSH baseline (single relationship type); stays last
};

/// Human-readable method label (matches the figures' legends).
std::string_view MethodName(MethodKind kind);

/// Inverse of MethodName; InvalidArgument for any other name.
util::Result<MethodKind> ParseMethod(std::string_view name);

/// Number of split choices k for the cracking variants (1 for the greedy
/// method; 0 for non-cracking methods).
size_t SplitChoicesFor(MethodKind kind);

/// True for the methods that build the S2 cracking/bulk R-tree.
bool UsesRTree(MethodKind kind);

/// True for the R-tree methods whose queries crack the tree online (every
/// R-tree method but the offline bulk load).
bool CracksOnline(MethodKind kind);

}  // namespace vkg::index

#endif  // VKG_INDEX_FACTORY_H_
