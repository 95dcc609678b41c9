#include "index/factory.h"

#include <string>

namespace vkg::index {

std::string_view MethodName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kNoIndex:
      return "no-index";
    case MethodKind::kPhTree:
      return "ph-tree";
    case MethodKind::kBulkRTree:
      return "bulk-load";
    case MethodKind::kCracking:
      return "crack";
    case MethodKind::kCracking2:
      return "crack-2choice";
    case MethodKind::kCracking3:
      return "crack-3choice";
    case MethodKind::kCracking4:
      return "crack-4choice";
    case MethodKind::kH2Alsh:
      return "h2-alsh";
  }
  return "unknown";
}

util::Result<MethodKind> ParseMethod(std::string_view name) {
  for (int k = 0; k <= static_cast<int>(MethodKind::kH2Alsh); ++k) {
    const auto kind = static_cast<MethodKind>(k);
    if (MethodName(kind) == name) return kind;
  }
  return util::Status::InvalidArgument("unknown method: " +
                                       std::string(name));
}

size_t SplitChoicesFor(MethodKind kind) {
  switch (kind) {
    case MethodKind::kCracking:
      return 1;
    case MethodKind::kCracking2:
      return 2;
    case MethodKind::kCracking3:
      return 3;
    case MethodKind::kCracking4:
      return 4;
    default:
      return 0;
  }
}

bool UsesRTree(MethodKind kind) {
  switch (kind) {
    case MethodKind::kBulkRTree:
    case MethodKind::kCracking:
    case MethodKind::kCracking2:
    case MethodKind::kCracking3:
    case MethodKind::kCracking4:
      return true;
    default:
      return false;
  }
}

bool CracksOnline(MethodKind kind) {
  return UsesRTree(kind) && kind != MethodKind::kBulkRTree;
}

}  // namespace vkg::index
