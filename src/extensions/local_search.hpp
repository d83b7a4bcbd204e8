#pragma once

#include <optional>

#include "core/placement.hpp"
#include "core/policy.hpp"
#include "extensions/objective.hpp"
#include "tree/problem.hpp"

namespace treeplace {

struct LocalSearchResult {
  Placement placement;
  double objective = 0.0;
  int rounds = 0;        ///< improving rounds applied
};

/// First-improvement local search over Multiple-policy placements under the
/// Section 8.2 composite objective (storage + read + write cost). Two move
/// families:
///  - drop(r): close a server and push its load to other replicas on each
///    client's root path (storage/write savings vs read increase);
///  - open(j): open a server and pull subtree requests currently served
///    above it (read savings vs storage/write increase).
/// It stops at a local optimum or after 100 improving rounds. The returned placement is always valid (capacities, coverage);
/// the starting placement must be valid for the Multiple policy.
LocalSearchResult improvePlacement(const ProblemInstance& instance,
                                   Placement start, const CostModel& model);

}  // namespace treeplace
