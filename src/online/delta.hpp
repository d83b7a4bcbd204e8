#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tree/problem.hpp"

namespace treeplace {

/// Kinds of live-instance mutations the online layer understands. Vertex ids
/// are stable across every mutation: structural changes append vertices at
/// the end of the id range (Tree::appendClient/appendPod), and removal is
/// logical — a leaving client keeps its vertex with a zero request rate.
enum class DeltaKind : std::uint8_t {
  RateChange,      ///< client request rate r_i changes
  ClientJoin,      ///< a new client leaf attaches under an internal node
  ClientLeave,     ///< a client's rate drops to zero (vertex stays)
  CapacityChange,  ///< one node's W_j (node != kNoVertex) or every node's W
  SubtreeAttach,   ///< a pod (one internal + clients) attaches under a node
  SubtreeDetach,   ///< every client in subtree(node) goes quiet (rates to 0)
};

/// One mutation of a live ProblemInstance. Only the fields of the matching
/// kind are read; the rest are ignored.
struct InstanceDelta {
  DeltaKind kind = DeltaKind::RateChange;

  /// RateChange/ClientLeave: the client. CapacityChange: the internal node,
  /// or kNoVertex for a homogeneous change of every internal node.
  /// ClientJoin/SubtreeAttach: the internal node to attach under.
  /// SubtreeDetach: the subtree root.
  VertexId node = kNoVertex;

  Requests rate = 0;      ///< RateChange/ClientJoin: the (new) request rate
  Requests capacity = 0;  ///< CapacityChange: the new W; SubtreeAttach: pod W
  double qos = kNoQos;    ///< ClientJoin: QoS bound of the new client
  double commTime = 1.0;  ///< ClientJoin/SubtreeAttach: uplink comm of new vertices
  double storageCost = 1.0;        ///< SubtreeAttach: pod internal node s_j
  std::vector<Requests> podRates;  ///< SubtreeAttach: one client per entry
};

/// Why applyDelta rejected a delta.
enum class DeltaErrorCode : std::uint8_t {
  UnknownVertex,        ///< node id outside [0, vertexCount) (and not the
                        ///< kNoVertex wildcard where that is allowed)
  NotAClient,           ///< RateChange/ClientLeave naming an internal vertex
  NotAnInternal,        ///< attach/per-node capacity naming a client vertex
  DetachRoot,           ///< SubtreeDetach of the tree root (would silence
                        ///< every client; an operator error, not a mutation)
  NegativeRate,         ///< request rate below zero (delta.rate or a pod rate)
  NonPositiveCapacity,  ///< capacity change / pod capacity <= 0
  EmptyPod,             ///< SubtreeAttach with no pod clients
};

std::string_view toString(DeltaErrorCode code);

/// Thrown by applyDelta when a delta is malformed. Raised by a validation
/// pass that runs BEFORE any mutation, so the instance is untouched when it
/// escapes (strong exception guarantee) — a live solver can log the rejected
/// delta and keep serving from its current state.
class DeltaError : public std::invalid_argument {
 public:
  DeltaError(DeltaErrorCode code, const std::string& message)
      : std::invalid_argument(message), code_(code) {}
  DeltaErrorCode code() const noexcept { return code_; }

 private:
  DeltaErrorCode code_;
};

/// What applying a delta did, in terms every incremental consumer needs for
/// invalidation. `touched` lists the vertices whose own subtree DP state
/// changed (consumers dirty them plus their root paths); `structural` says
/// the Tree grew (vertices appended under one parent, ids stable); `global`
/// says every internal node's W changed at once (a homogeneous capacity
/// change). W enters a bag's DP only through its place rule and flow
/// ceiling, so a consumer that knows subtree demands may keep the bags whose
/// demand fits both the old and the new W; the others must treat every
/// cached subtree result as stale.
struct DeltaApplication {
  DeltaKind kind = DeltaKind::RateChange;
  std::vector<VertexId> touched;
  bool structural = false;
  bool global = false;
  VertexId firstNewVertex = kNoVertex;  ///< structural only: old vertexCount
  /// Global capacity change only: the W every internal node held before
  /// (0 when they differed) and the W they all hold now.
  Requests capacityBefore = 0;
  Requests capacityAfter = 0;
};

/// Apply `delta` to `instance` in place. Structural deltas grow the Tree in
/// place (Tree::appendClient/appendPod: O(depth + added) plus one splice of
/// the preorder-position arrays, ids stable); value deltas edit the
/// per-vertex arrays directly. Malformed deltas — out-of-range or wrong-kind
/// vertex ids, detach of the root, negative rates, non-positive capacities,
/// empty pods — throw DeltaError from a validation pass that precedes every
/// mutation, so a rejected delta leaves the instance bit-identical.
DeltaApplication applyDelta(ProblemInstance& instance, const InstanceDelta& delta);

/// The validation pass of applyDelta on its own: throws DeltaError exactly
/// when applyDelta would, mutates nothing. Request admission layers call
/// this to vet untrusted deltas before queueing them.
void validateDelta(const ProblemInstance& instance, const InstanceDelta& delta);

}  // namespace treeplace
