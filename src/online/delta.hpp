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
/// says every cached subtree result is stale (homogeneous capacity change —
/// W appears in every place step).
struct DeltaApplication {
  DeltaKind kind = DeltaKind::RateChange;
  std::vector<VertexId> touched;
  bool structural = false;
  bool global = false;
  VertexId firstNewVertex = kNoVertex;  ///< structural only: old vertexCount
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

/// Epoch-based dirty-subtree tracker shared by the incremental caches.
/// Every applied delta bumps the mutation epoch and stamps the touched
/// vertices plus all their ancestors (walking up stops at an already-current
/// stamp, so a mark costs O(depth) amortised). The dirty set is therefore
/// closed under parents: a clean vertex implies a clean subtree, which is
/// exactly the invariant the per-subtree frontier caches need.
class DirtyTracker {
 public:
  explicit DirtyTracker(std::size_t vertexCount)
      : lastDirty_(vertexCount, 1) {}

  std::uint64_t epoch() const { return epoch_; }

  /// Everything computed before or at this epoch is stale everywhere.
  std::uint64_t globalEpoch() const { return globalDirty_; }

  /// A vertex's cache entry is valid iff its computed epoch >= this.
  std::uint64_t dirtySince(VertexId v) const {
    const std::uint64_t local = lastDirty_[static_cast<std::size_t>(v)];
    return local > globalDirty_ ? local : globalDirty_;
  }

  /// Record one applied delta: new vertices (structural growth) start dirty,
  /// touched vertices and their root paths are stamped with the new epoch.
  /// Returns the number of vertices stamped (invalidation telemetry).
  /// `stampedOut`, when given, receives every vertex this call dirtied
  /// (structural newcomers included) — consumers that keep a pending dirty
  /// list accumulate these so a re-solve can visit just the stamped vertices
  /// instead of scanning the whole tree. Global invalidations append nothing;
  /// the caller must treat them as everything-dirty.
  std::size_t note(const Tree& tree, const DeltaApplication& app,
                   std::vector<VertexId>* stampedOut = nullptr) {
    ++epoch_;
    const std::size_t oldSize = lastDirty_.size();
    lastDirty_.resize(tree.vertexCount(), epoch_);
    if (stampedOut)
      for (std::size_t v = oldSize; v < lastDirty_.size(); ++v)
        stampedOut->push_back(static_cast<VertexId>(v));
    if (app.global) {
      globalDirty_ = epoch_;
      return tree.vertexCount();
    }
    std::size_t stamped = 0;
    for (const VertexId t : app.touched) {
      // The touched vertex itself may already carry the current epoch — new
      // vertices are born dirty at this epoch by the resize above — but its
      // ancestors still need stamping, so the already-stamped short-circuit
      // only applies from the parent upward.
      bool first = true;
      for (VertexId v = t; v != kNoVertex; v = tree.parent(v), first = false) {
        auto& mark = lastDirty_[static_cast<std::size_t>(v)];
        if (mark == epoch_) {
          if (!first) break;  // the rest of the path is already stamped
          continue;
        }
        mark = epoch_;
        if (stampedOut) stampedOut->push_back(v);
        ++stamped;
      }
    }
    return stamped;
  }

 private:
  std::uint64_t epoch_ = 1;        ///< bumped per applied delta
  std::uint64_t globalDirty_ = 1;  ///< set to epoch_ on global invalidation
  std::vector<std::uint64_t> lastDirty_;  ///< per-vertex last dirty epoch
};

}  // namespace treeplace
