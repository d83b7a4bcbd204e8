#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tree/problem.hpp"

namespace treeplace {

class PlacementArena;

/// One slice of a client's requests handled by one server (r_{i,s} in the
/// paper).
struct ServedShare {
  VertexId server = kNoVertex;
  Requests amount = 0;

  friend bool operator==(const ServedShare&, const ServedShare&) = default;
};

/// Per-placement storage telemetry; forEachField names its JSON keys.
struct PlacementStats {
  std::size_t poolBytes = 0;    ///< share-pool footprint (capacity), bytes
  std::size_t shareCount = 0;   ///< live (client, server) shares
  std::size_t assignCalls = 0;  ///< assign()/assignRun() shares recorded
  std::size_t heapAllocs = 0;   ///< buffer allocations this placement paid
  /// Pool slots not backing a live share (relocation holes + spare run
  /// capacity); 0 after compact().
  std::size_t holeSlots = 0;

  /// Names each field once, as f(json_key, value) in JSON key order; the
  /// bench writers (writeFields, bench::renderFields) read this list.
  template <class F>
  void forEachField(F&& f) const {
    f("pool_bytes", poolBytes);
    f("shares", shareCount);
    f("assign_calls", assignCalls);
    f("heap_allocs", heapAllocs);
    f("hole_slots", holeSlots);
  }
};

/// A replica placement plus the explicit request assignment. Heuristics and
/// exact algorithms all produce complete Placements so the validator can check
/// policy compliance, capacities, QoS and bandwidth without re-deriving an
/// assignment.
///
/// Storage is a flat CSR-style arena: all ServedShares live in one contiguous
/// pool addressed through per-client offset runs, so building a placement
/// costs O(1) heap allocations instead of one vector per served client. Runs
/// grow geometrically by relocation to the pool top (the abandoned hole stays
/// behind, arena-style); `shares()` hands out a lightweight span view.
class Placement {
 public:
  /// vertexCount must match the instance the placement is for.
  explicit Placement(std::size_t vertexCount);

  /// Like Placement(vertexCount), but the backing buffers are taken from
  /// `arena`'s free list when available (no heap traffic once the arena is
  /// warm). The placement stays an independent value — it never points back
  /// into the arena.
  Placement(std::size_t vertexCount, PlacementArena& arena);

  std::size_t vertexCount() const { return runs_.size(); }

  /// Extend to `vertexCount` (>= vertexCount()) vertices; the new ones hold
  /// no replica and no share. Tracks a tree grown by appends.
  void grow(std::size_t vertexCount);

  void addReplica(VertexId node);
  void removeReplica(VertexId node);
  bool hasReplica(VertexId node) const;
  std::size_t replicaCount() const { return replicaCount_; }

  /// Replica node ids in increasing order.
  std::vector<VertexId> replicaList() const;

  /// Record `amount` requests of `client` served by `server`; accumulates
  /// when called twice with the same pair. Requires amount > 0.
  void assign(VertexId client, VertexId server, Requests amount);

  /// Remove the client's share on `server` and return the removed amount
  /// (0 when no such share exists). The share order within the run is
  /// unspecified, so removal swaps with the run tail; server loads stay
  /// consistent. The incremental repair paths use this to undo assignments.
  Requests unassign(VertexId client, VertexId server);

  /// Drop every share of `client` (server loads updated, run capacity kept
  /// for the re-assign that typically follows).
  void clearClient(VertexId client);

  /// Bulk path: record a whole run of shares for a client that has none yet.
  /// The run is written in place when it fits the capacity the client's
  /// slot kept (clearClient + assignRun leaves no hole); otherwise it moves
  /// to the pool top. Servers must be distinct and amounts positive; the run
  /// must not alias this placement's own pool (copy it first when
  /// self-rewriting).
  void assignRun(VertexId client, std::span<const ServedShare> run);

  /// Reserve pool room for `expectedShares` total shares up front so the
  /// pool never reallocates mid-build (solvers know their share count).
  void reserveShares(std::size_t expectedShares);

  /// Rewrite the pool in ascending client-id order with no relocation holes
  /// and no spare run capacity: afterwards the runs of served clients are
  /// contiguous and ascending, so a client-order scan over shares() walks
  /// the pool strictly sequentially. A no-op (and allocation-free) when
  /// already compact. Invalidates share views, like assign().
  void compact();

  /// Same, but packs runs in the caller's scan order (e.g. the tree's
  /// preorder client list, the order every solver and bench walks shares
  /// in). `clientOrder` must cover every served client. Server-order
  /// builders (Multiple pass 3) call this once after the build.
  void compact(std::span<const VertexId> clientOrder);

  /// Shares of one client (unspecified order, servers unique). The view is
  /// invalidated by the next assign()/assignRun() call.
  std::span<const ServedShare> shares(VertexId client) const;

  /// Total requests assigned to a server across all clients.
  Requests serverLoad(VertexId server) const;

  /// Total requests assigned for one client across all its servers.
  Requests assignedOf(VertexId client) const;

  /// Sum of storage costs of the replica set.
  double storageCost(const ProblemInstance& instance) const;

  /// Storage/allocation telemetry of this placement.
  PlacementStats stats() const;

  /// Equality of the *logical* placement: same replica set and the same
  /// per-client share multiset. Per-client share order is documented as
  /// unspecified, so two equivalent placements built in different orders
  /// compare equal regardless of pool layout.
  friend bool operator==(const Placement& a, const Placement& b);

 private:
  friend class PlacementArena;

  /// Offset run of one client inside pool_ ([begin, begin+size), with
  /// capacity slots reserved).
  struct ShareRun {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  ServedShare* runData(const ShareRun& run) { return pool_.data() + run.begin; }
  const ServedShare* runData(const ShareRun& run) const {
    return pool_.data() + run.begin;
  }
  void growRun(ShareRun& run, const ServedShare& share);

  std::vector<ServedShare> pool_;  ///< all shares, flat
  std::vector<ShareRun> runs_;     ///< per client vertex
  std::vector<Requests> serverLoad_;
  std::vector<char> isReplica_;
  std::size_t replicaCount_ = 0;
  std::size_t liveShares_ = 0;
  std::size_t assignCalls_ = 0;
  std::size_t heapAllocs_ = 0;
};

/// Recycles Placement backing buffers across solves: a solver or search that
/// builds many short-lived placements acquires them from the arena and hands
/// the losers back, so steady-state construction performs zero heap
/// allocations. Placements remain ordinary value types — recycling is opt-in
/// and explicit, there is no destructor magic and no lifetime coupling; a
/// placement that escapes the arena's scope simply keeps its buffers.
class PlacementArena {
 public:
  /// A fresh empty placement for `vertexCount` vertices backed by recycled
  /// buffers (fresh allocations the first time).
  Placement acquire(std::size_t vertexCount);

  /// Take the placement's buffers back for the next acquire(). The placement
  /// is consumed.
  void recycle(Placement&& placement);

 private:
  friend class Placement;

  struct Buffers {
    std::vector<ServedShare> pool;
    std::vector<Placement::ShareRun> runs;
    std::vector<Requests> serverLoad;
    std::vector<char> isReplica;
  };
  std::vector<Buffers> free_;  ///< recycled buffer sets, LIFO
};

/// The Closest policy's server: the first replica on v's root path, walking
/// strict ancestors bottom-up. kNoVertex when no ancestor holds a replica.
/// For single-client lookups; assignClientsToClosest does every client in
/// one pass.
VertexId firstReplicaAbove(const Tree& tree, const Placement& placement,
                           VertexId v);

/// Apply the Closest assignment rule: every client with positive demand is
/// served wholly by its first replica above, found for all clients in one
/// preorder pass (O(s)). Throws PreconditionError when a
/// client has no replica on its root path (the replica set does not admit a
/// Closest assignment).
void assignClientsToClosest(const ProblemInstance& instance, Placement& placement);

/// A solved multitree placement (see tree/multitree.hpp and
/// exact/multitree_closest.hpp): the replica set in *global* ids, sorted
/// ascending — under the lexico-minimum solver this vector is itself the
/// lexicographic certificate — plus one fully-assigned per-member-tree
/// Placement in local ids, so the single-tree validator runs on each member
/// unchanged.
struct MultitreePlacement {
  std::vector<VertexId> replicas;
  std::vector<Placement> perTree;

  std::size_t replicaCount() const { return replicas.size(); }
};

}  // namespace treeplace
