#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace treeplace {

/// Index of a vertex (client or internal node) inside a Tree.
using VertexId = std::int32_t;

/// Sentinel for "no vertex" (parent of the root).
inline constexpr VertexId kNoVertex = -1;

enum class VertexKind : std::uint8_t {
  Internal,  ///< may host a replica (set N in the paper)
  Client,    ///< leaf issuing requests (set C in the paper)
};

/// Shape options for Tree::fromParents.
struct TreeBuildOptions {
  /// Accept internal vertices without children. A standalone paper tree never
  /// has them (an internal leaf is a modelling bug there, and the default
  /// rejects it), but the member trees of a Multitree overlay do: a shared
  /// internal vertex can carry a whole subtree in one tree and sit childless
  /// at the edge of another while still being a valid replica host for it.
  bool allowBareInternals = false;
};

/// Rooted tree with two vertex kinds. Clients are leaves; every internal
/// node has at least one child (unless allowBareInternals). Construction
/// validates the shape and precomputes depths, preorder intervals (for O(1)
/// ancestry tests) and a prefix client count over preorder positions (for
/// the O(1) contiguous clients of a subtree).
///
/// The only mutation is growth at the end of the id range (appendClient,
/// appendPod): the online layer's joins and pod attaches. A grown tree is
/// indistinguishable through every accessor from Tree::fromParents on the
/// extended parent array.
class Tree {
 public:
  /// Build from a parent array. parents[v] == kNoVertex exactly for the root.
  /// Throws PreconditionError on malformed input (several roots, cycles,
  /// client with children, internal leaf unless options allow it, parent
  /// being a client).
  static Tree fromParents(std::vector<VertexId> parents,
                          std::vector<VertexKind> kinds,
                          const TreeBuildOptions& options = {});

  /// Attach one new client leaf under the internal vertex `parent`; returns
  /// its id (the old vertexCount()). Equivalent to rebuilding through
  /// fromParents with the parent appended, at the cost below.
  VertexId appendClient(VertexId parent);

  /// Attach a pod: one new internal vertex under the internal vertex
  /// `parent`, carrying `clients` (>= 1) new client leaves. Returns the pod
  /// root's id; its clients take the ids right after it.
  ///
  /// Cost of both appends: O(depth) for the root path, O(degree) for each
  /// merge list on it (only the child whose subtree grew moves), O(added)
  /// for the new vertices, plus one splice of the child lists and the
  /// preorder-position arrays (preorder, postorder, intervals, prefix client
  /// counts, clients or internals): block moves and linear shift passes,
  /// O(s) word moves with no search or sort. The splice keeps every const
  /// accessor exact right after the append, so no batch reader needs a
  /// rebuild first, and a grown tree keeps the packed layout of a built one.
  VertexId appendPod(VertexId parent, std::size_t clients);

  std::size_t vertexCount() const { return parents_.size(); }
  VertexId root() const { return root_; }

  VertexKind kind(VertexId v) const {
    return kinds_[static_cast<std::size_t>(checked(v))];
  }
  /// THE audited client test: every consumer that needs "is this a demand
  /// leaf?" must go through the vertex *kind*, never through isLeaf() /
  /// children().empty(). The two coincide on standalone paper trees, but a
  /// multitree member tree may contain bare internal vertices (a shared
  /// vertex childless in this tree yet carrying subtrees in others), so
  /// "no children" does not imply "client" there.
  bool isClient(VertexId v) const { return kind(v) == VertexKind::Client; }
  bool isInternal(VertexId v) const { return kind(v) == VertexKind::Internal; }

  /// kNoVertex for the root.
  VertexId parent(VertexId v) const {
    return parents_[static_cast<std::size_t>(checked(v))];
  }

  std::span<const VertexId> children(VertexId v) const;

  /// Structural test only: v has no children *in this tree*. NOT a client
  /// test — with allowBareInternals an internal vertex can be a leaf here
  /// while hosting replicas (and subtrees in other member trees of a
  /// Multitree). Use isClient() for demand detection.
  bool isLeaf(VertexId v) const { return children(v).empty(); }

  /// The children of v in canonical merge order: ascending subtree size,
  /// ties by id. Every frontier DP (scratch and incremental) convolves child
  /// frontiers in this order. Small subtrees first keeps intermediate
  /// frontiers narrow, and the heavy child — the one a random mutation most
  /// likely lands in — sits last, so an incremental re-solve that reuses the
  /// clean prefix of the chain usually redoes a single convolution.
  ///
  /// INVARIANT (load-bearing, regression-tested): the order is a pure
  /// function of (subtree sizes, vertex ids) — deterministic across rebuilds
  /// of equal shape, independent of construction history. The incremental
  /// engine's combo-chain prefix reuse compares cached chains against this
  /// order slot by slot; a nondeterministic tie-break would silently poison
  /// bit-identical replay.
  std::span<const VertexId> mergeChildren(VertexId v) const;

  /// Hop depth; 0 for the root.
  int depth(VertexId v) const {
    return depths_[static_cast<std::size_t>(checked(v))];
  }

  /// True iff a is a *proper* ancestor of d (a != d and d in subtree(a)).
  bool isAncestor(VertexId a, VertexId d) const;

  /// True iff d lies in subtree(a) (a included).
  bool inSubtree(VertexId d, VertexId a) const;

  /// Ancestors of v, bottom-up, excluding v and including the root.
  std::vector<VertexId> ancestors(VertexId v) const;

  /// All clients / internal nodes, ordered by preorder index.
  const std::vector<VertexId>& clients() const { return clients_; }
  const std::vector<VertexId>& internals() const { return internals_; }

  /// Clients whose root path passes through v (v included), i.e. the clients
  /// of subtree(v). Contiguous view — no allocation, O(1).
  std::span<const VertexId> clientsInSubtree(VertexId v) const;

  /// Vertices in preorder (root first, children in id order).
  const std::vector<VertexId>& preorder() const { return preorder_; }

  /// Position of v in preorder(); subtree(v) occupies the positions
  /// [preorderIndex(v), preorderEnd(v)).
  std::int32_t preorderIndex(VertexId v) const {
    return preIndex_[static_cast<std::size_t>(checked(v))];
  }
  std::int32_t preorderEnd(VertexId v) const {
    return subtreeEnd_[static_cast<std::size_t>(checked(v))];
  }

  /// Number of clients among preorder positions [0, pos), for pos in
  /// [0, vertexCount()]: position pos holds a client iff
  /// clientsBefore(pos + 1) > clientsBefore(pos), and subtree(v) has
  /// clientsBefore(preorderEnd(v)) - clientsBefore(preorderIndex(v)) clients.
  std::int32_t clientsBefore(std::int32_t pos) const {
    return clientsBefore_[static_cast<std::size_t>(pos)];
  }

  /// Vertices in postorder (children before parents).
  const std::vector<VertexId>& postorder() const { return postorder_; }

  /// Position of v in postorder(): the vertices finished before v are those
  /// opened before preorderEnd(v) minus v and its depth(v) ancestors.
  std::int32_t postorderIndex(VertexId v) const {
    return preorderEnd(v) - 1 - depth(v);
  }

  /// Position of client c in clients() (its preorder rank among clients).
  std::int32_t clientIndex(VertexId c) const {
    return clientsBefore(preorderIndex(c));
  }

  /// Number of vertices in subtree(v), v included.
  std::size_t subtreeSize(VertexId v) const;

  /// Number of tree edges between a client (or node) and an ancestor.
  /// Requires anc == v or anc an ancestor of v.
  int hops(VertexId v, VertexId anc) const;

  /// An empty tree; only useful as a target for assignment (ProblemInstance
  /// members are filled in after default construction).
  Tree() = default;

 private:
  VertexId checked(VertexId v) const;
  /// The append path: a subtree of `podClients + 1` vertices (a pod) or one
  /// client (podClients == 0) grafted under `parent` as its last child.
  VertexId graft(VertexId parent, std::size_t podClients);
  /// Move `v` within its parent's merge list to the slot its (grown) subtree
  /// size sorts to.
  void resortMergeSlot(VertexId v);
  /// Merge order: ascending subtree size, ties by id.
  bool mergesBefore(VertexId a, VertexId b) const;

  std::vector<VertexId> parents_;
  std::vector<VertexKind> kinds_;
  std::vector<std::int32_t> childStart_;  // CSR offsets into childList_
  std::vector<VertexId> childList_;
  std::vector<VertexId> mergeList_;  // childList_ resorted per mergeChildren()
  std::vector<int> depths_;
  std::vector<std::int32_t> preIndex_;    // position in preorder
  std::vector<std::int32_t> subtreeEnd_;  // preorder interval [preIndex, subtreeEnd)
  std::vector<VertexId> preorder_;
  std::vector<VertexId> postorder_;
  std::vector<std::int32_t> clientsBefore_;  // prefix client count by position
  std::vector<VertexId> clients_;    // sorted by preorder index
  std::vector<VertexId> internals_;  // sorted by preorder index
  VertexId root_ = kNoVertex;
};

}  // namespace treeplace
