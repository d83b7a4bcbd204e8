#pragma once

#include <cstddef>
#include <span>

#include "tree/tree.hpp"

namespace treeplace {

/// Index of a merge bag inside a decomposition schedule. For the width-1
/// TreeDecomposition adapter below, bag ids coincide with vertex ids; richer
/// decompositions (bounded treewidth) number their bags independently.
using BagId = VertexId;

/// One merge node of a decomposition: the unit the frontier DPs fold over.
///
/// A bag *introduces* a set of vertices (for trees: exactly its anchor), folds
/// the frontiers of its child bags into an accumulator via the convolution
/// chain, and *forgets* the vertices that no longer interact with anything
/// outside the bag's cone once it closes (for trees: the child anchors).
/// Solvers run the place/skip decision on the anchor after the fold.
struct MergeBag {
  BagId id = kNoVertex;
  /// The decision vertex of this bag — the one the place/skip step targets.
  VertexId anchor = kNoVertex;
  /// Child bags in canonical merge order (see Tree::mergeChildren): the order
  /// every convolution chain uses, load-bearing for incremental prefix reuse.
  std::span<const BagId> mergeChildren;
  /// Child bags in raw id order: consumers that never reconstruct or replay
  /// (bounds relaxations, streaming counts) fold in this order.
  std::span<const BagId> children;
  /// Vertices introduced at this bag ({anchor} for trees).
  std::span<const VertexId> introduced;
  /// Vertices forgotten when this bag closes (the child-bag anchors for
  /// trees: their subtrees are summarised by the folded frontier).
  std::span<const VertexId> forgotten;
};

/// Zero-overhead width-1 decomposition of a rooted Tree: one bag per vertex,
/// the schedule is the tree postorder, a bag's children are the vertex's
/// children and its anchor is the vertex itself. Every accessor is an inline
/// forward into the Tree's precomputed arrays, so DPs written against this
/// interface compile to the exact loops they ran before the refactor —
/// bit-identical outputs, no measurable cost.
///
/// The adapter is a value type wrapping `const Tree*`; it must not outlive
/// the tree. It holds no other state, so copies are free and one adapter may
/// be shared across threads.
class TreeDecomposition {
 public:
  explicit TreeDecomposition(const Tree& tree) : tree_(&tree) {}

  const Tree& tree() const { return *tree_; }

  std::size_t bagCount() const { return tree_->vertexCount(); }
  BagId rootBag() const { return tree_->root(); }

  /// Bags in fold order: every child bag precedes its parent (postorder).
  std::span<const BagId> schedule() const { return tree_->postorder(); }

  VertexId anchor(BagId b) const { return b; }

  /// True when the bag's anchor is a client (a demand leaf that seeds the
  /// DP instead of running the merge/place fold). Goes through the vertex
  /// *kind*, never through child counts — see Tree::isClient vs isLeaf.
  bool anchorIsClient(BagId b) const { return tree_->isClient(b); }

  /// Child bags in canonical merge order (Tree::mergeChildren).
  std::span<const BagId> mergeChildren(BagId b) const {
    return tree_->mergeChildren(b);
  }

  /// Child bags in raw id order (Tree::children).
  std::span<const BagId> children(BagId b) const { return tree_->children(b); }

  /// Width-cap helpers over the bag's cone (the set of vertices folded into
  /// its frontier; for trees, the subtree). Frontier counts never exceed
  /// min(clients, internals) of the cone, so these bound every convolution.
  std::size_t verticesInCone(BagId b) const { return tree_->subtreeSize(b); }
  std::size_t clientsInCone(BagId b) const {
    return tree_->clientsInSubtree(b).size();
  }
  std::size_t internalsInCone(BagId b) const {
    return verticesInCone(b) - clientsInCone(b);
  }

  /// Vertices introduced at bag b: {anchor(b)}, viewed in place as the
  /// one-element slice of the tree's preorder at b's position.
  std::span<const VertexId> introduced(BagId b) const {
    return {tree_->preorder().data() + tree_->preorderIndex(b), 1};
  }

  /// Vertices forgotten when bag b closes: its child anchors.
  std::span<const VertexId> forgotten(BagId b) const {
    return tree_->children(b);
  }

  /// Assembled view of one merge node (diagnostics / generic consumers).
  MergeBag bag(BagId b) const {
    return {b,           anchor(b),    mergeChildren(b),
            children(b), introduced(b), forgotten(b)};
  }

 private:
  const Tree* tree_;
};

}  // namespace treeplace
