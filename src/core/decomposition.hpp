#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tree/tree.hpp"

namespace treeplace {

/// Index of a merge bag inside a decomposition schedule. For the width-1
/// TreeDecomposition adapter below, bag ids coincide with vertex ids; richer
/// decompositions (bounded treewidth) number their bags independently.
using BagId = VertexId;

/// The shape facts of one bag that every policy's count caps and flow
/// ceilings derive from (core/bag_steps).
struct BagShape {
  std::int32_t clients;    ///< clients in the bag's cone
  std::int32_t internals;  ///< internal vertices in the cone, the anchor included
  std::int32_t depth;      ///< hop depth of the anchor (root 0)
};

/// A *bag* is one merge node of a decomposition, the unit the frontier DPs
/// fold over. A bag *introduces* a set of vertices (for trees: exactly
/// its anchor), folds the frontiers of its child bags into an accumulator via
/// the convolution chain, and *forgets* the vertices that no longer interact
/// with anything outside the bag's cone once it closes (for trees: the child
/// anchors). Solvers run the place/skip decision on the anchor after the
/// fold.
///
/// TreeDecomposition is the zero-overhead width-1 decomposition of a rooted
/// Tree: one bag per vertex, the schedule is the tree postorder, a bag's
/// children are the vertex's children and its anchor is the vertex itself.
/// Every accessor is an inline forward into the Tree's precomputed arrays,
/// so DPs written against this interface compile to the exact loops they ran
/// before the refactor — bit-identical outputs, no measurable cost.
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
  BagShape shape(BagId b) const {
    return {static_cast<std::int32_t>(clientsInCone(b)),
            static_cast<std::int32_t>(internalsInCone(b)), tree_->depth(b)};
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

 private:
  const Tree* tree_;
};

/// A child list of a decomposition: the canonical merge order every
/// reconstructing DP folds in, or the raw order (TreeDecomposition::children).
using ChildOrder = std::span<const BagId> (TreeDecomposition::*)(BagId) const;

}  // namespace treeplace
