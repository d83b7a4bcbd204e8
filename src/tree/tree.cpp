#include "tree/tree.hpp"

#include <algorithm>
#include <string>

#include "support/require.hpp"

namespace treeplace {

Tree Tree::fromParents(std::vector<VertexId> parents, std::vector<VertexKind> kinds,
                       const TreeBuildOptions& options) {
  TREEPLACE_REQUIRE(parents.size() == kinds.size(), "parents/kinds size mismatch");
  TREEPLACE_REQUIRE(!parents.empty(), "tree must have at least one vertex");
  const auto n = static_cast<VertexId>(parents.size());

  Tree t;
  t.parents_ = std::move(parents);
  t.kinds_ = std::move(kinds);

  // Locate the root and validate parent indices.
  t.root_ = kNoVertex;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId p = t.parents_[static_cast<std::size_t>(v)];
    if (p == kNoVertex) {
      TREEPLACE_REQUIRE(t.root_ == kNoVertex, "multiple roots");
      t.root_ = v;
    } else {
      TREEPLACE_REQUIRE(p >= 0 && p < n, "parent index out of range");
      TREEPLACE_REQUIRE(p != v, "vertex cannot be its own parent");
      TREEPLACE_REQUIRE(t.kinds_[static_cast<std::size_t>(p)] == VertexKind::Internal,
                        "clients cannot have children");
    }
  }
  TREEPLACE_REQUIRE(t.root_ != kNoVertex, "no root found");
  TREEPLACE_REQUIRE(t.kinds_[static_cast<std::size_t>(t.root_)] == VertexKind::Internal,
                    "root must be an internal node");

  // Children lists (CSR), children ordered by vertex id.
  t.childStart_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId p = t.parents_[static_cast<std::size_t>(v)];
    if (p != kNoVertex) ++t.childStart_[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t i = 1; i < t.childStart_.size(); ++i)
    t.childStart_[i] += t.childStart_[i - 1];
  t.childList_.resize(static_cast<std::size_t>(n) - 1);
  {
    std::vector<std::int32_t> cursor(t.childStart_.begin(), t.childStart_.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId p = t.parents_[static_cast<std::size_t>(v)];
      if (p != kNoVertex)
        t.childList_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(p)]++)] = v;
    }
  }

  // Iterative preorder/postorder; also detects unreachable vertices (cycles).
  t.preIndex_.assign(static_cast<std::size_t>(n), -1);
  t.subtreeEnd_.assign(static_cast<std::size_t>(n), -1);
  t.depths_.assign(static_cast<std::size_t>(n), 0);
  t.preorder_.reserve(static_cast<std::size_t>(n));
  t.postorder_.reserve(static_cast<std::size_t>(n));
  struct Frame {
    VertexId v;
    std::int32_t nextChild;
  };
  std::vector<Frame> stack;
  stack.push_back({t.root_, 0});
  t.preIndex_[static_cast<std::size_t>(t.root_)] =
      static_cast<std::int32_t>(t.preorder_.size());
  t.preorder_.push_back(t.root_);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto kids = t.children(frame.v);
    if (frame.nextChild < static_cast<std::int32_t>(kids.size())) {
      const VertexId c = kids[static_cast<std::size_t>(frame.nextChild++)];
      t.depths_[static_cast<std::size_t>(c)] =
          t.depths_[static_cast<std::size_t>(frame.v)] + 1;
      t.preIndex_[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(t.preorder_.size());
      t.preorder_.push_back(c);
      stack.push_back({c, 0});
    } else {
      t.subtreeEnd_[static_cast<std::size_t>(frame.v)] =
          static_cast<std::int32_t>(t.preorder_.size());
      t.postorder_.push_back(frame.v);
      stack.pop_back();
    }
  }
  TREEPLACE_REQUIRE(t.preorder_.size() == static_cast<std::size_t>(n),
                    "graph is not a tree (cycle or disconnected vertex)");

  // Canonical merge order: per vertex, children ascending by subtree size
  // (ties by id, so the order is deterministic). Shares childStart_ offsets.
  t.mergeList_ = t.childList_;
  for (VertexId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    auto* begin = t.mergeList_.data() + t.childStart_[vi];
    auto* end = t.mergeList_.data() + t.childStart_[vi + 1];
    std::sort(begin, end, [&t](VertexId a, VertexId b) {
      const std::size_t sa = t.subtreeSize(a);
      const std::size_t sb = t.subtreeSize(b);
      return sa != sb ? sa < sb : a < b;
    });
  }

  // Kind/shape constraints, client/internal lists in preorder order and the
  // prefix client count over positions.
  t.clientsBefore_.reserve(static_cast<std::size_t>(n) + 1);
  for (const VertexId v : t.preorder_) {
    t.clientsBefore_.push_back(static_cast<std::int32_t>(t.clients_.size()));
    if (t.isClient(v)) {
      t.clients_.push_back(v);
    } else {
      TREEPLACE_REQUIRE(options.allowBareInternals || !t.children(v).empty(),
                        "internal node " + std::to_string(v) + " has no children");
      t.internals_.push_back(v);
    }
  }
  t.clientsBefore_.push_back(static_cast<std::int32_t>(t.clients_.size()));
  return t;
}

std::span<const VertexId> Tree::children(VertexId v) const {
  const auto i = static_cast<std::size_t>(checked(v));
  const auto begin = static_cast<std::size_t>(childStart_[i]);
  const auto end = static_cast<std::size_t>(childStart_[i + 1]);
  return {childList_.data() + begin, end - begin};
}

std::span<const VertexId> Tree::mergeChildren(VertexId v) const {
  const auto i = static_cast<std::size_t>(checked(v));
  const auto begin = static_cast<std::size_t>(childStart_[i]);
  const auto end = static_cast<std::size_t>(childStart_[i + 1]);
  return {mergeList_.data() + begin, end - begin};
}

bool Tree::isAncestor(VertexId a, VertexId d) const {
  return a != d && inSubtree(d, a);
}

bool Tree::inSubtree(VertexId d, VertexId a) const {
  const auto ai = static_cast<std::size_t>(checked(a));
  const auto di = static_cast<std::size_t>(checked(d));
  return preIndex_[di] >= preIndex_[ai] && preIndex_[di] < subtreeEnd_[ai];
}

std::vector<VertexId> Tree::ancestors(VertexId v) const {
  std::vector<VertexId> out;
  for (VertexId p = parent(v); p != kNoVertex; p = parent(p)) out.push_back(p);
  return out;
}

std::span<const VertexId> Tree::clientsInSubtree(VertexId v) const {
  const std::int32_t first = clientsBefore(preorderIndex(v));
  const std::int32_t last = clientsBefore(preorderEnd(v));
  return {clients_.data() + first, static_cast<std::size_t>(last - first)};
}

std::size_t Tree::subtreeSize(VertexId v) const {
  const auto vi = static_cast<std::size_t>(checked(v));
  return static_cast<std::size_t>(subtreeEnd_[vi] - preIndex_[vi]);
}

int Tree::hops(VertexId v, VertexId anc) const {
  TREEPLACE_REQUIRE(v == anc || isAncestor(anc, v), "hops requires an ancestor");
  return depth(v) - depth(anc);
}

VertexId Tree::checked(VertexId v) const {
  TREEPLACE_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < parents_.size(),
                    "vertex id out of range");
  return v;
}

}  // namespace treeplace
