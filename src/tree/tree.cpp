#include "tree/tree.hpp"

#include <algorithm>
#include <cstdint>
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
    std::sort(t.mergeList_.data() + t.childStart_[vi], t.mergeList_.data() + t.childStart_[vi + 1],
              [&t](VertexId a, VertexId b) { return t.mergesBefore(a, b); });
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

bool Tree::mergesBefore(VertexId a, VertexId b) const {
  const std::size_t sa = subtreeSize(a);
  const std::size_t sb = subtreeSize(b);
  return sa != sb ? sa < sb : a < b;
}

VertexId Tree::appendClient(VertexId parent) { return graft(parent, 0); }

VertexId Tree::appendPod(VertexId parent, std::size_t clients) {
  TREEPLACE_REQUIRE(clients > 0, "a pod needs at least one client");
  return graft(parent, clients);
}

VertexId Tree::graft(VertexId parent, std::size_t podClients) {
  TREEPLACE_REQUIRE(isInternal(parent), "appended vertices need an internal parent");
  const std::size_t n = vertexCount();
  const std::size_t added = 1 + podClients;
  TREEPLACE_REQUIRE(n + added <= static_cast<std::size_t>(INT32_MAX), "vertex ids exhausted");
  const auto first = static_cast<VertexId>(n);
  const auto k = static_cast<std::int32_t>(added);
  const bool pod = podClients > 0;
  const auto pi = static_cast<std::size_t>(parent);

  // The new subtree (its root, then a pod's clients) becomes the parent's
  // last child — its ids are maximal — so in preorder it opens where the
  // parent's interval used to end, and in postorder it closes right before
  // the parent.
  const std::int32_t pos = subtreeEnd_[pi];
  const std::int32_t postPos = postorderIndex(parent);
  const std::int32_t clientsAhead = clientsBefore_[static_cast<std::size_t>(pos)];
  std::vector<VertexId> inPreorder(added);
  std::vector<std::int32_t> prefix(added);  // clientsBefore at each new position
  for (std::size_t j = 0; j < added; ++j) {
    inPreorder[j] = first + static_cast<VertexId>(j);
    prefix[j] = clientsAhead + static_cast<std::int32_t>(j == 0 ? 0 : j - 1);
  }
  std::vector<VertexId> inPostorder(inPreorder.begin() + 1, inPreorder.end());
  inPostorder.push_back(first);
  const auto newClients = inPreorder.begin() + (pod ? 1 : 0);

  // Splice the preorder-position arrays: every vertex opened at or after
  // `pos` moves k slots on; the root path's intervals widen by k.
  {
    std::int32_t* pre = preIndex_.data();
    std::int32_t* end = subtreeEnd_.data();
    for (std::size_t v = 0; v < n; ++v) {  // branch-free, so it vectorizes
      const std::int32_t shift = pre[v] >= pos ? k : 0;
      pre[v] += shift;
      end[v] += shift;
    }
  }
  for (VertexId u = parent; u != kNoVertex; u = parents_[static_cast<std::size_t>(u)])
    subtreeEnd_[static_cast<std::size_t>(u)] += k;
  const auto clientCount = static_cast<std::int32_t>(inPreorder.end() - newClients);
  for (std::size_t i = static_cast<std::size_t>(pos); i < clientsBefore_.size(); ++i)
    clientsBefore_[i] += clientCount;
  clientsBefore_.insert(clientsBefore_.begin() + pos, prefix.begin(), prefix.end());
  preorder_.insert(preorder_.begin() + pos, inPreorder.begin(), inPreorder.end());
  postorder_.insert(postorder_.begin() + postPos, inPostorder.begin(), inPostorder.end());
  clients_.insert(clients_.begin() + clientsAhead, newClients, inPreorder.end());
  if (pod) internals_.insert(internals_.begin() + (pos - clientsAhead), first);

  // Per-vertex facts of the new vertices.
  const int parentDepth = depths_[pi];
  for (std::size_t j = 0; j < added; ++j) {
    const bool root = j == 0;
    parents_.push_back(root ? parent : first);
    kinds_.push_back(root && pod ? VertexKind::Internal : VertexKind::Client);
    depths_.push_back(parentDepth + (root ? 1 : 2));
    preIndex_.push_back(pos + static_cast<std::int32_t>(j));
    subtreeEnd_.push_back(root ? pos + k : pos + static_cast<std::int32_t>(j) + 1);
  }

  // Child lists: the graft becomes the parent's last slot (every later
  // list moves one slot on) and slides left in the merge order past heavier
  // siblings; a pod's clients fill the new root's list at the tail (they tie
  // on size, so both orders are by id). Every root-path vertex whose subtree
  // grew then slides right past the siblings it now outweighs.
  const std::int32_t slot = childStart_[pi + 1];
  childList_.insert(childList_.begin() + slot, first);
  mergeList_.insert(mergeList_.begin() + slot, first);
  for (std::size_t v = pi + 1; v <= n; ++v) ++childStart_[v];
  for (auto i = static_cast<std::size_t>(slot);
       i > static_cast<std::size_t>(childStart_[pi]) && mergesBefore(first, mergeList_[i - 1]); --i)
    std::swap(mergeList_[i], mergeList_[i - 1]);
  childList_.insert(childList_.end(), inPreorder.begin() + 1, inPreorder.end());
  mergeList_.insert(mergeList_.end(), inPreorder.begin() + 1, inPreorder.end());
  childStart_.resize(n + added + 1, static_cast<std::int32_t>(childList_.size()));
  for (VertexId u = parent; parents_[static_cast<std::size_t>(u)] != kNoVertex;
       u = parents_[static_cast<std::size_t>(u)])
    resortMergeSlot(u);
  return first;
}

void Tree::resortMergeSlot(VertexId v) {
  const auto pi = static_cast<std::size_t>(parents_[static_cast<std::size_t>(v)]);
  VertexId* slots = mergeList_.data() + childStart_[pi];
  const std::int32_t count = childStart_[pi + 1] - childStart_[pi];
  std::int32_t i = 0;
  while (slots[i] != v) ++i;
  for (; i + 1 < count && mergesBefore(slots[i + 1], v); ++i) std::swap(slots[i], slots[i + 1]);
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
