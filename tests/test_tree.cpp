#include "tree/tree.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/prng.hpp"
#include "support/require.hpp"
#include "tree/generator.hpp"
#include "tree/multitree.hpp"

namespace treeplace {
namespace {

// A hand tree:        0 (root)
//                    /  .
//                   1    2
//                  / .    .
//                 3   4    5
// 3, 4, 5 clients; 0, 1, 2 internal.
Tree sampleTree() {
  return Tree::fromParents(
      {kNoVertex, 0, 0, 1, 1, 2},
      {VertexKind::Internal, VertexKind::Internal, VertexKind::Internal,
       VertexKind::Client, VertexKind::Client, VertexKind::Client});
}

TEST(Tree, BasicShape) {
  const Tree t = sampleTree();
  EXPECT_EQ(t.vertexCount(), 6u);
  EXPECT_EQ(t.root(), 0);
  EXPECT_TRUE(t.isInternal(0));
  EXPECT_TRUE(t.isClient(3));
  EXPECT_EQ(t.parent(0), kNoVertex);
  EXPECT_EQ(t.parent(5), 2);
}

TEST(Tree, ChildrenLists) {
  const Tree t = sampleTree();
  const auto kidsRoot = t.children(0);
  ASSERT_EQ(kidsRoot.size(), 2u);
  EXPECT_EQ(kidsRoot[0], 1);
  EXPECT_EQ(kidsRoot[1], 2);
  EXPECT_TRUE(t.children(3).empty());
  EXPECT_TRUE(t.isLeaf(5));
  EXPECT_FALSE(t.isLeaf(1));
}

TEST(Tree, Depths) {
  const Tree t = sampleTree();
  EXPECT_EQ(t.depth(0), 0);
  EXPECT_EQ(t.depth(1), 1);
  EXPECT_EQ(t.depth(4), 2);
}

TEST(Tree, Ancestry) {
  const Tree t = sampleTree();
  EXPECT_TRUE(t.isAncestor(0, 3));
  EXPECT_TRUE(t.isAncestor(1, 4));
  EXPECT_FALSE(t.isAncestor(1, 5));
  EXPECT_FALSE(t.isAncestor(3, 3));  // proper ancestry
  EXPECT_TRUE(t.inSubtree(3, 3));
  EXPECT_TRUE(t.inSubtree(3, 0));
  EXPECT_FALSE(t.inSubtree(0, 3));
}

TEST(Tree, AncestorList) {
  const Tree t = sampleTree();
  const auto a = t.ancestors(4);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 0);
  EXPECT_TRUE(t.ancestors(0).empty());
}

TEST(Tree, ClientAndInternalLists) {
  const Tree t = sampleTree();
  EXPECT_EQ(t.clients().size(), 3u);
  EXPECT_EQ(t.internals().size(), 3u);
}

TEST(Tree, ClientsInSubtree) {
  const Tree t = sampleTree();
  const auto c1 = t.clientsInSubtree(1);
  ASSERT_EQ(c1.size(), 2u);
  EXPECT_EQ(c1[0], 3);
  EXPECT_EQ(c1[1], 4);
  const auto c2 = t.clientsInSubtree(2);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_EQ(c2[0], 5);
  EXPECT_EQ(t.clientsInSubtree(0).size(), 3u);
  // A client's own subtree is itself.
  const auto c3 = t.clientsInSubtree(3);
  ASSERT_EQ(c3.size(), 1u);
  EXPECT_EQ(c3[0], 3);
}

TEST(Tree, Orders) {
  const Tree t = sampleTree();
  EXPECT_EQ(t.preorder().front(), 0);
  EXPECT_EQ(t.postorder().back(), 0);
  EXPECT_EQ(t.preorder().size(), 6u);
  EXPECT_EQ(t.postorder().size(), 6u);
  // Postorder: children before parents.
  std::vector<int> position(6);
  for (std::size_t k = 0; k < t.postorder().size(); ++k)
    position[static_cast<std::size_t>(t.postorder()[k])] = static_cast<int>(k);
  for (VertexId v = 1; v < 6; ++v)
    EXPECT_LT(position[static_cast<std::size_t>(v)],
              position[static_cast<std::size_t>(t.parent(v))]);
}

TEST(Tree, SubtreeSizeAndHops) {
  const Tree t = sampleTree();
  EXPECT_EQ(t.subtreeSize(0), 6u);
  EXPECT_EQ(t.subtreeSize(1), 3u);
  EXPECT_EQ(t.subtreeSize(5), 1u);
  EXPECT_EQ(t.hops(4, 0), 2);
  EXPECT_EQ(t.hops(4, 1), 1);
  EXPECT_EQ(t.hops(1, 1), 0);
  EXPECT_THROW(t.hops(4, 2), PreconditionError);
}

TEST(Tree, RejectsMultipleRoots) {
  EXPECT_THROW(Tree::fromParents({kNoVertex, kNoVertex},
                                 {VertexKind::Internal, VertexKind::Internal}),
               PreconditionError);
}

TEST(Tree, RejectsMissingRoot) {
  EXPECT_THROW(
      Tree::fromParents({1, 0}, {VertexKind::Internal, VertexKind::Internal}),
      PreconditionError);
}

TEST(Tree, RejectsCycle) {
  // 1 -> 2 -> 1 with root 0 detached from them.
  EXPECT_THROW(Tree::fromParents({kNoVertex, 2, 1, 0},
                                 {VertexKind::Internal, VertexKind::Internal,
                                  VertexKind::Internal, VertexKind::Client}),
               PreconditionError);
}

TEST(Tree, RejectsClientWithChildren) {
  EXPECT_THROW(Tree::fromParents({kNoVertex, 0, 1},
                                 {VertexKind::Internal, VertexKind::Client,
                                  VertexKind::Client}),
               PreconditionError);
}

TEST(Tree, RejectsInternalLeaf) {
  EXPECT_THROW(Tree::fromParents({kNoVertex, 0, 0},
                                 {VertexKind::Internal, VertexKind::Internal,
                                  VertexKind::Client}),
               PreconditionError);
}

TEST(Tree, RejectsClientRoot) {
  EXPECT_THROW(Tree::fromParents({kNoVertex}, {VertexKind::Client}),
               PreconditionError);
}

TEST(Tree, RejectsOutOfRangeParent) {
  EXPECT_THROW(Tree::fromParents({kNoVertex, 9},
                                 {VertexKind::Internal, VertexKind::Client}),
               PreconditionError);
}

TEST(Tree, RejectsOutOfRangeQueries) {
  const Tree t = sampleTree();
  EXPECT_THROW(t.parent(-2), PreconditionError);
  EXPECT_THROW(t.kind(6), PreconditionError);
}

// Regression for the canonical merge order invariant (see tree.hpp): the
// order is exactly ascending (subtree size, id) — a pure function of the
// shape — and a rebuild of the same shape reproduces it slot for slot. The
// incremental engine's combo-chain prefix reuse replays against this order;
// any drift would silently break bit-identical replay.
TEST(Tree, MergeChildrenCanonicalOrderIsDeterministic) {
  for (std::uint64_t index = 0; index < 5; ++index) {
    GeneratorConfig config;
    config.minSize = 40;
    config.maxSize = 120;
    const ProblemInstance instance = generateInstance(config, 99, index);
    const Tree& tree = instance.tree;

    std::vector<VertexId> parents(tree.vertexCount());
    std::vector<VertexKind> kinds(tree.vertexCount());
    for (std::size_t v = 0; v < tree.vertexCount(); ++v) {
      parents[v] = tree.parent(static_cast<VertexId>(v));
      kinds[v] = tree.kind(static_cast<VertexId>(v));
    }
    const Tree rebuilt = Tree::fromParents(parents, kinds);

    for (std::size_t v = 0; v < tree.vertexCount(); ++v) {
      const auto merge = tree.mergeChildren(static_cast<VertexId>(v));
      for (std::size_t i = 1; i < merge.size(); ++i) {
        const std::size_t sa = tree.subtreeSize(merge[i - 1]);
        const std::size_t sb = tree.subtreeSize(merge[i]);
        EXPECT_TRUE(sa < sb || (sa == sb && merge[i - 1] < merge[i]))
            << "non-canonical merge order under vertex " << v;
      }
      const auto again = rebuilt.mergeChildren(static_cast<VertexId>(v));
      ASSERT_EQ(merge.size(), again.size());
      for (std::size_t i = 0; i < merge.size(); ++i)
        EXPECT_EQ(merge[i], again[i]) << "rebuild drifted under vertex " << v;
    }
  }
}

// clientsInSubtree is read off the prefix client count in O(1); it must be
// exactly the preorder-ordered filter of clients() by subtree membership,
// also on multitree member trees, whose bare internals are leaves but not
// clients.
TEST(Tree, ClientsInSubtreeMatchesBruteForceFilter) {
  std::vector<Tree> trees;
  for (std::uint64_t index = 0; index < 150; ++index) {
    GeneratorConfig config;
    config.minSize = 3;
    config.maxSize = 90;
    trees.push_back(generateInstance(config, 2024, index).tree);
  }
  MultitreeConfig multi;
  multi.base.minSize = 10;
  multi.base.maxSize = 60;
  for (std::uint64_t index = 0; trees.size() < 200; ++index) {
    const MultitreeInstance mt = generateMultitreeInstance(multi, 4048, index);
    for (const ProblemInstance& member : mt.trees) trees.push_back(member.tree);
  }
  int bareInternals = 0;
  for (std::size_t k = 0; k < trees.size(); ++k) {
    const Tree& tree = trees[k];
    for (std::size_t v = 0; v < tree.vertexCount(); ++v) {
      const auto vertex = static_cast<VertexId>(v);
      if (tree.isInternal(vertex) && tree.isLeaf(vertex)) ++bareInternals;
      std::vector<VertexId> want;
      for (const VertexId c : tree.clients())
        if (tree.inSubtree(c, vertex)) want.push_back(c);
      const auto got = tree.clientsInSubtree(vertex);
      ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()), want)
          << "tree " << k << " vertex " << v;
    }
  }
  EXPECT_GT(bareInternals, 0);  // the multitree members exercised bare internals
}

// The append path (appendClient / appendPod) must leave a tree that every
// accessor reads exactly as Tree::fromParents on the extended parent array:
// children and merge orders, parents, depths, subtree sizes and client
// counts, ancestry, and the preorder-position arrays the batch readers use.
// Seeded joins and pods land anywhere, several in a row under one parent
// too, so the child-list relocations and repacks all run.
void expectSameTree(const Tree& grown, const Tree& built, const std::string& ctx) {
  ASSERT_EQ(grown.vertexCount(), built.vertexCount()) << ctx;
  EXPECT_EQ(grown.root(), built.root()) << ctx;
  EXPECT_EQ(grown.preorder(), built.preorder()) << ctx;
  EXPECT_EQ(grown.postorder(), built.postorder()) << ctx;
  EXPECT_EQ(grown.clients(), built.clients()) << ctx;
  EXPECT_EQ(grown.internals(), built.internals()) << ctx;
  const auto n = static_cast<VertexId>(built.vertexCount());
  for (std::int32_t pos = 0; pos <= n; ++pos)
    ASSERT_EQ(grown.clientsBefore(pos), built.clientsBefore(pos)) << ctx << " pos " << pos;
  for (VertexId v = 0; v < n; ++v) {
    const std::string at = ctx + " vertex " + std::to_string(v);
    ASSERT_EQ(grown.kind(v), built.kind(v)) << at;
    ASSERT_EQ(grown.parent(v), built.parent(v)) << at;
    ASSERT_EQ(grown.depth(v), built.depth(v)) << at;
    ASSERT_EQ(grown.subtreeSize(v), built.subtreeSize(v)) << at;
    ASSERT_EQ(grown.clientsInSubtree(v).size(), built.clientsInSubtree(v).size()) << at;
    ASSERT_EQ(grown.preorderIndex(v), built.preorderIndex(v)) << at;
    ASSERT_EQ(grown.preorderEnd(v), built.preorderEnd(v)) << at;
    ASSERT_EQ(grown.postorderIndex(v), built.postorderIndex(v)) << at;
    ASSERT_EQ(built.postorder()[static_cast<std::size_t>(built.postorderIndex(v))], v) << at;
    if (built.isClient(v)) {
      ASSERT_EQ(grown.clientIndex(v), built.clientIndex(v)) << at;
      ASSERT_EQ(built.clients()[static_cast<std::size_t>(built.clientIndex(v))], v) << at;
    }
    const auto kids = grown.children(v);
    const auto wantKids = built.children(v);
    ASSERT_EQ(std::vector<VertexId>(kids.begin(), kids.end()),
              std::vector<VertexId>(wantKids.begin(), wantKids.end()))
        << at;
    const auto merge = grown.mergeChildren(v);
    const auto wantMerge = built.mergeChildren(v);
    ASSERT_EQ(std::vector<VertexId>(merge.begin(), merge.end()),
              std::vector<VertexId>(wantMerge.begin(), wantMerge.end()))
        << at;
    EXPECT_EQ(grown.ancestors(v), built.ancestors(v)) << at;
  }
  for (VertexId a = 0; a < n; ++a)
    for (VertexId d = 0; d < n; ++d)
      ASSERT_EQ(grown.isAncestor(a, d), built.isAncestor(a, d)) << ctx << " " << a << "/" << d;
}

TEST(Tree, AppendPathMatchesFromParents) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratorConfig config;
    config.minSize = 3;
    config.maxSize = 40;
    Tree grown = generateInstance(config, 77, seed).tree;
    std::vector<VertexId> parents(grown.vertexCount());
    std::vector<VertexKind> kinds(grown.vertexCount());
    for (std::size_t v = 0; v < grown.vertexCount(); ++v) {
      parents[v] = grown.parent(static_cast<VertexId>(v));
      kinds[v] = grown.kind(static_cast<VertexId>(v));
    }
    Prng rng(seed * 31 + 3);
    VertexId lastParent = grown.root();
    for (int step = 0; step < 60; ++step) {
      const auto& internals = grown.internals();
      // One append in four reuses the previous parent: its lists then sit
      // at the pool tail and grow in place.
      const VertexId parent =
          rng.bernoulli(0.25)
              ? lastParent
              : internals[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(internals.size()) - 1))];
      lastParent = parent;
      if (rng.bernoulli(0.5)) {
        const VertexId c = grown.appendClient(parent);
        ASSERT_EQ(static_cast<std::size_t>(c), parents.size());
        parents.push_back(parent);
        kinds.push_back(VertexKind::Client);
      } else {
        const auto pod = static_cast<std::size_t>(rng.uniformInt(1, 4));
        const VertexId root = grown.appendPod(parent, pod);
        ASSERT_EQ(static_cast<std::size_t>(root), parents.size());
        parents.push_back(parent);
        kinds.push_back(VertexKind::Internal);
        for (std::size_t k = 0; k < pod; ++k) {
          parents.push_back(root);
          kinds.push_back(VertexKind::Client);
        }
      }
      if (step % 6 == 5 || step == 59)
        expectSameTree(grown, Tree::fromParents(parents, kinds),
                       "seed " + std::to_string(seed) + " step " + std::to_string(step));
    }
  }
}

TEST(Tree, AppendRejectsClientParentAndEmptyPod) {
  Tree t = sampleTree();
  EXPECT_THROW(t.appendClient(3), PreconditionError);
  EXPECT_THROW(t.appendPod(0, 0), PreconditionError);
  EXPECT_THROW(t.appendClient(17), PreconditionError);
  EXPECT_EQ(t.vertexCount(), 6u);
}

}  // namespace
}  // namespace treeplace
