#include "core/decomposition.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "tree/generator.hpp"

namespace treeplace {
namespace {

TEST(TreeDecomposition, BagsCoincideWithVertices) {
  const ProblemInstance instance = generateInstance(GeneratorConfig{}, 7, 0);
  const Tree& tree = instance.tree;
  const TreeDecomposition decomp(tree);

  EXPECT_EQ(decomp.bagCount(), tree.vertexCount());
  EXPECT_EQ(decomp.rootBag(), tree.root());
  for (std::size_t v = 0; v < tree.vertexCount(); ++v) {
    const auto b = static_cast<BagId>(v);
    EXPECT_EQ(decomp.anchor(b), b);
    EXPECT_EQ(decomp.anchorIsClient(b), tree.isClient(b));
    ASSERT_EQ(decomp.introduced(b).size(), 1u);
    EXPECT_EQ(decomp.introduced(b)[0], b);
  }
}

TEST(TreeDecomposition, ScheduleIsPostorder) {
  const ProblemInstance instance = generateInstance(GeneratorConfig{}, 7, 1);
  const TreeDecomposition decomp(instance.tree);
  const auto& post = instance.tree.postorder();
  const auto schedule = decomp.schedule();
  ASSERT_EQ(schedule.size(), post.size());
  for (std::size_t i = 0; i < post.size(); ++i) EXPECT_EQ(schedule[i], post[i]);
}

TEST(TreeDecomposition, ExposesBothChildOrders) {
  const ProblemInstance instance = generateInstance(GeneratorConfig{}, 7, 2);
  const Tree& tree = instance.tree;
  const TreeDecomposition decomp(tree);
  for (std::size_t v = 0; v < tree.vertexCount(); ++v) {
    const auto b = static_cast<BagId>(v);
    const auto raw = decomp.children(b);
    const auto merge = decomp.mergeChildren(b);
    ASSERT_EQ(raw.size(), tree.children(b).size());
    ASSERT_EQ(merge.size(), tree.mergeChildren(b).size());
    for (std::size_t i = 0; i < raw.size(); ++i)
      EXPECT_EQ(raw[i], tree.children(b)[i]);
    for (std::size_t i = 0; i < merge.size(); ++i)
      EXPECT_EQ(merge[i], tree.mergeChildren(b)[i]);
    EXPECT_EQ(decomp.forgotten(b).size(), raw.size());
  }
}

TEST(TreeDecomposition, ConeCountsMatchSubtreeCounts) {
  const ProblemInstance instance = generateInstance(GeneratorConfig{}, 7, 3);
  const Tree& tree = instance.tree;
  const TreeDecomposition decomp(tree);
  for (std::size_t v = 0; v < tree.vertexCount(); ++v) {
    const auto b = static_cast<BagId>(v);
    EXPECT_EQ(decomp.verticesInCone(b), tree.subtreeSize(b));
    EXPECT_EQ(decomp.clientsInCone(b), tree.clientsInSubtree(b).size());
    EXPECT_EQ(decomp.internalsInCone(b),
              tree.subtreeSize(b) - tree.clientsInSubtree(b).size());
  }
}

// introduced() is a view into tree-owned storage, so one adapter can be
// shared by concurrent readers: every thread sees {b} for every bag.
TEST(TreeDecomposition, IntroducedIsSafeAcrossThreads) {
  const ProblemInstance instance = generateInstance(GeneratorConfig{}, 7, 4);
  const TreeDecomposition decomp(instance.tree);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    readers.emplace_back([&decomp, &mismatches, t] {
      for (std::size_t v = 0; v < decomp.bagCount(); ++v) {
        const auto b = static_cast<BagId>(v);
        const auto introduced = decomp.introduced(b);
        if (introduced.size() != 1 || introduced[0] != b) ++mismatches[t];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::size_t t = 0; t < mismatches.size(); ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace treeplace
