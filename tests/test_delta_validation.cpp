// Satellite of the resilience PR: every DeltaError rejection path of
// validateDelta/applyDelta, each asserting (a) the right code, (b) the strong
// exception guarantee — a rejected delta leaves the instance bit-identical —
// and (c) that a live IncrementalSolver keeps serving after a rejection.

#include "online/delta.hpp"

#include <gtest/gtest.h>

#include <string>

#include "online/incremental.hpp"
#include "test_util.hpp"
#include "tree/builder.hpp"

namespace treeplace {
namespace {

/// root(W=10) -> mid(W=10) -> {c2: 4, c3: 3}; ids: root=0, mid=1, c=2,3.
ProblemInstance smallInstance() {
  return testutil::chainInstance(10, 10, {4, 3});
}

bool sameInstance(const ProblemInstance& a, const ProblemInstance& b) {
  return a.tree.vertexCount() == b.tree.vertexCount() &&
         a.requests == b.requests && a.capacity == b.capacity &&
         a.storageCost == b.storageCost && a.commTime == b.commTime &&
         a.bandwidth == b.bandwidth && a.qos == b.qos && a.compTime == b.compTime;
}

/// Both entry points must reject with `code`, and applyDelta must leave the
/// instance untouched.
void expectRejected(const InstanceDelta& delta, DeltaErrorCode code) {
  ProblemInstance instance = smallInstance();
  const ProblemInstance before = instance;
  try {
    validateDelta(instance, delta);
    FAIL() << "validateDelta accepted a malformed delta (expected "
           << toString(code) << ")";
  } catch (const DeltaError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_FALSE(std::string(e.what()).empty());
  }
  try {
    applyDelta(instance, delta);
    FAIL() << "applyDelta accepted a malformed delta (expected "
           << toString(code) << ")";
  } catch (const DeltaError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
  EXPECT_TRUE(sameInstance(instance, before))
      << "rejected delta (" << toString(code) << ") mutated the instance";
}

TEST(DeltaValidation, UnknownVertexOutOfRange) {
  InstanceDelta d;
  d.kind = DeltaKind::RateChange;
  d.node = 99;
  d.rate = 1;
  expectRejected(d, DeltaErrorCode::UnknownVertex);
}

TEST(DeltaValidation, UnknownVertexNegativeId) {
  InstanceDelta d;
  d.kind = DeltaKind::ClientLeave;
  d.node = kNoVertex;  // the wildcard is only legal for CapacityChange
  expectRejected(d, DeltaErrorCode::UnknownVertex);
}

TEST(DeltaValidation, UnknownVertexOnJoin) {
  InstanceDelta d;
  d.kind = DeltaKind::ClientJoin;
  d.node = -7;
  d.rate = 2;
  expectRejected(d, DeltaErrorCode::UnknownVertex);
}

TEST(DeltaValidation, RateChangeOnInternalIsNotAClient) {
  InstanceDelta d;
  d.kind = DeltaKind::RateChange;
  d.node = 1;  // mid: internal
  d.rate = 5;
  expectRejected(d, DeltaErrorCode::NotAClient);
}

TEST(DeltaValidation, ClientLeaveOnInternalIsNotAClient) {
  InstanceDelta d;
  d.kind = DeltaKind::ClientLeave;
  d.node = 0;  // root
  expectRejected(d, DeltaErrorCode::NotAClient);
}

TEST(DeltaValidation, JoinUnderClientIsNotAnInternal) {
  InstanceDelta d;
  d.kind = DeltaKind::ClientJoin;
  d.node = 2;  // a client cannot host children
  d.rate = 1;
  expectRejected(d, DeltaErrorCode::NotAnInternal);
}

TEST(DeltaValidation, PerNodeCapacityOnClientIsNotAnInternal) {
  InstanceDelta d;
  d.kind = DeltaKind::CapacityChange;
  d.node = 3;
  d.capacity = 8;
  expectRejected(d, DeltaErrorCode::NotAnInternal);
}

TEST(DeltaValidation, AttachUnderClientIsNotAnInternal) {
  InstanceDelta d;
  d.kind = DeltaKind::SubtreeAttach;
  d.node = 2;
  d.capacity = 10;
  d.podRates = {1, 2};
  expectRejected(d, DeltaErrorCode::NotAnInternal);
}

TEST(DeltaValidation, DetachRootRejected) {
  InstanceDelta d;
  d.kind = DeltaKind::SubtreeDetach;
  d.node = 0;
  expectRejected(d, DeltaErrorCode::DetachRoot);
}

TEST(DeltaValidation, NegativeRateChange) {
  InstanceDelta d;
  d.kind = DeltaKind::RateChange;
  d.node = 2;
  d.rate = -1;
  expectRejected(d, DeltaErrorCode::NegativeRate);
}

TEST(DeltaValidation, NegativeJoinRate) {
  InstanceDelta d;
  d.kind = DeltaKind::ClientJoin;
  d.node = 1;
  d.rate = -3;
  expectRejected(d, DeltaErrorCode::NegativeRate);
}

TEST(DeltaValidation, NegativePodRate) {
  InstanceDelta d;
  d.kind = DeltaKind::SubtreeAttach;
  d.node = 1;
  d.capacity = 10;
  d.podRates = {3, -2, 1};
  expectRejected(d, DeltaErrorCode::NegativeRate);
}

TEST(DeltaValidation, ZeroCapacityChange) {
  InstanceDelta d;
  d.kind = DeltaKind::CapacityChange;
  d.node = kNoVertex;  // homogeneous change of every W
  d.capacity = 0;
  expectRejected(d, DeltaErrorCode::NonPositiveCapacity);
}

TEST(DeltaValidation, NegativePodCapacity) {
  InstanceDelta d;
  d.kind = DeltaKind::SubtreeAttach;
  d.node = 1;
  d.capacity = -4;
  d.podRates = {1};
  expectRejected(d, DeltaErrorCode::NonPositiveCapacity);
}

TEST(DeltaValidation, EmptyPodRejected) {
  InstanceDelta d;
  d.kind = DeltaKind::SubtreeAttach;
  d.node = 1;
  d.capacity = 10;
  d.podRates = {};
  expectRejected(d, DeltaErrorCode::EmptyPod);
}

TEST(DeltaValidation, WellFormedDeltasStillApply) {
  ProblemInstance instance = smallInstance();
  InstanceDelta d;
  d.kind = DeltaKind::RateChange;
  d.node = 2;
  d.rate = 6;
  const DeltaApplication app = applyDelta(instance, d);
  EXPECT_EQ(app.kind, DeltaKind::RateChange);
  EXPECT_EQ(instance.requests[2], 6);
}

// A live solver survives a rejected delta: the caches stay coherent and the
// next resolve still matches a scratch solve of the (unchanged) instance.
TEST(DeltaValidation, IncrementalSolverKeepsServingAfterRejection) {
  ProblemInstance instance = smallInstance();
  IncrementalSolver solver(instance, OnlinePolicy::Multiple);
  const auto first = solver.resolve();
  ASSERT_TRUE(first != nullptr);
  const std::size_t replicasBefore = first->replicaCount();

  InstanceDelta bad;
  bad.kind = DeltaKind::RateChange;
  bad.node = 2;
  bad.rate = -9;
  EXPECT_THROW(solver.apply(bad), DeltaError);

  const auto second = solver.resolve();
  ASSERT_TRUE(second != nullptr);
  EXPECT_EQ(second->replicaCount(), replicasBefore);

  // And a good delta after the rejection still goes through.
  InstanceDelta good;
  good.kind = DeltaKind::RateChange;
  good.node = 3;
  good.rate = 7;
  EXPECT_NO_THROW(solver.apply(good));
  EXPECT_TRUE(solver.resolve() != nullptr);
}

TEST(DeltaValidation, ErrorCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(DeltaErrorCode::EmptyPod); ++c)
    EXPECT_FALSE(toString(static_cast<DeltaErrorCode>(c)).empty());
}

}  // namespace
}  // namespace treeplace
