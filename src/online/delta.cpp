#include "online/delta.hpp"

#include <sstream>

#include "support/require.hpp"

namespace treeplace {
namespace {

/// Grow the per-vertex value arrays to the tree's (grown) vertex count,
/// with the defaults a fresh vertex carries. resize grows the capacity
/// geometrically, so a stream of appends costs amortized O(added).
void growValues(ProblemInstance& instance) {
  const std::size_t grown = instance.tree.vertexCount();
  instance.requests.resize(grown, 0);
  instance.capacity.resize(grown, 0);
  instance.storageCost.resize(grown, 0.0);
  instance.commTime.resize(grown, 0.0);
  instance.bandwidth.resize(grown, kUnlimitedBandwidth);
  instance.qos.resize(grown, kNoQos);
  instance.compTime.resize(grown, 0.0);
}

[[noreturn]] void reject(DeltaErrorCode code, const InstanceDelta& delta,
                         const char* what) {
  std::ostringstream os;
  os << "rejected delta (" << toString(code) << "): " << what << " [kind="
     << static_cast<int>(delta.kind) << ", node=" << delta.node << "]";
  throw DeltaError(code, os.str());
}

bool knownVertex(const Tree& tree, VertexId v) {
  return v >= 0 && static_cast<std::size_t>(v) < tree.vertexCount();
}

}  // namespace

std::string_view toString(DeltaErrorCode code) {
  switch (code) {
    case DeltaErrorCode::UnknownVertex: return "UnknownVertex";
    case DeltaErrorCode::NotAClient: return "NotAClient";
    case DeltaErrorCode::NotAnInternal: return "NotAnInternal";
    case DeltaErrorCode::DetachRoot: return "DetachRoot";
    case DeltaErrorCode::NegativeRate: return "NegativeRate";
    case DeltaErrorCode::NonPositiveCapacity: return "NonPositiveCapacity";
    case DeltaErrorCode::EmptyPod: return "EmptyPod";
  }
  return "?";
}

void validateDelta(const ProblemInstance& instance, const InstanceDelta& delta) {
  const Tree& tree = instance.tree;
  switch (delta.kind) {
    case DeltaKind::RateChange:
      if (!knownVertex(tree, delta.node))
        reject(DeltaErrorCode::UnknownVertex, delta, "RateChange of unknown vertex");
      if (!tree.isClient(delta.node))
        reject(DeltaErrorCode::NotAClient, delta, "RateChange needs a client");
      if (delta.rate < 0)
        reject(DeltaErrorCode::NegativeRate, delta, "request rate must be non-negative");
      return;
    case DeltaKind::ClientLeave:
      if (!knownVertex(tree, delta.node))
        reject(DeltaErrorCode::UnknownVertex, delta, "ClientLeave of unknown vertex");
      if (!tree.isClient(delta.node))
        reject(DeltaErrorCode::NotAClient, delta, "ClientLeave needs a client");
      return;
    case DeltaKind::CapacityChange:
      if (delta.capacity <= 0)
        reject(DeltaErrorCode::NonPositiveCapacity, delta,
               "capacity must stay positive");
      if (delta.node != kNoVertex) {
        if (!knownVertex(tree, delta.node))
          reject(DeltaErrorCode::UnknownVertex, delta,
                 "CapacityChange of unknown vertex");
        if (!tree.isInternal(delta.node))
          reject(DeltaErrorCode::NotAnInternal, delta,
                 "per-node CapacityChange needs an internal node");
      }
      return;
    case DeltaKind::ClientJoin:
      if (!knownVertex(tree, delta.node))
        reject(DeltaErrorCode::UnknownVertex, delta, "ClientJoin under unknown vertex");
      if (!tree.isInternal(delta.node))
        reject(DeltaErrorCode::NotAnInternal, delta,
               "ClientJoin attaches under an internal node");
      if (delta.rate < 0)
        reject(DeltaErrorCode::NegativeRate, delta, "request rate must be non-negative");
      return;
    case DeltaKind::SubtreeAttach:
      if (!knownVertex(tree, delta.node))
        reject(DeltaErrorCode::UnknownVertex, delta,
               "SubtreeAttach under unknown vertex");
      if (!tree.isInternal(delta.node))
        reject(DeltaErrorCode::NotAnInternal, delta,
               "SubtreeAttach attaches under an internal node");
      if (delta.podRates.empty())
        reject(DeltaErrorCode::EmptyPod, delta, "a pod needs at least one client");
      if (delta.capacity <= 0)
        reject(DeltaErrorCode::NonPositiveCapacity, delta,
               "pod capacity must be positive");
      for (const Requests r : delta.podRates)
        if (r < 0)
          reject(DeltaErrorCode::NegativeRate, delta,
                 "pod request rates must be non-negative");
      return;
    case DeltaKind::SubtreeDetach:
      if (!knownVertex(tree, delta.node))
        reject(DeltaErrorCode::UnknownVertex, delta,
               "SubtreeDetach of unknown vertex");
      if (delta.node == tree.root())
        reject(DeltaErrorCode::DetachRoot, delta,
               "SubtreeDetach of the root would silence every client");
      return;
  }
  reject(DeltaErrorCode::UnknownVertex, delta, "unknown delta kind");
}

DeltaApplication applyDelta(ProblemInstance& instance, const InstanceDelta& delta) {
  // Validate everything first: a DeltaError never leaves a partial mutation
  // behind (the application below cannot fail on a validated delta).
  validateDelta(instance, delta);

  const Tree& tree = instance.tree;
  DeltaApplication app;
  app.kind = delta.kind;

  switch (delta.kind) {
    case DeltaKind::RateChange: {
      instance.requests[static_cast<std::size_t>(delta.node)] = delta.rate;
      app.touched.push_back(delta.node);
      return app;
    }
    case DeltaKind::ClientLeave: {
      instance.requests[static_cast<std::size_t>(delta.node)] = 0;
      app.touched.push_back(delta.node);
      return app;
    }
    case DeltaKind::CapacityChange: {
      if (delta.node == kNoVertex) {
        // Homogeneous capacity shift: W appears in every place step, so only
        // a bag whose subtree demand fits both W's keeps its result. The
        // overwrite reads each old W anyway, so it also reports the old
        // common W.
        const auto& internals = tree.internals();
        Requests before = instance.capacity[static_cast<std::size_t>(internals.front())];
        for (const VertexId j : internals) {
          Requests& w = instance.capacity[static_cast<std::size_t>(j)];
          if (w != before) before = 0;
          w = delta.capacity;
        }
        app.global = true;
        app.capacityBefore = before;
        app.capacityAfter = delta.capacity;
      } else {
        instance.capacity[static_cast<std::size_t>(delta.node)] = delta.capacity;
        app.touched.push_back(delta.node);
      }
      return app;
    }
    case DeltaKind::ClientJoin: {
      app.structural = true;
      app.firstNewVertex = instance.tree.appendClient(delta.node);
      growValues(instance);
      const auto c = static_cast<std::size_t>(app.firstNewVertex);
      instance.requests[c] = delta.rate;
      instance.commTime[c] = delta.commTime;
      instance.qos[c] = delta.qos;
      app.touched.push_back(app.firstNewVertex);
      return app;
    }
    case DeltaKind::SubtreeAttach: {
      app.structural = true;
      app.firstNewVertex = instance.tree.appendPod(delta.node, delta.podRates.size());
      growValues(instance);
      const auto pod = static_cast<std::size_t>(app.firstNewVertex);
      instance.capacity[pod] = delta.capacity;
      instance.storageCost[pod] = delta.storageCost;
      instance.commTime[pod] = delta.commTime;
      for (std::size_t k = 0; k < delta.podRates.size(); ++k) {
        instance.requests[pod + 1 + k] = delta.podRates[k];
        instance.commTime[pod + 1 + k] = delta.commTime;
      }
      // Dirtying the pod root covers the new clients: they live below it.
      app.touched.push_back(app.firstNewVertex);
      return app;
    }
    case DeltaKind::SubtreeDetach: {
      const std::span<const VertexId> clients =
          tree.isClient(delta.node)
              ? std::span<const VertexId>(&delta.node, 1)
              : tree.clientsInSubtree(delta.node);
      for (const VertexId c : clients) {
        if (instance.requests[static_cast<std::size_t>(c)] == 0) continue;
        instance.requests[static_cast<std::size_t>(c)] = 0;
        app.touched.push_back(c);
      }
      return app;
    }
  }
  TREEPLACE_REQUIRE(false, "unknown delta kind");
  return app;
}

}  // namespace treeplace
