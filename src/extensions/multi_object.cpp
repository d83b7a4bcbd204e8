#include "extensions/multi_object.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/validate.hpp"
#include "support/require.hpp"

namespace treeplace {

void MultiObjectInstance::validate() const {
  shared.validate();
  TREEPLACE_REQUIRE(!objects.empty(), "need at least one object type");
  const std::size_t n = shared.tree.vertexCount();
  for (const ObjectData& object : objects) {
    TREEPLACE_REQUIRE(object.requests.size() == n, "object requests size mismatch");
    TREEPLACE_REQUIRE(object.storageCost.size() == n, "object cost size mismatch");
    TREEPLACE_REQUIRE(object.qos.size() == n, "object qos size mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<VertexId>(i);
      if (shared.tree.isClient(v)) {
        TREEPLACE_REQUIRE(object.requests[i] >= 0, "negative object requests");
      } else {
        TREEPLACE_REQUIRE(object.requests[i] == 0, "internal node with object requests");
        TREEPLACE_REQUIRE(object.storageCost[i] >= 0.0, "negative object storage cost");
      }
    }
  }
}

Requests MultiObjectInstance::totalRequests() const {
  Requests total = 0;
  for (const ObjectData& object : objects)
    for (const VertexId c : shared.tree.clients())
      total += object.requests[static_cast<std::size_t>(c)];
  return total;
}

ProblemInstance MultiObjectInstance::objectView(std::size_t object) const {
  TREEPLACE_REQUIRE(object < objects.size(), "object index out of range");
  ProblemInstance view = shared;
  view.requests = objects[object].requests;
  view.storageCost = objects[object].storageCost;
  view.qos = objects[object].qos;
  for (const VertexId c : view.tree.clients())
    if (view.qos[static_cast<std::size_t>(c)] <= 0.0)
      view.qos[static_cast<std::size_t>(c)] = kNoQos;
  return view;
}

double MultiObjectPlacement::storageCost(const MultiObjectInstance& instance) const {
  TREEPLACE_REQUIRE(perObject.size() == instance.objectCount(),
                    "placement/instance object count mismatch");
  double total = 0.0;
  for (std::size_t k = 0; k < perObject.size(); ++k) {
    for (const VertexId j : perObject[k].replicaList())
      total += instance.objects[k].storageCost[static_cast<std::size_t>(j)];
  }
  return total;
}

Requests MultiObjectPlacement::nodeLoad(VertexId node) const {
  Requests total = 0;
  for (const Placement& p : perObject) total += p.serverLoad(node);
  return total;
}

MultiObjectValidation validateMultiObject(const MultiObjectInstance& instance,
                                          const MultiObjectPlacement& placement,
                                          Policy policy, bool checkQos) {
  MultiObjectValidation out;
  if (placement.perObject.size() != instance.objectCount()) {
    out.detail = "object count mismatch";
    return out;
  }
  for (std::size_t k = 0; k < instance.objectCount(); ++k) {
    // Per-object rules minus capacity (capacity is checked jointly below):
    // build a view with unlimited capacity so only coverage/policy/QoS apply.
    ProblemInstance view = instance.objectView(k);
    for (const VertexId j : view.tree.internals())
      view.capacity[static_cast<std::size_t>(j)] =
          std::max(view.capacity[static_cast<std::size_t>(j)], instance.totalRequests());
    ValidationOptions vo;
    vo.checkQos = checkQos;
    vo.checkBandwidth = false;
    const ValidationResult r = validatePlacement(view, placement.perObject[k], policy, vo);
    if (!r.ok()) {
      out.detail = "object " + std::to_string(k) + ": " + r.describe();
      return out;
    }
  }
  for (const VertexId j : instance.shared.tree.internals()) {
    const Requests load = placement.nodeLoad(j);
    if (load > instance.shared.capacity[static_cast<std::size_t>(j)]) {
      out.detail = "joint capacity exceeded at node " + std::to_string(j) + ": " +
                   std::to_string(load) + " > " +
                   std::to_string(instance.shared.capacity[static_cast<std::size_t>(j)]);
      return out;
    }
  }
  out.ok = true;
  return out;
}

std::optional<MultiObjectPlacement> runMultiObjectGreedy(
    const MultiObjectInstance& instance) {
  instance.validate();
  const Tree& tree = instance.shared.tree;
  const std::size_t n = tree.vertexCount();

  // QoS-constrained objects first (they have fewer admissible servers and
  // must not find the deep capacity exhausted), then by decreasing demand.
  std::vector<std::size_t> order(instance.objectCount());
  std::iota(order.begin(), order.end(), 0);
  std::vector<Requests> demand(instance.objectCount(), 0);
  std::vector<char> constrained(instance.objectCount(), 0);
  for (std::size_t k = 0; k < instance.objectCount(); ++k) {
    for (const VertexId c : tree.clients()) {
      demand[k] += instance.objects[k].requests[static_cast<std::size_t>(c)];
      if (instance.objects[k].qos[static_cast<std::size_t>(c)] != kNoQos)
        constrained[k] = 1;
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (constrained[a] != constrained[b]) return constrained[a] > constrained[b];
    return demand[a] > demand[b];
  });

  std::vector<Requests> residual = instance.shared.capacity;
  MultiObjectPlacement placement;
  placement.perObject.assign(instance.objectCount(), Placement(n));

  for (const std::size_t k : order) {
    const MultiObjectInstance::ObjectData& object = instance.objects[k];
    std::vector<Requests> remaining = object.requests;
    Placement& objPlacement = placement.perObject[k];

    // Multiple-Greedy absorption on the residual capacities, but a node may
    // only take requests from clients whose QoS admits it.
    for (const VertexId s : tree.postorder()) {
      if (!tree.isInternal(s)) continue;
      auto& budget = residual[static_cast<std::size_t>(s)];
      if (budget == 0) continue;
      bool used = false;
      for (const VertexId client : tree.clientsInSubtree(s)) {
        if (budget == 0) break;
        auto& rest = remaining[static_cast<std::size_t>(client)];
        if (rest == 0) continue;
        const double qos = object.qos[static_cast<std::size_t>(client)];
        if (qos != kNoQos && instance.shared.qosLatency(client, s) > qos + 1e-9) continue;
        const Requests take = std::min(rest, budget);
        if (!used) {
          objPlacement.addReplica(s);
          used = true;
        }
        objPlacement.assign(client, s, take);
        rest -= take;
        budget -= take;
      }
    }
    for (const VertexId c : tree.clients())
      if (remaining[static_cast<std::size_t>(c)] != 0) return std::nullopt;
  }
  return placement;
}

MultiObjectExactResult solveMultiObjectIlp(const MultiObjectInstance& instance,
                                           const lp::MipOptions& options,
                                           Policy policy) {
  instance.validate();
  const Tree& tree = instance.shared.tree;
  const std::size_t K = instance.objectCount();
  const bool singleServer = policy != Policy::Multiple;

  lp::Model model;
  // x_{j,k}: replica of object k at node j.
  std::vector<std::vector<int>> xVar(K, std::vector<int>(tree.vertexCount(), -1));
  for (std::size_t k = 0; k < K; ++k) {
    for (const VertexId j : tree.internals()) {
      xVar[k][static_cast<std::size_t>(j)] = model.addVariable(
          0.0, 1.0, instance.objects[k].storageCost[static_cast<std::size_t>(j)],
          lp::VarType::Integer);
    }
  }
  // y^k_{i,j}: requests of client i for object k served at ancestor j
  // (Multiple), or an indicator that j serves all of them (single server).
  struct YVar {
    std::size_t object;
    VertexId client;
    VertexId server;
    int var;
  };
  std::vector<YVar> yVars;
  // yIndex[k][client] lists positions in yVars for the Closest rows.
  std::vector<std::vector<std::vector<std::size_t>>> yIndex(
      K, std::vector<std::vector<std::size_t>>(tree.vertexCount()));
  for (std::size_t k = 0; k < K; ++k) {
    for (const VertexId i : tree.clients()) {
      const auto ii = static_cast<std::size_t>(i);
      const Requests r = instance.objects[k].requests[ii];
      if (r == 0) continue;
      std::vector<lp::Term> assignTerms;
      for (const VertexId j : tree.ancestors(i)) {
        const double qos = instance.objects[k].qos[ii];
        if (qos != kNoQos && instance.shared.qosLatency(i, j) > qos + 1e-9) continue;
        const double upper = singleServer ? 1.0 : static_cast<double>(r);
        const int var = model.addVariable(
            0.0, upper, 0.0, lp::VarType::Integer);
        yIndex[k][ii].push_back(yVars.size());
        yVars.push_back({k, i, j, var});
        assignTerms.push_back({var, 1.0});
      }
      model.addConstraint(lp::Sense::Equal,
                          singleServer ? 1.0 : static_cast<double>(r), assignTerms);
    }
  }
  // Capacity: per-object linking rows and one joint row per node.
  for (const VertexId j : tree.internals()) {
    const auto ji = static_cast<std::size_t>(j);
    const double W = static_cast<double>(instance.shared.capacity[ji]);
    std::vector<lp::Term> joint;
    for (std::size_t k = 0; k < K; ++k) {
      std::vector<lp::Term> link;
      for (const YVar& y : yVars) {
        if (y.object == k && y.server == j) {
          const double mult =
              singleServer
                  ? static_cast<double>(
                        instance.objects[k].requests[static_cast<std::size_t>(y.client)])
                  : 1.0;
          link.push_back({y.var, mult});
          joint.push_back({y.var, mult});
        }
      }
      link.push_back({xVar[k][ji], -W});
      model.addConstraint(lp::Sense::LessEqual, 0.0, link);
    }
    model.addConstraint(lp::Sense::LessEqual, W, joint);
  }
  // Closest, per object: a client of object k served at j forces every other
  // client of object k below j to be served at or below j.
  if (policy == Policy::Closest) {
    for (std::size_t k = 0; k < K; ++k) {
      for (const VertexId i : tree.clients()) {
        const auto ii = static_cast<std::size_t>(i);
        for (const std::size_t yi : yIndex[k][ii]) {
          const VertexId j = yVars[yi].server;
          if (j == tree.root()) continue;
          for (const VertexId other : tree.clientsInSubtree(j)) {
            if (other == i) continue;
            const auto oi = static_cast<std::size_t>(other);
            if (instance.objects[k].requests[oi] == 0) continue;
            std::vector<lp::Term> terms{{yVars[yi].var, -1.0}};
            for (const std::size_t yo : yIndex[k][oi]) {
              if (tree.inSubtree(yVars[yo].server, j))
                terms.push_back({yVars[yo].var, 1.0});
            }
            model.addConstraint(lp::Sense::GreaterEqual, 0.0, terms);
          }
        }
      }
    }
  }

  const lp::MipResult mip = lp::solveMip(model, options);
  MultiObjectExactResult result;
  result.proven = mip.proven;
  result.lowerBound = mip.lowerBound;
  if (!mip.hasIncumbent()) return result;

  MultiObjectPlacement placement;
  placement.perObject.assign(K, Placement(tree.vertexCount()));
  for (const YVar& y : yVars) {
    const double value = mip.values[static_cast<std::size_t>(y.var)];
    const Requests amount =
        singleServer
            ? (value > 0.5
                   ? instance.objects[y.object].requests[static_cast<std::size_t>(y.client)]
                   : 0)
            : static_cast<Requests>(std::llround(value));
    if (amount > 0) placement.perObject[y.object].assign(y.client, y.server, amount);
  }
  for (std::size_t k = 0; k < K; ++k)
    for (const VertexId j : tree.internals())
      if (placement.perObject[k].serverLoad(j) > 0) placement.perObject[k].addReplica(j);
  result.cost = placement.storageCost(instance);
  result.placement = std::move(placement);
  return result;
}

}  // namespace treeplace
