#include "formulation/ilp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/bounds.hpp"
#include "support/require.hpp"

namespace treeplace {

using lp::Sense;
using lp::Term;
using lp::VarType;

IlpFormulation::IlpFormulation(const ProblemInstance& instance, Policy policy,
                               const FormulationOptions& options)
    : instance_(instance), policy_(policy), integrality_(options.integrality) {
  instance.validate();
  build(options);
}

int IlpFormulation::placementVar(VertexId node) const {
  return xVar_.at(static_cast<std::size_t>(node));
}

int IlpFormulation::addFrontierCuts(const FrontierSubtreeRelaxation& relaxation) {
  const Tree& tree = instance_.tree;
  // internals() is preorder-sorted, so the internal nodes of subtree(v) are a
  // contiguous slice of it starting at v itself (same trick as core/bounds).
  const auto& internals = tree.internals();
  std::vector<std::int32_t> prePos(tree.vertexCount(), 0);
  {
    const auto& pre = tree.preorder();
    for (std::size_t i = 0; i < pre.size(); ++i)
      prePos[static_cast<std::size_t>(pre[i])] = static_cast<std::int32_t>(i);
  }
  std::vector<std::int32_t> intPos(internals.size());
  std::vector<std::size_t> intIndex(tree.vertexCount(), 0);
  for (std::size_t k = 0; k < internals.size(); ++k) {
    intPos[k] = prePos[static_cast<std::size_t>(internals[k])];
    intIndex[static_cast<std::size_t>(internals[k])] = k;
  }

  int rows = 0;
  std::vector<Term> terms;
  for (const VertexId v : tree.internals()) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int32_t floor = relaxation.minReplicasIn(v);
    if (floor <= 0) continue;
    // Children's floors add over their disjoint subtrees; when they already
    // cover this floor the cut is implied and only slows the LP down.
    std::int32_t childSum = 0;
    for (const VertexId c : tree.children(v))
      if (tree.isInternal(c)) childSum += relaxation.minReplicasIn(c);
    if (childSum >= floor) continue;

    const std::size_t begin = intIndex[vi];
    const auto endPos = prePos[vi] + static_cast<std::int32_t>(tree.subtreeSize(v));
    const auto end = static_cast<std::size_t>(
        std::lower_bound(intPos.begin() + static_cast<std::ptrdiff_t>(begin),
                         intPos.end(), endPos) -
        intPos.begin());
    if (static_cast<std::size_t>(floor) >= end - begin) {
      // The floor saturates the subtree: every internal node is a replica in
      // every feasible placement — fix instead of cutting.
      for (std::size_t k = begin; k < end; ++k)
        model_.setBounds(xVar_[static_cast<std::size_t>(internals[k])], 1.0, 1.0);
      continue;
    }
    terms.clear();
    for (std::size_t k = begin; k < end; ++k)
      terms.push_back({xVar_[static_cast<std::size_t>(internals[k])], 1.0});
    model_.addConstraint(Sense::GreaterEqual, static_cast<double>(floor), terms);
    ++rows;
  }
  return rows;
}

int IlpFormulation::addSymmetryCuts() {
  const Tree& tree = instance_.tree;
  const std::size_t n = tree.vertexCount();

  // Canonical subtree ids, bottom-up: two vertices share an id iff their
  // subtrees are identical in shape and every attribute. The signature packs
  // the vertex attributes with the sorted child ids; a map interns it.
  std::vector<std::int32_t> canon(n, -1);
  std::map<std::vector<double>, std::int32_t> internTable;
  std::vector<double> key;
  std::vector<double> childIds;
  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    key.clear();
    key.push_back(tree.isClient(v) ? 1.0 : 0.0);
    key.push_back(static_cast<double>(instance_.requests[vi]));
    key.push_back(static_cast<double>(instance_.capacity[vi]));
    key.push_back(instance_.storageCost[vi]);
    key.push_back(instance_.qos[vi]);
    key.push_back(instance_.commTime[vi]);
    key.push_back(static_cast<double>(instance_.bandwidth[vi]));
    key.push_back(instance_.compTime[vi]);
    childIds.clear();
    for (const VertexId c : tree.children(v))
      childIds.push_back(static_cast<double>(canon[static_cast<std::size_t>(c)]));
    std::sort(childIds.begin(), childIds.end());
    key.insert(key.end(), childIds.begin(), childIds.end());
    const auto [it, inserted] =
        internTable.try_emplace(key, static_cast<std::int32_t>(internTable.size()));
    canon[vi] = it->second;
  }

  // Chain x_{c_k} >= x_{c_k+1} over each run of identical internal siblings
  // (children are id-ordered, so runs pick a deterministic representative).
  int rows = 0;
  std::vector<std::pair<std::int32_t, VertexId>> group;
  for (const VertexId v : tree.internals()) {
    group.clear();
    for (const VertexId c : tree.children(v))
      if (tree.isInternal(c))
        group.push_back({canon[static_cast<std::size_t>(c)], c});
    std::sort(group.begin(), group.end());
    for (std::size_t k = 1; k < group.size(); ++k) {
      if (group[k].first != group[k - 1].first) continue;
      const Term terms[2] = {{xVar_[static_cast<std::size_t>(group[k - 1].second)], 1.0},
                             {xVar_[static_cast<std::size_t>(group[k].second)], -1.0}};
      model_.addConstraint(Sense::GreaterEqual, 0.0, terms);
      ++rows;
    }
  }
  return rows;
}

int IlpFormulation::assignmentVar(VertexId client, VertexId server) const {
  const auto& servers = yServer_.at(static_cast<std::size_t>(client));
  for (std::size_t k = 0; k < servers.size(); ++k)
    if (servers[k] == server) return yVar_[static_cast<std::size_t>(client)][k];
  return -1;
}

void IlpFormulation::build(const FormulationOptions& options) {
  const Tree& tree = instance_.tree;
  const bool singleServer = policy_ != Policy::Multiple;
  const bool integerX = integrality_ != FormulationOptions::Integrality::Relaxed;
  const bool integerY = integrality_ == FormulationOptions::Integrality::Exact;

  xVar_.assign(tree.vertexCount(), -1);
  if (options.elasticCapacity) uVar_.assign(tree.vertexCount(), -1);
  assignRow_.assign(tree.vertexCount(), -1);
  yVar_.assign(tree.vertexCount(), {});
  yServer_.assign(tree.vertexCount(), {});

  // x_j: one placement indicator per internal node.
  for (const VertexId j : tree.internals()) {
    xVar_[static_cast<std::size_t>(j)] = model_.addVariable(
        0.0, 1.0, instance_.storageCost[static_cast<std::size_t>(j)],
        integerX ? VarType::Integer : VarType::Continuous);
  }

  // y_{i,j}: per client, one variable per QoS-admissible ancestor.
  for (const VertexId i : tree.clients()) {
    const auto ii = static_cast<std::size_t>(i);
    if (instance_.requests[ii] == 0 && !options.keepZeroRateClients) continue;
    for (const VertexId j : tree.ancestors(i)) {
      if (options.enforceQos && instance_.qos[ii] != kNoQos &&
          instance_.qosLatency(i, j) > instance_.qos[ii] + 1e-9)
        continue;
      const double upper =
          singleServer ? 1.0 : static_cast<double>(instance_.requests[ii]);
      yServer_[ii].push_back(j);
      yVar_[ii].push_back(model_.addVariable(
          0.0, upper, 0.0, integerY ? VarType::Integer : VarType::Continuous));
    }
  }

  // Every client is fully assigned: sum_j y_{i,j} = 1 (single server) or r_i.
  for (const VertexId i : tree.clients()) {
    const auto ii = static_cast<std::size_t>(i);
    if (instance_.requests[ii] == 0 && !options.keepZeroRateClients) continue;
    std::vector<Term> terms;
    terms.reserve(yVar_[ii].size());
    for (const int var : yVar_[ii]) terms.push_back({var, 1.0});
    const double rhs =
        singleServer ? 1.0 : static_cast<double>(instance_.requests[ii]);
    assignRow_[ii] = model_.addConstraint(Sense::Equal, rhs, terms);
  }

  // Capacity: sum_i (r_i) y_{i,j} <= W_j x_j.
  {
    std::vector<std::vector<Term>> capacityTerms(tree.vertexCount());
    for (const VertexId i : tree.clients()) {
      const auto ii = static_cast<std::size_t>(i);
      const double mult =
          singleServer ? static_cast<double>(instance_.requests[ii]) : 1.0;
      for (std::size_t k = 0; k < yServer_[ii].size(); ++k)
        capacityTerms[static_cast<std::size_t>(yServer_[ii][k])].push_back(
            {yVar_[ii][k], mult});
    }
    for (const VertexId j : tree.internals()) {
      const auto ji = static_cast<std::size_t>(j);
      auto& terms = capacityTerms[ji];
      const double cap = static_cast<double>(instance_.capacity[ji]);
      if (options.elasticCapacity) {
        // Elastic form: sum y <= u_j <= W_j and u_j <= M_j x_j, with M_j the
        // build-time capacity. Later capacity changes are box updates on u_j.
        uVar_[ji] = model_.addVariable(0.0, cap, 0.0, VarType::Continuous);
        terms.push_back({uVar_[ji], -1.0});
        model_.addConstraint(Sense::LessEqual, 0.0, terms);
        const Term link[2] = {{uVar_[ji], 1.0}, {xVar_[ji], -cap}};
        model_.addConstraint(Sense::LessEqual, 0.0, link);
      } else {
        terms.push_back({xVar_[ji], -cap});
        model_.addConstraint(Sense::LessEqual, 0.0, terms);
      }
    }
  }

  // Bandwidth: flow through link k->parent(k) is
  //   sum_{i in subtree(k)} (r_i - sum_{j on path(i..k)} r_i-or-1 * y_{i,j})
  // which must stay within BW_k; rewritten as a >= row on the y variables.
  if (options.enforceBandwidth) {
    for (std::size_t ki = 0; ki < tree.vertexCount(); ++ki) {
      const auto k = static_cast<VertexId>(ki);
      if (k == tree.root() || instance_.bandwidth[ki] == kUnlimitedBandwidth) continue;
      std::vector<Term> terms;
      Requests demand = 0;
      const auto subtreeClients =
          tree.isClient(k) ? std::span<const VertexId>(&k, 1) : tree.clientsInSubtree(k);
      for (const VertexId i : subtreeClients) {
        const auto ii = static_cast<std::size_t>(i);
        demand += instance_.requests[ii];
        const double mult =
            singleServer ? static_cast<double>(instance_.requests[ii]) : 1.0;
        for (std::size_t c = 0; c < yServer_[ii].size(); ++c) {
          const VertexId j = yServer_[ii][c];
          if (j != i && tree.inSubtree(j, k)) terms.push_back({yVar_[ii][c], mult});
        }
      }
      const double rhs = static_cast<double>(demand - instance_.bandwidth[ki]);
      if (rhs <= 0.0 && terms.empty()) continue;  // trivially satisfied
      model_.addConstraint(Sense::GreaterEqual, rhs, terms);
    }
  }

  // Closest: a client served at j forces every client below j to be served at
  // or below j:  y_{i,j} <= sum_{j' on path(i'..j)} y_{i',j'}.
  if (policy_ == Policy::Closest) {
    for (const VertexId i : tree.clients()) {
      const auto ii = static_cast<std::size_t>(i);
      for (std::size_t c = 0; c < yServer_[ii].size(); ++c) {
        const VertexId j = yServer_[ii][c];
        if (j == tree.root()) continue;  // nothing can be served above the root
        for (const VertexId other : tree.clientsInSubtree(j)) {
          if (other == i) continue;
          const auto oi = static_cast<std::size_t>(other);
          if (instance_.requests[oi] == 0) continue;
          std::vector<Term> terms;
          terms.push_back({yVar_[ii][c], -1.0});
          for (std::size_t d = 0; d < yServer_[oi].size(); ++d) {
            if (tree.inSubtree(yServer_[oi][d], j))
              terms.push_back({yVar_[oi][d], 1.0});
          }
          model_.addConstraint(Sense::GreaterEqual, 0.0, terms);
        }
      }
    }
  }
}

Placement IlpFormulation::decode(std::span<const double> values) const {
  TREEPLACE_REQUIRE(integrality_ == FormulationOptions::Integrality::Exact,
                    "decode requires an integral formulation");
  TREEPLACE_REQUIRE(static_cast<int>(values.size()) == model_.variableCount(),
                    "solution vector size mismatch");
  const Tree& tree = instance_.tree;
  Placement placement(tree.vertexCount());
  const bool singleServer = policy_ != Policy::Multiple;

  for (const VertexId i : tree.clients()) {
    const auto ii = static_cast<std::size_t>(i);
    for (std::size_t k = 0; k < yServer_[ii].size(); ++k) {
      const double y = values[static_cast<std::size_t>(yVar_[ii][k])];
      const Requests amount =
          singleServer
              ? (y > 0.5 ? instance_.requests[ii] : 0)
              : static_cast<Requests>(std::llround(y));
      if (amount > 0) placement.assign(i, yServer_[ii][k], amount);
    }
  }
  // Only loaded nodes become replicas: dropping unused x_j == 1 nodes keeps
  // every policy valid (Closest in particular) and never increases cost.
  for (const VertexId j : tree.internals())
    if (placement.serverLoad(j) > 0) placement.addReplica(j);
  return placement;
}

}  // namespace treeplace
