#include "online/warm_ilp.hpp"

#include <algorithm>
#include <utility>

#include "core/bounds.hpp"
#include "support/require.hpp"

namespace treeplace {

WarmIlpSession::WarmIlpSession(ProblemInstance& instance, lp::MipOptions mip)
    : instance_(&instance), baseMip_(std::move(mip)), bounds_(instance) {
  TREEPLACE_REQUIRE(baseMip_.workspace == nullptr,
                    "WarmIlpSession owns the persistent workspace itself");
  build();
}

void WarmIlpSession::build() {
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Exact;
  fo.enforceQos = true;
  fo.enforceBandwidth = false;
  fo.keepZeroRateClients = true;
  fo.elasticCapacity = true;
  formulation_.emplace(*instance_, Policy::Multiple, fo);
  builtCapacity_ = instance_->capacity;
  workspace_.reset();  // the old workspace references the dead model
  workspace_.emplace(formulation_->model());
  rebuildNeeded_ = false;
}

void WarmIlpSession::patchClientRate(VertexId client) {
  const auto ci = static_cast<std::size_t>(client);
  const double rate = static_cast<double>(instance_->requests[ci]);
  lp::Model& model = formulation_->mutableModel();
  for (const int var : formulation_->assignmentVars(client))
    model.setBounds(var, 0.0, rate);
  const int row = formulation_->assignRow(client);
  TREEPLACE_REQUIRE(row >= 0, "warm session lost a client's assign row");
  model.setRowRhs(row, rate);
}

bool WarmIlpSession::patchCapacity(VertexId node) {
  const auto ji = static_cast<std::size_t>(node);
  // Growth above the build-time M_j would need the capx coefficient itself.
  if (instance_->capacity[ji] > builtCapacity_[ji]) return false;
  const int u = formulation_->capacityVar(node);
  if (u < 0) return false;
  formulation_->mutableModel().setBounds(
      u, 0.0, static_cast<double>(instance_->capacity[ji]));
  return true;
}

DeltaApplication WarmIlpSession::apply(const InstanceDelta& delta) {
  const DeltaApplication app = applyDelta(*instance_, delta);
  bounds_.noteDelta(app);
  if (app.structural) {
    rebuildNeeded_ = true;
    return app;
  }
  if (rebuildNeeded_) return app;  // the next build re-reads everything
  switch (delta.kind) {
    case DeltaKind::RateChange:
    case DeltaKind::ClientLeave:
    case DeltaKind::SubtreeDetach:
      for (const VertexId c : app.touched) patchClientRate(c);
      ++stats_.patches;
      break;
    case DeltaKind::CapacityChange: {
      bool patched = true;
      if (app.global) {
        for (const VertexId j : instance_->tree.internals())
          patched = patchCapacity(j) && patched;
      } else {
        patched = patchCapacity(delta.node);
      }
      if (patched)
        ++stats_.patches;
      else
        rebuildNeeded_ = true;
      break;
    }
    case DeltaKind::ClientJoin:
    case DeltaKind::SubtreeAttach:
      rebuildNeeded_ = true;  // structural — unreachable, handled above
      break;
  }
  return app;
}

std::vector<double> WarmIlpSession::encodeIncumbent(const Placement& previous) const {
  const Tree& tree = instance_->tree;
  // A structural rebuild may have grown the tree past the stored placement.
  if (previous.vertexCount() != tree.vertexCount()) return {};
  const lp::Model& model = formulation_->model();
  std::vector<double> values(static_cast<std::size_t>(model.variableCount()), 0.0);
  std::vector<Requests> residual(tree.vertexCount(), 0);
  for (const VertexId j : tree.internals())
    if (previous.hasReplica(j))
      residual[static_cast<std::size_t>(j)] =
          instance_->capacity[static_cast<std::size_t>(j)];

  for (const VertexId i : tree.clients()) {
    Requests remaining = instance_->requests[static_cast<std::size_t>(i)];
    if (remaining == 0) continue;
    const auto servers = formulation_->assignmentServers(i);
    const auto vars = formulation_->assignmentVars(i);
    // Lowest admissible replica first (ancestors are bottom-up): the laminar
    // greedy that keeps high servers free for clients outside this subtree.
    for (std::size_t k = 0; k < servers.size() && remaining > 0; ++k) {
      Requests& room = residual[static_cast<std::size_t>(servers[k])];
      const Requests take = std::min(remaining, room);
      if (take <= 0) continue;
      values[static_cast<std::size_t>(vars[k])] += static_cast<double>(take);
      room -= take;
      remaining -= take;
    }
    if (remaining > 0) return {};  // repair failed; solve unseeded
  }

  for (const VertexId j : tree.internals()) {
    const auto ji = static_cast<std::size_t>(j);
    const Requests load =
        previous.hasReplica(j) ? instance_->capacity[ji] - residual[ji] : 0;
    if (load <= 0) continue;  // unloaded replicas stay closed (cheaper seed)
    values[static_cast<std::size_t>(formulation_->placementVar(j))] = 1.0;
    values[static_cast<std::size_t>(formulation_->capacityVar(j))] =
        static_cast<double>(load);
  }
  return values;
}

ExactIlpResult WarmIlpSession::resolve(BudgetGuard* guard) {
  stats_.lastNodes = 0;  // stays 0 when the search dies before its first node
  bounds_.refresh();
  ExactIlpResult result;
  if (!bounds_.feasible()) {
    // Even the per-subtree relaxation cannot serve every request; QoS only
    // restricts further, so the ILP is infeasible — no search needed.
    result.proven = true;
    previous_.reset();
    return result;
  }
  if (rebuildNeeded_) {
    build();
    ++stats_.rebuilds;
  }

  lp::MipOptions mo = baseMip_;
  mo.workspace = &*workspace_;
  if (guard != nullptr) mo.guard = guard;
  mo.knownLowerBound = std::max(mo.knownLowerBound, bounds_.decompositionBound());
  if (previous_) {
    std::vector<double> seed = encodeIncumbent(*previous_);
    if (!seed.empty()) {
      mo.initialIncumbent = std::move(seed);
      ++stats_.seededSolves;
    }
  }

  result = solveFormulation(*instance_, *formulation_, std::move(mo), true);
  stats_.lastNodes = result.nodesExplored;
  stats_.totalNodes += result.nodesExplored;
  previous_ = result.placement;
  return result;
}

}  // namespace treeplace
