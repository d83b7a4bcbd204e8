#include "online/resilient.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "online/warm_ilp.hpp"

namespace treeplace {
namespace {

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Policy corePolicy(OnlinePolicy policy) {
  return policy == OnlinePolicy::Multiple ? Policy::Multiple : Policy::Closest;
}

/// The homogeneous DP paths ignore bandwidth, and QoS only binds on the
/// ClosestQos path — validating a plain-Closest placement against incidental
/// qos values would reject answers the exact solver itself produces.
ValidationOptions valOpts(OnlinePolicy policy) {
  return {policy == OnlinePolicy::ClosestQos, false};
}

SolveBudget scaledBudget(const SolveBudget& whole, double fraction) {
  SolveBudget b = whole;
  if (b.wallMs > 0.0) b.wallMs = std::max(1.0, b.wallMs * fraction);
  if (b.maxSteps > 0)
    b.maxSteps = std::max<long>(
        1, static_cast<long>(static_cast<double>(b.maxSteps) * fraction));
  return b;
}

/// What is left for the degraded rungs once the exact rung returned:
/// remaining wall time plus the reserved share of the step budget.
SolveBudget remainingBudget(const SolveBudget& whole, double elapsedMs,
                            double exactFraction) {
  SolveBudget b = whole;
  if (b.wallMs > 0.0) b.wallMs = std::max(1.0, b.wallMs - elapsedMs);
  if (b.maxSteps > 0)
    b.maxSteps = std::max<long>(
        1, static_cast<long>(static_cast<double>(b.maxSteps) *
                             (1.0 - exactFraction)));
  return b;
}

/// O(n log n) feasible-or-give-up placement for the Closest policy, QoS-aware
/// so the same sweep serves the ClosestQos rung. Each node tracks its unserved
/// flow and the tightest remaining QoS headroom ("slack") among the clients
/// carrying that flow. Three triggers place replicas on the way up:
///  - forced: flow whose slack cannot pay for service at v is served at the
///    child it arrived from (or the sweep gives up when that child is a
///    client — no higher node can serve it either, slack only shrinks);
///  - capacity: when the surviving inflow exceeds W, the heaviest internal
///    children take replicas until it fits (a Closest replica must absorb its
///    whole subtree's unserved flow, and the invariant "every processed node
///    leaves at most W unserved with slack >= its compTime" keeps each grant
///    feasible);
///  - root: any residue is served at the root.
/// Not optimal; the bracket floor quantifies by how much.
std::optional<Placement> greedyClosest(const ProblemInstance& instance) {
  const Tree& tree = instance.tree;
  const std::size_t n = tree.vertexCount();
  const Requests W = instance.homogeneousCapacity();
  std::vector<Requests> flow(n, 0);
  std::vector<double> slack(n, kNoQos);
  std::vector<char> bit(n, 0);
  struct Inflow {
    Requests flow;
    double slack;  ///< headroom left once the flow has crossed into v
    VertexId child;
    bool internal;
  };
  std::vector<Inflow> in;
  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.isClient(v)) {
      flow[vi] = instance.requests[vi];
      slack[vi] = instance.qos[vi];
      continue;
    }
    in.clear();
    for (const VertexId c : tree.children(v)) {
      const auto ci = static_cast<std::size_t>(c);
      if (flow[ci] <= 0) continue;
      in.push_back({flow[ci], slack[ci] - instance.commTime[ci], c,
                    tree.isInternal(c)});
    }
    const double comp = instance.compTime[vi];
    Requests f = 0;
    std::size_t keep = 0;
    for (const Inflow& e : in) {
      if (e.slack < comp) {
        if (!e.internal) return std::nullopt;
        bit[static_cast<std::size_t>(e.child)] = 1;
      } else {
        f += e.flow;
        in[keep++] = e;
      }
    }
    in.resize(keep);
    if (f > W) {
      std::sort(in.begin(), in.end(), [](const Inflow& a, const Inflow& b) {
        return a.flow > b.flow;
      });
      std::size_t keep2 = 0;
      for (const Inflow& e : in) {
        if (f > W && e.internal) {
          bit[static_cast<std::size_t>(e.child)] = 1;
          f -= e.flow;
        } else {
          in[keep2++] = e;
        }
      }
      in.resize(keep2);
      if (f > W) return std::nullopt;  // sibling client rates alone exceed W
    }
    double s = kNoQos;
    for (const Inflow& e : in) s = std::min(s, e.slack);
    flow[vi] = f;
    slack[vi] = s;
  }
  const VertexId root = tree.root();
  const auto ri = static_cast<std::size_t>(root);
  if (tree.isClient(root)) {
    if (flow[ri] > 0) return std::nullopt;
    return Placement(n);
  }
  if (flow[ri] > 0) bit[ri] = 1;  // fits: <= W, slack >= comp by the sweep
  Placement placement(n);
  for (std::size_t vi = 0; vi < n; ++vi)
    if (bit[vi] != 0) placement.addReplica(static_cast<VertexId>(vi));
  assignClientsToClosest(instance, placement);
  return placement;
}

/// Degraded rung for Multiple: the paper's three-pass algorithm is exact for
/// homogeneous Multiple and usually runs in near-linear time — the same
/// latency class as a greedy sweep — so it IS the fallback. Its pass-2
/// rescans can still add up to O(replicas x internals) on large trees, so
/// they charge the rung's guard and give up (no placement) on a trip. The
/// outcome is still reported through the degraded path (validated placement
/// plus a streaming floor) rather than claimed Optimal: this rung runs after
/// faults or budget trips, where the cheap end-to-end checks are the
/// contract.
std::optional<Placement> greedyMultiple(const ProblemInstance& instance, BudgetGuard& guard) {
  try {
    return solveMultipleHomogeneous(instance, nullptr, &guard);
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<Placement> greedyPlacement(const ProblemInstance& instance,
                                         OnlinePolicy policy, BudgetGuard& guard) {
  return policy == OnlinePolicy::Multiple ? greedyMultiple(instance, guard)
                                          : greedyClosest(instance);
}

struct DegradedFloor {
  std::int32_t floor = 0;
  bool certified = false;
  bool infeasible = false;  ///< cap-safe: streaming infeasible IS infeasible
};

/// Certified replica floor from the width-capped streaming DP. The 2-D
/// policies carry their own cap-gap bracket; ClosestQos is floored by the
/// plain-Closest count — dropping the QoS constraints is a relaxation, so its
/// floor (and its infeasibility verdict) certifies the QoS problem too.
DegradedFloor streamFloor(const ProblemInstance& instance, OnlinePolicy policy,
                          const FrontierStreamOptions& options) {
  DegradedFloor out;
  try {
    StreamCountResult r;
    switch (policy) {
      case OnlinePolicy::Closest:
      case OnlinePolicy::ClosestQos:
        r = countClosestHomogeneousStreaming(instance, options);
        break;
      case OnlinePolicy::Multiple:
        r = countMultipleHomogeneousStreaming(instance, options);
        break;
    }
    if (!r.feasible) {
      out.infeasible = true;
      return out;
    }
    out.floor = r.replicasFloor();
    out.certified = true;
  } catch (...) {
    // Interrupted or faulted mid-count: no floor, the trivial 0 stands.
  }
  return out;
}

/// Near-free any-policy replica floor: every replica serves at most W
/// requests, so ceil(total demand / W) replicas are needed under any policy.
/// Looser than the subtree relaxation, but cheap enough to run after the
/// deadline already tripped; the guarded streaming floor tightens it
/// whenever budget remains.
DegradedFloor coverFloorOf(const ProblemInstance& instance) {
  DegradedFloor out;
  if (!instance.isHomogeneous()) return out;
  const Requests W = instance.homogeneousCapacity();
  if (W <= 0) return out;
  Requests total = 0;
  for (const Requests r : instance.requests) total += r;
  out.floor = static_cast<std::int32_t>((total + W - 1) / W);
  out.certified = true;
  return out;
}

/// Validation runs after faults may already have fired; a validator that
/// throws (e.g. an injected allocation failure mid-check) must read as "not
/// proven valid" and push the ladder onward, never escape a solve.
bool quietlyValid(const ProblemInstance& instance, const Placement& p,
                  Policy policy, const ValidationOptions& vo) {
  try {
    return isValidPlacement(instance, p, policy, vo);
  } catch (...) {
    return false;
  }
}

std::shared_ptr<const Placement> toSnapshot(std::optional<Placement>&& placement) {
  if (!placement) return nullptr;
  return std::make_shared<const Placement>(std::move(*placement));
}

void fillOptimal(SolveOutcome& out, std::shared_ptr<const Placement> placement) {
  if (placement) {
    out.status = OutcomeStatus::Optimal;
    out.level = DegradationLevel::Exact;
    out.cost = static_cast<double>(placement->replicaCount());
    out.lowerBound = out.cost;
    out.placement = std::move(placement);
  } else {
    out.status = OutcomeStatus::Infeasible;
    out.level = DegradationLevel::None;
  }
}

}  // namespace

SolveOutcome solveResilient(const ProblemInstance& instance, OnlinePolicy policy,
                            const SolveBudget& budget,
                            const ResilientOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const double fraction = std::clamp(options.exactFraction, 0.01, 1.0);
  SolveOutcome out;

  BudgetGuard exactGuard(scaledBudget(budget, fraction));
  try {
    fillOptimal(out, toSnapshot(solveOneShot(instance, policy, &exactGuard)));
    out.steps = exactGuard.stepsUsed();
    out.elapsedMs = msSince(t0);
    return out;
  } catch (const SolveInterrupted& e) {
    out.budget = e.verdict();
  } catch (const std::exception& e) {
    out.budget = exactGuard.verdict();
    out.message = e.what();
  }
  const long exactSteps = exactGuard.stepsUsed();

  if (out.budget == BudgetVerdict::Cancelled) {
    out.status = OutcomeStatus::Cancelled;
    out.level = DegradationLevel::None;
    out.steps = exactSteps;
    out.elapsedMs = msSince(t0);
    return out;
  }

  BudgetGuard degradedGuard(remainingBudget(budget, msSince(t0), fraction));
  FrontierStreamOptions streamOpts;
  streamOpts.widthCap = options.degradedWidthCap;
  streamOpts.guard = &degradedGuard;

  const DegradedFloor relax = coverFloorOf(instance);
  std::optional<Placement> p;
  try {
    p = greedyPlacement(instance, policy, degradedGuard);
  } catch (...) {
    p.reset();
  }
  if (p && quietlyValid(instance, *p, corePolicy(policy), valOpts(policy))) {
    out.status = OutcomeStatus::FeasibleDegraded;
    out.level = DegradationLevel::StreamCapped;
    out.cost = static_cast<double>(p->replicaCount());
    out.placement = toSnapshot(std::move(p));
    const DegradedFloor floor = streamFloor(instance, policy, streamOpts);
    out.lowerBound = std::max(relax.certified ? static_cast<double>(relax.floor) : 0.0,
                              floor.certified ? static_cast<double>(floor.floor) : 0.0);
  } else {
    const DegradedFloor floor = streamFloor(instance, policy, streamOpts);
    if (floor.infeasible || relax.infeasible) {
      out.status = OutcomeStatus::Infeasible;
      out.level = DegradationLevel::None;
    } else {
      out.status = OutcomeStatus::Error;
      out.level = DegradationLevel::None;
      if (out.message.empty())
        out.message = "budget exhausted before any feasible placement was found";
    }
  }
  out.steps = exactSteps + degradedGuard.stepsUsed();
  out.elapsedMs = msSince(t0);
  return out;
}

namespace {

/// Shared budgeted-ILP driver: run `solve(guard)` under a fresh guard and
/// convert the ExactIlpResult into the structured outcome contract both
/// solveResilientIlp overloads document. `solve` is the only difference
/// between the one-shot and the warm-session entry points.
template <typename SolveFn>
SolveOutcome runBudgetedIlp(const SolveBudget& budget, SolveFn&& solve) {
  const auto t0 = std::chrono::steady_clock::now();
  SolveOutcome out;
  BudgetGuard guard(budget);

  ExactIlpResult r;
  try {
    r = solve(guard);
  } catch (const SolveInterrupted& e) {
    out.budget = e.verdict();
    out.status = e.verdict() == BudgetVerdict::Cancelled ? OutcomeStatus::Cancelled
                                                         : OutcomeStatus::Error;
    out.message = "ILP search interrupted before an incumbent existed";
    out.steps = guard.stepsUsed();
    out.elapsedMs = msSince(t0);
    return out;
  } catch (const std::exception& e) {
    out.status = OutcomeStatus::Error;
    out.message = e.what();
    out.steps = guard.stepsUsed();
    out.elapsedMs = msSince(t0);
    return out;
  }

  out.budget = r.stopReason != BudgetVerdict::Ok ? r.stopReason : guard.verdict();
  out.steps = guard.stepsUsed();
  if (r.placement) {
    out.cost = r.cost;
    if (r.proven) {
      out.status = OutcomeStatus::Optimal;
      out.level = DegradationLevel::Exact;
      out.lowerBound = r.cost;
    } else {
      out.status = guard.exceeded() ? OutcomeStatus::TimedOutWithIncumbent
                                    : OutcomeStatus::FeasibleDegraded;
      out.level = DegradationLevel::WarmIncumbent;
      // The dual bound can nose past the incumbent by the gap tolerance;
      // clamp so the reported bracket stays an interval.
      out.lowerBound = std::min(r.lowerBound, r.cost);
    }
    out.placement = toSnapshot(std::move(r.placement));
  } else if (r.proven) {
    out.status = OutcomeStatus::Infeasible;
    out.level = DegradationLevel::None;
  } else {
    out.status = guard.verdict() == BudgetVerdict::Cancelled
                     ? OutcomeStatus::Cancelled
                     : OutcomeStatus::Error;
    out.level = DegradationLevel::None;
    out.message = "search truncated before any incumbent";
    out.lowerBound = r.lowerBound;
  }
  out.elapsedMs = msSince(t0);
  return out;
}

}  // namespace

SolveOutcome solveResilientIlp(const ProblemInstance& instance, Policy policy,
                               const SolveBudget& budget,
                               const ExactIlpOptions& ilpIn) {
  return runBudgetedIlp(budget, [&](BudgetGuard& guard) {
    ExactIlpOptions ilp = ilpIn;
    ilp.mip.guard = &guard;
    return solveExactViaIlp(instance, policy, ilp);
  });
}

SolveOutcome solveResilientIlp(WarmIlpSession& session, const SolveBudget& budget) {
  return runBudgetedIlp(budget,
                        [&](BudgetGuard& guard) { return session.resolve(&guard); });
}

ResilientSession::ResilientSession(ProblemInstance& instance, OnlinePolicy policy,
                                   ResilientOptions options)
    : instance_(&instance), policy_(policy), options_(options),
      solver_(instance, policy) {}

DeltaApplication ResilientSession::apply(const InstanceDelta& delta) {
  DeltaApplication app = solver_.apply(delta);
  if (bounds_) {
    try {
      bounds_->noteDelta(app);
    } catch (...) {
      bounds_.reset();
    }
  }
  return app;
}

std::int32_t ResilientSession::relaxationFloor() {
  try {
    if (!bounds_)
      bounds_.emplace(*instance_);  // refreshes on construction
    else
      bounds_->refresh();
    if (!bounds_->feasible()) return 0;
    return std::max<std::int32_t>(0, bounds_->minTotalReplicas());
  } catch (...) {
    bounds_.reset();  // poisoned by a fault mid-refresh: rebuild next time
    return 0;
  }
}

SolveOutcome ResilientSession::solve(const SolveBudget& budget) {
  const auto t0 = std::chrono::steady_clock::now();
  const double fraction = std::clamp(options_.exactFraction, 0.01, 1.0);
  SolveOutcome out;

  // Rung A: incremental exact. A budget trip leaves the caches exact, so the
  // work done here is not lost — the next request's rung A resumes from it.
  BudgetGuard exactGuard(scaledBudget(budget, fraction));
  try {
    std::shared_ptr<const Placement> p = solver_.resolve(&exactGuard);
    if (p) lastGood_ = p;
    fillOptimal(out, std::move(p));
    out.steps = exactGuard.stepsUsed();
    out.elapsedMs = msSince(t0);
    return out;
  } catch (const SolveInterrupted& e) {
    out.budget = e.verdict();
  } catch (const std::exception& e) {
    // resolve() already retried from scratch internally; reaching here means
    // even the scratch pass failed. Degraded rungs still apply.
    out.budget = exactGuard.verdict();
    out.message = e.what();
  }
  const long exactSteps = exactGuard.stepsUsed();

  if (out.budget == BudgetVerdict::Cancelled) {
    out.status = OutcomeStatus::Cancelled;
    out.level = DegradationLevel::None;
    out.steps = exactSteps;
    out.elapsedMs = msSince(t0);
    return out;
  }

  BudgetGuard degradedGuard(remainingBudget(budget, msSince(t0), fraction));
  const auto relaxFloor = static_cast<double>(relaxationFloor());
  const Policy policy = corePolicy(policy_);
  const ValidationOptions vo = valOpts(policy_);

  const auto finish = [&](SolveOutcome&& o) {
    o.steps = exactSteps + degradedGuard.stepsUsed();
    o.elapsedMs = msSince(t0);
    return std::move(o);
  };

  // Rung B: the last-known-good replica set, re-fitted onto the current
  // rates. One mutation old in the common case, so usually near-optimal.
  if (lastGood_ &&
      lastGood_->vertexCount() == instance_->tree.vertexCount()) {
    std::optional<Placement> refit;
    try {
      std::vector<char> bit(instance_->tree.vertexCount(), 0);
      for (const VertexId v : lastGood_->replicaList())
        bit[static_cast<std::size_t>(v)] = 1;
      if (policy_ == OnlinePolicy::Multiple) {
        refit = assignMultipleRequests(*instance_, bit, instance_->homogeneousCapacity());
      } else {
        Placement p(instance_->tree.vertexCount());
        for (const VertexId v : lastGood_->replicaList()) p.addReplica(v);
        assignClientsToClosest(*instance_, p);
        refit = std::move(p);
      }
    } catch (...) {
      refit.reset();
    }
    if (refit && quietlyValid(*instance_, *refit, policy, vo)) {
      out.status = OutcomeStatus::FeasibleDegraded;
      out.level = DegradationLevel::WarmIncumbent;
      out.cost = static_cast<double>(refit->replicaCount());
      out.lowerBound = relaxFloor;
      lastGood_ = toSnapshot(std::move(refit));
      out.placement = lastGood_;
      return finish(std::move(out));
    }
  }

  // Rung C: greedy placement + streaming floor.
  FrontierStreamOptions streamOpts;
  streamOpts.widthCap = options_.degradedWidthCap;
  streamOpts.guard = &degradedGuard;
  std::optional<Placement> p;
  try {
    p = greedyPlacement(*instance_, policy_, degradedGuard);
  } catch (...) {
    p.reset();
  }
  if (p && quietlyValid(*instance_, *p, policy, vo)) {
    const DegradedFloor floor = streamFloor(*instance_, policy_, streamOpts);
    out.status = OutcomeStatus::FeasibleDegraded;
    out.level = DegradationLevel::StreamCapped;
    out.cost = static_cast<double>(p->replicaCount());
    out.lowerBound =
        std::max(relaxFloor, floor.certified ? static_cast<double>(floor.floor) : 0.0);
    lastGood_ = toSnapshot(std::move(p));
    out.placement = lastGood_;
    return finish(std::move(out));
  }

  // Rung D: the stale placement verbatim, if the mutations since happen not
  // to have broken it.
  if (lastGood_ && lastGood_->vertexCount() == instance_->tree.vertexCount() &&
      quietlyValid(*instance_, *lastGood_, policy, vo)) {
    out.status = OutcomeStatus::TimedOutWithIncumbent;
    out.level = DegradationLevel::LastKnownGood;
    out.cost = static_cast<double>(lastGood_->replicaCount());
    out.lowerBound = relaxFloor;
    out.placement = lastGood_;
    return finish(std::move(out));
  }

  out.status = OutcomeStatus::Error;
  out.level = DegradationLevel::None;
  if (out.message.empty())
    out.message = "budget exhausted before any feasible placement was found";
  return finish(std::move(out));
}

}  // namespace treeplace
