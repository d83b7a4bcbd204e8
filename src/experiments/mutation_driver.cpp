#include "experiments/mutation_driver.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "support/fault_injection.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"

namespace treeplace {
namespace {

double millis(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

VertexId randomClient(const ProblemInstance& instance, Prng& rng) {
  const auto& clients = instance.tree.clients();
  return clients[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(clients.size()) - 1))];
}

VertexId randomInternal(const ProblemInstance& instance, Prng& rng) {
  const auto& internals = instance.tree.internals();
  return internals[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(internals.size()) - 1))];
}

}  // namespace

InstanceDelta drawMutation(const ProblemInstance& instance,
                           const MutationWorkloadConfig& config, Prng& rng) {
  const Requests W = instance.homogeneousCapacity();
  double wRate = config.rateWeight;
  double wLeave = config.leaveWeight;
  double wCapacity = config.capacityWeight;
  double wJoin = config.structural ? config.joinWeight : 0.0;
  double wAttach = config.structural ? config.attachWeight : 0.0;
  double wDetach = config.structural ? config.detachWeight : 0.0;
  const double total =
      wRate + wLeave + wCapacity + wJoin + wAttach + wDetach;
  TREEPLACE_REQUIRE(total > 0.0, "mutation mixture needs a positive weight");

  InstanceDelta delta;
  double draw = rng.uniformReal(0.0, total);
  if ((draw -= wRate) < 0.0) {
    delta.kind = DeltaKind::RateChange;
    delta.node = randomClient(instance, rng);
    const auto cap = std::max<Requests>(
        1, static_cast<Requests>(std::llround(config.rateCap * static_cast<double>(W))));
    delta.rate = rng.uniformInt(0, cap);
    return delta;
  }
  if ((draw -= wLeave) < 0.0) {
    delta.kind = DeltaKind::ClientLeave;
    delta.node = randomClient(instance, rng);
    return delta;
  }
  if ((draw -= wCapacity) < 0.0) {
    // Global shift of the one homogeneous W (a per-node change would leave
    // the homogeneous solvers' domain). Bounded below by 1.
    delta.kind = DeltaKind::CapacityChange;
    delta.node = kNoVertex;
    delta.capacity = std::max<Requests>(1, W + rng.uniformInt(-2, 2));
    return delta;
  }
  if ((draw -= wJoin) < 0.0) {
    delta.kind = DeltaKind::ClientJoin;
    delta.node = randomInternal(instance, rng);
    delta.rate = rng.uniformInt(0, std::max<Requests>(1, W / 2));
    return delta;
  }
  if ((draw -= wAttach) < 0.0) {
    delta.kind = DeltaKind::SubtreeAttach;
    delta.node = randomInternal(instance, rng);
    delta.capacity = W;      // pods inherit the homogeneous capacity
    delta.storageCost = 1.0;
    const std::int64_t pod = rng.uniformInt(1, 3);
    for (std::int64_t k = 0; k < pod; ++k)
      delta.podRates.push_back(rng.uniformInt(0, std::max<Requests>(1, W / 2)));
    return delta;
  }
  delta.kind = DeltaKind::SubtreeDetach;
  delta.node = rng.bernoulli(0.5) ? randomClient(instance, rng)
                                  : randomInternal(instance, rng);
  if (delta.node == instance.tree.root())
    delta.node = randomClient(instance, rng);  // detach-of-root is rejected
  return delta;
}

MutationRunResult runMutationWorkload(ProblemInstance& instance,
                                      const MutationWorkloadConfig& config) {
  IncrementalSolver solver(instance, config.policy);
  Prng rng(config.seed);
  MutationRunResult result;
  result.steps.reserve(static_cast<std::size_t>(config.steps));

  (void)solver.resolve();  // warm the cache; steps measure steady state

  std::vector<double> incrementalMs;
  std::vector<double> scratchMs;
  incrementalMs.reserve(static_cast<std::size_t>(config.steps));
  scratchMs.reserve(static_cast<std::size_t>(config.steps));

  for (int step = 0; step < config.steps; ++step) {
    InstanceDelta delta = drawMutation(instance, config, rng);

    // MalformedDelta fault: corrupt the drawn delta in one of the ways the
    // validation layer must reject. The apply below has to throw DeltaError
    // BEFORE any mutation; the step then verifies the solver still matches a
    // scratch solve of the (untouched) instance.
    bool corrupted = false;
    if (fault::fire(fault::Site::MalformedDelta)) {
      corrupted = true;
      switch (fault::fireCount(fault::Site::MalformedDelta) % 3) {
        case 0:
          delta.node = static_cast<VertexId>(instance.tree.vertexCount()) + 17;
          break;
        case 1:
          delta.kind = DeltaKind::SubtreeDetach;
          delta.node = instance.tree.root();
          break;
        default:
          delta.kind = DeltaKind::RateChange;
          delta.node = randomClient(instance, rng);
          delta.rate = -1;
          break;
      }
    }

    if (corrupted) {
      bool rejected = false;
      try {
        solver.apply(delta);
      } catch (const DeltaError&) {
        rejected = true;
      }
      if (!rejected) {
        // A corrupted delta slipped through validation: fail the workload
        // loudly — the drivers exit nonzero on !allMatch.
        result.allMatch = false;
      }
    } else {
      solver.apply(delta);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::shared_ptr<const Placement> incremental = solver.resolve();
    const double incMs = millis(t0);

    MutationStepRecord record;
    record.kind = delta.kind;
    record.feasible = incremental != nullptr;
    record.incrementalMs = incMs;
    if (incremental) record.replicas = incremental->replicaCount();
    incrementalMs.push_back(incMs);

    if (config.verifyScratch) {
      const auto t1 = std::chrono::steady_clock::now();
      const std::optional<Placement> scratch = solveOneShot(instance, config.policy);
      record.scratchMs = millis(t1);
      scratchMs.push_back(record.scratchMs);
      record.scratchFeasible = scratch.has_value();
      record.match = (incremental != nullptr) == scratch.has_value() &&
                     (!incremental || (*incremental == *scratch &&
                                       incremental->storageCost(instance) ==
                                           scratch->storageCost(instance)));
      result.allMatch = result.allMatch && record.match;
    }
    result.steps.push_back(std::move(record));
  }

  if (!incrementalMs.empty()) {
    result.p50IncrementalMs = percentile(incrementalMs, 50.0);
    result.p99IncrementalMs = percentile(incrementalMs, 99.0);
  }
  if (!scratchMs.empty()) {
    result.p50ScratchMs = percentile(scratchMs, 50.0);
    result.p99ScratchMs = percentile(scratchMs, 99.0);
  }
  result.cache = solver.cacheStats();
  return result;
}

double assignsPerStep(ProblemInstance instance, const MutationWorkloadConfig& config) {
  IncrementalSolver solver(instance, config.policy);
  Prng rng(config.seed);
  std::shared_ptr<const Placement> older;  // held: the back buffer is never levelled in place
  std::shared_ptr<const Placement> last = solver.resolve();
  std::size_t assigns = 0;
  for (int step = 0; step < config.steps; ++step) {
    solver.apply(drawMutation(instance, config, rng));
    const std::size_t fallbacks = solver.cacheStats().scratchFallbacks;
    std::shared_ptr<const Placement> next = solver.resolve();
    if (!next || next == last) continue;  // infeasible, or nothing to change
    const std::size_t count = next->stats().assignCalls;
    const bool rebuilt = !last || solver.cacheStats().scratchFallbacks != fallbacks;
    assigns += rebuilt ? count : count - last->stats().assignCalls;
    older = std::exchange(last, std::move(next));
  }
  return config.steps > 0 ? static_cast<double>(assigns) / config.steps : 0.0;
}

}  // namespace treeplace
