// fleet: the paper's Section 7.2 experiment as a throughput workload. Every
// operation is one random tree (s in [15, 400], lambda in {0.1..0.9}, half
// homogeneous, half heterogeneous) taken through the eight heuristics,
// MixedBest, validation and the refined ILP lower bound, on a two-thread
// runBatch pool. Almost all of the time is LP/B&B inside the lower bound.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "core/validate.hpp"
#include "experiments/batch_driver.hpp"
#include "experiments/runner.hpp"
#include "formulation/lower_bound.hpp"
#include "harness.hpp"
#include "heuristics/heuristic.hpp"
#include "support/prng.hpp"
#include "support/thread_pool.hpp"
#include "tree/generator.hpp"

namespace perfbench {
namespace {

using namespace treeplace;

constexpr std::size_t kThreads = 2;
constexpr long kLowerBoundNodes = 400;  // the paper's B&B budget
constexpr int kTreesPerPoint = 60;      // per (lambda, homogeneous/heterogeneous)
constexpr int kMinSize = 15;            // the paper's tree sizes
constexpr int kMaxSize = 400;
constexpr std::size_t kLayerReplay = 108;  // trees replayed through the layered twin
constexpr double kLambdas[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr std::size_t kPoints = std::size(kLambdas) * 2;

/// The sweep, shuffled: a run that stops part-way through a pass has still
/// sampled every point about evenly.
std::vector<ProblemInstance> buildSweep(std::uint64_t seed) {
  std::vector<ProblemInstance> sweep;
  sweep.reserve(kPoints * kTreesPerPoint);
  for (std::size_t point = 0; point < kPoints; ++point) {
    GeneratorConfig config;  // s_j = W_j: the paper's plan
    config.lambda = kLambdas[point % std::size(kLambdas)];
    config.heterogeneous = point >= std::size(kLambdas);
    for (int tree = 0; tree < kTreesPerPoint; ++tree) {
      // Sizes evenly spaced over the paper's [15, 400] rather than drawn:
      // the lower bound's cost grows steeply with s, and with drawn sizes
      // two seeds' throughput differed by ~14% in back-to-back runs.
      config.minSize = config.maxSize =
          kMinSize + (kMaxSize - kMinSize) * tree / (kTreesPerPoint - 1);
      sweep.push_back(generateInstance(config, seed,
                                       point * kTreesPerPoint + static_cast<std::uint64_t>(tree)));
    }
  }
  std::vector<std::size_t> order(sweep.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Prng rng(seed ^ 0xf1ee7ULL);
  rng.shuffle(order);
  std::vector<ProblemInstance> shuffled;
  shuffled.reserve(sweep.size());
  for (const std::size_t i : order) shuffled.push_back(std::move(sweep[i]));
  return shuffled;
}

/// Layered twin of experiments/runner's evaluateInstance: the same library
/// calls, grouped so each layer sits under one span. Only the traced replay
/// after the timed window runs it; the window itself runs evaluateInstance.
TreeOutcome evaluateTraced(const ProblemInstance& instance, BatchArenas& arenas, long& bbNodes) {
  TreeOutcome outcome;
  outcome.vertices = static_cast<int>(instance.tree.vertexCount());
  outcome.lambda = instance.load();
  const auto heuristics = allHeuristics();
  std::vector<std::optional<Placement>> placements(heuristics.size());
  double bestCost = lp::kInfinity;
  {
    const Span span("heuristics.run");
    for (std::size_t k = 0; k < heuristics.size(); ++k) {
      placements[k] = heuristics[k].run(instance);
      if (!placements[k]) continue;
      outcome.series[k].success = true;
      outcome.series[k].cost = placements[k]->storageCost(instance);
      bestCost = std::min(bestCost, outcome.series[k].cost);
    }
  }
  std::optional<MixedBestResult> mb;
  {
    const Span span("heuristics.mixed_best");
    mb = runMixedBest(instance);
  }
  {
    const Span span("core.validate");
    for (std::size_t k = 0; k < heuristics.size(); ++k)
      if (placements[k])
        outcome.series[k].valid = isValidPlacement(instance, *placements[k], heuristics[k].policy);
    if (mb) {
      auto& slot = outcome.series[kMixedBestIndex];
      slot.success = true;
      slot.cost = mb->cost;
      slot.valid = isValidPlacement(instance, mb->placement, Policy::Multiple);
      outcome.mbWinner = std::string(mb->winner);
      bestCost = std::min(bestCost, slot.cost);
    }
  }
  LowerBoundOptions options;
  options.maxNodes = kLowerBoundNodes;
  options.knownUpperBound = bestCost;
  options.boundsArena = &arenas.bounds;
  LowerBoundResult lb;
  {
    const Span span("formulation.lower_bound");
    lb = refinedLowerBound(instance, options);
  }
  bbNodes += lb.nodesExplored;
  outcome.lpFeasible = lb.lpFeasible;
  outcome.lowerBound = lb.lpFeasible ? lb.bound : 0.0;
  outcome.lbExact = lb.exact;
  return outcome;
}

struct Slot {
  TreeOutcome outcome;
  double ms = 0.0;
  Clock::time_point end;
  bool done = false;
  std::string error;
};

/// Output checks of one evaluated tree; returns "" when it passes.
std::string checkOutcome(const TreeOutcome& outcome) {
  const auto names = seriesNames();
  for (std::size_t k = 0; k < kSeriesCount; ++k)
    if (outcome.series[k].success && !outcome.series[k].valid)
      return names[k] + " returned a placement that fails validation";
  const auto& mb = outcome.series[kMixedBestIndex];
  if (outcome.lpFeasible && mb.success && outcome.lowerBound > mb.cost + 1e-6)
    return "lower bound " + std::to_string(outcome.lowerBound) + " exceeds MixedBest cost " +
           std::to_string(mb.cost);
  return "";
}

}  // namespace

void runFleet(const RunConfig& config, Result& result) {
  // Set-up, repeated: pool start, sweep generation, and the first tree's
  // cold evaluation. Only the last repetition is kept.
  std::optional<ThreadPool> pool;
  std::vector<ProblemInstance> sweep;
  std::vector<double> setupS;
  std::vector<double> buildS;
  Tracer::enable(false);
  while (wantAnotherSetup(setupS)) {
    pool.reset();
    sweep.clear();
    const Clock::time_point t0 = Clock::now();
    pool.emplace(kThreads);
    sweep = buildSweep(config.seed);
    buildS.push_back(msSince(t0) / 1000.0);
    runBatch(
        1,
        [&](std::size_t, BatchArenas& arenas) {
          (void)evaluateInstance(sweep[0], kLowerBoundNodes, &arenas);
        },
        {.pool = &*pool});
    setupS.push_back(msSince(t0) / 1000.0);
  }

  // Timed window: one runBatch over a long index range; indices picked up
  // after the deadline return at once and are not operations.
  const auto maxOps = static_cast<std::size_t>(config.seconds * 2000.0) + 64;
  std::vector<Slot> slots(maxOps);
  std::atomic<bool> stop{false};
  Tracer::enable(config.trace);
  const double cpu0 = processCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, config.seconds);
  runBatch(
      maxOps,
      [&](std::size_t i, BatchArenas& arenas) {
        if (stop.load(std::memory_order_relaxed)) return;
        const Clock::time_point issued = Clock::now();
        if (issued >= deadline) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        Slot& slot = slots[i];
        try {
          slot.outcome = evaluateInstance(sweep[i % sweep.size()], kLowerBoundNodes, &arenas);
        } catch (const std::exception& error) {
          slot.error = error.what();
        }
        slot.end = Clock::now();
        slot.ms = msBetween(issued, slot.end);
        slot.done = true;
      },
      {.pool = &*pool});
  const double cpu1 = processCpuSeconds();
  Tracer::enable(false);

  // Outside the timed window: checks and aggregation.
  std::vector<double> latencies;
  Clock::time_point lastEnd = start;
  double busyMs = 0.0;
  double lbRatioSum = 0.0;
  std::size_t lpFeasible = 0;
  std::size_t lbExact = 0;
  for (const Slot& slot : slots) {
    if (!slot.done) continue;
    ++result.attempted;
    latencies.push_back(slot.ms);
    busyMs += slot.ms;
    lastEnd = std::max(lastEnd, slot.end);
    const std::string problem = slot.error.empty() ? checkOutcome(slot.outcome)
                                                   : "exception: " + slot.error;
    if (!problem.empty()) {
      ++result.failed;
      result.breach("fleet tree: " + problem);
      continue;
    }
    if (slot.outcome.lbExact) ++lbExact;
    if (slot.outcome.lpFeasible) {
      ++lpFeasible;
      const auto& mb = slot.outcome.series[kMixedBestIndex];
      if (mb.success && mb.cost > 0.0) lbRatioSum += slot.outcome.lowerBound / mb.cost;
    }
  }
  if (result.attempted == 0) return;
  if (slots.back().done) result.breach("fleet ran out of operation slots before the deadline");

  const double wallS = msBetween(start, lastEnd) / 1000.0;
  const auto ops = static_cast<double>(result.attempted);
  result.put(result.endToEnd, "throughput_per_s", ops / wallS, "1/s");
  result.put(result.endToEnd, "latency_p50_ms", median(latencies), "ms");
  result.put(result.endToEnd, "cpu_ms_per_op", 1000.0 * (cpu1 - cpu0) / ops, "ms");
  result.put(result.endToEnd, "peak_rss_mb", peakRssMb(), "MiB");
  result.put(result.endToEnd, "setup_s", median(setupS), "s");
  if (const auto p90 = supportedTail(latencies, 0.9))
    result.put(result.extra, "latency_p90_ms", *p90, "ms");
  result.put(result.extra, "mb_relative_cost",
             lpFeasible > 0 ? lbRatioSum / static_cast<double>(lpFeasible) : 0.0, "share");
  result.put(result.extra, "lp_feasible_share", static_cast<double>(lpFeasible) / ops, "share");

  if (config.trace) {
    // Per-layer spans come from a serial replay of the sweep's first trees
    // through the layered twin, after the window, so the window's numbers
    // differ from an untraced run only by the tracer's own cost.
    Tracer::enable(true);
    BatchArenas arenas;
    long bbNodes = 0;
    const std::size_t replayed = std::min(kLayerReplay, sweep.size());
    for (std::size_t i = 0; i < replayed; ++i) {
      const TreeOutcome outcome = evaluateTraced(sweep[i], arenas, bbNodes);
      const std::string problem = checkOutcome(outcome);
      if (!problem.empty()) result.breach("fleet layer replay: " + problem);
    }
    Tracer::enable(false);
    putSpanQuantiles(result, "formulation.lower_bound", {50, 90});
    putSpanQuantiles(result, "heuristics.run", {50});
    putSpanQuantiles(result, "heuristics.mixed_best", {50});
    putSpanQuantiles(result, "core.validate", {50});
    const std::vector<double> lbMs = Tracer::durationsMs("formulation.lower_bound");
    double lbTotalMs = 0.0;
    for (const double ms : lbMs) lbTotalMs += ms;
    const double nodes = static_cast<double>(bbNodes);
    result.put(result.layers, "lp.bb_nodes", nodes / static_cast<double>(replayed), "count");
    result.put(result.layers, "lp.ms_per_node", nodes > 0.0 ? lbTotalMs / nodes : 0.0, "ms");
    result.put(result.layers, "formulation.lb_exact_share", static_cast<double>(lbExact) / ops,
               "share");
    result.put(result.layers, "experiments.batch_busy_share",
               busyMs / (1000.0 * wallS * static_cast<double>(kThreads)), "share");
    result.put(result.layers, "tree.build_s", median(buildS), "s");
  }

  result.info["threads"] = std::to_string(kThreads) + " batch workers";
  result.info["instances"] = std::to_string(sweep.size()) + " trees, s in [15, 400], " +
                             "lambda 0.1..0.9, half heterogeneous, B&B budget " +
                             std::to_string(kLowerBoundNodes) + " nodes";
}

}  // namespace perfbench
