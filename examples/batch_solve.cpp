// Batch-driver CLI: solve a fleet of instance files in one run, one arena
// set per worker thread.
//
//   $ ./batch_solve instances/*.tp [--threads=0] [--lb-nodes=400]
//                   [--workers=0] [--exact]
//   $ ./batch_solve --nodes=1000000 --seed=7 --count=4 --stream --width-cap=256
//   $ ./batch_solve --nodes=10000 --mutate=50
//
//   --threads    batch worker threads (0 = hardware concurrency)
//   --lb-nodes   branch-and-bound budget of the refined lower bound
//   --workers    per-instance worker-pool B&B threads for --exact (0 = serial)
//   --exact      also prove the Multiple optimum via the ILP (small fleets!)
//   --nodes      generate instances of this many vertices instead of reading
//                files (O(s) generator, so s = 10^6 is fine)
//   --seed       base seed of the generated fleet (default 1)
//   --count      how many instances to generate (default 1)
//   --lambda     target load factor of the generated fleet (generator
//                default otherwise; lighter loads keep long mutation
//                streams feasible)
//   --stream     replace the heuristic/LP pipeline with the width-capped
//                streaming frontier counts (Closest / Multiple / QoS) — the
//                only solvers that scale to millions of vertices
//   --width-cap  per-frontier width cap of --stream, in [2, 2^31-1]
//                (default 512); capped runs print the certified
//                [floor, answer] bracket
//   --mutate=K   replay K random single-client mutations per instance through
//                the incremental re-optimizer (Closest and Multiple), one
//                line per step with the incremental vs from-scratch re-solve
//                latency, each step verified against the scratch optimum
//   --multitree=K  generate overlays of K member trees (each of --nodes
//                vertices) sharing a gateway pool, solve each with the
//                lexico-min multitree Closest solver and validate the
//                placement against the overlay checker
//   --shared     gateway pool size of --multitree overlays (default 8)
//
// Per instance the driver runs MixedBest (the paper's best-of-eight
// heuristic), the refined lower bound (recycling the worker's bound-slab
// arena across its share of the fleet), and optionally the exact ILP with
// the worker-pool branch-and-bound engine.

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "exact/multitree_closest.hpp"
#include "experiments/batch_driver.hpp"
#include "experiments/mutation_driver.hpp"
#include "formulation/lower_bound.hpp"
#include "heuristics/heuristic.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tree/generator.hpp"
#include "tree/io.hpp"

using namespace treeplace;

namespace {

struct FleetRow {
  std::string name;
  bool parsed = false;
  std::string error;
  int vertices = 0;
  bool mbSuccess = false;
  double mbCost = 0.0;
  std::string mbWinner;
  double lowerBound = 0.0;
  bool lbExact = false;
  bool exactRan = false;
  bool exactProven = false;
  double exactCost = 0.0;
  long exactNodes = 0;
  StreamCountResult streamClosest;
  StreamCountResult streamMultiple;
  StreamCountResult streamQos;
};

std::string formatCost(double value, int digits = 2) {
  return formatDouble(value, digits);
}

std::string formatStream(const StreamCountResult& r) {
  if (!r.feasible) return "infeasible";
  if (r.stats.exact) return std::to_string(r.replicas);
  // Capped runs carry the certified bracket (2-D policies; telemetry-only
  // for QoS, see FrontierStreamStats::capGapBound).
  std::string bracket = "[";
  bracket += std::to_string(r.replicasFloor());
  bracket += ", ";
  bracket += std::to_string(r.replicas);
  bracket += "] (capped)";
  return bracket;
}

std::string_view kindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::RateChange: return "RateChange";
    case DeltaKind::ClientJoin: return "ClientJoin";
    case DeltaKind::ClientLeave: return "ClientLeave";
    case DeltaKind::CapacityChange: return "CapacityChange";
    case DeltaKind::SubtreeAttach: return "SubtreeAttach";
    case DeltaKind::SubtreeDetach: return "SubtreeDetach";
  }
  return "?";
}

}  // namespace

// Malformed options (--width-cap=1, --threads=abc) end the run with the
// OptionError's message and exit code 2 instead of an uncaught throw.
int main(int argc, char** argv) try {
  const Options options(argc, argv);
  const auto& files = options.positionals();
  const long genNodes = options.getIntOr("nodes", 0);
  if (files.empty() && genNodes <= 0) {
    std::cerr << "usage: batch_solve <instance.tp>... [--threads=N] "
                 "[--lb-nodes=N] [--workers=N] [--exact]\n"
                 "       batch_solve --nodes=N [--seed=S] [--count=K] "
                 "[--stream] [--width-cap=N] [--threads=N]\n"
                 "       batch_solve --nodes=N [--seed=S] [--count=K] "
                 "--mutate=K\n";
    return 2;
  }
  const auto threads = static_cast<std::size_t>(options.getIntOr("threads", 0));
  const long lbNodes = options.getIntOr("lb-nodes", 400);
  const int bbWorkers = static_cast<int>(options.getIntOr("workers", 0));
  const bool exact = options.hasFlag("exact");
  const auto seed = static_cast<std::uint64_t>(options.getIntOr("seed", 1));
  const auto genCount =
      static_cast<std::size_t>(options.getIntOr("count", 1));
  const bool stream = options.hasFlag("stream");
  FrontierStreamOptions streamOptions;
  const std::int64_t widthCap = options.getIntOr("width-cap", streamOptions.widthCap);
  if (widthCap < 2 || widthCap > std::numeric_limits<std::int32_t>::max())
    throw OptionError("option --width-cap: " + std::to_string(widthCap) +
                      " out of range [2, 2^31-1]");
  streamOptions.widthCap = static_cast<std::int32_t>(widthCap);
  const long mutateSteps = options.getIntOr("mutate", 0);
  const long multitreeK = options.getIntOr("multitree", 0);

  GeneratorConfig genConfig;
  genConfig.minSize = static_cast<int>(genNodes);
  genConfig.maxSize = static_cast<int>(genNodes);
  genConfig.unitCosts = true;
  genConfig.lambda = options.getDoubleOr("lambda", genConfig.lambda);

  const std::size_t jobs = genNodes > 0 ? genCount : files.size();

  const auto loadInstance = [&](std::size_t i, std::string& name,
                                std::string& error) -> std::optional<ProblemInstance> {
    if (genNodes > 0) {
      name = "gen(s=" + std::to_string(genNodes) +
             ", seed=" + std::to_string(seed) + "." + std::to_string(i) + ")";
      return generateInstance(genConfig, seed, i);
    }
    name = files[i];
    std::ifstream in(files[i]);
    if (!in.good()) {
      error = "cannot open";
      return std::nullopt;
    }
    try {
      return readInstance(in);
    } catch (const ParseError& e) {
      error = e.what();
      return std::nullopt;
    }
  };

  if (multitreeK > 0) {
    if (genNodes <= 0) {
      std::cerr << "--multitree needs --nodes=N (overlays are generated, "
                   "not read from files)\n";
      return 2;
    }
    MultitreeConfig mc;
    mc.trees = static_cast<int>(multitreeK);
    mc.sharedInternals = static_cast<int>(options.getIntOr("shared", 8));
    mc.base = genConfig;
    // Feasible-at-scale profile (same as the table-1 bench): unit requests
    // spread over edge-heavy clients at light load — bursty 1..10 demand
    // concentrates unservable pockets and the whole overlay goes infeasible.
    mc.base.minRequests = mc.base.maxRequests = 1;
    mc.base.clientFraction = 0.8;
    mc.base.leafClientBias = 1.0;
    if (!options.get("lambda").has_value()) mc.base.lambda = 0.2;
    int failures = 0;
    TextTable t;
    t.setHeader({"overlay", "trees", "vertices", "shared", "feasible",
                 "replicas", "dfs", "resolves", "valid"});
    for (std::size_t i = 0; i < genCount; ++i) {
      const MultitreeInstance mt = generateMultitreeInstance(mc, seed, i);
      const MultitreeSolveResult result = solveMultitreeClosest(mt);
      bool valid = true;
      if (result.placement.has_value())
        valid = isValidMultitreePlacement(mt, *result.placement, Policy::Closest);
      if (!valid || result.stats.exhausted) ++failures;
      t.addRow({"gen(seed=" + std::to_string(seed) + "." + std::to_string(i) + ")",
                std::to_string(mt.treeCount()),
                std::to_string(mt.globalVertexCount),
                std::to_string(mt.sharedCount),
                result.feasible ? "yes" : "no",
                std::to_string(result.replicaCount()),
                std::to_string(result.stats.dfsNodes),
                std::to_string(result.stats.dpResolves),
                valid ? "yes" : "NO"});
    }
    std::cout << t.render();
    return failures == 0 ? 0 : 1;
  }
  if (mutateSteps > 0) {
    // Sequential by design: the per-step trace would interleave under the
    // batch workers, and every step already runs a scratch verification
    // solve, so the interesting cost is per step, not per fleet.
    int failures = 0;
    TextTable summary;
    summary.setHeader({"instance", "policy", "steps", "inc p50 (ms)",
                       "inc p99", "scratch p50", "scratch p99", "x p50",
                       "x p99", "match", "hit rate"});
    for (std::size_t i = 0; i < jobs; ++i) {
      std::string name, error;
      const auto base = loadInstance(i, name, error);
      if (!base) {
        ++failures;
        std::cerr << name << ": " << error << '\n';
        continue;
      }
      for (const OnlinePolicy policy :
           {OnlinePolicy::Closest, OnlinePolicy::Multiple}) {
        ProblemInstance instance = *base;  // each policy replays its own copy
        MutationWorkloadConfig mc;
        mc.policy = policy;
        mc.steps = static_cast<int>(mutateSteps);
        mc.seed = seed + 7919 * i;
        mc.rateCap = 0.1;  // keep long streams feasible (see rateCap doc)
        const MutationRunResult run = runMutationWorkload(instance, mc);
        std::cout << name << " / " << toString(policy) << ":\n";
        for (std::size_t k = 0; k < run.steps.size(); ++k) {
          const MutationStepRecord& step = run.steps[k];
          std::cout << "  step " << k << " " << kindName(step.kind)
                    << (step.feasible ? "" : " [infeasible]") << ": inc "
                    << formatDouble(step.incrementalMs, 3) << " ms, scratch "
                    << formatDouble(step.scratchMs, 3) << " ms"
                    << (step.match ? "" : "  MISMATCH") << '\n';
        }
        summary.addRow({name, std::string(toString(policy)),
                        std::to_string(run.steps.size()),
                        formatDouble(run.p50IncrementalMs, 3),
                        formatDouble(run.p99IncrementalMs, 3),
                        formatDouble(run.p50ScratchMs, 3),
                        formatDouble(run.p99ScratchMs, 3),
                        formatDouble(run.speedupP50(), 1),
                        formatDouble(run.speedupP99(), 1),
                        run.allMatch ? "yes" : "NO",
                        formatDouble(run.cache.hitRate(), 3)});
        if (!run.allMatch) ++failures;
      }
    }
    std::cout << summary.render();
    return failures == 0 ? 0 : 1;
  }
  std::vector<FleetRow> rows(jobs);
  BatchOptions batchOptions;
  batchOptions.threads = threads;
  const BatchRunStats stats = runBatch(
      jobs,
      [&](std::size_t i, BatchArenas& arenas) {
        FleetRow& row = rows[i];
        auto loaded = loadInstance(i, row.name, row.error);
        if (!loaded) return;
        ProblemInstance instance = std::move(*loaded);
        row.parsed = true;
        row.vertices = static_cast<int>(instance.tree.vertexCount());

        if (stream) {
          row.streamClosest = countClosestHomogeneousStreaming(instance, streamOptions);
          row.streamMultiple = countMultipleHomogeneousStreaming(instance, streamOptions);
          row.streamQos = countClosestQosStreaming(instance, streamOptions);
          return;
        }

        double bestCost = lp::kInfinity;
        if (const auto mb = runMixedBest(instance)) {
          row.mbSuccess = true;
          row.mbCost = mb->cost;
          row.mbWinner = std::string(mb->winner);
          bestCost = mb->cost;
        }

        LowerBoundOptions lbo;
        lbo.maxNodes = lbNodes;
        lbo.knownUpperBound = bestCost;
        lbo.boundsArena = &arenas.bounds;
        const LowerBoundResult lb = refinedLowerBound(instance, lbo);
        row.lowerBound = lb.lpFeasible ? lb.bound : 0.0;
        row.lbExact = lb.exact;

        if (exact) {
          ExactIlpOptions eo;
          eo.mip.workers = bbWorkers;
          eo.boundsArena = &arenas.bounds;
          const ExactIlpResult r = solveExactViaIlp(instance, Policy::Multiple, eo);
          row.exactRan = true;
          row.exactProven = r.proven;
          row.exactCost = r.feasible() ? r.cost : 0.0;
          row.exactNodes = r.nodesExplored;
        }
      },
      batchOptions);

  TextTable t;
  std::vector<std::string> header{"instance", "vertices"};
  if (stream) {
    header.push_back("Closest");
    header.push_back("Multiple");
    header.push_back("Closest+QoS");
  } else {
    header.push_back("MixedBest");
    header.push_back("winner");
    header.push_back("lower bound");
    if (exact) {
      header.push_back("exact (Multiple)");
      header.push_back("B&B nodes");
    }
  }
  t.setHeader(header);
  int failures = 0;
  for (const FleetRow& row : rows) {
    if (!row.parsed) {
      ++failures;
      std::cerr << row.name << ": " << row.error << '\n';
      continue;
    }
    std::vector<std::string> cells{row.name, std::to_string(row.vertices)};
    if (stream) {
      cells.push_back(formatStream(row.streamClosest));
      cells.push_back(formatStream(row.streamMultiple));
      cells.push_back(formatStream(row.streamQos));
    } else {
      cells.push_back(row.mbSuccess ? formatCost(row.mbCost) : "-");
      cells.push_back(row.mbSuccess ? row.mbWinner : "-");
      cells.push_back(formatCost(row.lowerBound) + (row.lbExact ? " (exact)" : ""));
      if (exact) {
        cells.push_back(row.exactRan
                            ? formatCost(row.exactCost) +
                                  (row.exactProven ? " (proven)" : " (budget)")
                            : "-");
        cells.push_back(std::to_string(row.exactNodes));
      }
    }
    t.addRow(cells);
  }
  std::cout << t.render();
  std::cout << stats.jobs << " instances in " << formatDouble(stats.wallMs, 1)
            << " ms across " << stats.arenaSets << " worker arena set"
            << (stats.arenaSets == 1 ? "" : "s") << '\n';
  return failures == 0 ? 0 : 1;
} catch (const OptionError& e) {
  std::cerr << e.what() << '\n';
  return 2;
}
