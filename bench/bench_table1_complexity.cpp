// Table 1 — empirical companion to the complexity matrix:
//
//                  Homogeneous            Heterogeneous
//   Closest        polynomial [2,9]       NP-complete
//   Upwards        NP-complete            NP-complete
//   Multiple       polynomial             NP-complete
//
// The two polynomial entries are demonstrated by timing the dedicated
// algorithms across growing tree sizes (near-quadratic growth); the NP-hard
// entries by the blow-up of exact search on the reduction families (Figures
// 7/8) versus the constant-factor cost of the polynomial heuristics on the
// same instances.
//
//   $ ./bench_table1_complexity [--sizes=200,400,800,1600] [--reduction-max=14]
//                               [--repeats=5] [--threads=0] [--json[=path]]
//                               [--mutate-sizes=1000,10000,100000]
//                               [--mutate-steps=100]
//                               [--service-sessions=6] [--service-requests=180]
//                               [--service-size=1000] [--service-ilp-size=48]
//                               [--service-ilp-steps=10]
//
// Part (a)'s per-instance generation and evaluation run through the batch
// driver (--threads=0 picks the hardware concurrency); the timed solves then
// run sequentially — minima over --repeats runs with the machine otherwise
// idle, so the numbers stay comparable across PRs. Part (d) runs the
// worker-pool branch-and-bound (MipOptions::workers) on the bare m=14
// reduction, and part (e) times the batched Fig 9-12 sweep against its
// sequential twin. --json writes machine-readable results (default
// BENCH_table1.json) for cross-PR tracking.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "exact/multitree_closest.hpp"
#include "exact/upwards_exact.hpp"
#include "experiments/batch_driver.hpp"
#include "experiments/mutation_driver.hpp"
#include "formulation/ilp.hpp"
#include "heuristics/heuristic.hpp"
#include "lp/workspace.hpp"
#include "core/validate.hpp"
#include "online/delta.hpp"
#include "online/resilient.hpp"
#include "online/service.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "tree/generator.hpp"
#include "tree/paper_instances.hpp"

using namespace treeplace;

namespace {

double millis(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// A --name=s1,s2,... list of instance sizes: strict integers, each positive.
std::vector<int> parseSizes(const Options& options, const std::string& name,
                            std::vector<std::int64_t> fallback) {
  std::vector<int> sizes;
  for (const std::int64_t s : options.getIntListOr(name, std::move(fallback))) {
    if (s < 1 || s > std::numeric_limits<int>::max())
      throw OptionError("option --" + name + ": size " + std::to_string(s) +
                        " out of range");
    sizes.push_back(static_cast<int>(s));
  }
  return sizes;
}

/// One row of part (a): per-solver minimum solve time over the repeats.
struct PolyRow {
  int size = 0;
  double multipleMs = 0.0;
  double closestMs = 0.0;
  long replicasMultiple = -1;  ///< -1: infeasible
  long replicasClosest = -1;
  FrontierStats closestStats;
  /// Fold telemetry of the Multiple frontier DP and the ClosestQos DP on the
  /// same instance: the two other policies' paths through the shared fold.
  FrontierStats multipleDpStats;
  FrontierStats qosStats;
  PlacementStats multiplePlacement;  ///< storage telemetry of the Multiple solve
};

/// Flat-arena Placement hot loops at the largest size (the committed
/// trajectory companion of bench_micro_placement).
struct MicroPlacementRow {
  int size = 0;
  double assignFlatMs = 0.0;
  double assignArenaMs = 0.0;
  double sharesScanFlatMs = -1.0;  ///< -1: not measured (see JSON null)
};

struct UpwardsRow {
  int clients = 0;
  long steps = 0;
  double ms = 0.0;
  bool proven = false;
  bool feasible = false;
  double mgMs = 0.0;
  double ubcfMs = 0.0;
};

struct IlpRow {
  int m = 0;
  long nodes = 0;
  double ms = 0.0;
  bool feasible = false;
  bool proven = false;
  double cost = 0.0;
  lp::WarmStartStats warm;      ///< node LP re-solve telemetry
  double resolveMsPerNode = 0.0;
};

/// One row of part (d): the bare reduction under the worker-pool engine.
struct ParallelRow {
  int workers = 0;  ///< 0 = one inline worker
  double ms = 0.0;
  double speedup = 0.0;
  long nodes = 0;
  double cost = 0.0;
  bool proven = false;
  lp::WarmStartStats warm;
};

/// One row of part (f): the streaming frontier DPs at 10^4..10^6 vertices.
struct LargeRow {
  int size = 0;
  std::size_t vertices = 0;
  double genMs = 0.0;
  double closestMs = 0.0;
  double multipleMs = 0.0;
  double qosMs = 0.0;
  StreamCountResult closest;
  StreamCountResult multiple;
  StreamCountResult qos;
  std::size_t peakRssBytes = 0;  ///< process high-water after this size
};

/// One row of part (h): a mutation stream replayed against the incremental
/// frontier-cache solver, every step verified bit-for-bit and timed against
/// the from-scratch exact DP. Single-client value mutations, or (structural)
/// drawMutation's full mix: joins, pod attaches and detaches, W changes.
struct IncrementalRow {
  int size = 0;
  std::size_t vertices = 0;
  OnlinePolicy policy = OnlinePolicy::Multiple;
  MutationRunResult run;
  /// Multiple rows: share assigns per step of the same stream, untimed
  /// (assignsPerStep in experiments/mutation_driver); -1 on other rows.
  double assignsPerStep = -1.0;
};

/// Part (h)'s Multiple rows count the assignment repair's share writes on
/// the stream before timing it (the replay needs the unmutated instance).
double repairAssignsOf(const ProblemInstance& instance, const MutationWorkloadConfig& config) {
  return config.policy == OnlinePolicy::Multiple ? assignsPerStep(instance, config) : -1.0;
}

std::string formatAssigns(double assigns) {
  return assigns >= 0.0 ? formatDouble(assigns, 1) : "-";
}

/// One row of part (i): the deadline-aware resilient pipeline granted 10% of
/// the scratch exact solve's wall time — which rung answered, how far past
/// the deadline it ran, and how wide the certified bracket came out.
struct ResilienceRow {
  int size = 0;
  std::size_t vertices = 0;
  OnlinePolicy policy = OnlinePolicy::Closest;
  double scratchMs = 0.0;
  double deadlineMs = 0.0;
  SolveOutcome outcome;
  bool valid = true;  ///< returned placement (if any) validated
};

/// One row of part (j): the lexico-min Closest solver on k-tree overlays —
/// k member trees sharing a pool of gateway internals, solved globally.
struct MultitreeRow {
  int memberSize = 0;
  int trees = 0;
  std::size_t globalVertices = 0;
  std::size_t sharedCount = 0;
  double genMs = 0.0;
  double solveMs = 0.0;
  bool feasible = false;
  std::size_t replicas = 0;
  MultitreeSolveStats stats;
  bool valid = true;  ///< returned placement (if any) validated
};

/// One row of part (k): the concurrent PlacementService soak at a worker
/// count — request latency percentiles, throughput, and whether every
/// response matched the serial per-session replay bit-identically.
struct ServiceSoakRow {
  std::size_t workers = 0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double wallMs = 0.0;
  double throughput = 0.0;  ///< requests per second
  bool allMatch = true;
};

/// Part (k)'s warm-ILP sub-result: B&B nodes of the service's incumbent-seeded
/// re-solves against from-scratch cold solves on the same mutation stream.
struct ServiceWarmIlpResult {
  int size = 0;
  int steps = 0;
  long warmNodes = 0;
  long coldNodes = 0;
  std::size_t seededSolves = 0;
  double warmMs = 0.0;
  double coldMs = 0.0;
  bool allMatch = true;  ///< warm cost equals the cold proven optimum per step
  double nodeSavings() const {
    return coldNodes > 0
               ? 1.0 - static_cast<double>(warmNodes) / static_cast<double>(coldNodes)
               : 0.0;
  }
};

/// One row of part (g): warm dual re-solves of the sparse LU workspace on
/// the same perturbation loop as bench_micro_lp.
struct WarmResolveRow {
  int size = 0;
  int rows = 0;
  int cols = 0;
  int resolves = 0;
  double ms = 0.0;
  lp::WarmStartStats warm;
};

}  // namespace

// Malformed options (--sizes=abc, --repeats=3x) end the run with the
// OptionError's message and exit code 2 instead of an uncaught throw.
int main(int argc, char** argv) try {
  const Options options(argc, argv);
  const std::vector<int> sizes =
      parseSizes(options, "sizes", {200, 400, 800, 1600});
  const int reductionMax = static_cast<int>(options.getIntOr("reduction-max", 14));
  const int repeats = std::max(1, static_cast<int>(options.getIntOr("repeats", 5)));
  const auto threads = static_cast<std::size_t>(options.getIntOr("threads", 0));

  std::cout << "=== Table 1: complexity of Replica Cost ===\n\n";
  std::cout << "(a) Polynomial entries — optimal algorithms on random "
               "homogeneous trees (min over " << repeats << " runs)\n";
  std::vector<PolyRow> polyRows(sizes.size());
  MicroPlacementRow micro;
  {
    std::vector<ProblemInstance> instances(sizes.size());
    // Generation plus an untimed evaluation (replica counts, frontier
    // telemetry, cache warm-up) runs per-instance through the batch driver;
    // the timed solves below run sequentially so no measurement shares the
    // machine with another solve — minima stay comparable across PRs.
    BatchOptions batchOptions;
    batchOptions.threads = threads;
    runBatch(sizes.size(), [&](std::size_t si, BatchArenas&) {
      const int s = sizes[si];
      GeneratorConfig config;
      config.minSize = config.maxSize = s;
      config.lambda = 0.55;
      config.unitCosts = true;
      instances[si] = generateInstance(config, 17, static_cast<std::uint64_t>(s));

      const auto multiple = solveMultipleHomogeneous(instances[si]);
      FrontierStats stats;
      const auto closest = solveClosestHomogeneous(instances[si], &stats);

      PolyRow& row = polyRows[si];
      row.size = s;
      row.replicasMultiple =
          multiple ? static_cast<long>(multiple->replicaCount()) : -1;
      row.replicasClosest =
          closest ? static_cast<long>(closest->replicaCount()) : -1;
      row.closestStats = stats;
      (void)solveMultipleHomogeneousDP(instances[si], &row.multipleDpStats);
      (void)solveClosestHomogeneousQos(instances[si], &row.qosStats);
      if (multiple) row.multiplePlacement = multiple->stats();
    }, batchOptions);

    for (std::size_t si = 0; si < sizes.size(); ++si) {
      PolyRow& row = polyRows[si];
      for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)solveMultipleHomogeneous(instances[si]);
        const double multipleMs = millis(t0);

        const auto t1 = std::chrono::steady_clock::now();
        (void)solveClosestHomogeneous(instances[si]);
        const double closestMs = millis(t1);

        row.multipleMs =
            rep == 0 ? multipleMs : std::min(row.multipleMs, multipleMs);
        row.closestMs = rep == 0 ? closestMs : std::min(row.closestMs, closestMs);
      }
    }

    TextTable t;
    t.setHeader({"s", "Multiple 3-pass (ms)", "Closest DP (ms)", "repl(M)", "repl(C)"});
    for (const PolyRow& row : polyRows) {
      t.addRow({std::to_string(row.size), formatDouble(row.multipleMs, 2),
                formatDouble(row.closestMs, 2),
                row.replicasMultiple >= 0 ? std::to_string(row.replicasMultiple) : "-",
                row.replicasClosest >= 0 ? std::to_string(row.replicasClosest) : "-"});
    }
    std::cout << t.render();
    for (const PolyRow& row : polyRows) {
      std::cout << "  s=" << row.size << " Closest DP: "
                << bench::renderFields(row.closestStats) << '\n';
      std::cout << "  s=" << row.size << " Multiple DP: "
                << bench::renderFields(row.multipleDpStats) << '\n';
      std::cout << "  s=" << row.size << " ClosestQos DP: "
                << bench::renderFields(row.qosStats) << '\n';
      std::cout << "  s=" << row.size << " Multiple placement: "
                << bench::renderFields(row.multiplePlacement) << '\n';
    }
    std::cout << "  expectation: time grows polynomially (~quadratic), no "
                 "blow-up\n\n";

    // Placement hot loops at the largest size (min over the same repeats;
    // the google-benchmark twin is bench_micro_placement).
    if (!sizes.empty()) {
      const std::size_t si = sizes.size() - 1;
      const ProblemInstance& inst = instances[si];
      const Tree& tree = inst.tree;
      micro.size = sizes[si];
      const auto multiple = solveMultipleHomogeneous(inst);
      PlacementArena arena;
      for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        Placement flat(tree.vertexCount());
        flat.reserveShares(tree.clients().size());
        for (const VertexId c : tree.clients())
          flat.assign(c, tree.parent(c), inst.requests[static_cast<std::size_t>(c)] + 1);
        const double flatMs = millis(t0);

        const auto t2 = std::chrono::steady_clock::now();
        Placement recycled = arena.acquire(tree.vertexCount());
        for (const VertexId c : tree.clients())
          recycled.assign(c, tree.parent(c),
                          inst.requests[static_cast<std::size_t>(c)] + 1);
        const double arenaMs = millis(t2);
        arena.recycle(std::move(recycled));

        // -1: not measured (largest-size Multiple solve infeasible); the
        // JSON writes null so the trajectory shows a gap, not a 0 ms scan.
        double scanFlatMs = -1.0;
        if (multiple) {
          Requests total = 0;
          // Untimed warm-up pass: the timed scan runs on a warm cache in
          // every repeat.
          for (const VertexId c : tree.clients())
            for (const ServedShare& share : multiple->shares(c)) total += share.amount;
          const auto t3 = std::chrono::steady_clock::now();
          for (const VertexId c : tree.clients())
            for (const ServedShare& share : multiple->shares(c)) total += share.amount;
          scanFlatMs = millis(t3);
          static volatile Requests sink;  // keep the scans observable
          sink = total;
          (void)sink;
        }

        const auto keepMin = [rep](double& slot, double value) {
          slot = rep == 0 ? value : std::min(slot, value);
        };
        keepMin(micro.assignFlatMs, flatMs);
        keepMin(micro.assignArenaMs, arenaMs);
        keepMin(micro.sharesScanFlatMs, scanFlatMs);
      }
      std::cout << "  placement micro (s=" << micro.size << "): assign flat "
                << formatDouble(micro.assignFlatMs, 4) << " ms, arena-recycled "
                << formatDouble(micro.assignArenaMs, 4) << " ms; shares scan flat "
                << formatDouble(micro.sharesScanFlatMs, 4) << " ms\n\n";
    }
  }
  const std::size_t rssPolynomial = bench::peakRssBytes();

  std::cout << "(b) NP-complete entries — exact search on the Theorem 2 "
               "3-PARTITION family vs the polynomial heuristics\n";
  // One frontier arena feeds every relaxation pre-pass of parts (b) and (c):
  // related instances share the slab instead of reallocating per call.
  FrontierArena boundsArena;
  std::vector<UpwardsRow> upwardsRows;
  {
    TextTable t;
    t.setHeader({"clients 3m", "exact steps", "exact (ms)", "feasible",
                 "MG (ms)", "UBCF (ms)"});
    for (int m = 2; 3 * m <= reductionMax * 3; m += 2) {
      // Deterministic compliant NO-instances: B = 16, values from {5, 7}
      // (both in (B/4, B/2)); with m/2 sevens the total is exactly mB, yet no
      // triple over {5,7} sums to 16 — the search must exhaust the space.
      const Requests B = 16;
      std::vector<Requests> values(static_cast<std::size_t>(3 * m - m / 2), 5);
      values.resize(static_cast<std::size_t>(3 * m), 7);
      const ProblemInstance inst = fig7ThreePartition(values, B);

      UpwardsExactOptions exactOptions;
      exactOptions.maxSteps = 20'000'000;
      exactOptions.boundsArena = &boundsArena;
      const auto t0 = std::chrono::steady_clock::now();
      const UpwardsExactResult exact = solveUpwardsExact(inst, exactOptions);
      const double exactMs = millis(t0);

      const auto t1 = std::chrono::steady_clock::now();
      (void)runMG(inst);
      const double mgMs = millis(t1);
      const auto t2 = std::chrono::steady_clock::now();
      (void)runUBCF(inst);
      const double ubcfMs = millis(t2);

      upwardsRows.push_back({3 * m, exact.steps, exactMs, exact.proven,
                             exact.feasible(), mgMs, ubcfMs});
      t.addRow({std::to_string(3 * m), std::to_string(exact.steps),
                formatDouble(exactMs, 2),
                exact.proven ? (exact.feasible() ? "yes" : "no") : "budget",
                formatDouble(mgMs, 3), formatDouble(ubcfMs, 3)});
      if (!exact.proven) break;  // exponential wall reached
    }
    std::cout << t.render()
              << "  expectation: exact steps grow explosively with m while "
                 "the heuristics stay in the microsecond range\n\n";
  }
  const std::size_t rssUpwards = bench::peakRssBytes();

  std::cout << "(c) Heterogeneous Multiple — branch-and-bound on the "
               "Theorem 3 2-PARTITION family (exact ILP)\n";
  std::vector<IlpRow> ilpRows;
  {
    // NO-instances: m-1 values of 4 plus one 6. The total S = 4m+2 is even
    // but S/2 is odd while every value is even, so no subset reaches S/2 and
    // the search has to refute an exponential number of near-ties.
    TextTable t;
    t.setHeader({"m", "B&B nodes", "ms", "optimal cost (> S+1)", "basis reuse",
                 "LP µs/node", "rows", "flips"});
    for (int m = 6; m <= reductionMax; m += 4) {
      std::vector<Requests> values(static_cast<std::size_t>(m - 1), 4);
      values.push_back(6);
      const ProblemInstance inst = fig8TwoPartition(values);
      ExactIlpOptions exactOptions;
      exactOptions.mip.maxNodes = 300000;
      exactOptions.boundsArena = &boundsArena;
      const auto t0 = std::chrono::steady_clock::now();
      const ExactIlpResult exact = solveExactViaIlp(inst, Policy::Multiple, exactOptions);
      const double ms = millis(t0);
      IlpRow row;
      row.m = m;
      row.nodes = exact.nodesExplored;
      row.ms = ms;
      row.feasible = exact.feasible();
      row.proven = exact.proven;
      row.cost = exact.feasible() ? exact.cost : 0.0;
      row.warm = exact.warm;
      row.resolveMsPerNode = exact.resolveMillisPerNode();
      ilpRows.push_back(row);
      t.addRow({std::to_string(m), std::to_string(exact.nodesExplored),
                formatDouble(ms, 2),
                exact.feasible() ? formatDouble(exact.cost, 0) : "-",
                formatDouble(row.warm.basisReuseRate(), 3),
                formatDouble(row.resolveMsPerNode * 1000.0, 2),
                std::to_string(row.warm.structuralRows),
                std::to_string(row.warm.boundFlips)});
      if (!exact.proven || ms > 30000.0) break;
    }
    std::cout << t.render()
              << "  expectation: warm-started dual re-solves + symmetry/"
                 "frontier cuts hold the node counts polynomial-looking far "
                 "beyond the old 15x-per-+4 wall (raise --reduction-max to "
                 "push it)\n\n";
  }
  const std::size_t rssIlp = bench::peakRssBytes();

  std::cout << "(d) Worker-pool B&B — bare (cuts-off) Theorem 3 reduction at "
               "m=" << reductionMax << ", serial vs workers\n";
  const int parallelM = reductionMax;
  std::vector<ParallelRow> parallelRows;
  {
    // Cuts off keeps the node count in the thousands, which is what the
    // worker pool is for; the strengthened solve above closes the same
    // instance in a handful of nodes and has nothing left to parallelise.
    std::vector<Requests> values(static_cast<std::size_t>(parallelM - 1), 4);
    values.push_back(6);
    const ProblemInstance inst = fig8TwoPartition(values);
    for (const int workers : {0, 2, 4}) {
      ExactIlpOptions exactOptions;
      exactOptions.frontierCuts = false;
      exactOptions.symmetryCuts = false;
      exactOptions.mip.maxNodes = 3000000;
      exactOptions.mip.workers = workers;
      ParallelRow row;
      row.workers = workers;
      for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const ExactIlpResult exact =
            solveExactViaIlp(inst, Policy::Multiple, exactOptions);
        const double ms = millis(t0);
        if (rep == 0 || ms < row.ms) {
          row.ms = ms;
          row.nodes = exact.nodesExplored;
          row.cost = exact.feasible() ? exact.cost : 0.0;
          row.proven = exact.proven;
          row.warm = exact.warm;
        }
      }
      parallelRows.push_back(row);
    }
    const double serialMs = parallelRows.front().ms;
    TextTable t;
    t.setHeader({"workers", "ms", "speedup", "B&B nodes", "steals", "idle (ms)"});
    for (ParallelRow& row : parallelRows) {
      row.speedup = row.ms > 0.0 ? serialMs / row.ms : 0.0;
      t.addRow({row.workers == 0 ? "serial" : std::to_string(row.workers),
                formatDouble(row.ms, 2), formatDouble(row.speedup, 2),
                std::to_string(row.nodes),
                std::to_string(row.warm.stealCount),
                formatDouble(row.warm.idleMs, 2)});
    }
    std::cout << t.render();
    for (const ParallelRow& row : parallelRows) {
      std::cout << "  "
                << (row.workers == 0 ? std::string("serial")
                                     : std::to_string(row.workers) + " workers")
                << ": " << bench::renderFields(row.warm) << '\n';
    }
    std::cout << "  expectation: near-linear speedup on multi-core hosts ("
              << std::thread::hardware_concurrency()
              << " hardware threads here); node counts stay within a few "
                 "percent of serial, same proven optimum\n\n";
  }
  const std::size_t rssParallel = bench::peakRssBytes();

  std::cout << "(e) Batch driver — Fig 9-style sweep, sequential vs one "
               "arena set per pool worker\n";
  std::size_t batchInstances = 0;
  std::size_t batchArenaSets = 0;
  double batchSequentialMs = 0.0;
  double batchPooledMs = 0.0;
  {
    ExperimentPlan plan;
    plan.lambdas = {0.2, 0.5, 0.8};
    plan.treesPerLambda = 12;
    plan.lbMaxNodes = 60;
    batchInstances = plan.lambdas.size() *
                     static_cast<std::size_t>(plan.treesPerLambda);
    for (int rep = 0; rep < repeats; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const ExperimentResult sequential = runExperiment(plan, nullptr);
      const double seqMs = millis(t0);
      ThreadPool pool(threads);
      const auto t1 = std::chrono::steady_clock::now();
      const ExperimentResult batched = runExperiment(plan, &pool);
      const double poolMs = millis(t1);
      batchSequentialMs =
          rep == 0 ? seqMs : std::min(batchSequentialMs, seqMs);
      batchPooledMs = rep == 0 ? poolMs : std::min(batchPooledMs, poolMs);
      batchArenaSets = std::max<std::size_t>(1, pool.threadCount());
      // The driver must not change results, only scheduling.
      if (sequential.outcomes.size() != batched.outcomes.size()) {
        std::cerr << "batch driver changed the sweep size\n";
        return 1;
      }
      for (std::size_t i = 0; i < sequential.outcomes.size(); ++i) {
        if (sequential.outcomes[i].lowerBound != batched.outcomes[i].lowerBound) {
          std::cerr << "batch driver changed outcome " << i << '\n';
          return 1;
        }
      }
    }
    std::cout << "  " << batchInstances << " instances: sequential "
              << formatDouble(batchSequentialMs, 1) << " ms, batched "
              << formatDouble(batchPooledMs, 1) << " ms (speedup "
              << formatDouble(batchPooledMs > 0.0
                                  ? batchSequentialMs / batchPooledMs
                                  : 0.0, 2)
              << "x across " << batchArenaSets
              << " worker arena sets); identical per-instance results\n";
  }
  const std::size_t rssBatch = bench::peakRssBytes();

  std::cout << "\n(f) Large scale — width-capped streaming frontier DPs on "
               "10^4..10^6-vertex trees (single run each)\n";
  const std::vector<int> largeSizes =
      parseSizes(options, "large-sizes", {10000, 100000, 500000, 1000000});
  std::vector<LargeRow> largeRows;
  {
    // Profile chosen to stay feasible under all three policies at s = 10^6:
    // unit requests, edge-heavy clients, light load. Random pockets whose
    // demand exceeds W make Closest infeasible with probability -> 1 at this
    // scale under the default experiment knobs, which would demonstrate
    // nothing about the solvers.
    GeneratorConfig config;
    config.clientFraction = 0.8;
    config.leafClientBias = 1.0;
    config.minRequests = config.maxRequests = 1;
    config.lambda = 0.2;
    config.unitCosts = true;
    config.qosFraction = 0.3;
    config.qosMinHops = 6;
    config.qosMaxHops = 12;

    TextTable t;
    t.setHeader({"s", "gen (ms)", "Closest (ms)", "Multiple (ms)", "QoS (ms)",
                 "repl(C)", "repl(M)", "repl(Q)", "peak RSS"});
    for (const int s : largeSizes) {
      config.minSize = config.maxSize = s;
      LargeRow row;
      row.size = s;

      const auto t0 = std::chrono::steady_clock::now();
      const ProblemInstance inst = generateInstance(config, 7, 0);
      row.genMs = millis(t0);
      row.vertices = inst.tree.vertexCount();

      const auto t1 = std::chrono::steady_clock::now();
      row.closest = countClosestHomogeneousStreaming(inst);
      row.closestMs = millis(t1);
      const auto t2 = std::chrono::steady_clock::now();
      row.multiple = countMultipleHomogeneousStreaming(inst);
      row.multipleMs = millis(t2);
      const auto t3 = std::chrono::steady_clock::now();
      row.qos = countClosestQosStreaming(inst);
      row.qosMs = millis(t3);
      row.peakRssBytes = bench::peakRssBytes();

      const auto replicas = [](const StreamCountResult& r) {
        if (!r.feasible) return std::string("-");
        return std::to_string(r.replicas) + (r.stats.exact ? "" : "*");
      };
      t.addRow({std::to_string(s), formatDouble(row.genMs, 1),
                formatDouble(row.closestMs, 1), formatDouble(row.multipleMs, 1),
                formatDouble(row.qosMs, 1), replicas(row.closest),
                replicas(row.multiple), replicas(row.qos),
                bench::renderByteSize(row.peakRssBytes)});
      largeRows.push_back(row);
    }
    std::cout << t.render();
    if (!largeRows.empty()) {
      const LargeRow& last = largeRows.back();
      std::cout << "  s=" << last.size << " Closest stream: "
                << bench::renderFields(last.closest.stats) << '\n'
                << "  s=" << last.size << " QoS stream: "
                << bench::renderFields(last.qos.stats) << '\n';
    }
    std::cout << "  * = width cap fired: the count is an achievable upper "
                 "bound, not the proven optimum\n"
              << "  expectation: wall time and slab memory grow ~linearly "
                 "with s; all three DPs complete at s=10^6\n\n";
  }
  const std::size_t rssLarge = bench::peakRssBytes();

  std::cout << "(g) Sparse LU warm dual re-solves under branching-style box "
               "updates (min over " << repeats << " runs)\n";
  std::vector<WarmResolveRow> warmResolveRows;
  {
    const int resolves = 400;
    for (const int s : {64, 128, 256}) {
      GeneratorConfig config;
      config.minSize = config.maxSize = s;
      config.lambda = 0.6;
      config.maxChildren = 2;
      config.heterogeneous = true;
      const ProblemInstance inst =
          generateInstance(config, 77, static_cast<std::uint64_t>(s));
      FormulationOptions fo;
      fo.integrality = FormulationOptions::Integrality::Relaxed;
      const IlpFormulation f(inst, Policy::Multiple, fo);
      int branchVar = -1;
      for (const VertexId v : inst.tree.internals()) {
        branchVar = f.placementVar(v);
        if (branchVar >= 0) break;
      }
      if (branchVar < 0) continue;

      WarmResolveRow row;
      row.size = s;
      row.rows = static_cast<int>(f.model().constraintCount());
      row.cols = static_cast<int>(f.model().variableCount());
      row.resolves = resolves;
      bool ok = true;
      for (int rep = 0; rep < repeats && ok; ++rep) {
        lp::LpWorkspace workspace(f.model());
        if (workspace.solveCold() != lp::SolveStatus::Optimal) {
          ok = false;
          break;
        }
        int flip = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < resolves; ++k) {
          workspace.setBounds(branchVar, 0.0, flip ? 0.0 : 1.0);
          flip ^= 1;
          if (workspace.solveDual() == lp::SolveStatus::IterationLimit)
            (void)workspace.solveCold();
        }
        const double ms = millis(t0);
        row.ms = rep == 0 ? ms : std::min(row.ms, ms);
        if (rep == repeats - 1) row.warm = workspace.stats();
      }
      if (!ok) continue;
      warmResolveRows.push_back(row);
    }
    TextTable t;
    t.setHeader({"s", "rows", "cols", "resolves (ms)", "refactor", "etas",
                 "basis nnz"});
    for (const WarmResolveRow& row : warmResolveRows) {
      t.addRow({std::to_string(row.size), std::to_string(row.rows),
                std::to_string(row.cols), formatDouble(row.ms, 2),
                std::to_string(row.warm.refactorizations),
                std::to_string(row.warm.etaCount),
                std::to_string(row.warm.basisNnz)});
    }
    std::cout << t.render()
              << "  expectation: a handful of refactorizations per 400 "
                 "re-solves, and basis fill (L+U) within a few entries per "
                 "row\n";
  }
  const std::size_t rssWarmResolve = bench::peakRssBytes();

  const std::vector<int> mutateSizes =
      parseSizes(options, "mutate-sizes", {1000, 10000, 100000});
  const int mutateSteps =
      std::max(1, static_cast<int>(options.getIntOr("mutate-steps", 300)));
  std::cout << "\n(h) Incremental re-optimization — dirty-subtree frontier "
               "caches vs from-scratch exact DP, " << mutateSteps
            << " single-client mutations per stream (every step verified)\n";
  constexpr int churnSize = 10000;  // serve-churn's scale
  std::vector<IncrementalRow> incrementalRows;
  std::vector<IncrementalRow> churnRows;
  {
    // Unit base requests at light load (lambda 0.05): each mutation then
    // moves a handful of replicas at most, which is the regime incremental
    // re-optimization targets — under heavy load (lambda ~0.2) the optimum
    // itself churns tens of replicas per step and no locality is left to
    // exploit. Rate mutations redraw one client in [0, rateCap*W], so load
    // drifts slowly and the stream stays feasible throughout.
    GeneratorConfig config;
    config.clientFraction = 0.8;
    config.leafClientBias = 1.0;
    config.minRequests = config.maxRequests = 1;
    config.lambda = 0.05;
    config.unitCosts = true;

    TextTable t;
    t.setHeader({"s", "policy", "inc p50 (ms)", "scratch p50", "x p50",
                 "inc p99 (ms)", "scratch p99", "x p99", "match", "hit rate",
                 "assigns/step"});
    for (const int s : mutateSizes) {
      config.minSize = config.maxSize = s;
      for (const OnlinePolicy policy :
           {OnlinePolicy::Closest, OnlinePolicy::Multiple}) {
        ProblemInstance inst =
            generateInstance(config, 11, static_cast<std::uint64_t>(s));
        MutationWorkloadConfig mc;
        mc.policy = policy;
        mc.steps = mutateSteps;
        mc.seed = 1234 + static_cast<std::uint64_t>(s);
        // Single-client value mutations only: no structural growth, and no
        // global W change (that re-solves every bag where W binds). Small
        // rate redraws keep the Closest stream feasible (see rateCap doc).
        mc.structural = false;
        mc.capacityWeight = 0.0;
        mc.rateWeight = 0.85;
        mc.leaveWeight = 0.15;
        mc.rateCap = 0.1;
        mc.verifyScratch = true;

        IncrementalRow row;
        row.size = s;
        row.vertices = inst.tree.vertexCount();
        row.policy = policy;
        row.assignsPerStep = repairAssignsOf(inst, mc);
        row.run = runMutationWorkload(inst, mc);
        t.addRow({std::to_string(s), std::string(toString(policy)),
                  formatDouble(row.run.p50IncrementalMs, 3),
                  formatDouble(row.run.p50ScratchMs, 3),
                  formatDouble(row.run.speedupP50(), 1),
                  formatDouble(row.run.p99IncrementalMs, 3),
                  formatDouble(row.run.p99ScratchMs, 3),
                  formatDouble(row.run.speedupP99(), 1),
                  row.run.allMatch ? "yes" : "NO",
                  formatDouble(row.run.cache.hitRate(), 3),
                  formatAssigns(row.assignsPerStep)});
        incrementalRows.push_back(std::move(row));
      }
    }
    std::cout << t.render();
    if (!incrementalRows.empty())
      std::cout << "  last cache: "
                << bench::renderFields(incrementalRows.back().run.cache)
                << '\n';
    std::cout << "  expectation: every step matches the from-scratch optimum "
                 "bit-for-bit; a single-client mutation dirties O(depth) "
                 "subtree frontiers, so the incremental re-solve pulls ahead "
                 "of the O(s) scratch DP as s grows (>= 5x at s=10^4); the "
                 "Multiple repair writes only the shares that move (tens per "
                 "step)\n";

    // The same check under structural churn: drawMutation's mix (joins, pod
    // attaches and detaches, global W changes) at rate cap 0.1 on the
    // serve-churn instance profile, one stream per policy.
    GeneratorConfig churn = config;
    churn.minSize = churn.maxSize = churnSize;
    churn.qosFraction = 0.3;
    churn.qosMinHops = 6;
    churn.qosMaxHops = 12;
    TextTable c;
    c.setHeader({"s", "policy", "inc p50 (ms)", "scratch p50", "match", "copies",
                 "fallbacks", "final s", "assigns/step"});
    for (const OnlinePolicy policy :
         {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
      ProblemInstance inst = generateInstance(churn, 11, static_cast<std::uint64_t>(churnSize));
      MutationWorkloadConfig mc;
      mc.policy = policy;
      mc.steps = mutateSteps;
      mc.seed = 4321 + static_cast<std::uint64_t>(churnSize);
      mc.rateCap = 0.1;
      mc.verifyScratch = true;
      IncrementalRow row;
      row.size = churnSize;
      row.vertices = inst.tree.vertexCount();
      row.policy = policy;
      row.assignsPerStep = repairAssignsOf(inst, mc);
      row.run = runMutationWorkload(inst, mc);
      c.addRow({std::to_string(churnSize), std::string(toString(policy)),
                formatDouble(row.run.p50IncrementalMs, 3),
                formatDouble(row.run.p50ScratchMs, 3), row.run.allMatch ? "yes" : "NO",
                std::to_string(row.run.cache.snapshotCopies),
                std::to_string(row.run.cache.scratchFallbacks),
                std::to_string(inst.tree.vertexCount()), formatAssigns(row.assignsPerStep)});
      churnRows.push_back(std::move(row));
    }
    std::cout << "  structural churn (joins, pods, detaches, W changes; rate cap 0.1):\n"
              << c.render();
    std::cout << "  expectation: every step matches the from-scratch optimum and "
                 "no resolve falls back to scratch; joins, pods and W changes "
                 "repair the assignment in place\n";
  }
  const std::size_t rssIncremental = bench::peakRssBytes();

  const std::vector<int> resilienceSizes =
      parseSizes(options, "resilience-sizes", {10000, 100000});
  std::cout << "\n(i) Deadline-aware resilient pipeline — every solver path "
               "granted 10% of its scratch exact wall time\n";
  std::vector<ResilienceRow> resilienceRows;
  {
    // Same feasible-under-all-policies profile as part (f): unit requests,
    // edge-heavy clients, light load (see the comment there).
    GeneratorConfig config;
    config.clientFraction = 0.8;
    config.leafClientBias = 1.0;
    config.minRequests = config.maxRequests = 1;
    config.lambda = 0.2;
    config.unitCosts = true;
    config.qosFraction = 0.3;  // only binds on the ClosestQos path
    config.qosMinHops = 6;
    config.qosMaxHops = 12;
    TextTable t;
    t.setHeader({"s", "policy", "scratch (ms)", "deadline", "elapsed",
                 "overshoot", "status", "rung", "bracket", "valid"});
    for (const int s : resilienceSizes) {
      config.minSize = config.maxSize = s;
      const ProblemInstance inst =
          generateInstance(config, 23, static_cast<std::uint64_t>(s));
      for (const OnlinePolicy policy :
           {OnlinePolicy::Closest, OnlinePolicy::Multiple,
            OnlinePolicy::ClosestQos}) {
        ResilienceRow row;
        row.size = s;
        row.vertices = inst.tree.vertexCount();
        row.policy = policy;
        const auto t0 = std::chrono::steady_clock::now();
        switch (policy) {
          case OnlinePolicy::Closest: (void)solveClosestHomogeneous(inst); break;
          case OnlinePolicy::Multiple: (void)solveMultipleHomogeneousDP(inst); break;
          case OnlinePolicy::ClosestQos: (void)solveClosestHomogeneousQos(inst); break;
        }
        row.scratchMs = millis(t0);
        row.deadlineMs = std::max(1.0, 0.1 * row.scratchMs);
        SolveBudget budget;
        budget.wallMs = row.deadlineMs;
        row.outcome = solveResilient(inst, policy, budget);
        if (row.outcome.hasPlacement()) {
          ValidationOptions vo;
          vo.checkQos = policy == OnlinePolicy::ClosestQos;
          vo.checkBandwidth = false;
          row.valid = isValidPlacement(
              inst, *row.outcome.placement,
              policy == OnlinePolicy::Multiple ? Policy::Multiple
                                               : Policy::Closest,
              vo);
        }
        const double overshoot =
            std::max(0.0, row.outcome.elapsedMs - row.deadlineMs);
        const std::string bracket =
            row.outcome.bracketed()
                ? std::string("[") + formatDouble(row.outcome.lowerBound, 0) + ", " +
                      formatDouble(row.outcome.cost, 0) + "]"
                : "-";
        t.addRow({std::to_string(s), std::string(toString(policy)),
                  formatDouble(row.scratchMs, 1),
                  formatDouble(row.deadlineMs, 1),
                  formatDouble(row.outcome.elapsedMs, 1),
                  formatDouble(overshoot, 1),
                  std::string(toString(row.outcome.status)),
                  std::string(toString(row.outcome.level)), bracket,
                  row.valid ? "yes" : "NO"});
        resilienceRows.push_back(std::move(row));
      }
    }
    std::cout << t.render();
    std::cout << "  expectation: the deadline is honored within 50 ms on "
                 "every path at s=10^5, the answer is a validated placement "
                 "with a certified bracket (FeasibleDegraded) or a structured "
                 "non-claim — never an invalid placement\n";
  }
  const std::size_t rssResilience = bench::peakRssBytes();

  const int multitreeSize =
      static_cast<int>(options.getIntOr("multitree-size", 10000));
  std::cout << "\n(j) Multitree lexico-min Closest — k member trees sharing "
               "a gateway pool, solved globally (member size "
            << multitreeSize << ", solve min over " << repeats << " runs)\n";
  std::vector<MultitreeRow> multitreeRows;
  {
    // Same feasible-at-scale profile as parts (f)/(i): unit requests at
    // light load, edge-heavy clients — bursty demand makes one overloaded
    // edge internal (and thus the whole overlay) infeasible at this size.
    MultitreeConfig config;
    config.sharedInternals = 12;
    config.base.clientFraction = 0.8;
    config.base.leafClientBias = 1.0;
    config.base.minRequests = config.base.maxRequests = 1;
    config.base.lambda = 0.2;
    config.base.unitCosts = true;
    config.base.minSize = config.base.maxSize = multitreeSize;

    TextTable t;
    t.setHeader({"k", "member s", "vertices", "shared", "gen (ms)",
                 "solve (ms)", "feasible", "replicas", "dfs", "resolves",
                 "dirty", "valid"});
    for (const int k : {2, 3, 4}) {
      config.trees = k;
      const auto tg = std::chrono::steady_clock::now();
      const MultitreeInstance mt =
          generateMultitreeInstance(config, 31, static_cast<std::uint64_t>(k));
      MultitreeRow row;
      row.genMs = millis(tg);
      row.memberSize = multitreeSize;
      row.trees = k;
      row.globalVertices = static_cast<std::size_t>(mt.globalVertexCount);
      row.sharedCount = static_cast<std::size_t>(mt.sharedCount);
      auto t0 = std::chrono::steady_clock::now();
      const MultitreeSolveResult result = solveMultitreeClosest(mt);
      row.solveMs = millis(t0);
      // Min over the repeats, like the other timing rows; the search is
      // deterministic, so the repeats only time it again.
      for (int rep = 1; rep < repeats; ++rep) {
        t0 = std::chrono::steady_clock::now();
        (void)solveMultitreeClosest(mt);
        row.solveMs = std::min(row.solveMs, millis(t0));
      }
      row.feasible = result.feasible;
      row.replicas = result.replicaCount();
      row.stats = result.stats;
      if (result.placement.has_value())
        row.valid = isValidMultitreePlacement(mt, *result.placement,
                                              Policy::Closest);
      t.addRow({std::to_string(k), std::to_string(multitreeSize),
                std::to_string(row.globalVertices),
                std::to_string(row.sharedCount), formatDouble(row.genMs, 1),
                formatDouble(row.solveMs, 1), row.feasible ? "yes" : "no",
                std::to_string(row.replicas),
                std::to_string(row.stats.dfsNodes),
                std::to_string(row.stats.dpResolves),
                std::to_string(row.stats.dirtyRecomputes),
                row.valid ? "yes" : "NO"});
      multitreeRows.push_back(std::move(row));
    }
    std::cout << t.render();
    std::cout << "  expectation: the gateway branch-and-bound touches far "
                 "fewer nodes than 2^shared, the lexico scan re-solves via "
                 "O(depth) dirty paths rather than full DP rebuilds, and "
                 "every returned placement validates against the overlay "
                 "checker\n";
  }
  const std::size_t rssMultitree = bench::peakRssBytes();

  const int serviceSessions =
      std::max(1, static_cast<int>(options.getIntOr("service-sessions", 6)));
  const int serviceRequests =
      std::max(serviceSessions,
               static_cast<int>(options.getIntOr("service-requests", 180)));
  const int serviceSize = static_cast<int>(options.getIntOr("service-size", 1000));
  const int serviceIlpSize =
      static_cast<int>(options.getIntOr("service-ilp-size", 48));
  const int serviceIlpSteps =
      std::max(1, static_cast<int>(options.getIntOr("service-ilp-steps", 10)));
  std::cout << "\n(k) Concurrent placement service — " << serviceSessions
            << " sessions, " << serviceRequests
            << " requests total, s=" << serviceSize
            << ", step budgets (deterministic)\n";
  std::vector<ServiceSoakRow> serviceRows;
  ServiceWarmIlpResult serviceWarm;
  {
    // Same feasible-under-all-policies profile as parts (f)/(i).
    GeneratorConfig config;
    config.minSize = config.maxSize = serviceSize;
    config.clientFraction = 0.8;
    config.leafClientBias = 1.0;
    config.minRequests = config.maxRequests = 1;
    config.lambda = 0.2;
    config.unitCosts = true;
    config.qosFraction = 0.3;
    config.qosMinHops = 6;
    config.qosMaxHops = 12;

    // Step-only budget: rung selection cannot depend on service-side timing,
    // which is what makes "bit-identical to the serial replay" a fair gate.
    SolveBudget budget;
    budget.maxSteps = 20'000'000;

    const int stepsPer = serviceRequests / serviceSessions;
    std::vector<ProblemInstance> originals;
    std::vector<OnlinePolicy> policies;
    std::vector<std::vector<InstanceDelta>> streams;
    std::vector<std::vector<SolveOutcome>> expected;
    for (int s = 0; s < serviceSessions; ++s) {
      const OnlinePolicy policy =
          s % 3 == 0 ? OnlinePolicy::Closest
                     : (s % 3 == 1 ? OnlinePolicy::Multiple
                                   : OnlinePolicy::ClosestQos);
      policies.push_back(policy);
      originals.push_back(
          generateInstance(config, 67, 1000 + static_cast<std::uint64_t>(s)));
      // Deltas are pre-drawn against a lockstep shadow so every worker count
      // replays the identical per-session request sequence.
      MutationWorkloadConfig mc;
      mc.policy = policy;
      mc.seed = 5000 + static_cast<std::uint64_t>(s);
      mc.rateCap = 0.25;
      ProblemInstance shadow = originals.back();
      Prng rng(mc.seed);
      std::vector<InstanceDelta> stream;
      for (int k = 0; k < stepsPer; ++k) {
        InstanceDelta delta = drawMutation(shadow, mc, rng);
        applyDelta(shadow, delta);
        stream.push_back(std::move(delta));
      }
      streams.push_back(std::move(stream));
      // The single-threaded oracle: a fresh session, same deltas, same budget.
      ProblemInstance replayInstance = originals.back();
      ResilientSession replay(replayInstance, policy);
      std::vector<SolveOutcome> outcomes;
      for (const InstanceDelta& delta : streams.back()) {
        replay.apply(delta);
        outcomes.push_back(replay.solve(budget));
      }
      expected.push_back(std::move(outcomes));
    }

    TextTable t;
    t.setHeader({"workers", "requests", "p50 (ms)", "p99 (ms)", "wall (ms)",
                 "req/s", "all match"});
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ServiceSoakRow row;
      row.workers = workers;
      PlacementService service({.workers = workers});
      std::vector<PlacementService::SessionId> ids;
      for (int s = 0; s < serviceSessions; ++s)
        ids.push_back(service.openSession(originals[static_cast<std::size_t>(s)],
                                          policies[static_cast<std::size_t>(s)]));
      std::vector<std::vector<std::future<ServiceResponse>>> futures(
          static_cast<std::size_t>(serviceSessions));
      const auto t0 = std::chrono::steady_clock::now();
      // Step-major interleave: step k of every session submits before step
      // k+1 of any — the adversarial schedule for cross-session isolation.
      for (int k = 0; k < stepsPer; ++k) {
        for (int s = 0; s < serviceSessions; ++s) {
          const auto si = static_cast<std::size_t>(s);
          ServiceRequest request;
          request.delta = streams[si][static_cast<std::size_t>(k)];
          request.budget = budget;
          futures[si].push_back(service.submit(ids[si], request));
        }
      }
      std::vector<double> latencies;
      for (int s = 0; s < serviceSessions; ++s) {
        const auto si = static_cast<std::size_t>(s);
        for (int k = 0; k < stepsPer; ++k) {
          ServiceResponse response = futures[si][static_cast<std::size_t>(k)].get();
          latencies.push_back(response.serveMs);
          const SolveOutcome& got = response.outcome;
          const SolveOutcome& want = expected[si][static_cast<std::size_t>(k)];
          const bool match =
              response.deltaStatus == DeltaStatus::Applied &&
              got.status == want.status && got.level == want.level &&
              got.hasPlacement() == want.hasPlacement() &&
              (!got.hasPlacement() || (got.cost == want.cost &&
                                       *got.placement == *want.placement));
          if (!match) row.allMatch = false;
        }
      }
      row.wallMs = millis(t0);
      std::sort(latencies.begin(), latencies.end());
      const auto pct = [&](double p) {
        return latencies.empty()
                   ? 0.0
                   : latencies[static_cast<std::size_t>(
                         p * static_cast<double>(latencies.size() - 1))];
      };
      row.p50Ms = pct(0.50);
      row.p99Ms = pct(0.99);
      row.throughput = row.wallMs > 0.0
                           ? 1000.0 * static_cast<double>(latencies.size()) / row.wallMs
                           : 0.0;
      t.addRow({std::to_string(workers), std::to_string(latencies.size()),
                formatDouble(row.p50Ms, 3), formatDouble(row.p99Ms, 3),
                formatDouble(row.wallMs, 1), formatDouble(row.throughput, 0),
                row.allMatch ? "yes" : "NO"});
      serviceRows.push_back(row);
    }
    std::cout << t.render();
    std::cout << "  expectation: every response at every worker count is "
                 "bit-identical to the session's serial replay (the strand "
                 "model hides the concurrency), and wall time shrinks as "
                 "workers grow\n";

    // Warm-ILP seeding: the service's ILP session re-solves a mutation
    // stream with the previous placement repaired into a B&B incumbent;
    // the cold twin starts every solve from nothing.
    std::cout << "\n    warm-ILP seeding vs cold re-solves (s="
              << serviceIlpSize << ", " << serviceIlpSteps << " steps)\n";
    {
      GeneratorConfig ic;
      ic.minSize = ic.maxSize = serviceIlpSize;
      ic.clientFraction = 0.55;
      ic.maxRequests = 8;
      ic.lambda = 0.55;
      ic.unitCosts = true;
      const ProblemInstance original = generateInstance(ic, 97, 11);
      serviceWarm.size = serviceIlpSize;
      serviceWarm.steps = serviceIlpSteps;

      MutationWorkloadConfig mc;
      mc.policy = OnlinePolicy::Multiple;
      mc.seed = 131;
      mc.rateCap = 0.5;
      ProblemInstance shadow = original;
      Prng rng(mc.seed);
      std::vector<InstanceDelta> stream;
      for (int k = 0; k < serviceIlpSteps; ++k) {
        InstanceDelta delta = drawMutation(shadow, mc, rng);
        applyDelta(shadow, delta);
        stream.push_back(std::move(delta));
      }

      PlacementService service({.workers = 1});
      const auto id = service.openIlpSession(original);
      ProblemInstance cold = original;
      for (int k = 0; k < serviceIlpSteps; ++k) {
        ServiceRequest request;
        request.delta = stream[static_cast<std::size_t>(k)];
        request.budget.maxSteps = 200'000'000;
        const auto tw = std::chrono::steady_clock::now();
        ServiceResponse response = service.submit(id, request).get();
        serviceWarm.warmMs += millis(tw);
        if (response.ilpNodes >= 0) serviceWarm.warmNodes += response.ilpNodes;
        applyDelta(cold, stream[static_cast<std::size_t>(k)]);
        const auto tc = std::chrono::steady_clock::now();
        const ExactIlpResult coldResult = solveExactViaIlp(cold, Policy::Multiple, {});
        serviceWarm.coldMs += millis(tc);
        serviceWarm.coldNodes += coldResult.nodesExplored;
        const bool warmPlaced = response.outcome.hasPlacement();
        if (warmPlaced != coldResult.placement.has_value() ||
            (warmPlaced && response.outcome.cost != coldResult.cost))
          serviceWarm.allMatch = false;
      }
      serviceWarm.seededSolves = service.ilpStats(id).seededSolves;
      std::cout << "    warm nodes=" << serviceWarm.warmNodes << " ("
                << formatDouble(serviceWarm.warmMs, 1) << " ms, "
                << serviceWarm.seededSolves << "/" << serviceIlpSteps
                << " seeded)  cold nodes=" << serviceWarm.coldNodes << " ("
                << formatDouble(serviceWarm.coldMs, 1) << " ms)  node savings="
                << formatDouble(100.0 * serviceWarm.nodeSavings(), 1) << "%  costs "
                << (serviceWarm.allMatch ? "match" : "DIFFER") << "\n";
      std::cout << "  expectation: every warm re-solve lands the cold "
                 "optimum, and the repaired incumbent prunes >= 20% of the "
                 "cold search's B&B nodes across the stream\n";
    }
  }
  const std::size_t rssService = bench::peakRssBytes();

  // Per-step / per-outcome verification is a hard gate: a bench that prints
  // "NO" in a match column must not exit 0, or CI green means nothing.
  bool verificationFailed = false;
  for (const IncrementalRow& row : incrementalRows)
    if (!row.run.allMatch) verificationFailed = true;
  for (const IncrementalRow& row : churnRows)
    if (!row.run.allMatch || row.run.cache.scratchFallbacks > 0) verificationFailed = true;
  for (const ResilienceRow& row : resilienceRows)
    if (!row.valid) verificationFailed = true;
  for (const MultitreeRow& row : multitreeRows)
    if (!row.valid) verificationFailed = true;
  for (const ServiceSoakRow& row : serviceRows)
    if (!row.allMatch) verificationFailed = true;
  if (!serviceWarm.allMatch) verificationFailed = true;

  const std::string file = bench::jsonPath(argc, argv, "BENCH_table1.json");
  if (!file.empty()) {
    std::ofstream out(file);
    if (!out) {
      std::cerr << "cannot open " << file << " for writing\n";
      return 1;
    }
    JsonWriter json(out);
    json.beginObject();
    json.key("bench").value("table1_complexity");
    json.key("repeats").value(repeats);
    json.key("lambda").value(0.55);
    json.key("polynomial").beginArray();
    for (const PolyRow& row : polyRows) {
      json.beginObject();
      json.key("s").value(row.size);
      json.key("multiple_ms").value(row.multipleMs);
      json.key("closest_ms").value(row.closestMs);
      json.key("replicas_multiple").value(static_cast<std::int64_t>(row.replicasMultiple));
      json.key("replicas_closest").value(static_cast<std::int64_t>(row.replicasClosest));
      json.key("closest_frontier").beginObject();
      writeFields(json, row.closestStats);
      json.endObject();
      json.key("multiple_frontier").beginObject();
      writeFields(json, row.multipleDpStats);
      json.endObject();
      json.key("qos_frontier").beginObject();
      writeFields(json, row.qosStats);
      json.endObject();
      json.key("multiple_placement").beginObject();
      writeFields(json, row.multiplePlacement);
      json.endObject();
      json.endObject();
    }
    json.endArray();
    json.key("micro_placement").beginObject();
    json.key("s").value(micro.size);
    json.key("assign_flat_ms").value(micro.assignFlatMs);
    json.key("assign_arena_ms").value(micro.assignArenaMs);
    json.key("shares_scan_flat_ms");
    if (micro.sharesScanFlatMs < 0) json.null(); else json.value(micro.sharesScanFlatMs);
    json.endObject();
    json.key("upwards_reduction").beginArray();
    for (const UpwardsRow& row : upwardsRows) {
      json.beginObject();
      json.key("clients").value(row.clients);
      json.key("steps").value(static_cast<std::int64_t>(row.steps));
      json.key("ms").value(row.ms);
      json.key("proven").value(row.proven);
      json.key("feasible").value(row.feasible);
      json.key("mg_ms").value(row.mgMs);
      json.key("ubcf_ms").value(row.ubcfMs);
      json.endObject();
    }
    json.endArray();
    json.key("multiple_ilp_reduction").beginArray();
    for (const IlpRow& row : ilpRows) {
      json.beginObject();
      json.key("m").value(row.m);
      json.key("bb_nodes").value(static_cast<std::int64_t>(row.nodes));
      json.key("ms").value(row.ms);
      json.key("feasible").value(row.feasible);
      json.key("proven").value(row.proven);
      json.key("cost").value(row.cost);
      json.key("resolve_ms_per_node").value(row.resolveMsPerNode);
      json.key("bb_warm").beginObject();
      writeFields(json, row.warm);
      json.endObject();
      json.endObject();
    }
    json.endArray();
    json.key("parallel_bb").beginObject();
    json.key("m").value(parallelM);
    json.key("cores").value(
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    json.key("runs").beginArray();
    for (const ParallelRow& row : parallelRows) {
      json.beginObject();
      json.key("workers").value(row.workers);
      json.key("ms").value(row.ms);
      json.key("speedup").value(row.speedup);
      json.key("bb_nodes").value(static_cast<std::int64_t>(row.nodes));
      json.key("cost").value(row.cost);
      json.key("proven").value(row.proven);
      json.key("bb_warm").beginObject();
      writeFields(json, row.warm);
      json.endObject();
      json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("batch_driver").beginObject();
    json.key("instances").value(static_cast<std::int64_t>(batchInstances));
    json.key("sequential_ms").value(batchSequentialMs);
    json.key("batched_ms").value(batchPooledMs);
    json.key("speedup").value(batchSequentialMs > 0.0 && batchPooledMs > 0.0
                                  ? batchSequentialMs / batchPooledMs
                                  : 0.0);
    json.key("arena_sets").value(static_cast<std::int64_t>(batchArenaSets));
    json.key("cores").value(
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    json.endObject();
    json.key("large_scale").beginObject();
    json.key("width_cap").value(FrontierStreamOptions{}.widthCap);
    json.key("lambda").value(0.2);
    json.key("qos_fraction").value(0.3);
    json.key("runs").beginArray();
    for (const LargeRow& row : largeRows) {
      json.beginObject();
      json.key("s").value(row.size);
      json.key("vertices").value(static_cast<std::int64_t>(row.vertices));
      json.key("gen_ms").value(row.genMs);
      const auto policy = [&json](const char* name, double ms,
                                  const StreamCountResult& r) {
        json.key(name).beginObject();
        json.key("ms").value(ms);
        json.key("feasible").value(r.feasible);
        json.key("replicas").value(r.replicas);
        json.key("stream").beginObject();
        writeFields(json, r.stats);
        json.endObject();
        json.endObject();
      };
      policy("closest", row.closestMs, row.closest);
      policy("multiple", row.multipleMs, row.multiple);
      policy("qos", row.qosMs, row.qos);
      json.key("peak_rss_bytes")
          .value(static_cast<std::int64_t>(row.peakRssBytes));
      json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("warm_resolve").beginArray();
    for (const WarmResolveRow& row : warmResolveRows) {
      json.beginObject();
      json.key("s").value(row.size);
      json.key("rows").value(row.rows);
      json.key("cols").value(row.cols);
      json.key("resolves").value(row.resolves);
      json.key("ms").value(row.ms);
      json.key("warm").beginObject();
      writeFields(json, row.warm);
      json.endObject();
      json.endObject();
    }
    json.endArray();
    json.key("incremental").beginObject();
    json.key("steps").value(mutateSteps);
    json.key("lambda").value(0.05);
    json.key("single_client").value(true);
    json.key("runs").beginArray();
    for (const IncrementalRow& row : incrementalRows) {
      json.beginObject();
      json.key("s").value(row.size);
      json.key("vertices").value(static_cast<std::int64_t>(row.vertices));
      json.key("policy").value(std::string(toString(row.policy)));
      json.key("all_match").value(row.run.allMatch);
      json.key("p50_incremental_ms").value(row.run.p50IncrementalMs);
      json.key("p99_incremental_ms").value(row.run.p99IncrementalMs);
      json.key("p50_scratch_ms").value(row.run.p50ScratchMs);
      json.key("p99_scratch_ms").value(row.run.p99ScratchMs);
      json.key("speedup_p50").value(row.run.speedupP50());
      json.key("speedup_p99").value(row.run.speedupP99());
      if (row.assignsPerStep >= 0.0) json.key("assigns_per_step").value(row.assignsPerStep);
      json.key("cache").beginObject();
      writeFields(json, row.run.cache);
      json.endObject();
      json.endObject();
    }
    json.endArray();
    json.key("structural_runs").beginArray();
    for (const IncrementalRow& row : churnRows) {
      json.beginObject();
      json.key("s").value(row.size);
      json.key("vertices").value(static_cast<std::int64_t>(row.vertices));
      json.key("policy").value(std::string(toString(row.policy)));
      json.key("rate_cap").value(0.1);
      json.key("all_match").value(row.run.allMatch);
      json.key("p50_incremental_ms").value(row.run.p50IncrementalMs);
      json.key("p50_scratch_ms").value(row.run.p50ScratchMs);
      if (row.assignsPerStep >= 0.0) json.key("assigns_per_step").value(row.assignsPerStep);
      json.key("cache").beginObject();
      writeFields(json, row.run.cache);
      json.endObject();
      json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("resilience").beginObject();
    json.key("deadline_fraction").value(0.1);
    json.key("runs").beginArray();
    for (const ResilienceRow& row : resilienceRows) {
      json.beginObject();
      json.key("s").value(row.size);
      json.key("vertices").value(static_cast<std::int64_t>(row.vertices));
      json.key("policy").value(std::string(toString(row.policy)));
      json.key("scratch_ms").value(row.scratchMs);
      json.key("deadline_ms").value(row.deadlineMs);
      json.key("elapsed_ms").value(row.outcome.elapsedMs);
      json.key("overshoot_ms")
          .value(std::max(0.0, row.outcome.elapsedMs - row.deadlineMs));
      json.key("status").value(std::string(toString(row.outcome.status)));
      json.key("level").value(std::string(toString(row.outcome.level)));
      json.key("steps").value(static_cast<std::int64_t>(row.outcome.steps));
      json.key("valid").value(row.valid);
      json.key("cost");
      if (row.outcome.hasPlacement()) json.value(row.outcome.cost); else json.null();
      json.key("lower_bound").value(row.outcome.lowerBound);
      json.key("gap");
      if (row.outcome.bracketed()) json.value(row.outcome.gap()); else json.null();
      json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("multitree").beginObject();
    json.key("member_size").value(multitreeSize);
    json.key("lambda").value(0.2);
    json.key("runs").beginArray();
    for (const MultitreeRow& row : multitreeRows) {
      json.beginObject();
      json.key("trees").value(row.trees);
      json.key("member_s").value(row.memberSize);
      json.key("global_vertices")
          .value(static_cast<std::int64_t>(row.globalVertices));
      json.key("shared").value(static_cast<std::int64_t>(row.sharedCount));
      json.key("gen_ms").value(row.genMs);
      json.key("solve_ms").value(row.solveMs);
      json.key("feasible").value(row.feasible);
      json.key("replicas").value(static_cast<std::int64_t>(row.replicas));
      writeFields(json, row.stats);
      json.key("valid").value(row.valid);
      json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("service").beginObject();
    json.key("sessions").value(serviceSessions);
    json.key("requests").value(serviceRequests);
    json.key("s").value(serviceSize);
    json.key("soak").beginArray();
    for (const ServiceSoakRow& row : serviceRows) {
      json.beginObject();
      json.key("workers").value(static_cast<std::int64_t>(row.workers));
      json.key("p50_ms").value(row.p50Ms);
      json.key("p99_ms").value(row.p99Ms);
      json.key("wall_ms").value(row.wallMs);
      json.key("throughput_rps").value(row.throughput);
      json.key("all_match").value(row.allMatch);
      json.endObject();
    }
    json.endArray();
    json.key("warm_ilp").beginObject();
    json.key("s").value(serviceWarm.size);
    json.key("steps").value(serviceWarm.steps);
    json.key("warm_nodes").value(static_cast<std::int64_t>(serviceWarm.warmNodes));
    json.key("cold_nodes").value(static_cast<std::int64_t>(serviceWarm.coldNodes));
    json.key("seeded_solves")
        .value(static_cast<std::int64_t>(serviceWarm.seededSolves));
    json.key("node_savings").value(serviceWarm.nodeSavings());
    json.key("warm_ms").value(serviceWarm.warmMs);
    json.key("cold_ms").value(serviceWarm.coldMs);
    json.key("all_match").value(serviceWarm.allMatch);
    json.endObject();
    json.endObject();
    // One peak-RSS sample per section (the getrusage high-water mark is
    // monotone, so each value shows where the footprint last grew).
    json.key("peak_rss_bytes").beginObject();
    json.key("polynomial").value(static_cast<std::int64_t>(rssPolynomial));
    json.key("upwards_reduction").value(static_cast<std::int64_t>(rssUpwards));
    json.key("multiple_ilp_reduction").value(static_cast<std::int64_t>(rssIlp));
    json.key("parallel_bb").value(static_cast<std::int64_t>(rssParallel));
    json.key("batch_driver").value(static_cast<std::int64_t>(rssBatch));
    json.key("large_scale").value(static_cast<std::int64_t>(rssLarge));
    json.key("warm_resolve").value(static_cast<std::int64_t>(rssWarmResolve));
    json.key("incremental").value(static_cast<std::int64_t>(rssIncremental));
    json.key("resilience").value(static_cast<std::int64_t>(rssResilience));
    json.key("multitree").value(static_cast<std::int64_t>(rssMultitree));
    json.key("service").value(static_cast<std::int64_t>(rssService));
    json.key("final").value(static_cast<std::int64_t>(bench::peakRssBytes()));
    json.endObject();
    json.endObject();
    out << '\n';
    std::cout << "\nJSON written to " << file << '\n';
  }
  if (verificationFailed) {
    std::cerr << "\nVERIFICATION FAILURE: an incremental step or resilient "
                 "outcome did not validate (see the NO entries above)\n";
    return 1;
  }
  return 0;
} catch (const OptionError& e) {
  std::cerr << e.what() << '\n';
  return 2;
}
