#include "experiments/runner.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/frontier.hpp"
#include "core/frontier_cache.hpp"
#include "core/frontier_stream.hpp"
#include "core/placement.hpp"
#include "exact/multitree_closest.hpp"
#include "experiments/report.hpp"
#include "lp/workspace.hpp"
#include "support/json.hpp"
#include "test_util.hpp"

namespace treeplace {
namespace {

ExperimentPlan tinyPlan(bool heterogeneous) {
  ExperimentPlan plan;
  plan.lambdas = {0.3, 0.8};
  plan.treesPerLambda = 4;
  plan.generator.minSize = 12;
  plan.generator.maxSize = 24;
  plan.generator.heterogeneous = heterogeneous;
  plan.generator.unitCosts = !heterogeneous;
  plan.lbMaxNodes = 60;
  plan.seed = 4242;
  return plan;
}

TEST(Experiments, EvaluateInstanceShape) {
  const ProblemInstance inst = testutil::chainInstance(10, 10, {3, 2});
  const TreeOutcome outcome = evaluateInstance(inst, 50);
  EXPECT_TRUE(outcome.lpFeasible);
  EXPECT_GT(outcome.lowerBound, 0.0);
  for (const auto& s : outcome.series) {
    EXPECT_TRUE(s.success);
    EXPECT_TRUE(s.valid);
    EXPECT_GE(s.cost, outcome.lowerBound - 1e-9);
  }
  EXPECT_FALSE(outcome.mbWinner.empty());
}

TEST(Experiments, RunSweepDeterministic) {
  const ExperimentPlan plan = tinyPlan(false);
  const ExperimentResult a = runExperiment(plan);
  const ExperimentResult b = runExperiment(plan);
  ASSERT_EQ(a.perLambda.size(), 2u);
  for (std::size_t i = 0; i < a.perLambda.size(); ++i) {
    EXPECT_EQ(a.perLambda[i].successCount, b.perLambda[i].successCount);
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      EXPECT_DOUBLE_EQ(a.perLambda[i].relativeCost[k], b.perLambda[i].relativeCost[k]);
  }
}

TEST(Experiments, ParallelMatchesSerial) {
  const ExperimentPlan plan = tinyPlan(true);
  ThreadPool pool(3);
  const ExperimentResult parallel = runExperiment(plan, &pool);
  const ExperimentResult serial = runExperiment(plan);
  ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
  for (std::size_t i = 0; i < parallel.outcomes.size(); ++i) {
    EXPECT_EQ(parallel.outcomes[i].lpFeasible, serial.outcomes[i].lpFeasible);
    EXPECT_DOUBLE_EQ(parallel.outcomes[i].lowerBound, serial.outcomes[i].lowerBound);
  }
}

TEST(Experiments, AllReturnedPlacementsWereValid) {
  for (const bool hetero : {false, true}) {
    const ExperimentResult r = runExperiment(tinyPlan(hetero));
    for (const LambdaAggregate& agg : r.perLambda)
      for (std::size_t k = 0; k < kSeriesCount; ++k)
        EXPECT_EQ(agg.invalidCount[k], 0)
            << seriesNames()[k] << " produced an invalid placement (hetero="
            << hetero << ", lambda=" << agg.lambda << ")";
  }
}

TEST(Experiments, MgAndMbMatchLpFeasibility) {
  // MG (and therefore MB) succeeds exactly on LP-feasible trees.
  const ExperimentResult r = runExperiment(tinyPlan(false));
  const std::size_t mg = 7;  // registry order: MG is last of the eight
  for (const LambdaAggregate& agg : r.perLambda) {
    EXPECT_EQ(agg.successCount[mg], agg.lpFeasibleCount) << agg.lambda;
    EXPECT_EQ(agg.successCount[kMixedBestIndex], agg.lpFeasibleCount) << agg.lambda;
  }
}

TEST(Experiments, RelativeCostWithinUnitInterval) {
  const ExperimentResult r = runExperiment(tinyPlan(true));
  for (const LambdaAggregate& agg : r.perLambda) {
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      EXPECT_GE(agg.relativeCost[k], 0.0);
      EXPECT_LE(agg.relativeCost[k], 1.0 + 1e-9);
    }
    // MB dominates every single heuristic.
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      EXPECT_GE(agg.relativeCost[kMixedBestIndex] + 1e-12, agg.relativeCost[k])
          << seriesNames()[k];
  }
}

TEST(Experiments, ReportRendering) {
  const ExperimentResult r = runExperiment(tinyPlan(false));
  const std::string success = renderSuccessTable(r);
  EXPECT_NE(success.find("lambda"), std::string::npos);
  EXPECT_NE(success.find("CTDA"), std::string::npos);
  EXPECT_NE(success.find("LP"), std::string::npos);
  const std::string rcost = renderRelativeCostTable(r);
  EXPECT_NE(rcost.find("MB"), std::string::npos);
  const std::string winners = renderMixedBestWinners(r);
  EXPECT_NE(winners.find("lambda"), std::string::npos);
}

TEST(Experiments, CsvSchema) {
  const ExperimentResult r = runExperiment(tinyPlan(false));
  std::ostringstream os;
  writeCsv(os, r);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,lambda,CTDA"), std::string::npos);
  EXPECT_NE(csv.find("success,"), std::string::npos);
  EXPECT_NE(csv.find("rcost,"), std::string::npos);
  // Header + 2 kinds x 2 lambdas = 5 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

template <class Stats>
std::string fieldsJson(const Stats& stats) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  writeFields(json, stats);
  json.endObject();
  return os.str();
}

// The telemetry keys BENCH_table1.json and the CI gates read. Every field
// holds a distinct nonzero value; the literals are the output of the
// hand-written per-struct JSON writers that forEachField replaced. Two
// deliberate differences, both in the WarmStartStats object: tableau_rows
// is gone (it always equalled structural_rows), and primal_iterations, which
// the struct counted but never wrote, is new.
TEST(Experiments, TelemetryFieldsKeepTheirJsonKeys) {
  EXPECT_EQ(fieldsJson(FrontierStats{11, 12, 13, 14}),
            R"({"peak_width":11,"arena_bytes":12,"entries_merged":13,)"
            R"("convolutions":14})");
  EXPECT_EQ(fieldsJson(FrontierStreamStats{21, 22, 23, 24, 25, 26, 27, 28, false}),
            R"({"peak_width":21,"peak_stack_entries":22,"peak_bytes":23,)"
            R"("convolutions":24,"pairs_merged":25,"capped_merges":26,)"
            R"("dropped_points":27,"cap_gap_bound":28,"exact":false})");
  EXPECT_EQ(fieldsJson(FrontierCacheStats{31, 30, 10, 33, 34, 35, 36, 37, 38, 39}),
            R"({"tracked_vertices":31,"hits":30,"misses":10,"hit_rate":0.75,)"
            R"("invalidations":33,"global_invalidations":34,"compactions":35,)"
            R"("arena_entries":36,"arena_bytes":37,"snapshot_copies":39,)"
            R"("scratch_fallbacks":38})");
  EXPECT_EQ(fieldsJson(PlacementStats{41, 42, 43, 44, 45}),
            R"({"pool_bytes":41,"shares":42,"assign_calls":43,)"
            R"("heap_allocs":44,"hole_slots":45})");
  EXPECT_EQ(fieldsJson(lp::WarmStartStats{1, 3, 53, 54, 55, 56, 57, 58, 59, 60, 61,
                                          62, 63, 6.5}),
            R"({"warm_solves":3,"cold_solves":1,"basis_reuse_rate":0.75,)"
            R"("warm_already_optimal":53,"primal_iterations":55,)"
            R"("dual_iterations":56,"dual_fallbacks":54,"bound_flips":57,)"
            R"("refactorizations":58,"eta_count":59,"basis_nnz":60,)"
            R"("structural_rows":61,"workers":62,"steal_count":63,)"
            R"("idle_ms":6.5})");
  EXPECT_EQ(fieldsJson(MultitreeSolveStats{71, 72, 73, 74, true}),
            R"({"dfs_nodes":71,"dp_resolves":72,"dirty_recomputes":73,)"
            R"("lexico_tests":74,"exhausted":true})");
}

TEST(Experiments, SeriesNamesStable) {
  const auto names = seriesNames();
  EXPECT_EQ(names.front(), "CTDA");
  EXPECT_EQ(names[kMixedBestIndex], "MB");
}

}  // namespace
}  // namespace treeplace
