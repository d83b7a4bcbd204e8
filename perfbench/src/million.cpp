// million: width-capped streaming replica counts (core/frontier_stream, the
// default cap) on s=10^6 trees. One operation is one policy solve; the
// operations rotate Closest -> Multiple -> ClosestQos over a pool of trees
// built during set-up. Single-threaded and memory-bound.

#include <algorithm>
#include <climits>
#include <map>

#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "harness.hpp"
#include "tree/generator.hpp"

namespace perfbench {
namespace {

using namespace treeplace;

constexpr int kSize = 1'000'000;
constexpr std::size_t kPool = 3;
constexpr int kReferenceSize = 3'000;
constexpr double kLambda = 0.2;


struct PolicyRun {
  const char* name;
  const char* span;
  StreamCountResult (*solve)(const ProblemInstance&, const FrontierStreamOptions&);
};

const PolicyRun kRotation[] = {
    {"Closest", "exact.stream_closest", countClosestHomogeneousStreaming},
    {"Multiple", "exact.stream_multiple", countMultipleHomogeneousStreaming},
    {"ClosestQos", "exact.stream_qos", countClosestQosStreaming},
};

std::size_t exactCount(const std::optional<Placement>& placement) {
  return placement ? placement->replicaCount() : 0;
}

/// Uncapped streaming counts on a small tree must equal the exact DPs.
void checkReference(std::uint64_t seed, Result& result) {
  const ProblemInstance instance =
      generateInstance(atScaleProfile(kReferenceSize, kLambda), seed, 1000);
  FrontierStreamOptions uncapped;
  uncapped.widthCap = INT32_MAX;
  const std::size_t want[] = {exactCount(solveClosestHomogeneous(instance)),
                              exactCount(solveMultipleHomogeneousDP(instance)),
                              exactCount(solveClosestHomogeneousQos(instance))};
  for (std::size_t p = 0; p < std::size(kRotation); ++p) {
    const StreamCountResult got = kRotation[p].solve(instance, uncapped);
    const std::size_t count = got.feasible ? static_cast<std::size_t>(got.replicas) : 0;
    if (count != want[p] || !got.stats.exact)
      result.breach(std::string("uncapped ") + kRotation[p].name + " stream count " +
                    std::to_string(count) + " != exact DP " + std::to_string(want[p]));
  }
}

}  // namespace

void runMillion(const RunConfig& config, Result& result) {
  Tracer::enable(false);
  const FrontierStreamOptions capped;  // the default width cap

  // Set-up, once per pool tree: build it and run its first (cold) solve.
  std::vector<ProblemInstance> pool;
  std::vector<double> setupS;
  std::vector<double> buildS;
  std::map<std::pair<std::size_t, std::size_t>, StreamCountResult> first;
  for (std::size_t i = 0; i < kPool; ++i) {
    const Clock::time_point t0 = Clock::now();
    pool.push_back(generateInstance(atScaleProfile(kSize, kLambda), config.seed, i));
    buildS.push_back(msSince(t0) / 1000.0);
    first[{i, 0}] = kRotation[0].solve(pool.back(), capped);
    setupS.push_back(msSince(t0) / 1000.0);
  }

  // Timed window: whole rotations until the time is up, so every policy
  // runs equally often.
  Tracer::enable(config.trace);
  std::vector<double> latencies;
  std::size_t exact = 0;
  double pairs = 0.0, cappedMerges = 0.0, solveUs = 0.0, peakBytes = 0.0;
  const double cpu0 = processCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const std::size_t tree = round % kPool;
    for (std::size_t p = 0; p < std::size(kRotation); ++p) {
      ++result.attempted;
      const Clock::time_point t0 = Clock::now();
      StreamCountResult got;
      try {
        const Span span(kRotation[p].span);
        got = kRotation[p].solve(pool[tree], capped);
      } catch (const std::exception& error) {
        ++result.failed;
        result.breach(std::string(kRotation[p].name) + " on tree " + std::to_string(tree) +
                      " threw: " + error.what());
        continue;
      }
      const double ms = msSince(t0);
      latencies.push_back(ms);
      solveUs += 1000.0 * ms;
      pairs += static_cast<double>(got.stats.pairsMerged);
      cappedMerges += static_cast<double>(got.stats.cappedMerges);
      peakBytes = std::max(peakBytes, static_cast<double>(got.stats.peakBytes));
      if (got.stats.exact) ++exact;
      // Outputs are checked after the window; keep the first of each.
      const auto [it, inserted] = first.try_emplace({tree, p}, got);
      if (!got.feasible || (!inserted && (it->second.replicas != got.replicas ||
                                          it->second.feasible != got.feasible))) {
        ++result.failed;
        result.breach(std::string(kRotation[p].name) + " on tree " + std::to_string(tree) +
                      (got.feasible ? " changed its count between solves" : " found no placement"));
      }
    }
    if (msSince(start) >= 1000.0 * config.seconds) break;
  }
  const double wallS = msSince(start) / 1000.0;
  const double cpu1 = processCpuSeconds();
  Tracer::enable(false);

  // Checks: the paper's dominance order Multiple <= Closest <= ClosestQos.
  // Capped counts are achievable upper bounds, so each is compared with the
  // certified floor of the looser policy's count.
  for (std::size_t tree = 0; tree < kPool; ++tree) {
    const auto c = first.find({tree, 0});
    const auto m = first.find({tree, 1});
    const auto q = first.find({tree, 2});
    if (m == first.end() || q == first.end()) continue;
    if (m->second.replicasFloor() > c->second.replicas ||
        c->second.replicasFloor() > q->second.replicas)
      result.breach("dominance order violated on tree " + std::to_string(tree) +
                    ": M=" + std::to_string(m->second.replicas) +
                    " C=" + std::to_string(c->second.replicas) +
                    " Q=" + std::to_string(q->second.replicas));
  }
  checkReference(config.seed, result);

  const auto ops = static_cast<double>(result.attempted);
  result.put(result.endToEnd, "throughput_per_s", ops / wallS, "1/s");
  result.put(result.endToEnd, "latency_p50_ms", median(latencies), "ms");
  result.put(result.endToEnd, "cpu_ms_per_op", 1000.0 * (cpu1 - cpu0) / ops, "ms");
  result.put(result.endToEnd, "peak_rss_mb", peakRssMb(), "MiB");
  result.put(result.endToEnd, "setup_s", median(setupS), "s");
  if (const auto p90 = supportedTail(latencies, 0.9))
    result.put(result.extra, "latency_p90_ms", *p90, "ms");
  result.put(result.extra, "optimal_share", static_cast<double>(exact) / ops, "share");

  if (config.trace) {
    putSpanQuantiles(result, "exact.stream_closest", {50});
    putSpanQuantiles(result, "exact.stream_multiple", {50});
    putSpanQuantiles(result, "exact.stream_qos", {50});
    result.put(result.layers, "core.stream_pairs_merged", pairs / ops, "count");
    result.put(result.layers, "core.stream_pairs_per_us", solveUs > 0.0 ? pairs / solveUs : 0.0,
               "1/us");
    result.put(result.layers, "core.stream_capped_merges", cappedMerges / ops, "count");
    result.put(result.layers, "core.stream_peak_mb", peakBytes / (1024.0 * 1024.0), "MiB");
    result.put(result.layers, "tree.build_s", median(buildS), "s");
  }

  result.info["threads"] = "1";
  result.info["instances"] = std::to_string(kPool) + " trees x s=" + std::to_string(kSize) +
                             ", lambda 0.2, width cap " + std::to_string(capped.widthCap);
}

}  // namespace perfbench
