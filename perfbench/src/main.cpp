// treeplace benchmark: runs one named workload for a fixed time from a
// seed, checks its outputs, and prints one JSON record as the last line of
// standard output. perfbench/run.py builds this binary and wraps the record;
// perfbench/README.md documents the workloads and metrics.
//
//   perfbench --workload fleet --seed 1 --seconds 15 --trace 0

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "harness.hpp"
#include "support/json.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;
using perfbench::RunConfig;

/// Every per-layer metric a traced run prints, with its unit; a layer a
/// workload does not exercise reads 0 there (README.md, "Per-layer metrics").
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"formulation.lower_bound_p50_ms", "ms"}, {"formulation.lower_bound_p90_ms", "ms"},
    {"formulation.lb_exact_share", "share"}, {"lp.bb_nodes", "count"},
    {"lp.ms_per_node", "ms"}, {"heuristics.run_p50_ms", "ms"},
    {"heuristics.mixed_best_p50_ms", "ms"}, {"core.validate_p50_ms", "ms"},
    {"experiments.batch_busy_share", "share"},
    {"service.queue_p50_ms", "ms"}, {"service.queue_p99_ms", "ms"},
    {"service.serve_p50_ms", "ms"}, {"service.serve_p99_ms", "ms"},
    {"service.rejected", "count"},
    {"online.read_p50_ms", "ms"}, {"online.resolve_p50_ms", "ms"},
    {"online.resolve_p99_ms", "ms"}, {"online.ladder_p50_ms", "ms"},
    {"online.apply_p50_ms", "ms"}, {"online.structural_apply_p50_ms", "ms"},
    {"online.full_resolve_p50_ms", "ms"}, {"online.cache_hit_rate", "share"},
    {"online.recomputed_per_request", "count"}, {"online.scratch_fallbacks", "count"},
    {"exact.stream_closest_p50_ms", "ms"}, {"exact.stream_multiple_p50_ms", "ms"},
    {"exact.stream_qos_p50_ms", "ms"}, {"core.stream_pairs_merged", "count"},
    {"core.stream_pairs_per_us", "1/us"}, {"core.stream_capped_merges", "count"},
    {"core.stream_peak_mb", "MiB"},
    {"tree.build_s", "s"},
    {"traced.throughput_per_s", "1/s"}, {"traced.latency_p50_ms", "ms"},
    {"traced.cpu_ms_per_op", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload fleet|serve-local|serve-churn|million"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

RunConfig parseArgs(int argc, char** argv) {
  RunConfig config;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        config.workload = value;
        haveWorkload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value, &used);
        if (!(config.seconds > 0.0 && config.seconds <= 600.0))
          usage("--seconds must lie in (0, 600]");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--trace-out") {
        config.traceOut = value;
      } else {
        usage("unknown option " + flag);
      }
      if (used != 0 && used != value.size()) usage("malformed value for " + flag);
    } catch (const std::logic_error&) {
      usage("malformed value for " + flag);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return config;
}

void writeMetrics(treeplace::JsonWriter& j, const std::map<std::string, Metric>& metrics) {
  j.beginObject();
  for (const auto& [name, metric] : metrics) {
    j.key(name).beginObject();
    j.key("value").value(metric.value);
    j.key("unit").value(metric.unit);
    j.endObject();
  }
  j.endObject();
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parseArgs(argc, argv);
  Result result;
  perfbench::Tracer::enable(config.trace);
  try {
    if (config.workload == "fleet") perfbench::runFleet(config, result);
    else if (config.workload == "serve-local") perfbench::runServeLocal(config, result);
    else if (config.workload == "serve-churn") perfbench::runServeChurn(config, result);
    else if (config.workload == "million") perfbench::runMillion(config, result);
    else usage("unknown workload " + config.workload);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: workload " << config.workload << " aborted: " << error.what()
              << '\n';
    return 2;
  }
  perfbench::Tracer::enable(false);

  if (config.trace) {
    for (const char* name : {"throughput_per_s", "latency_p50_ms", "cpu_ms_per_op"}) {
      const auto it = result.endToEnd.find(name);
      if (it != result.endToEnd.end())
        result.layers[std::string("traced.") + name] = it->second;
    }
    for (const auto& [name, unit] : kLayerMetrics)
      if (!result.layers.contains(name)) result.put(result.layers, name, 0.0, unit);
    if (!config.traceOut.empty() && !perfbench::Tracer::writeChromeTrace(config.traceOut))
      result.breach("could not write trace file " + config.traceOut);
  }
  if (result.attempted == 0) result.breach("no operation completed");
  const bool correct = result.breaches.empty() && result.failed == 0;
  if (result.attempted > 0)
    result.put(result.extra, "failed_share",
               static_cast<double>(result.failed) / static_cast<double>(result.attempted), "share");

  result.info["compiler"] = PERFBENCH_COMPILER;
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;
  result.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.info["seed"] = std::to_string(config.seed);
  result.info["seconds"] = std::to_string(config.seconds);

  std::ostringstream line;
  treeplace::JsonWriter j(line);
  j.beginObject();
  j.key("workload").value(config.workload);
  j.key("trace").value(config.trace);
  j.key("correct").value(correct);
  j.key("attempted").value(static_cast<std::uint64_t>(result.attempted));
  j.key("failed").value(static_cast<std::uint64_t>(result.failed));
  j.key("metrics");
  writeMetrics(j, config.trace ? result.layers : result.endToEnd);
  j.key("end_to_end");
  writeMetrics(j, result.endToEnd);
  j.key("extra");
  writeMetrics(j, result.extra);
  j.key("info").beginObject();
  for (const auto& [key, value] : result.info) j.key(key).value(value);
  j.endObject();
  j.key("breaches").beginArray();
  for (const std::string& breach : result.breaches) j.value(breach);
  j.endArray();
  j.endObject();
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}
