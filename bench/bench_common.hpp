#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "experiments/report.hpp"
#include "experiments/runner.hpp"
#include "support/cli.hpp"
#include "support/rss.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace treeplace::bench {

/// Peak RSS in bytes, unit-normalized per platform. Lives in support/rss so
/// tests can link it; benches sample this after each section so
/// BENCH_table1.json tracks where the footprint grows.
inline std::size_t peakRssBytes() { return ::treeplace::peakRssBytes(); }

/// One line "key value, key value, ..." of a telemetry struct's fields, as
/// its forEachField lists them (the same keys its JSON object carries).
template <class Stats>
std::string renderFields(const Stats& stats) {
  std::ostringstream os;
  os << std::boolalpha;
  const char* separator = "";
  stats.forEachField([&](const char* key, auto value) {
    os << separator << key << ' ' << value;
    separator = ", ";
  });
  return os.str();
}

/// Human rendering of a byte count with a binary suffix ("37.2 MiB").
inline std::string renderByteSize(std::size_t bytes) {
  static const char* const suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  std::size_t s = 0;
  while (value >= 1024.0 && s + 1 < sizeof(suffixes) / sizeof(suffixes[0])) {
    value /= 1024.0;
    ++s;
  }
  return formatDouble(value, s == 0 ? 0 : 1) + ' ' + suffixes[s];
}

/// Experiment scale. Defaults are sized for a single-core CI box; set
/// TREEPLACE_FULL=1 (or --full) to run the paper's full plan
/// (30 trees per lambda, 15 <= s <= 400).
struct Scale {
  int trees = 10;
  int minSize = 15;
  int maxSize = 150;
  long lbNodes = 60;
  std::uint64_t seed = 0x5eedULL;
  bool full = false;
};

inline Scale readScale(int argc, const char* const* argv) {
  const Options options(argc, argv);
  Scale scale;
  scale.full = options.hasFlag("full");
  if (scale.full) {
    scale.trees = 30;
    scale.maxSize = 400;
    scale.lbNodes = 200;
  }
  scale.trees = static_cast<int>(options.getIntOr("trees", scale.trees));
  scale.minSize = static_cast<int>(options.getIntOr("smin", scale.minSize));
  scale.maxSize = static_cast<int>(options.getIntOr("smax", scale.maxSize));
  scale.lbNodes = options.getIntOr("lb-nodes", scale.lbNodes);
  scale.seed = static_cast<std::uint64_t>(options.getIntOr("seed", 0x5eed));
  return scale;
}

inline ExperimentPlan makePlan(const Scale& scale, bool heterogeneous) {
  ExperimentPlan plan;
  plan.treesPerLambda = scale.trees;
  plan.generator.minSize = scale.minSize;
  plan.generator.maxSize = scale.maxSize;
  plan.generator.heterogeneous = heterogeneous;
  plan.generator.unitCosts = !heterogeneous;  // Replica Counting vs Replica Cost
  // Distribution trees are deep rather than star-shaped; a fanout-2 internal
  // skeleton gives the path capacity that keeps high-lambda instances
  // feasible (see bench_ablation_tree_shape for the sensitivity study).
  plan.generator.maxChildren = 2;
  plan.lbMaxNodes = scale.lbNodes;
  plan.seed = scale.seed;
  return plan;
}

inline void banner(const std::string& title, const std::string& paperShape,
                   const Scale& scale) {
  std::cout << "=== " << title << " ===\n"
            << "plan: " << scale.trees << " trees/lambda, size " << scale.minSize
            << ".." << scale.maxSize << ", lambda 0.1..0.9"
            << (scale.full ? " (paper scale)" : " (reduced; --full for paper scale)")
            << "\npaper shape: " << paperShape << "\n\n";
}

inline void maybeWriteCsv(int argc, const char* const* argv,
                          const std::string& defaultName,
                          const ExperimentResult& result) {
  const Options options(argc, argv);
  const auto path = options.get("csv");
  if (!path) return;
  const std::string file = (*path == "1") ? defaultName : *path;
  std::ofstream out(file);
  writeCsv(out, result);
  std::cout << "\nCSV written to " << file << '\n';
}

/// Resolve a --json=<path> request (--json / --json=1 pick `defaultName`);
/// returns the empty string when no JSON output was asked for.
inline std::string jsonPath(int argc, const char* const* argv,
                            const std::string& defaultName) {
  const Options options(argc, argv);
  const auto path = options.get("json");
  if (!path) return {};
  return (*path == "1" || *path == "true") ? defaultName : *path;
}

/// Write the experiment series as machine-readable JSON when --json is given,
/// so the perf/quality trajectory can be tracked across PRs.
inline void maybeWriteJson(int argc, const char* const* argv,
                           const std::string& defaultName,
                           const ExperimentResult& result) {
  const std::string file = jsonPath(argc, argv, defaultName);
  if (file.empty()) return;
  std::ofstream out(file);
  if (!out) {
    std::cerr << "\ncannot open " << file << " for writing\n";
    return;
  }
  writeJson(out, result);
  std::cout << "\nJSON written to " << file << '\n';
}

}  // namespace treeplace::bench
