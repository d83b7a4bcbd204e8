#pragma once

// Shared plumbing of the treeplace benchmark: clocks, sample statistics, the
// in-memory span tracer, and the result record every workload fills in.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tree/generator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point from, Clock::time_point to);
double msSince(Clock::time_point from);
Clock::time_point after(Clock::time_point from, double seconds);
/// CPU time of the whole process (every thread), seconds.
double processCpuSeconds();
double peakRssMb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
/// Quantile q only when at least ten samples lie strictly beyond it — the
/// highest percentile a sample of this size supports.
std::optional<double> supportedTail(const std::vector<double>& samples, double q);

/// Whether a workload should run its set-up once more: at least three times,
/// then again until two seconds of set-up were measured (at most 25 times),
/// so that even a set-up of a few milliseconds reports a steady median.
bool wantAnotherSetup(const std::vector<double>& setupSeconds);

/// The instance family of the serving and 10^6 workloads: unit requests on
/// edge clients (80% of vertices), unit storage costs, and 30% of clients
/// with a QoS bound of 6-12 hops. At loads up to 0.2 it stays feasible under
/// Closest, Multiple and ClosestQos up to s=10^6.
treeplace::GeneratorConfig atScaleProfile(int size, double lambda);

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;  ///< Chrome trace-event file for the spans ("" = none)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `endToEnd` is measured with tracing off,
/// `layers` only in a traced run; `extra` holds quality numbers and latency
/// tails that have no regression bound, and `info` the run's provenance.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> breaches;  ///< failed output checks
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> info;

  void breach(const std::string& what);
  void put(std::map<std::string, Metric>& into, const std::string& name,
           double value, const std::string& unit) {
    into[name] = Metric{value, unit};
  }
};

/// One timed span: a layer boundary crossed by the benchmark's own code.
struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  int thread = 0;
  double startUs = 0.0;      ///< since tracer start
  double endUs = 0.0;
};

/// In-memory span recorder. Each thread appends to its own buffer; buffers
/// are read only after the workload's threads went idle. Disabled, a Span
/// costs one relaxed load.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// Durations (ms) of every span with this name.
  static std::vector<double> durationsMs(const char* name);
  /// Write collected spans as Chrome trace-event JSON.
  static bool writeChromeTrace(const std::string& path);
};

/// RAII span; nests under the calling thread's innermost open span.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
};

/// Workload entry points (fleet.cpp, serve.cpp, million.cpp).
void runFleet(const RunConfig& config, Result& result);
void runServeLocal(const RunConfig& config, Result& result);
void runServeChurn(const RunConfig& config, Result& result);
void runMillion(const RunConfig& config, Result& result);

/// Put percentile layer metrics of a span family: `<span>_p50_ms` etc.
void putSpanQuantiles(Result& result, const char* span, std::initializer_list<int> percentiles);

}  // namespace perfbench
