#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>

#include "support/json.hpp"
#include "support/rss.hpp"

namespace perfbench {

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double msSince(Clock::time_point from) { return msBetween(from, Clock::now()); }

Clock::time_point after(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMb() {
  return static_cast<double>(treeplace::peakRssBytes()) / (1024.0 * 1024.0);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

std::optional<double> supportedTail(const std::vector<double>& samples, double q) {
  const double beyond = (1.0 - q) * static_cast<double>(samples.size());
  if (beyond < 10.0) return std::nullopt;
  return quantile(samples, q);
}

treeplace::GeneratorConfig atScaleProfile(int size, double lambda) {
  treeplace::GeneratorConfig config;
  config.minSize = config.maxSize = size;
  config.clientFraction = 0.8;
  config.leafClientBias = 1.0;
  config.minRequests = config.maxRequests = 1;
  config.lambda = lambda;
  config.unitCosts = true;
  config.qosFraction = 0.3;
  config.qosMinHops = 6;
  config.qosMaxHops = 12;
  return config;
}

bool wantAnotherSetup(const std::vector<double>& setupSeconds) {
  double total = 0.0;
  for (const double s : setupSeconds) total += s;
  return setupSeconds.size() < 3 || (setupSeconds.size() < 25 && total < 2.0);
}

void Result::breach(const std::string& what) {
  if (breaches.size() < 32) breaches.push_back(what);
  else if (breaches.size() == 32) breaches.push_back("... further breaches elided");
}

// ---------------------------------------------------------------- tracer
namespace {

struct ThreadBuffer {
  int thread = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> gTraceOn{false};
std::atomic<std::uint64_t> gNextSpanId{1};
std::atomic<int> gNextThread{0};
const Clock::time_point gTraceEpoch = Clock::now();

std::mutex gBuffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> gBuffers;  // guarded by gBuffersMutex

// The registry owns the buffers, so spans of threads that already exited
// stay readable; each thread only ever appends to its own.
ThreadBuffer& localBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = gNextThread.fetch_add(1);
    owned->spans.reserve(1 << 14);
    ThreadBuffer* raw = owned.get();
    const std::lock_guard<std::mutex> lock(gBuffersMutex);
    gBuffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

thread_local std::uint64_t tCurrentSpan = 0;

double usSinceEpoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - gTraceEpoch).count();
}

/// Every span recorded so far, all threads, in no particular order.
std::vector<SpanRecord> collectSpans() {
  const std::lock_guard<std::mutex> lock(gBuffersMutex);
  std::vector<SpanRecord> all;
  for (const auto& buffer : gBuffers)
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  return all;
}

}  // namespace

void Tracer::enable(bool on) { gTraceOn.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return gTraceOn.load(std::memory_order_relaxed); }

std::vector<double> Tracer::durationsMs(const char* name) {
  const std::string wanted(name);
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(gBuffersMutex);
  for (const auto& buffer : gBuffers)
    for (const SpanRecord& span : buffer->spans)
      if (wanted == span.name) out.push_back((span.endUs - span.startUs) / 1000.0);
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  treeplace::JsonWriter j(out);
  j.beginObject().key("traceEvents").beginArray();
  for (const SpanRecord& span : collectSpans()) {
    j.beginObject();
    j.key("name").value(span.name);
    j.key("ph").value("X");
    j.key("pid").value(1);
    j.key("tid").value(span.thread);
    j.key("ts").value(span.startUs);
    j.key("dur").value(span.endUs - span.startUs);
    j.key("args").beginObject();
    j.key("id").value(span.id);
    j.key("parent").value(span.parent);
    j.endObject();
    j.endObject();
  }
  j.endArray().endObject();
  out << '\n';
  return static_cast<bool>(out);
}

Span::Span(const char* name) : name_(name) {
  if (!Tracer::enabled()) return;
  id_ = gNextSpanId.fetch_add(1, std::memory_order_relaxed);
  parent_ = tCurrentSpan;
  tCurrentSpan = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  tCurrentSpan = parent_;
  ThreadBuffer& buffer = localBuffer();
  buffer.spans.push_back(
      SpanRecord{name_, id_, parent_, buffer.thread, usSinceEpoch(start_), usSinceEpoch(end)});
}

void putSpanQuantiles(Result& result, const char* span, std::initializer_list<int> percentiles) {
  const std::vector<double> ms = Tracer::durationsMs(span);
  for (const int p : percentiles) {
    const double q = p / 100.0;
    // A tail without ten samples beyond it is not reported (stays 0).
    const std::optional<double> value =
        p == 50 ? std::optional<double>(quantile(ms, q)) : supportedTail(ms, q);
    result.put(result.layers, std::string(span) + "_p" + std::to_string(p) + "_ms",
               value.value_or(0.0), "ms");
  }
  result.put(result.extra, std::string("samples.") + span,
             static_cast<double>(ms.size()), "count");
}

}  // namespace perfbench
