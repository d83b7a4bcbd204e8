// serve-local and serve-churn: a PlacementService with one worker serving
// four closed-loop sessions (Closest, Multiple, ClosestQos, Closest). Each
// session keeps one request outstanding; the client thread reaps the
// sessions in round-robin order and issues the session's next request at once.
//
//   serve-local  s=10^5, single-client rate/leave deltas plus ~1/4 no-delta
//                reads: per-request O(s) costs (the Placement copy) dominate.
//   serve-churn  s=10^4, drawMutation's full delta mix — joins, pod
//                attach/detach, and global W changes that dirty every bag —
//                with W changes that revert and bounded join and pod rates.
//
// Every session cycles through a fixed set of episodes, each a stream of
// requests from the session's original instance. When an episode ends, the
// session is closed and reopened on the original instance, and its next
// request is a cold solve. So every run serves the same sequence of
// instance states however fast it goes: a faster build serves more
// episodes, not different ones.
//
// Budgets are step-only and the watchdog is disarmed, so the rung that
// answers never depends on the clock and one session can be replayed
// bit-for-bit through a serial ResilientSession after the timed window.

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>

#include "core/validate.hpp"
#include "experiments/mutation_driver.hpp"
#include "harness.hpp"
#include "online/delta.hpp"
#include "online/incremental.hpp"
#include "online/resilient.hpp"
#include "online/service.hpp"
#include "support/prng.hpp"
#include "tree/generator.hpp"

namespace perfbench {
namespace {

using namespace treeplace;

// One service worker: with two, wall-clock throughput swung by up to 60%
// between back-to-back runs of one seed as co-tenants took cores, while one
// saturated worker stays within ~10% (README.md, "Steadiness").
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kSessions = 4;
constexpr OnlinePolicy kPolicies[kSessions] = {OnlinePolicy::Closest, OnlinePolicy::Multiple,
                                               OnlinePolicy::ClosestQos, OnlinePolicy::Closest};

constexpr std::size_t kSampleEvery = 61;   // responses kept for validation
constexpr std::size_t kMaxSamples = 16;    // per session (placements are O(s))
constexpr std::size_t kLayerReplay = 500;  // requests per session, traced replay
constexpr double kRateCap = 0.1;           // redrawn rates lie in [0, 0.1 W]
constexpr double kLambda = 0.05;           // light load

struct ServeSpec {
  int size;
  bool churn;
  std::size_t episodeLength;  ///< requests per episode
  std::size_t episodes;       ///< distinct episodes per session, served in turn
};

using Request = std::optional<InstanceDelta>;  // nullopt: a no-delta read

template <typename T>
const T& pick(const std::vector<T>& values, Prng& rng) {
  return values[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(values.size()) - 1))];
}

/// drawMutation's rate range with kRateCap: [0, max(1, round(0.1 W))].
Requests redrawnRate(Requests W, Prng& rng) {
  const auto cap = static_cast<Requests>(std::llround(kRateCap * static_cast<double>(W)));
  return rng.uniformInt(0, std::max<Requests>(1, cap));
}

/// serve-local: 60% rate redraws, 15% leaves, 25% reads; the tree never
/// changes shape.
std::vector<Request> localStream(const ProblemInstance& instance, std::size_t length, Prng& rng) {
  const Requests W = instance.homogeneousCapacity();
  const std::vector<VertexId>& clients = instance.tree.clients();
  std::vector<Request> stream;
  stream.reserve(length);
  for (std::size_t k = 0; k < length; ++k) {
    const double draw = rng.uniformReal();
    if (draw < 0.25) {
      stream.emplace_back();
      continue;
    }
    InstanceDelta delta;
    delta.node = pick(clients, rng);
    if (draw < 0.85) {
      delta.kind = DeltaKind::RateChange;
      delta.rate = redrawnRate(W, rng);
    } else {
      delta.kind = DeltaKind::ClientLeave;
    }
    stream.emplace_back(std::move(delta));
  }
  return stream;
}

/// serve-churn: drawMutation's mix (55% rate redraws, 10% leaves, 5% global
/// W changes, 10% joins, 10% pod attaches, 10% detaches) at rate cap 0.1,
/// with two changes that keep the stream feasible. A global W change raises
/// W by up to 10% and the next one returns it to the base W, where
/// drawMutation walks W by +-2 without bound. Joins and pods draw their
/// rates from the redraw range, where drawMutation draws up to W/2.
std::vector<Request> churnStream(ProblemInstance shadow, std::size_t length, Prng& rng) {
  const Requests baseW = shadow.homogeneousCapacity();
  MutationWorkloadConfig mix;
  mix.rateCap = kRateCap;
  std::vector<Request> stream;
  stream.reserve(length);
  for (std::size_t k = 0; k < length; ++k) {
    InstanceDelta delta = drawMutation(shadow, mix, rng);
    if (delta.kind == DeltaKind::CapacityChange) {
      const Requests W = shadow.homogeneousCapacity();
      delta.capacity =
          W == baseW ? baseW + rng.uniformInt(1, std::max<Requests>(1, baseW / 10)) : baseW;
    } else if (delta.kind == DeltaKind::ClientJoin) {
      delta.rate = redrawnRate(baseW, rng);
    } else if (delta.kind == DeltaKind::SubtreeAttach) {
      for (Requests& rate : delta.podRates) rate = redrawnRate(baseW, rng);
    }
    applyDelta(shadow, delta);
    stream.emplace_back(std::move(delta));
  }
  return stream;
}

SolveBudget stepBudget() {
  SolveBudget budget;
  budget.maxSteps = 20'000'000;
  return budget;
}

ServiceRequest makeRequest(const Request& request) {
  ServiceRequest out;
  out.delta = request;
  out.budget = stepBudget();
  return out;
}

ValidationOptions validationFor(OnlinePolicy policy) {
  return {.checkQos = policy == OnlinePolicy::ClosestQos, .checkBandwidth = false};
}

Policy accessPolicy(OnlinePolicy policy) {
  return policy == OnlinePolicy::Multiple ? Policy::Multiple : Policy::Closest;
}

/// What the client keeps of one response (placements only for samples).
struct Reply {
  DeltaStatus deltaStatus = DeltaStatus::None;
  OutcomeStatus status = OutcomeStatus::Error;
  DegradationLevel level = DegradationLevel::None;
  bool hasPlacement = false;
  double cost = 0.0;
  double lowerBound = 0.0;
  double queueMs = 0.0;
  double serveMs = 0.0;
  std::string error;
  bool reopened = false;  ///< the cold solve of a reopened session
};

struct SessionRun {
  ProblemInstance original;
  std::vector<std::vector<Request>> episodes;
  std::size_t episode = 0;  ///< the episode being served
  std::size_t next = 0;     ///< its next request
  std::vector<Reply> replies;
  std::vector<std::pair<std::size_t, Placement>> samples;  ///< (reply index, placement)
};

bool isFailure(const Reply& reply) {
  return !reply.error.empty() || reply.deltaStatus == DeltaStatus::Rejected ||
         reply.deltaStatus == DeltaStatus::Failed || reply.status == OutcomeStatus::Error ||
         reply.status == OutcomeStatus::Cancelled;
}

/// Bit-identity of a served reply against a serial replay's outcome.
bool sameOutcome(const Reply& reply, const SolveOutcome& want) {
  return reply.status == want.status && reply.level == want.level &&
         reply.hasPlacement == want.hasPlacement() && reply.cost == want.cost &&
         reply.lowerBound == want.lowerBound;
}

/// Traced layer replay of one session's stream prefix: the same deltas
/// through a bare IncrementalSolver (apply / resolve / read) and through a
/// ResilientSession (the full rung ladder).
struct LayerTotals {
  std::size_t hits = 0, misses = 0, resolves = 0, fallbacks = 0;
};

void replayLayers(const SessionRun& run, OnlinePolicy policy, LayerTotals& totals) {
  const std::vector<Request>& stream = run.episodes[0];
  const std::size_t count = std::min(kLayerReplay, stream.size());
  {
    ProblemInstance instance = run.original;
    IncrementalSolver solver(instance, policy);
    (void)solver.resolve();  // cold solve, as the service's set-up request
    const FrontierCacheStats before = solver.cacheStats();
    for (std::size_t k = 0; k < count; ++k) {
      const Request& request = stream[k];
      const char* resolveSpan = "online.read";
      if (request) {
        const bool structural = request->kind == DeltaKind::ClientJoin ||
                                request->kind == DeltaKind::SubtreeAttach;
        DeltaApplication app;
        {
          const Span span(structural ? "online.structural_apply" : "online.apply");
          app = solver.apply(*request);
        }
        resolveSpan = app.global ? "online.full_resolve" : "online.resolve";
      }
      const Span span(resolveSpan);
      (void)solver.resolve();
    }
    const FrontierCacheStats& after = solver.cacheStats();
    totals.hits += after.hits - before.hits;
    totals.misses += after.misses - before.misses;
    totals.fallbacks += after.scratchFallbacks - before.scratchFallbacks;
    totals.resolves += count;
  }
  ProblemInstance instance = run.original;
  ResilientSession session(instance, policy);
  (void)session.solve(stepBudget());
  for (std::size_t k = 0; k < count; ++k) {
    if (stream[k]) session.apply(*stream[k]);
    const Span span("online.ladder");
    (void)session.solve(stepBudget());
  }
}

void runServe(const ServeSpec& spec, const RunConfig& config, Result& result) {
  Tracer::enable(false);

  // Inputs, from the seed: one instance and its episodes per session.
  std::vector<SessionRun> runs(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    SessionRun& run = runs[s];
    run.original = generateInstance(atScaleProfile(spec.size, kLambda), config.seed, s);
    Prng rng(config.seed * 1000003ULL + s);
    for (std::size_t e = 0; e < spec.episodes; ++e)
      run.episodes.push_back(spec.churn
                                 ? churnStream(run.original, spec.episodeLength, rng)
                                 : localStream(run.original, spec.episodeLength, rng));
  }

  // Set-up, repeated: build the instances, open the sessions, and serve each
  // session's first (cold) solve. Only the last service is kept.
  std::optional<PlacementService> service;
  std::vector<PlacementService::SessionId> ids(kSessions);
  std::vector<double> setupS;
  std::vector<double> buildS;
  while (wantAnotherSetup(setupS)) {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    std::vector<ProblemInstance> instances;
    for (std::size_t s = 0; s < kSessions; ++s)
      instances.push_back(
          generateInstance(atScaleProfile(spec.size, kLambda), config.seed, s));
    buildS.push_back(msSince(t0) / 1000.0);
    service.emplace(ServiceOptions{.workers = kWorkers});
    std::vector<std::future<ServiceResponse>> cold;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids[s] = service->openSession(instances[s], kPolicies[s]);
      cold.push_back(service->submit(ids[s], makeRequest(std::nullopt)));
    }
    for (auto& future : cold)
      if (!future.get().outcome.hasPlacement())
        throw std::runtime_error("cold solve found no placement");
    setupS.push_back(msSince(t0) / 1000.0);
  }

  // Timed window: closed loop, one outstanding request per session. A
  // session at the end of an episode is reopened on its original instance,
  // and its next request is a no-delta (cold) solve.
  Tracer::enable(config.trace);
  std::vector<std::optional<std::future<ServiceResponse>>> inflight(kSessions);
  std::size_t reopened = 0;
  const auto issue = [&](std::size_t s) {
    SessionRun& run = runs[s];
    if (run.next == run.episodes[run.episode].size()) {
      service->closeSession(ids[s]);
      ids[s] = service->openSession(run.original, kPolicies[s]);
      run.episode = (run.episode + 1) % run.episodes.size();
      run.next = 0;
      ++reopened;
      inflight[s] = service->submit(ids[s], makeRequest(std::nullopt));
      return;
    }
    inflight[s] = service->submit(ids[s], makeRequest(run.episodes[run.episode][run.next++]));
  };
  const double cpu0 = processCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, config.seconds);
  for (std::size_t s = 0; s < kSessions; ++s) issue(s);
  for (bool pending = true; pending;) {
    pending = false;
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (!inflight[s]) continue;
      pending = true;
      SessionRun& run = runs[s];
      Reply reply;
      reply.reopened = run.next == 0;
      try {
        ServiceResponse response = inflight[s]->get();
        reply.deltaStatus = response.deltaStatus;
        reply.status = response.outcome.status;
        reply.level = response.outcome.level;
        reply.hasPlacement = response.outcome.hasPlacement();
        reply.cost = response.outcome.cost;
        reply.lowerBound = response.outcome.lowerBound;
        reply.queueMs = response.queueMs;
        reply.serveMs = response.serveMs;
        const std::size_t index = run.replies.size();
        if (reply.hasPlacement && index % kSampleEvery == 0 && run.samples.size() < kMaxSamples)
          run.samples.emplace_back(index, std::move(*response.outcome.placement));
      } catch (const std::exception& error) {
        reply.error = error.what();
      }
      inflight[s].reset();
      run.replies.push_back(std::move(reply));
      if (Clock::now() < deadline) issue(s);
    }
  }
  const double wallS = msSince(start) / 1000.0;
  const double cpu1 = processCpuSeconds();
  Tracer::enable(false);
  const ServiceStats stats = service->stats();
  service.reset();

  // Checks, outside the timed window. Every reply: no failure status, cost
  // at or above its certified floor. Sampled replies: the placement
  // validates against the session's instance at that point of its episode.
  // Session 0: a serial ResilientSession replay, restarted at every reopen,
  // must give the same outcome for every request and the same placement for
  // every sample. A reply that fails several checks counts once.
  std::vector<std::vector<char>> bad(kSessions);
  const auto fail = [&](std::size_t s, std::size_t k, const std::string& why) {
    if (!bad[s][k]) ++result.failed;
    bad[s][k] = 1;
    result.breach("session " + std::to_string(s) + " request " + std::to_string(k) + ": " + why);
  };
  std::vector<double> latencies, queueMs, serveMs;
  std::size_t placed = 0, optimal = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    bad[s].assign(runs[s].replies.size(), 0);
    for (std::size_t k = 0; k < runs[s].replies.size(); ++k) {
      const Reply& reply = runs[s].replies[k];
      ++result.attempted;
      latencies.push_back(reply.queueMs + reply.serveMs);
      queueMs.push_back(reply.queueMs);
      serveMs.push_back(reply.serveMs);
      if (reply.hasPlacement) ++placed;
      if (reply.status == OutcomeStatus::Optimal && reply.level == DegradationLevel::Exact)
        ++optimal;
      if (isFailure(reply))
        fail(s, k, "failed: delta " + std::string(toString(reply.deltaStatus)) + ", outcome " +
                       std::string(toString(reply.status)) + " " + reply.error);
      else if (reply.hasPlacement && reply.cost < reply.lowerBound - 1e-9)
        fail(s, k, "cost below its certified floor");
    }
  }
  std::vector<double> validateMs;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const SessionRun& run = runs[s];
    ProblemInstance shadow = run.original;
    std::optional<ResilientSession> replay;
    if (s == 0) {
      replay.emplace(shadow, kPolicies[s]);
      (void)replay->solve(stepBudget());  // the set-up's cold solve
    }
    std::size_t sample = 0;
    std::size_t episode = 0, next = 0;  // as in the timed window
    for (std::size_t k = 0; k < run.replies.size(); ++k) {
      Request request;
      if (run.replies[k].reopened) {
        replay.reset();
        shadow = run.original;
        if (s == 0) replay.emplace(shadow, kPolicies[s]);
        episode = (episode + 1) % run.episodes.size();
        next = 0;
      } else {
        request = run.episodes[episode][next++];
      }
      std::optional<SolveOutcome> want;
      if (replay) {
        try {
          if (request) replay->apply(*request);
        } catch (const DeltaError&) {
          // Rejected by the replay too; the served reply already counts it.
        }
        want = replay->solve(stepBudget());
        if (!sameOutcome(run.replies[k], *want)) fail(s, k, "differs from its serial replay");
      } else if (request) {
        try {
          applyDelta(shadow, *request);
        } catch (const DeltaError&) {
          // Rejected by the service too; the served reply already counts it.
        }
      }
      if (sample >= run.samples.size() || run.samples[sample].first != k) continue;
      const Placement& got = run.samples[sample++].second;
      if (want && (!want->hasPlacement() || !(*want->placement == got)))
        fail(s, k, "sampled placement differs from its serial replay");
      try {
        const Clock::time_point v0 = Clock::now();
        const ValidationResult verdict = validatePlacement(shadow, got, accessPolicy(kPolicies[s]),
                                                           validationFor(kPolicies[s]));
        validateMs.push_back(msSince(v0));
        if (!verdict.ok()) fail(s, k, "sampled placement fails validation: " + verdict.describe());
      } catch (const std::exception& error) {
        fail(s, k, std::string("sampled placement cannot be validated: ") + error.what());
      }
    }
  }

  const auto ops = static_cast<double>(result.attempted);
  result.put(result.endToEnd, "throughput_per_s", ops / wallS, "1/s");
  // The end-to-end latency starts when the worker takes the request up, as
  // in fleet: with one worker and four closed-loop sessions the wait before
  // that is set by how the client thread and the worker interleave, and it flips
  // between modes from run to run. It is kept, from issue, under extra.
  result.put(result.endToEnd, "latency_p50_ms", median(serveMs), "ms");
  result.put(result.endToEnd, "cpu_ms_per_op", 1000.0 * (cpu1 - cpu0) / ops, "ms");
  result.put(result.endToEnd, "peak_rss_mb", peakRssMb(), "MiB");
  result.put(result.endToEnd, "setup_s", median(setupS), "s");
  if (const auto p99 = supportedTail(serveMs, 0.99))
    result.put(result.extra, "latency_p99_ms", *p99, "ms");
  result.put(result.extra, "issued_latency_p50_ms", median(latencies), "ms");
  if (const auto p99 = supportedTail(latencies, 0.99))
    result.put(result.extra, "issued_latency_p99_ms", *p99, "ms");
  result.put(result.extra, "optimal_share", static_cast<double>(optimal) / ops, "share");
  result.put(result.extra, "placed_share", static_cast<double>(placed) / ops, "share");
  result.put(result.extra, "reopened_sessions", static_cast<double>(reopened), "count");

  if (config.trace) {
    result.put(result.layers, "service.queue_p50_ms", median(queueMs), "ms");
    result.put(result.layers, "service.serve_p50_ms", median(serveMs), "ms");
    result.put(result.layers, "service.queue_p99_ms",
               supportedTail(queueMs, 0.99).value_or(0.0), "ms");
    result.put(result.layers, "service.serve_p99_ms",
               supportedTail(serveMs, 0.99).value_or(0.0), "ms");
    result.put(result.layers, "service.rejected", static_cast<double>(stats.deltasRejected),
               "count");
    result.put(result.layers, "core.validate_p50_ms", median(validateMs), "ms");
    result.put(result.layers, "tree.build_s", median(buildS), "s");
    Tracer::enable(true);
    LayerTotals totals;
    for (std::size_t s = 0; s < kSessions; ++s) replayLayers(runs[s], kPolicies[s], totals);
    Tracer::enable(false);
    putSpanQuantiles(result, "online.read", {50});
    putSpanQuantiles(result, "online.resolve", {50, 99});
    putSpanQuantiles(result, "online.ladder", {50});
    putSpanQuantiles(result, "online.apply", {50});
    putSpanQuantiles(result, "online.structural_apply", {50});
    putSpanQuantiles(result, "online.full_resolve", {50});
    const double lookups = static_cast<double>(totals.hits + totals.misses);
    result.put(result.layers, "online.cache_hit_rate",
               lookups > 0.0 ? static_cast<double>(totals.hits) / lookups : 0.0, "share");
    result.put(result.layers, "online.recomputed_per_request",
               totals.resolves > 0
                   ? static_cast<double>(totals.misses) / static_cast<double>(totals.resolves)
                   : 0.0,
               "count");
    result.put(result.layers, "online.scratch_fallbacks", static_cast<double>(totals.fallbacks),
               "count");
  }

  result.info["threads"] = std::to_string(kWorkers) + " service worker + 1 client thread";
  result.info["instances"] = std::to_string(kSessions) + " sessions x s=" +
                             std::to_string(spec.size) +
                             " (Closest, Multiple, ClosestQos, Closest), lambda 0.05";
}

}  // namespace

void runServeLocal(const RunConfig& config, Result& result) {
  runServe({100'000, false, 1500, 2}, config, result);
}

void runServeChurn(const RunConfig& config, Result& result) {
  runServe({10'000, true, 500, 8}, config, result);
}

}  // namespace perfbench
