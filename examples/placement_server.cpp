// Placement-as-a-service demo on the concurrent PlacementService: N
// long-lived sessions serve interleaved mutation + solve requests from a
// shared worker pool, each request under a per-request deadline with the
// service's event-driven watchdog as cancellation backstop. Demonstrates —
// and *enforces*, exiting nonzero on violation — the resilience invariant:
// a budget trip, malformed delta, or injected fault may cost optimality or
// latency, never correctness.
//
//   $ ./placement_server [--size=2000] [--requests=200] [--deadline=25]
//                        [--sessions=4] [--workers=0]
//                        [--policy=multiple|closest|qos] [--seed=1]
//                        [--faults=alloc,stall,pivot,delta,cancel|all]
//                        [--fault-period=64] [--watchdog=4] [--verify]
//
// --verify cross-checks every outcome against an unbudgeted scratch solve
// (slow; meant for small sizes). --faults arms the deterministic injection
// harness inside the serving loop, exactly as the CI fault job does via
// TREEPLACE_FAULT. --requests counts requests across ALL sessions.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "experiments/mutation_driver.hpp"
#include "online/incremental.hpp"
#include "online/service.hpp"
#include "support/cli.hpp"
#include "support/fault_injection.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "tree/generator.hpp"

using namespace treeplace;
using SteadyClock = std::chrono::steady_clock;

namespace {

OnlinePolicy parsePolicy(const std::string& name) {
  if (name == "closest") return OnlinePolicy::Closest;
  if (name == "qos") return OnlinePolicy::ClosestQos;
  return OnlinePolicy::Multiple;
}

std::optional<fault::Plan> parseFaultPlan(const std::string& tokens,
                                          std::uint64_t seed,
                                          std::uint64_t period) {
  if (tokens.empty()) return std::nullopt;
  fault::Plan plan;
  plan.seed = seed;
  std::stringstream in(tokens);
  std::string tok;
  bool any = false;
  while (std::getline(in, tok, ',')) {
    const bool all = tok == "all";
    if (all || tok == "alloc") plan.armSite(fault::Site::Allocation, period), any = true;
    if (all || tok == "stall") plan.armSite(fault::Site::WorkerStall, period), any = true;
    if (all || tok == "pivot" || tok == "simplex")
      plan.armSite(fault::Site::SimplexPivot, period), any = true;
    if (all || tok == "delta") plan.armSite(fault::Site::MalformedDelta, period), any = true;
    if (all || tok == "cancel") plan.armSite(fault::Site::MidSolveCancel, period), any = true;
  }
  if (!any) return std::nullopt;
  return plan;
}

/// Deterministically corrupt a drawn delta into one of the rejection classes
/// validateDelta must catch — the server's admission layer has to bounce it
/// with the instance untouched.
InstanceDelta corruptDelta(InstanceDelta delta, const ProblemInstance& instance,
                           Prng& rng) {
  switch (rng.uniformInt(0, 3)) {
    case 0:
      delta.node = static_cast<VertexId>(instance.tree.vertexCount()) + 7;
      break;
    case 1:
      delta.kind = DeltaKind::RateChange;
      delta.node = instance.tree.root();  // internal vertex: NotAClient
      break;
    case 2:
      delta.kind = DeltaKind::RateChange;
      delta.rate = -5;
      break;
    default:
      delta.kind = DeltaKind::CapacityChange;
      delta.node = kNoVertex;
      delta.capacity = 0;
      break;
  }
  return delta;
}

/// One serving stream: a service session plus the client-side state that
/// drives it (mutation RNG, the single in-flight future, retry bookkeeping).
struct Stream {
  PlacementService::SessionId id = 0;
  Prng rng{1};
  MutationWorkloadConfig mc;
  std::optional<std::future<ServiceResponse>> inflight;
  bool isRetry = false;
  std::size_t beforeVertices = 0;   ///< instance shape before the last delta
  Requests beforeTotal = 0;         ///< (for the rejected-delta invariant)
  bool lastWasCorrupted = false;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);
  const int size = static_cast<int>(options.getIntOr("size", 2000));
  const int requests = static_cast<int>(options.getIntOr("requests", 200));
  const double deadlineMs = options.getDoubleOr("deadline", 25.0);
  const double watchdogMult = options.getDoubleOr("watchdog", 4.0);
  const int sessionCount = static_cast<int>(options.getIntOr("sessions", 4));
  const auto workers = static_cast<std::size_t>(options.getIntOr("workers", 0));
  const bool verify = options.hasFlag("verify");
  const OnlinePolicy policy = parsePolicy(options.getOr("policy", "multiple"));
  const auto seed = static_cast<std::uint64_t>(options.getIntOr("seed", 1));

  // Same feasible-under-all-policies profile as the bench's resilience
  // section: unit requests, edge-heavy clients, light load — so the serving
  // loop exercises the whole ladder instead of answering Infeasible all day.
  GeneratorConfig gc;
  gc.minSize = size;
  gc.maxSize = size;
  gc.heterogeneous = false;  // the online DP engines are homogeneous-W
  gc.unitCosts = true;
  gc.clientFraction = 0.8;
  gc.leafClientBias = 1.0;
  gc.minRequests = gc.maxRequests = 1;
  gc.lambda = 0.2;
  if (policy == OnlinePolicy::ClosestQos) {
    gc.qosFraction = 0.3;
    gc.qosMinHops = 6;
    gc.qosMaxHops = 12;
  }

  ServiceOptions so;
  so.workers = workers;
  so.watchdogMult = watchdogMult;
  PlacementService service(so);

  std::vector<Stream> streams(static_cast<std::size_t>(std::max(1, sessionCount)));
  for (std::size_t s = 0; s < streams.size(); ++s) {
    Prng gen(seed + 7919 * s);
    const ProblemInstance instance = generateInstance(gc, gen);
    streams[s].id = service.openSession(instance, policy);
    streams[s].rng = Prng(seed + 104729 * (s + 1));
    streams[s].mc.policy = policy;
    streams[s].mc.seed = seed + s;
    streams[s].mc.rateCap = 0.25;
  }
  std::cout << "placement_server: " << streams.size() << " sessions, s=" << size
            << " policy=" << toString(policy) << " deadline=" << deadlineMs
            << "ms watchdog=" << watchdogMult << "x workers="
            << service.threadCount() << "\n";

  // The service is the system under test; it boots before the harness arms,
  // the same way the CI fault job's env plan only bites once serving starts.
  const std::optional<fault::Plan> faultPlan = parseFaultPlan(
      options.getOr("faults", ""), seed,
      static_cast<std::uint64_t>(options.getIntOr("fault-period", 64)));
  std::optional<fault::ScopedPlan> armed;
  long bankedFires = 0;
  std::uint64_t faultWindow = 0;
  // arm() resets the harness counters, so bank them across every disarmed
  // window (verification runs) to keep the summary truthful — and rotate the
  // seed per window, else every re-arm replays the same first few probes of
  // the stream and the plan goes silent.
  const auto disarmFaults = [&] {
    if (armed) {
      bankedFires += fault::totalFires();
      armed.reset();
    }
  };
  const auto rearmFaults = [&] {
    if (faultPlan && !armed) {
      fault::Plan plan = *faultPlan;
      plan.seed = faultPlan->seed + ++faultWindow;
      armed.emplace(plan);
    }
  };
  if (faultPlan) {
    armed.emplace(*faultPlan);
    std::cout << "fault harness armed (seed=" << faultPlan->seed << ")\n";
  }

  ValidationOptions vo;
  vo.checkQos = policy == OnlinePolicy::ClosestQos;
  vo.checkBandwidth = false;
  const Policy core =
      policy == OnlinePolicy::Multiple ? Policy::Multiple : Policy::Closest;

  std::vector<long> statusCount(6, 0);
  std::vector<long> levelCount(5, 0);
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(requests));
  long rejectedDeltas = 0, retries = 0, watchdogFires = 0, rebuilds = 0;
  double worstOvershootMs = 0.0;
  int submitted = 0, completed = 0;

  const auto fail = [&](int request, const std::string& what) {
    std::cerr << "INVARIANT VIOLATION at request " << request << ": " << what
              << "\n";
    return 2;
  };

  // Admission + submission: draw a mutation against the session's live
  // instance (safe: the session has no in-flight request, so its strand is
  // idle and only this thread reads it); some are deliberately corrupted (or
  // the MalformedDelta fault site corrupts them) and must bounce cleanly.
  const auto submitNext = [&](Stream& st) {
    if (submitted >= requests) return;
    const ProblemInstance& instance = service.instance(st.id);
    InstanceDelta delta = drawMutation(instance, st.mc, st.rng);
    st.lastWasCorrupted = false;
    if (fault::fire(fault::Site::MalformedDelta) || submitted % 31 == 17) {
      delta = corruptDelta(delta, instance, st.rng);
      st.lastWasCorrupted = true;
    }
    st.beforeVertices = instance.tree.vertexCount();
    st.beforeTotal = instance.totalRequests();
    ServiceRequest request;
    request.delta = std::move(delta);
    request.budget.wallMs = deadlineMs;
    request.deadlineMs = deadlineMs;
    // Periodically attach a certified floor — the rung that exercises the
    // per-worker shared arena sets (summary row "arena sets touched").
    request.certifyFloor = submitted % 8 == 5;
    st.inflight = service.submit(st.id, std::move(request));
    st.isRetry = false;
    ++submitted;
  };

  const auto t0 = SteadyClock::now();
  for (auto& st : streams) submitNext(st);

  std::size_t turn = 0;
  while (completed < requests) {
    Stream& st = streams[turn++ % streams.size()];
    if (!st.inflight) {
      submitNext(st);
      if (!st.inflight) continue;  // all requests submitted; others draining
    }
    ServiceResponse response = st.inflight->get();
    st.inflight.reset();
    const int r = completed;

    if (response.deltaStatus == DeltaStatus::Rejected) ++rejectedDeltas;
    if (response.deltaStatus == DeltaStatus::Failed) ++rebuilds;
    if (response.watchdogFired) ++watchdogFires;

    SolveOutcome& out = response.outcome;
    if (!st.isRetry && (out.status == OutcomeStatus::Cancelled ||
                        out.status == OutcomeStatus::Error)) {
      // Retry once with a fresh budget (no new delta): rung A resumes from
      // the caches the first attempt warmed, so the retry usually lands a
      // degraded answer.
      ++retries;
      ServiceRequest again;
      again.budget.wallMs = deadlineMs;
      again.deadlineMs = deadlineMs;
      st.inflight = service.submit(st.id, std::move(again));
      st.isRetry = true;
      continue;  // the retry's response settles this logical request
    }

    ++completed;
    ++statusCount[static_cast<std::size_t>(out.status)];
    ++levelCount[static_cast<std::size_t>(out.level)];
    latencies.push_back(out.elapsedMs);
    worstOvershootMs = std::max(worstOvershootMs, out.elapsedMs - 2.0 * deadlineMs);

    // --- The invariant, enforced per response. The checker runs disarmed: a
    // faulted validator or oracle proves nothing about the pipeline. The
    // session is idle (no in-flight request), so its instance is stable. ---
    disarmFaults();
    const ProblemInstance& instance = service.instance(st.id);
    if (response.deltaStatus == DeltaStatus::Rejected) {
      if (instance.tree.vertexCount() != st.beforeVertices ||
          instance.totalRequests() != st.beforeTotal)
        return fail(r, "rejected delta mutated the instance");
      if (!st.lastWasCorrupted && !st.isRetry)
        return fail(r, "well-formed delta was rejected");
    }
    if (out.hasPlacement()) {
      if (!isValidPlacement(instance, *out.placement, core, vo))
        return fail(r, std::string(toString(out.status)) + "/" +
                           std::string(toString(out.level)) +
                           " returned an invalid placement");
      if (out.lowerBound > out.cost + 1e-9)
        return fail(r, "bracket inverted: lowerBound > cost");
      if (response.floorCertified && response.certifiedFloor > out.cost + 1e-9)
        return fail(r, "certified floor exceeds the served cost");
    }
    if (verify) {
      const std::optional<Placement> truth = solveOneShot(instance, policy);
      if (out.status == OutcomeStatus::Optimal) {
        if (!truth || truth->replicaCount() != out.placement->replicaCount())
          return fail(r, "Optimal outcome disagrees with scratch solve");
      } else if (out.status == OutcomeStatus::Infeasible) {
        if (truth) return fail(r, "Infeasible outcome but scratch found a placement");
      } else if (out.bracketed() && truth) {
        const auto opt = static_cast<double>(truth->replicaCount());
        if (opt < out.lowerBound - 1e-9 || opt > out.cost + 1e-9)
          return fail(r, "certified bracket excludes the true optimum");
      }
      if (response.floorCertified && truth &&
          response.certifiedFloor > static_cast<double>(truth->replicaCount()) + 1e-9)
        return fail(r, "certified floor exceeds the true optimum");
    }
    rearmFaults();
    submitNext(st);
  }
  service.drain();
  const double wallMs = std::chrono::duration<double, std::milli>(
                            SteadyClock::now() - t0)
                            .count();
  disarmFaults();  // bank the last window's fires for the summary

  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    if (latencies.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(p * static_cast<double>(latencies.size() - 1));
    return latencies[i];
  };
  const ServiceStats stats = service.stats();

  TextTable t;
  t.setHeader({"metric", "value"});
  for (std::size_t s = 0; s < statusCount.size(); ++s)
    if (statusCount[s] > 0)
      t.addRow({std::string(toString(static_cast<OutcomeStatus>(s))),
                std::to_string(statusCount[s])});
  t.addSeparator();
  for (std::size_t l = 0; l < levelCount.size(); ++l)
    if (levelCount[l] > 0)
      t.addRow({std::string("rung ") + std::string(toString(static_cast<DegradationLevel>(l))),
                std::to_string(levelCount[l])});
  t.addSeparator();
  t.addRow({"sessions", std::to_string(streams.size())});
  t.addRow({"pool workers", std::to_string(service.threadCount())});
  t.addRow({"rejected deltas", std::to_string(rejectedDeltas)});
  t.addRow({"retries", std::to_string(retries)});
  t.addRow({"watchdog cancels", std::to_string(watchdogFires)});
  t.addRow({"session cache rebuilds", std::to_string(rebuilds)});
  t.addRow({"arena sets touched", std::to_string(stats.arenaSets)});
  t.addRow({"peak queue depth", std::to_string(stats.peakQueueDepth)});
  t.addRow({"p50 latency (ms)", formatDouble(pct(0.50), 2)});
  t.addRow({"p99 latency (ms)", formatDouble(pct(0.99), 2)});
  t.addRow({"throughput (req/s)",
            formatDouble(wallMs > 0.0 ? 1000.0 * requests / wallMs : 0.0, 1)});
  t.addRow({"worst overshoot past 2x deadline (ms)",
            formatDouble(std::max(0.0, worstOvershootMs), 2)});
  if (faultPlan) t.addRow({"faults fired", std::to_string(bankedFires)});
  std::cout << "\n" << t.render();
  std::cout << "\nall " << requests << " requests honored the resilience invariant\n";
  return 0;
}
