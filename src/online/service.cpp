#include "online/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "formulation/lower_bound.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

using SteadyClock = std::chrono::steady_clock;

double msSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

SteadyClock::time_point plusMs(SteadyClock::time_point base, double ms) {
  return base + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

std::string_view toString(DeltaStatus status) {
  switch (status) {
    case DeltaStatus::None: return "none";
    case DeltaStatus::Applied: return "applied";
    case DeltaStatus::Rejected: return "rejected";
    case DeltaStatus::Failed: return "failed";
  }
  return "?";
}

PlacementService::PlacementService(ServiceOptions options)
    : options_(options),
      pool_(options.pool),
      arenas_(nullptr) {
  if (pool_ == nullptr) {
    ownedPool_.emplace(options_.workers);
    pool_ = &*ownedPool_;
  }
  arenas_ = WorkerArenaPool(pool_);
  wdThread_ = std::thread([this] { watchdogLoop(); });
}

PlacementService::~PlacementService() {
  drain();
  {
    const std::lock_guard<std::mutex> lock(wdMutex_);
    wdStop_ = true;
  }
  wdCv_.notify_all();
  wdThread_.join();
  // ownedPool_ (if any) drains and joins in its destructor.
}

PlacementService::SessionId PlacementService::openSession(const ProblemInstance& instance,
                                                          OnlinePolicy policy) {
  auto session = std::make_unique<Session>();
  session->kind = SessionKind::Polynomial;
  session->instance = std::make_unique<ProblemInstance>(instance);
  session->policy = policy;
  session->resilient.emplace(*session->instance, policy);

  const std::lock_guard<std::mutex> lock(mutex_);
  const SessionId id = nextSession_++;
  session->id = id;
  sessions_.emplace(id, std::move(session));
  ++stats_.sessionsOpened;
  return id;
}

PlacementService::SessionId PlacementService::openIlpSession(
    const ProblemInstance& instance, lp::MipOptions mip) {
  auto session = std::make_unique<Session>();
  session->kind = SessionKind::ExactIlp;
  session->instance = std::make_unique<ProblemInstance>(instance);
  session->mip = mip;
  session->warm.emplace(*session->instance, std::move(mip));

  const std::lock_guard<std::mutex> lock(mutex_);
  const SessionId id = nextSession_++;
  session->id = id;
  sessions_.emplace(id, std::move(session));
  ++stats_.sessionsOpened;
  return id;
}

PlacementService::Session& PlacementService::sessionAt(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("PlacementService: unknown session id");
  return *it->second;
}

const PlacementService::Session& PlacementService::sessionAt(SessionId id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("PlacementService: unknown session id");
  return *it->second;
}

std::future<ServiceResponse> PlacementService::submit(SessionId id,
                                                      ServiceRequest request) {
  TREEPLACE_REQUIRE(!(request.deadlineMs > 0.0 && request.budget.cancel != nullptr),
                    "the service owns the cancel token of deadline requests");
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = SteadyClock::now();
  std::future<ServiceResponse> future = pending.promise.get_future();

  const std::lock_guard<std::mutex> lock(mutex_);
  Session& session = sessionAt(id);
  if (session.closed)
    throw std::out_of_range("PlacementService: session is closed");
  session.queue.push_back(std::move(pending));
  ++stats_.requests;
  ++pendingTotal_;
  stats_.peakQueueDepth = std::max(stats_.peakQueueDepth, pendingTotal_);
  scheduleLocked(session);
  return future;
}

void PlacementService::scheduleLocked(Session& session) {
  if (session.running || session.queue.empty()) return;
  session.running = true;
  ++activeRunners_;
  // The runner captures a raw Session*: safe because sessions are only erased
  // by closeSession, which waits for the queue to empty and running to drop.
  if (!pool_->submit([this, s = &session] { runSession(*s); })) {
    // Pool mid-shutdown (service being torn down while a caller races a
    // submit): fail the queued requests instead of serving inline on the
    // caller's thread, which would break the strand's single-runner model.
    session.running = false;
    --activeRunners_;
    while (!session.queue.empty()) {
      Pending pending = std::move(session.queue.front());
      session.queue.pop_front();
      --pendingTotal_;
      ServiceResponse response;
      response.outcome.status = OutcomeStatus::Error;
      response.outcome.message = "service shutting down";
      pending.promise.set_value(std::move(response));
    }
    idleCv_.notify_all();
  }
}

void PlacementService::runSession(Session& session) {
  for (;;) {
    Pending pending;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (session.queue.empty()) {
        session.running = false;
        --activeRunners_;
        idleCv_.notify_all();
        return;
      }
      pending = std::move(session.queue.front());
      session.queue.pop_front();
      --pendingTotal_;
    }
    serveOne(session, std::move(pending));
  }
}

void PlacementService::serveOne(Session& session, Pending pending) {
  const auto t0 = SteadyClock::now();
  ServiceResponse response;
  response.queueMs = std::chrono::duration<double, std::milli>(
                         t0 - pending.enqueued)
                         .count();
  const ServiceRequest& request = pending.request;

  try {
    // 1. Delta, in strand order. DeltaError means malformed input with the
    // instance untouched; anything else (fault injection, allocation
    // failure) may have left the solver caches inconsistent with the
    // instance, so rebuild them from the instance's current state — the
    // same recovery the resilience demo performed per session.
    if (request.delta) {
      try {
        if (session.kind == SessionKind::Polynomial)
          session.resilient->apply(*request.delta);
        else
          session.warm->apply(*request.delta);
        response.deltaStatus = DeltaStatus::Applied;
      } catch (const DeltaError& e) {
        response.deltaStatus = DeltaStatus::Rejected;
        response.deltaMessage = e.what();
      } catch (const std::exception& e) {
        response.deltaStatus = DeltaStatus::Failed;
        response.deltaMessage = e.what();
        if (session.kind == SessionKind::Polynomial)
          session.resilient.emplace(*session.instance, session.policy);
        else
          session.warm.emplace(*session.instance, session.mip);
      }
    }

    // 2. Watchdog: arm the shared deadline heap before solving. The solver's
    // own wall budget is the first line; the watchdog token is the backstop
    // that fires at deadlineMs * watchdogMult if a rung wedges.
    SolveBudget budget = request.budget;
    CancelToken watchdogToken;
    std::uint64_t ticket = 0;
    bool armed = false;
    if (request.deadlineMs > 0.0) {
      if (budget.wallMs <= 0.0) budget.wallMs = request.deadlineMs;
      budget.cancel = &watchdogToken;
      const double mult = options_.watchdogMult > 1.0 ? options_.watchdogMult : 1.0;
      ticket = armWatchdog(plusMs(t0, request.deadlineMs * mult), &watchdogToken);
      armed = true;
    }

    // 3. Solve through the session's rung ladder.
    if (session.kind == SessionKind::Polynomial) {
      response.outcome = session.resilient->solve(budget);
    } else {
      const std::size_t seededBefore = session.warm->stats().seededSolves;
      response.outcome = solveResilientIlp(*session.warm, budget);
      response.ilpNodes = session.warm->stats().lastNodes;
      response.ilpSeeded = session.warm->stats().seededSolves > seededBefore;
    }

    if (armed) response.watchdogFired = !disarmWatchdog(ticket);

    // 4. Optional certified floor on the worker's shared arena slot (the
    // batch_driver cross-session reuse pattern: one slab set per worker,
    // recycled across every session this worker serves).
    if (request.certifyFloor) {
      BatchArenas& arenas = arenas_.forCaller();
      LowerBoundOptions lbo;
      lbo.maxNodes = request.floorNodes > 0 ? request.floorNodes : 60;
      lbo.enforceBandwidth = false;  // no online solver enforces bandwidth
      lbo.enforceQos = session.kind == SessionKind::ExactIlp ||
                       session.policy == OnlinePolicy::ClosestQos;
      if (response.outcome.hasPlacement())
        lbo.knownUpperBound = response.outcome.cost;
      lbo.boundsArena = &arenas.bounds;
      const LowerBoundResult lb = refinedLowerBound(*session.instance, lbo);
      response.floorCertified = lb.lpFeasible;
      response.certifiedFloor = lb.bound;
    }
  } catch (const std::exception& e) {
    response.outcome = SolveOutcome{};
    response.outcome.status = OutcomeStatus::Error;
    response.outcome.message = e.what();
  } catch (...) {
    response.outcome = SolveOutcome{};
    response.outcome.status = OutcomeStatus::Error;
    response.outcome.message = "unknown serving failure";
  }

  response.worker = ThreadPool::currentWorkerIndex();
  response.serveMs = msSince(t0);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (response.deltaStatus) {
      case DeltaStatus::Applied: ++stats_.deltasApplied; break;
      case DeltaStatus::Rejected: ++stats_.deltasRejected; break;
      case DeltaStatus::Failed: ++stats_.deltasFailed; break;
      case DeltaStatus::None: break;
    }
    if (response.watchdogFired) ++stats_.watchdogFires;
  }
  pending.promise.set_value(std::move(response));
}

void PlacementService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock,
               [this] { return pendingTotal_ == 0 && activeRunners_ == 0; });
}

void PlacementService::closeSession(SessionId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Session& session = sessionAt(id);
  session.closed = true;
  idleCv_.wait(lock,
               [&session] { return session.queue.empty() && !session.running; });
  sessions_.erase(id);
  ++stats_.sessionsClosed;
}

const ProblemInstance& PlacementService::instance(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *sessionAt(id).instance;
}

const WarmIlpStats& PlacementService::ilpStats(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Session& session = sessionAt(id);
  TREEPLACE_REQUIRE(session.kind == SessionKind::ExactIlp,
                    "ilpStats requires an ILP session");
  return session.warm->stats();
}

ServiceStats PlacementService::stats() const {
  ServiceStats out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
  }
  {
    const std::lock_guard<std::mutex> lock(wdMutex_);
    out.watchdogFires = std::max(out.watchdogFires, wdFires_);
  }
  out.arenaSets = arenas_.touchedSets();
  return out;
}

std::uint64_t PlacementService::armWatchdog(SteadyClock::time_point due,
                                            CancelToken* token) {
  const std::lock_guard<std::mutex> lock(wdMutex_);
  const std::uint64_t ticket = wdNextTicket_++;
  wdActive_.emplace(ticket, token);
  wdHeap_.push_back(WatchdogEntry{due, ticket, token});
  std::push_heap(wdHeap_.begin(), wdHeap_.end(),
                 [](const WatchdogEntry& a, const WatchdogEntry& b) {
                   return a.due > b.due;
                 });
  wdCv_.notify_all();  // the new deadline may be the earliest
  return ticket;
}

bool PlacementService::disarmWatchdog(std::uint64_t ticket) {
  const std::lock_guard<std::mutex> lock(wdMutex_);
  const bool live = wdActive_.erase(ticket) > 0;
  // Wake the watchdog NOW: a completed solve must never leave it sleeping
  // out the rest of a window that already resolved (its heap entry is
  // pruned lazily on wake).
  wdCv_.notify_all();
  return live;
}

void PlacementService::watchdogLoop() {
  const auto byDue = [](const WatchdogEntry& a, const WatchdogEntry& b) {
    return a.due > b.due;
  };
  std::unique_lock<std::mutex> lock(wdMutex_);
  while (!wdStop_) {
    // Prune disarmed tickets so the wait tracks the earliest LIVE deadline.
    while (!wdHeap_.empty() && wdActive_.count(wdHeap_.front().ticket) == 0) {
      std::pop_heap(wdHeap_.begin(), wdHeap_.end(), byDue);
      wdHeap_.pop_back();
    }
    if (wdHeap_.empty()) {
      wdCv_.wait(lock);
      continue;
    }
    const auto due = wdHeap_.front().due;
    if (SteadyClock::now() >= due) {
      const WatchdogEntry entry = wdHeap_.front();
      std::pop_heap(wdHeap_.begin(), wdHeap_.end(), byDue);
      wdHeap_.pop_back();
      if (const auto it = wdActive_.find(entry.ticket); it != wdActive_.end()) {
        // Cancel under the lock: disarm() also locks, so the token (which
        // lives in the serving frame) cannot be torn down mid-cancel.
        it->second->cancel();
        wdActive_.erase(it);
        ++wdFires_;
      }
    } else {
      wdCv_.wait_until(lock, due);
    }
  }
}

}  // namespace treeplace
