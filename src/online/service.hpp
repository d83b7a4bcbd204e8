#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "experiments/batch_driver.hpp"
#include "online/resilient.hpp"
#include "online/warm_ilp.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Tuning of the PlacementService.
struct ServiceOptions {
  /// Worker threads of the service-owned pool; 0 picks hardware concurrency.
  /// Ignored when `pool` is set.
  std::size_t workers = 0;
  /// Serve on an existing pool instead of owning one (non-owning; must
  /// outlive the service). Per-worker arena slots are keyed off this pool.
  ThreadPool* pool = nullptr;
  /// The watchdog cancels a request's solve at deadlineMs * watchdogMult —
  /// the backstop for a solver whose own wall budget failed to trip (the
  /// contract examples/placement_server demonstrates under fault injection).
  double watchdogMult = 4.0;
};

/// One unit of work on a session: optionally apply a delta, then solve under
/// the budget. Deltas of one session are applied in submission order.
struct ServiceRequest {
  /// Mutation to apply before solving; nullopt re-solves the current state.
  std::optional<InstanceDelta> delta;
  /// Budget of the solve rung ladder. When deadlineMs > 0 the service owns
  /// cancellation: budget.cancel must be null (the watchdog installs its own
  /// token). Step-only budgets (maxSteps, no wallMs) keep outcomes
  /// deterministic — required for bit-identical replay validation.
  SolveBudget budget;
  /// Watchdog window in ms; 0 disarms the watchdog for this request.
  double deadlineMs = 0.0;
  /// Attach a certified lower bound (Section 7.1 refined bound) computed with
  /// the calling worker's shared arena set — the cross-session arena reuse
  /// path. Costs one bounded B&B run per request.
  bool certifyFloor = false;
  /// Node budget of the floor certification (<=0 picks a small default).
  long floorNodes = 0;
};

/// Whether/how this request's delta was absorbed.
enum class DeltaStatus : std::uint8_t {
  None,      ///< request carried no delta
  Applied,   ///< validated and applied
  Rejected,  ///< DeltaError: malformed input, instance untouched
  Failed,    ///< unexpected failure while applying (fault injection, etc.)
};

std::string_view toString(DeltaStatus status);

/// What one ServiceRequest produced.
struct ServiceResponse {
  DeltaStatus deltaStatus = DeltaStatus::None;
  std::string deltaMessage;          ///< diagnostics for Rejected/Failed
  SolveOutcome outcome;              ///< the ladder's structured result
  double queueMs = 0.0;              ///< submit -> dequeue latency
  double serveMs = 0.0;              ///< dequeue -> response latency
  long ilpNodes = -1;                ///< B&B nodes (ILP sessions; -1 otherwise)
  bool ilpSeeded = false;            ///< solve started from a repaired incumbent
  bool watchdogFired = false;        ///< the backstop cancelled this solve
  bool floorCertified = false;       ///< certifyFloor produced a valid bound
  double certifiedFloor = 0.0;       ///< the certified lower bound, if any
  int worker = -1;                   ///< pool worker that served the request
};

/// Service-lifetime telemetry (monotonic counters).
struct ServiceStats {
  std::size_t sessionsOpened = 0;
  std::size_t sessionsClosed = 0;
  std::size_t requests = 0;
  std::size_t deltasApplied = 0;
  std::size_t deltasRejected = 0;
  std::size_t deltasFailed = 0;
  std::size_t watchdogFires = 0;
  std::size_t peakQueueDepth = 0;  ///< max requests pending across all sessions
  std::size_t arenaSets = 0;       ///< distinct per-worker arena sets touched
};

/// Concurrent serving front-end over the online stack: a request queue per
/// session feeding one shared ThreadPool.
///
/// Threading model (strands): each session has a FIFO queue and a `running`
/// flag. submit() enqueues and, if no runner is active, schedules one pool
/// task that drains the session's queue to empty. At most one runner per
/// session ever executes, so a session's deltas apply in submission order and
/// its solver state (ResilientSession / WarmIlpSession, with their persistent
/// caches and arenas) is touched by one thread at a time — while distinct
/// sessions run on distinct workers in parallel. No lock is held while
/// solving; the service mutex only guards the queues and the session map.
///
/// Session kinds:
///  - openSession: polynomial policies through ResilientSession's full
///    degradation ladder (replica-count units);
///  - openIlpSession: the Multiple-policy exact ILP through WarmIlpSession —
///    every re-solve is seeded with the previous placement as B&B incumbent
///    (storage-cost units; `ilpNodes`/`ilpSeeded` report the warm path).
///
/// Cross-session arena reuse: one BatchArenas per pool worker (the
/// batch_driver pattern via WorkerArenaPool), used by the certifyFloor rung;
/// a worker serving many sessions recycles the same slab set for all of them.
///
/// A per-request deadline arms a shared watchdog thread: a min-heap of
/// (due, CancelToken) waited on with a condition variable, so the earliest
/// deadline bounds the wait and a completed solve *wakes it immediately* —
/// nothing sleeps out a window that already resolved.
class PlacementService {
 public:
  using SessionId = std::uint64_t;

  explicit PlacementService(ServiceOptions options = {});
  ~PlacementService();

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  /// Open a polynomial-policy session over a private copy of `instance`.
  SessionId openSession(const ProblemInstance& instance, OnlinePolicy policy);

  /// Open a warm-ILP session (Multiple policy, exact Section-5 ILP).
  SessionId openIlpSession(const ProblemInstance& instance,
                           lp::MipOptions mip = {});

  /// Enqueue one request on a session. The future resolves when the request
  /// has been served; requests of one session are served in submission order.
  /// Throws std::out_of_range for an unknown/closed session id.
  std::future<ServiceResponse> submit(SessionId id, ServiceRequest request);

  /// Block until every queued request of every session has been served.
  void drain();

  /// Drain one session's queue, then destroy its state. Its id is dead.
  void closeSession(SessionId id);

  /// The session's instance. Only meaningful while the session is idle
  /// (after drain()); a running session mutates it from its strand.
  const ProblemInstance& instance(SessionId id) const;

  /// Warm-ILP telemetry of an ILP session (idle-only, like instance()).
  const WarmIlpStats& ilpStats(SessionId id) const;

  std::size_t threadCount() const { return pool_->threadCount(); }
  ServiceStats stats() const;

 private:
  enum class SessionKind : std::uint8_t { Polynomial, ExactIlp };

  struct Pending {
    ServiceRequest request;
    std::promise<ServiceResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Session {
    SessionId id = 0;
    SessionKind kind = SessionKind::Polynomial;
    std::unique_ptr<ProblemInstance> instance;  ///< stable address for the solvers
    std::optional<ResilientSession> resilient;
    std::optional<WarmIlpSession> warm;
    // Construction parameters, kept so a fault that poisons the solver caches
    // can rebuild them from the instance's current state mid-stream.
    OnlinePolicy policy = OnlinePolicy::Closest;
    lp::MipOptions mip;
    std::deque<Pending> queue;
    bool running = false;  ///< a strand runner is draining the queue
    bool closed = false;   ///< no further submits accepted
  };

  Session& sessionAt(SessionId id);
  const Session& sessionAt(SessionId id) const;
  void scheduleLocked(Session& session);
  void runSession(Session& session);
  void serveOne(Session& session, Pending pending);

  /// Watchdog registry. arm() returns a ticket; disarm() returns false when
  /// the watchdog already fired for that ticket. Both notify the watchdog
  /// thread so its wait always tracks the earliest live deadline.
  std::uint64_t armWatchdog(std::chrono::steady_clock::time_point due,
                            CancelToken* token);
  bool disarmWatchdog(std::uint64_t ticket);
  void watchdogLoop();

  ServiceOptions options_;
  std::optional<ThreadPool> ownedPool_;
  ThreadPool* pool_ = nullptr;
  WorkerArenaPool arenas_;

  mutable std::mutex mutex_;
  std::condition_variable idleCv_;
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  SessionId nextSession_ = 1;
  std::size_t pendingTotal_ = 0;  ///< queued, not yet dequeued
  std::size_t activeRunners_ = 0;
  ServiceStats stats_;

  struct WatchdogEntry {
    std::chrono::steady_clock::time_point due;
    std::uint64_t ticket = 0;
    CancelToken* token = nullptr;
  };
  mutable std::mutex wdMutex_;
  std::condition_variable wdCv_;
  std::vector<WatchdogEntry> wdHeap_;  ///< min-heap on `due`
  std::unordered_map<std::uint64_t, CancelToken*> wdActive_;
  std::uint64_t wdNextTicket_ = 1;
  std::size_t wdFires_ = 0;
  bool wdStop_ = false;
  std::thread wdThread_;
};

}  // namespace treeplace
