#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/frontier.hpp"
#include "support/thread_pool.hpp"

namespace treeplace {

/// One arena set owned by one batch worker and recycled across every
/// instance that worker evaluates: the subtree-bound pre-pass slab. The
/// relaxation borrows it for each instance and hands it back reset,
/// capacity kept, so after the first instances a worker's steady state
/// allocates no slab (tests/test_bounds.cpp and tests/test_batch_driver.cpp).
struct BatchArenas {
  FrontierArena bounds;  ///< FrontierSubtreeRelaxation pre-pass slab
};

struct BatchOptions {
  /// Worker threads for the internal pool; 0 picks the hardware concurrency.
  /// Ignored when `pool` is set.
  std::size_t threads = 0;
  /// Run on an existing pool instead of creating one per batch. The driver
  /// keys arena sets off ThreadPool::currentWorkerIndex(), so one long-lived
  /// pool amortises both threads and arenas across many batches.
  ThreadPool* pool = nullptr;
};

struct BatchRunStats {
  std::size_t jobs = 0;       ///< indices dispatched
  std::size_t arenaSets = 0;  ///< distinct worker arena sets touched
  double wallMs = 0.0;        ///< wall-clock of the whole batch
};

/// Per-worker arena slots over a thread pool: one BatchArenas per worker of
/// `pool` plus a spare for off-pool callers. The slot is keyed by
/// (pool, worker index), not index alone — a thread belonging to a DIFFERENT
/// pool must take the spare, or its index could alias (and race) a real
/// worker's arenas. Shared by runBatch's pooled path and the placement
/// service, so fleet sweeps and long-lived serving sessions amortise arenas
/// the same way.
class WorkerArenaPool {
 public:
  explicit WorkerArenaPool(const ThreadPool* pool)
      : pool_(pool),
        arenas_(pool != nullptr ? pool->threadCount() + 1 : 1),
        touched_(arenas_.size()) {}

  /// The calling thread's slot. Lock-free: distinct pool workers get distinct
  /// slots; every off-pool caller shares the spare (callers that might race
  /// there must serialise themselves, as runBatch's inline lanes do).
  BatchArenas& forCaller() {
    const int worker = ThreadPool::currentWorkerIndex();
    const std::size_t slot = ThreadPool::currentPool() == pool_ && worker >= 0
                                 ? static_cast<std::size_t>(worker)
                                 : arenas_.size() - 1;
    touched_[slot].store(true, std::memory_order_relaxed);
    return arenas_[slot];
  }

  std::size_t slotCount() const { return arenas_.size(); }

  /// Distinct slots handed out so far (telemetry: how many arena sets a run
  /// actually warmed).
  std::size_t touchedSets() const {
    std::size_t n = 0;
    for (const auto& flag : touched_)
      if (flag.load(std::memory_order_relaxed)) ++n;
    return n;
  }

 private:
  const ThreadPool* pool_;
  std::vector<BatchArenas> arenas_;
  std::vector<std::atomic<bool>> touched_;
};

/// A batch job: evaluate instance `index` using the calling worker's arenas.
/// Jobs run concurrently and must only write to per-index result slots (the
/// arenas are the one sanctioned per-worker mutable state).
using BatchJob = std::function<void(std::size_t index, BatchArenas& arenas)>;

/// Run `job(0..jobCount)` across a thread pool with one BatchArenas per
/// worker — the inter-instance twin of the intra-instance worker-pool
/// branch-and-bound (MipOptions::workers). Exceptions from jobs propagate
/// (first one wins, remaining indices are abandoned).
BatchRunStats runBatch(std::size_t jobCount, const BatchJob& job,
                       const BatchOptions& options = {});

}  // namespace treeplace
