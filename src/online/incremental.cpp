#include "online/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <utility>

#include "core/bag_steps.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace detail {

/// `held` is set while a snapshot published from the buffer is alive
/// anywhere; the solver writes a buffer only while it is clear.
struct IncumbentBuffer {
  explicit IncumbentBuffer(Placement p) : placement(std::move(p)) {}

  Placement placement;
  std::atomic<bool> held{false};
};

}  // namespace detail

namespace {

/// The value deltas that move client rates; their touched list is clients.
bool movesRates(DeltaKind kind) {
  return kind == DeltaKind::RateChange || kind == DeltaKind::ClientLeave ||
         kind == DeltaKind::SubtreeDetach;
}

/// Hand out `buffer`'s placement as an immutable snapshot. The lease keeps
/// the buffer alive past the solver and clears `held` once the last holder
/// lets go.
std::shared_ptr<const Placement> lease(
    const std::shared_ptr<detail::IncumbentBuffer>& buffer) {
  buffer->held.store(true, std::memory_order_relaxed);
  detail::IncumbentBuffer* raw = buffer.get();
  std::shared_ptr<detail::IncumbentBuffer> owner(
      raw, [keep = buffer](detail::IncumbentBuffer* b) {
        b->held.store(false, std::memory_order_release);
      });
  return {std::move(owner), &raw->placement};
}

}  // namespace

std::optional<Placement> solveOneShot(const ProblemInstance& instance,
                                      OnlinePolicy policy, BudgetGuard* guard) {
  switch (policy) {
    case OnlinePolicy::Closest: return solveClosestHomogeneous(instance, nullptr, guard);
    case OnlinePolicy::Multiple: return solveMultipleHomogeneousDP(instance, nullptr, guard);
    case OnlinePolicy::ClosestQos:
      return solveClosestHomogeneousQos(instance, nullptr, guard);
  }
  TREEPLACE_REQUIRE(false, "unknown online policy");
  return std::nullopt;
}

FrontierCacheBase& IncrementalSolver::cache() {
  return std::visit([](auto& c) -> FrontierCacheBase& { return c; }, cache_);
}

const FrontierCacheBase& IncrementalSolver::cache() const {
  return std::visit([](const auto& c) -> const FrontierCacheBase& { return c; }, cache_);
}

IncrementalSolver::IncrementalSolver(ProblemInstance& instance, OnlinePolicy policy)
    : instance_(&instance), policy_(policy),
      cache_(policy == OnlinePolicy::ClosestQos
                 ? Cache(std::in_place_index<1>, instance.tree, true)
                 : Cache(std::in_place_index<0>, instance.tree, true)) {
  instance.validate();
  growVertexTables();
  recomputeDemand();
}

void IncrementalSolver::growVertexTables() {
  const std::size_t n = instance_->tree.vertexCount();
  pathMark_.resize(n, 0);
  clientMark_.resize(n, 0);
  requestScratch_.resize(n, 0);
  chosenEntry_.resize(n, -1);
  chosenEpoch_.resize(n, 0);
  replicaBit_.resize(n, 0);
  demand_.resize(n, 0);
  if (policy_ == OnlinePolicy::Multiple)
    serverTakes_.resize(n);
  else
    serverClients_.resize(n);
}

void IncrementalSolver::noteDelta(const DeltaApplication& app) {
  FrontierCacheBase& c = cache();
  c.advance();
  const std::size_t firstChanged = pendingChangedClients_.size();
  if (app.structural) {
    c.grow(app.firstNewVertex);
    const Tree& tree = instance_->tree;
    growVertexTables();
    // Each new client is a 0 -> r rate change under a known vertex: the
    // assignment repair serves it like any other changed client, and the
    // buffers grow to the new vertex range as they are levelled.
    for (auto v = static_cast<std::size_t>(app.firstNewVertex); v < tree.vertexCount(); ++v)
      if (tree.isClient(static_cast<VertexId>(v)))
        pendingChangedClients_.push_back(static_cast<VertexId>(v));
  } else if (movesRates(app.kind)) {
    pendingChangedClients_.insert(pendingChangedClients_.end(), app.touched.begin(),
                                  app.touched.end());
  }
  foldDemand(std::span<const VertexId>(pendingChangedClients_).subspan(firstChanged));

  if (app.global) {
    noteCapacityChange(app);
  } else {
    c.stamp(app.touched);
    // A per-node W, or a pod with its own W, may leave the instance
    // heterogeneous: the next resolve re-derives W with its check.
    if (app.kind == DeltaKind::CapacityChange ||
        (app.kind == DeltaKind::SubtreeAttach &&
         instance_->capacity[static_cast<std::size_t>(app.firstNewVertex)] != capacity_))
      capacityStale_ = true;
  }
}

// W enters the Closest, Multiple and QoS bag steps only through the place
// rule and the flow ceiling. A bag whose subtree demand D fits min(W, W')
// sends at most D up from any state, so no ceiling cuts a state under either
// W (every ceiling is at least W, except Multiple's root node ceiling, which
// is 0 under both), a Closest or QoS place fits under both, and a Multiple
// place absorbs all of it under both; client seeds never read W. Its frontier, backpointers and combo chain
// are therefore bit-identical under W', and only the bags with D > min(W, W')
// go stale. D never shrinks towards the root, so that set is closed under
// parents and a walk down from the root finds it in O(stale set).
void IncrementalSolver::noteCapacityChange(const DeltaApplication& app) {
  FrontierCacheBase& c = cache();
  // Every clean bag was computed under capacity_. A delta whose old W differs
  // found the instance heterogeneous, or W moved behind the solver's back
  // (applyWithoutInvalidation): flush everything then.
  if (app.capacityBefore != capacity_) {
    c.invalidateAll();
  } else {
    // Parents first: each stamp stops one step up.
    c.stamp(demandAbove(std::min(capacity_, app.capacityAfter)));
    ++c.stats().globalInvalidations;
  }
  capacity_ = app.capacityAfter;
  capacityStale_ = false;
  // Closest assignments never read W: they follow the (possibly flipped)
  // replica set. A Multiple incumbent keeps the W it was built under
  // (assignedCapacity_), and its repair moves the boundaries of the replicas
  // where the budget binds.
}

const std::vector<VertexId>& IncrementalSolver::demandAbove(Requests binds) {
  const Tree& tree = instance_->tree;
  std::vector<VertexId>& above = walkScratch_;
  above.clear();
  if (demand_[static_cast<std::size_t>(tree.root())] > binds) above.push_back(tree.root());
  for (std::size_t i = 0; i < above.size(); ++i)
    for (const VertexId child : tree.children(above[i]))
      if (tree.isInternal(child) && demand_[static_cast<std::size_t>(child)] > binds)
        above.push_back(child);
  return above;
}

void IncrementalSolver::recomputeDemand() {
  const Tree& tree = instance_->tree;
  demand_.assign(tree.vertexCount(), 0);
  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.isClient(v)) demand_[vi] = instance_->requests[vi];
    if (const VertexId p = tree.parent(v); p != kNoVertex)
      demand_[static_cast<std::size_t>(p)] += demand_[vi];
  }
}

// Each client's change enters as a carry into its parent, and the root paths
// are walked once each, stopping where an earlier walk already passed: the
// union of the paths, in segments. A later segment hangs below an earlier
// one and runs child to parent, so settling the segments last to first
// settles every vertex after all its children — O(union of the paths).
void IncrementalSolver::foldDemand(std::span<const VertexId> clients) {
  const Tree& tree = instance_->tree;
  const std::uint64_t gen = ++markGen_;
  std::vector<VertexId>& walk = walkScratch_;
  std::vector<std::size_t>& segments = segmentScratch_;
  walk.clear();
  segments.clear();
  for (const VertexId c : clients) {
    const auto ci = static_cast<std::size_t>(c);
    const Requests change = instance_->requests[ci] - demand_[ci];  // D[c]: the old rate
    if (change == 0) continue;
    demand_[ci] += change;
    const VertexId p = tree.parent(c);
    requestScratch_[static_cast<std::size_t>(p)] += change;
    segments.push_back(walk.size());
    for (VertexId u = p; u != kNoVertex; u = tree.parent(u)) {
      auto& mark = pathMark_[static_cast<std::size_t>(u)];
      if (mark == gen) break;
      mark = gen;
      walk.push_back(u);
    }
  }
  std::size_t end = walk.size();
  for (std::size_t s = segments.size(); s-- > 0; end = segments[s]) {
    for (std::size_t i = segments[s]; i < end; ++i) {
      const auto ui = static_cast<std::size_t>(walk[i]);
      const Requests change = std::exchange(requestScratch_[ui], 0);
      demand_[ui] += change;
      if (const VertexId p = tree.parent(walk[i]); p != kNoVertex)
        requestScratch_[static_cast<std::size_t>(p)] += change;
    }
  }
}

DeltaApplication IncrementalSolver::apply(const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  noteDelta(app);
  return app;
}

DeltaApplication IncrementalSolver::applyWithoutInvalidation(
    const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  if (app.structural)
    noteDelta(app);
  else if (movesRates(app.kind))
    foldDemand(app.touched);  // the demands stay exact; only the stamps are skipped
  return app;
}

std::shared_ptr<const Placement> IncrementalSolver::resolve(BudgetGuard* guard) {
  try {
    return resolveOnce(guard);
  } catch (const SolveInterrupted&) {
    // Budget trips are clean by construction (the checkpoint precedes the
    // vertex stamp): caches and dirty set are exact, so the verdict goes
    // straight to the caller and a later resolve continues where this one
    // stopped.
    throw;
  } catch (...) {
    // Anything else — an injected bad_alloc inside arena growth, a repair
    // invariant trip — may have left a stamped-but-garbage frontier or a
    // half-repaired back buffer behind. Self-check is by reconstruction: drop
    // everything, re-solve the same instance from scratch once.
    ++cache().stats().scratchFallbacks;
    invalidateCaches();
    try {
      return resolveOnce(guard);
    } catch (...) {
      invalidateCaches();  // leave a coherent (empty) state for the next call
      throw;
    }
  }
}

void IncrementalSolver::invalidateCaches() {
  std::visit([](auto& c) { c.reset(); }, cache_);
  chosenEntry_.assign(chosenEntry_.size(), -1);
  chosenEpoch_.assign(chosenEpoch_.size(), 0);
  replicaBit_.assign(replicaBit_.size(), 0);
  capacityStale_ = true;
  recomputeDemand();
  requestScratch_.assign(requestScratch_.size(), 0);  // a failed repair's carries
  pendingChangedClients_.clear();
  flips_.clear();
  front_.reset();
  back_.reset();
  published_.reset();
  journalFlips_.clear();
  journalClients_.clear();
  backStale_ = true;
  assignRebuildNeeded_ = true;
}

Requests IncrementalSolver::foldCapacity() {
  if (capacityStale_) {
    capacity_ = instance_->homogeneousCapacity();
    TREEPLACE_REQUIRE(capacity_ > 0, "capacity must be positive");
    capacityStale_ = false;
  }
  return capacity_;
}

std::shared_ptr<const Placement> IncrementalSolver::resolveOnce(BudgetGuard* guard) {
  const Requests W = foldCapacity();
  switch (policy_) {
    case OnlinePolicy::Closest:
      return resolveWith(std::get<0>(cache_), ClosestStep(*instance_, W), guard);
    case OnlinePolicy::Multiple:
      return resolveWith(std::get<0>(cache_), MultipleStep(*instance_, W), guard);
    case OnlinePolicy::ClosestQos:
      return resolveWith(std::get<1>(cache_), ClosestQosStep(*instance_, W), guard);
  }
  TREEPLACE_REQUIRE(false, "unknown online policy");
  return nullptr;
}

template <class Step>
std::shared_ptr<const Placement> IncrementalSolver::resolveWith(
    FrontierCache<typename Step::Entry>& cache, Step step, BudgetGuard* guard) {
  cache.refresh(step, guard);
  const std::int32_t rootEntry =
      step.rootEntry(cache.arena(), cache.frontier(instance_->tree.root()));
  if (rootEntry < 0) return nullptr;

  // The cache's backpointer walk with subtree pruning: a vertex reached with
  // the same entry index as the last walk and no mutation anywhere in its
  // subtree since (chosenEpoch >= dirtySince — the dirty set is closed under
  // parents, so the single stamp check covers the whole subtree) still has
  // exact replicaBit state below it, and the walk skips the entire subtree.
  // A localized mutation therefore costs O(changed region), not O(s), per
  // reconstruction. Replica bits that flip are collected into flips_ — they
  // drive the assignment repair.
  flips_.clear();
  const std::uint64_t epoch = cache.epoch();
  cache.walk(
      rootEntry,
      [&](VertexId v, std::int32_t entryIndex) {
        const auto bi = static_cast<std::size_t>(v);
        const bool same =
            chosenEntry_[bi] == entryIndex && chosenEpoch_[bi] >= cache.dirtySince(v);
        chosenEntry_[bi] = entryIndex;
        chosenEpoch_[bi] = epoch;
        return !same;
      },
      [&](VertexId anchor, bool placed) {
        if (std::exchange(replicaBit_[static_cast<std::size_t>(anchor)], placed) != placed)
          flips_.push_back(anchor);
      });
  if (policy_ == OnlinePolicy::Multiple)
    refreshMultipleAssignment(replicaBit_);
  else
    refreshClosestAssignment(replicaBit_);
  return published_;
}

Placement& IncrementalSolver::levelBackBuffer() {
  const Placement& front = front_->placement;
  // The acquire pairs with the release in a snapshot lease's deleter: every
  // read a former holder made of this buffer happens before the writes below.
  if (!back_ || back_->held.load(std::memory_order_acquire)) {
    back_ = std::make_shared<detail::IncumbentBuffer>(front);
    ++cache().stats().snapshotCopies;
  } else if (backStale_) {
    back_->placement = front;  // reuses the buffer's capacity
    ++cache().stats().snapshotCopies;
  } else {
    Placement& back = back_->placement;
    back.grow(front.vertexCount());
    for (const VertexId v : journalFlips_) {
      if (front.hasReplica(v))
        back.addReplica(v);
      else
        back.removeReplica(v);
    }
    for (const VertexId c : journalClients_) {
      back.clearClient(c);
      back.assignRun(c, front.shares(c));
    }
  }
  backStale_ = false;
  back_->placement.grow(instance_->tree.vertexCount());
  return back_->placement;
}

void IncrementalSolver::publishRepaired(std::vector<VertexId>&& touched) {
  std::swap(front_, back_);
  journalFlips_.assign(flips_.begin(), flips_.end());
  journalClients_ = std::move(touched);
  published_ = lease(front_);
}

void IncrementalSolver::publishRebuilt(Placement&& fresh) {
  back_ = std::move(front_);
  front_ = std::make_shared<detail::IncumbentBuffer>(std::move(fresh));
  backStale_ = true;
  published_ = lease(front_);
}

void IncrementalSolver::refreshClosestAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const std::size_t n = instance.tree.vertexCount();
  if (assignRebuildNeeded_ || !front_) {
    Placement fresh(n);
    for (std::size_t vi = 0; vi < n; ++vi)
      if (replicaBit[vi] != 0) fresh.addReplica(static_cast<VertexId>(vi));
    assignClientsToClosest(instance, fresh);
    publishRebuilt(std::move(fresh));
    // The per-server index mirrors the fresh assignment; clients() order is
    // the scan order, so every list comes out sorted by construction.
    for (auto& list : serverClients_) list.clear();
    serverClients_.resize(n);
    for (const VertexId c : instance.tree.clients()) {
      const auto sh = published_->shares(c);
      if (!sh.empty())
        serverClients_[static_cast<std::size_t>(sh[0].server)].push_back(c);
    }
    assignRebuildNeeded_ = false;
    pendingChangedClients_.clear();
    return;
  }
  if (flips_.empty() && pendingChangedClients_.empty()) return;  // still the answer
  Placement& placement = levelBackBuffer();
  publishRepaired(repairClosestAssignment(replicaBit, placement));
}

// Closest (and Closest+QoS) assignment repair: the policy serves each client
// wholly from the nearest replica above it, so the only clients whose share
// can change are (a) the served clients of a removed replica, (b) clients of
// an added replica's subtree currently served from strictly above it — any
// such client sits in some strict ancestor's server list, sliced out by the
// subtree's client-index interval — and (c) clients whose own rate mutated.
// The per-server index pins those groups down exactly, so a flip near the
// root costs O(moved clients), not O(subtree).
std::vector<VertexId> IncrementalSolver::repairClosestAssignment(
    const std::vector<char>& replicaBit, Placement& placement) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  const auto& clients = tree.clients();

  // 1. Candidates, read off the pre-flip index.
  const std::uint64_t candidateGen = ++markGen_;
  std::vector<VertexId> moved;
  const auto candidate = [&](VertexId c) {
    auto& mark = clientMark_[static_cast<std::size_t>(c)];
    if (mark == candidateGen) return;  // nested flips / repeated mutations
    mark = candidateGen;
    moved.push_back(c);
  };
  const auto indexLess = [&tree](VertexId c, std::int32_t pos) {
    return tree.clientIndex(c) < pos;
  };
  for (const VertexId v : flips_) {
    const auto vi = static_cast<std::size_t>(v);
    if (replicaBit[vi] == 0) {
      for (const VertexId c : serverClients_[vi]) candidate(c);
      continue;
    }
    const auto span = tree.clientsInSubtree(v);
    const auto lo = static_cast<std::int32_t>(span.data() - clients.data());
    const auto hi = lo + static_cast<std::int32_t>(span.size());
    for (VertexId u = tree.parent(v); u != kNoVertex; u = tree.parent(u)) {
      const auto& list = serverClients_[static_cast<std::size_t>(u)];
      if (list.empty()) continue;
      for (auto it = std::lower_bound(list.begin(), list.end(), lo, indexLess);
           it != list.end() && tree.clientIndex(*it) < hi;
           ++it)
        candidate(*it);
    }
  }
  for (const VertexId c : pendingChangedClients_) candidate(c);
  pendingChangedClients_.clear();

  // 2. Replica set next: the walk-ups below must see the new set.
  for (const VertexId v : flips_) {
    if (replicaBit[static_cast<std::size_t>(v)] != 0)
      placement.addReplica(v);
    else
      placement.removeReplica(v);
  }

  // 3. Reassign each candidate against the new set, collecting index edits:
  // leavers are flagged per client (a client has at most one old server),
  // arrivals are grouped per new server and merged below.
  const std::uint64_t leftGen = ++markGen_;
  const std::uint64_t serverGen = ++markGen_;
  std::vector<VertexId> touchedServers;
  std::vector<std::pair<VertexId, VertexId>> arrivals;  // (server, client)
  const auto touchServer = [&](VertexId s) {
    auto& mark = pathMark_[static_cast<std::size_t>(s)];
    if (mark == serverGen) return;
    mark = serverGen;
    touchedServers.push_back(s);
  };
  for (const VertexId c : moved) {
    const auto sh = placement.shares(c);
    const VertexId oldServer = sh.empty() ? kNoVertex : sh[0].server;
    const Requests rate = instance.requests[static_cast<std::size_t>(c)];
    const VertexId newServer =
        rate > 0 ? firstReplicaAbove(tree, placement, c) : kNoVertex;
    TREEPLACE_REQUIRE(rate == 0 || newServer != kNoVertex,
                      "closest repair: client lost every replica on its root path");
    if (newServer == oldServer) {
      if (rate > 0 && rate != sh[0].amount) {  // same server, mutated rate
        placement.clearClient(c);
        placement.assign(c, newServer, rate);
      }
      continue;
    }
    placement.clearClient(c);
    if (newServer != kNoVertex) {
      placement.assign(c, newServer, rate);
      arrivals.push_back({newServer, c});
    }
    if (oldServer != kNoVertex) {
      clientMark_[static_cast<std::size_t>(c)] = leftGen;
      touchServer(oldServer);
    }
  }

  // 4. Index maintenance, batched per server: one filtering pass over each
  // old list, one sorted merge per receiving list (kept in client scan
  // order, matching the full-rebuild layout).
  for (const VertexId s : touchedServers) {
    auto& list = serverClients_[static_cast<std::size_t>(s)];
    std::erase_if(list, [&](VertexId c) {
      return clientMark_[static_cast<std::size_t>(c)] == leftGen;
    });
  }
  const auto scanLess = [&tree](VertexId a, VertexId b) {
    return tree.clientIndex(a) < tree.clientIndex(b);
  };
  std::sort(arrivals.begin(), arrivals.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return scanLess(a.second, b.second);
            });
  for (std::size_t i = 0; i < arrivals.size();) {
    auto& list = serverClients_[static_cast<std::size_t>(arrivals[i].first)];
    const auto mid = static_cast<std::ptrdiff_t>(list.size());
    const VertexId s = arrivals[i].first;
    for (; i < arrivals.size() && arrivals[i].first == s; ++i)
      list.push_back(arrivals[i].second);
    std::inplace_merge(list.begin(), list.begin() + mid, list.end(), scanLess);
  }
  return moved;
}

void IncrementalSolver::refreshMultipleAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  if (assignRebuildNeeded_ || !front_) {
    publishRebuilt(assignMultipleRequests(instance, replicaBit, capacity_));
    for (auto& takes : serverTakes_) takes.clear();
    serverTakes_.resize(tree.vertexCount());
    assignedTotal_ = 0;
    for (const VertexId c : tree.clients())
      for (const ServedShare& share : published_->shares(c)) {
        serverTakes_[static_cast<std::size_t>(share.server)].push_back({c, share.amount});
        assignedTotal_ += share.amount;
      }
    assignedCapacity_ = capacity_;
    assignRebuildNeeded_ = false;
    pendingChangedClients_.clear();
    return;
  }
  if (flips_.empty() && pendingChangedClients_.empty() && assignedCapacity_ == capacity_)
    return;  // still the answer
  Placement& placement = levelBackBuffer();
  std::vector<VertexId> journal = repairMultipleAssignment(replicaBit, placement);
  // Splits and runs that shrink leave holes in the share pool. Past one hole
  // per live share, pack it again: O(s), amortized over the writes that made
  // the holes.
  if (const PlacementStats stats = placement.stats(); stats.holeSlots > stats.shareCount)
    placement.compact(tree.clients());
  publishRepaired(std::move(journal));
}

std::span<const std::pair<VertexId, Requests>> IncrementalSolver::serverTakes(
    VertexId server) const {
  const auto si = static_cast<std::size_t>(server);
  if (si >= serverTakes_.size()) return {};
  return serverTakes_[si];
}

Requests IncrementalSolver::residualAt(const Placement& placement, VertexId client,
                                       VertexId server) const {
  // Every server of a client lies on its root path, so "strictly below
  // `server`" is "later in preorder".
  const Tree& tree = instance_->tree;
  const std::int32_t at = tree.preorderIndex(server);
  Requests rest = instance_->requests[static_cast<std::size_t>(client)];
  for (const ServedShare& share : placement.shares(client))
    if (tree.preorderIndex(share.server) > at) rest -= share.amount;
  TREEPLACE_REQUIRE(rest >= 0, "multiple repair: client served past its rate");
  return rest;
}

// Multiple assignment repair by moving absorption boundaries. The greedy pass
// 3 visits the replicas in postorder; each absorbs, in client scan order, the
// residuals of its subtree's clients (the rate minus the shares of servers
// strictly below it) until its budget W is spent. So its takes are a prefix
// of the positive residuals, all whole but the last, which may be cut: the
// boundary. Locality: a replica whose subtree holds no changed vertex (rate
// change, replica flip) sees the same residuals at its turn, and unless W
// moved to W' and its subtree demand exceeds min(W, W'), absorbs the same —
// by induction bottom-up, only the replica holders on a changed root path or
// with subtree demand above min(W, W') can differ. Each of those, in postorder, sees changed
// residuals only at the clients of one small scan-sorted list: the clients
// whose carry (rate minus served, so far) is not zero — the rate changes not
// yet absorbed and the clients whose shares moved lower down. Before its
// boundary a changed residual is a whole take, edited in place, and the net
// change moves the boundary back (trim the tail) or forward. Past the
// boundary the next positive residuals are the changed clients plus those
// the replica's own replica ancestors serve — their take lists, not yet
// repaired, sliced by the subtree's scan interval — so a boundary moves in
// O(takes that change), not O(subtree). Only pairs whose amount changes are
// written, and the result is bit-identical to the full greedy.
std::vector<VertexId> IncrementalSolver::repairMultipleAssignment(
    const std::vector<char>& replicaBit, Placement& placement) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  const Requests W = capacity_;

  // 1. Affected servers: replica holders (old or new set) on the root path of
  // any changed vertex, plus, when W moved, those whose subtree demand
  // exceeds min(W, W'). Path walks stop at a vertex already visited.
  const std::uint64_t pathGen = ++markGen_;
  std::vector<VertexId> affected;
  const auto visit = [&](VertexId u) {
    auto& mark = pathMark_[static_cast<std::size_t>(u)];
    if (mark == pathGen) return false;
    mark = pathGen;
    if (tree.isInternal(u) &&
        (placement.hasReplica(u) || replicaBit[static_cast<std::size_t>(u)] != 0))
      affected.push_back(u);
    return true;
  };
  for (const VertexId v : flips_)
    for (VertexId u = v; u != kNoVertex && visit(u); u = tree.parent(u)) {}
  for (const VertexId c : pendingChangedClients_)
    for (VertexId u = c; u != kNoVertex && visit(u); u = tree.parent(u)) {}
  if (assignedCapacity_ != W)
    for (const VertexId u : demandAbove(std::min(assignedCapacity_, W))) visit(u);
  std::sort(affected.begin(), affected.end(), [&tree](VertexId a, VertexId b) {
    return tree.postorderIndex(a) < tree.postorderIndex(b);
  });

  // 2. The changed clients in scan order, as (preorder position, client),
  // their carries in requestScratch_. Carry is how far the residual the next
  // replica up sees differs from before; a client whose carry is zero leaves
  // the list, as every replica still to come sees its old residual.
  ScanList delta;
  for (const VertexId c : pendingChangedClients_) {
    const auto ci = static_cast<std::size_t>(c);
    if (requestScratch_[ci] != 0) continue;  // listed already
    requestScratch_[ci] = instance.requests[ci] - placement.assignedOf(c);
    if (requestScratch_[ci] != 0) delta.push_back({tree.preorderIndex(c), c});
  }
  pendingChangedClients_.clear();
  std::sort(delta.begin(), delta.end());

  // 3. Each server's turn, in the greedy's order. The clients whose shares
  // change form the journal; those left with a carry join the list.
  const std::uint64_t journalGen = ++markGen_;
  std::vector<VertexId> journal;
  std::vector<VertexId> changed;
  ScanList fresh;
  ScanList merged;
  for (const VertexId s : affected) {
    const auto si = static_cast<std::size_t>(s);
    const bool had = placement.hasReplica(s);
    changed.clear();
    if (replicaBit[si] == 0) {
      // A removed replica releases every take.
      for (const auto& [c, amount] : serverTakes_[si]) {
        const Requests undone = placement.unassign(c, s);
        TREEPLACE_REQUIRE(undone == amount,
                          "multiple repair: take list out of sync with placement");
        assignedTotal_ -= amount;
        requestScratch_[static_cast<std::size_t>(c)] += amount;
        changed.push_back(c);
      }
      serverTakes_[si].clear();
      placement.removeReplica(s);
    } else {
      if (!had) placement.addReplica(s);
      repairServer(s, W, !had, delta, placement, changed);
    }
    if (changed.empty()) continue;
    fresh.clear();
    for (const VertexId c : changed) {
      if (auto& mark = clientMark_[static_cast<std::size_t>(c)]; mark != journalGen) {
        mark = journalGen;
        journal.push_back(c);
      }
      if (requestScratch_[static_cast<std::size_t>(c)] != 0)
        fresh.push_back({tree.preorderIndex(c), c});
    }
    std::sort(fresh.begin(), fresh.end());
    merged.clear();
    std::merge(delta.begin(), delta.end(), fresh.begin(), fresh.end(),
               std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    std::erase_if(merged, [this](const auto& entry) {
      return requestScratch_[static_cast<std::size_t>(entry.second)] == 0;
    });
    delta.swap(merged);
  }
  assignedCapacity_ = W;

  // 4. No carry is left, and the incumbent serves the whole demand — a rate
  // that moved behind the cache's back shows here.
  TREEPLACE_REQUIRE(delta.empty(), "multiple repair left unassigned demand — locality bug");
  TREEPLACE_REQUIRE(assignedTotal_ == demand_[static_cast<std::size_t>(tree.root())],
                    "multiple repair: served total differs from the demand");
  return journal;
}

void IncrementalSolver::repairServer(VertexId s, Requests W, bool added, const ScanList& delta,
                                     Placement& placement, std::vector<VertexId>& changed) {
  const Tree& tree = instance_->tree;
  auto& takes = serverTakes_[static_cast<std::size_t>(s)];
  // Scan order is preorder: the subtree's clients hold the positions
  // [lo, hi), and the take lists and `delta` are sorted by position.
  const std::int32_t lo = tree.preorderIndex(s);
  const std::int32_t hi = tree.preorderEnd(s);
  const auto before = [](const std::pair<std::int32_t, VertexId>& entry, std::int32_t pos) {
    return entry.first < pos;
  };
  const auto takeBefore = [&tree](const std::pair<VertexId, Requests>& t, std::int32_t pos) {
    return tree.preorderIndex(t.first) < pos;
  };
  auto dIt = std::lower_bound(delta.begin(), delta.end(), lo, before);
  const auto dEnd = std::lower_bound(dIt, delta.end(), hi, before);
  const Requests load = placement.serverLoad(s);
  if (dIt == dEnd && !added &&
      (W == assignedCapacity_ || (load < assignedCapacity_ && load <= W)))
    return;  // same residuals and a budget that does not bind: same takes

  // Set the pair (c, s) from `from` to `to` requests in the placement, and
  // move the client's carry and the served total with it.
  const auto write = [&](VertexId c, Requests from, Requests to) {
    if (to == from) return;
    if (to > from) {
      placement.assign(c, s, to - from);
    } else {
      const Requests undone = placement.unassign(c, s);
      TREEPLACE_REQUIRE(undone == from, "multiple repair: take list out of sync with placement");
      if (to > 0) placement.assign(c, s, to);
    }
    assignedTotal_ += to - from;
    requestScratch_[static_cast<std::size_t>(c)] -= to - from;
    changed.push_back(c);
  };

  // The changed clients come in scan order, so each search for one in the
  // takes gallops on from where the last one landed: O(log gap), not
  // O(log takes).
  const auto seek = [&](std::size_t from, std::int32_t pos) {
    std::size_t step = 1;
    for (; from + step <= takes.size() && takeBefore(takes[from + step - 1], pos); step *= 2)
      from += step;
    const auto first = takes.begin() + static_cast<std::ptrdiff_t>(from);
    return std::lower_bound(
        first, first + static_cast<std::ptrdiff_t>(std::min(step, takes.size() - from)), pos,
        takeBefore);
  };
  // Before the boundary (the last take) every residual was a whole take, or
  // zero where the client has none, and the carry is its change. `whole`
  // sums the takes before the boundary.
  const std::int32_t boundary = takes.empty() ? lo : tree.preorderIndex(takes.back().first);
  Requests whole = takes.empty() ? 0 : load - takes.back().second;
  std::size_t hint = 0;
  for (; dIt != dEnd && dIt->first < boundary; ++dIt) {
    const VertexId c = dIt->second;
    const auto at = seek(hint, dIt->first);
    hint = static_cast<std::size_t>(at - takes.begin());
    const bool held = at != takes.end() && at->first == c;
    const Requests old = held ? at->second : 0;
    const Requests rest = old + requestScratch_[static_cast<std::size_t>(c)];
    TREEPLACE_REQUIRE(rest >= 0, "multiple repair: client served past its rate");
    write(c, old, rest);
    whole += rest - old;
    if (!held)
      takes.insert(at, {c, rest});  // a listed carry is never zero: rest > 0
    else if (rest == 0)
      takes.erase(at);
    else
      at->second = rest;
  }

  Requests budget = W;
  if (whole >= W) {
    // The whole takes before the boundary now fill W: trim the tail back to
    // the first take that reaches it, and cut that one.
    write(takes.back().first, takes.back().second, 0);
    takes.pop_back();
    while (whole - takes.back().second >= W) {
      whole -= takes.back().second;
      write(takes.back().first, takes.back().second, 0);
      takes.pop_back();
    }
    auto& cut = takes.back();
    write(cut.first, cut.second, cut.second - (whole - W));
    cut.second -= whole - W;
    budget = 0;
  } else if (!takes.empty()) {
    // The boundary client takes what its residual and the budget allow.
    budget -= whole;
    auto& last = takes.back();
    const Requests take = std::min(residualAt(placement, last.first, s), budget);
    budget -= take;
    write(last.first, last.second, take);
    if (take == 0)
      takes.pop_back();
    else
      last.second = take;
  }
  if (budget == 0) return;

  // Forward: the next positive residuals past the boundary are the changed
  // clients and the clients the replica ancestors serve, merged in scan order.
  const std::int32_t from = boundary + 1;  // position lo is the server itself
  struct Cursor {
    const std::pair<VertexId, Requests>* at;
    const std::pair<VertexId, Requests>* end;
  };
  std::vector<Cursor> cursors;
  for (VertexId u = tree.parent(s); u != kNoVertex; u = tree.parent(u)) {
    const auto& list = serverTakes_[static_cast<std::size_t>(u)];
    if (list.empty()) continue;
    const auto first = std::lower_bound(list.begin(), list.end(), from, takeBefore);
    if (first != list.end() && tree.preorderIndex(first->first) < hi)
      cursors.push_back({&*first, list.data() + list.size()});
  }
  dIt = std::lower_bound(dIt, dEnd, from, before);
  while (budget > 0) {
    VertexId c = dIt != dEnd ? dIt->second : kNoVertex;
    std::int32_t next = dIt != dEnd ? dIt->first : hi;
    for (const Cursor& cur : cursors)
      if (cur.at != cur.end) {
        const std::int32_t p = tree.preorderIndex(cur.at->first);
        if (p < next) {
          next = p;
          c = cur.at->first;
        }
      }
    if (next >= hi) break;
    if (dIt != dEnd && dIt->second == c) ++dIt;
    for (Cursor& cur : cursors)
      if (cur.at != cur.end && cur.at->first == c) ++cur.at;
    const Requests take = std::min(residualAt(placement, c, s), budget);
    if (take == 0) continue;
    write(c, 0, take);
    takes.push_back({c, take});
    budget -= take;
  }
}

// The relaxation tracks no subtree demands, so a W change stamps every bag.
// Every delta opens its own epoch, so the invalidation counts are per delta.
void IncrementalBounds::noteDelta(const DeltaApplication& app) {
  cache_.advance();
  if (app.structural) cache_.grow(app.firstNewVertex);
  if (app.global)
    cache_.invalidateAll();
  else
    cache_.stamp(app.touched);
}

DeltaApplication IncrementalBounds::apply(const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*editable_, delta);
  noteDelta(app);
  return app;
}

}  // namespace treeplace
