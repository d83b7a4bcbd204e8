#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "core/frontier_fwd.hpp"
#include "support/fault_injection.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Flow ceiling that drops nothing: the default of the merges below for
/// callers whose states have no bounded absorber above them (relaxations).
inline constexpr Requests kNoFlowCeiling = std::numeric_limits<Requests>::max();

/// The bounds one merge runs under: counts above `maxCount` cannot be
/// Pareto-optimal for the caller, and states whose flow exceeds `ceiling`
/// are dead (see the live-state invariant below). Every policy derives both
/// from the bag shape (core/bag_steps).
struct FrontierLimits {
  std::int32_t maxCount;
  Requests ceiling;
};

/// One Pareto point of a subtree DP: with `count` replicas inside the
/// covered forest, `flow` requests leave it unserved. Frontiers are kept
/// sorted by count ascending with strictly decreasing flow, so `count` is
/// also the cheapest replica budget achieving `flow`.
///
/// Live-state invariant: every merge takes a per-bag *flow ceiling* — the
/// most unserved flow any placement above the bag could still absorb — and
/// never stores a state above it. Under Closest the whole upward flow goes
/// to one replica (ceiling W); under Multiple a node's flow can only be
/// spread over its depth(v) ancestors (ceiling W * depth(v), one more W for
/// the child-convolution chain, which v itself may still serve). A dead
/// state can never win a live count bucket nor dominate a live point, so
/// the live part of a frontier, backpointers included, is the same with or
/// without the ceiling; only the dead tail of work disappears. Flows
/// strictly decrease along a 2-D frontier, so its dead states were always a
/// prefix.
///
/// The two backpointer slots thread the reconstruction and are
/// role-dependent:
///  - in a *convolution* frontier (prefix over children), `prev` indexes the
///    previous prefix frontier and `child` the merged child's frontier;
///  - in a *node* frontier (after the place/skip decision), `prev` indexes
///    the node's final convolution frontier and `child` is 1 when a replica
///    sits on the node itself, else 0.
struct FrontierEntry {
  std::int32_t count = 0;
  Requests flow = 0;
  std::int32_t prev = -1;
  std::int32_t child = -1;
};

/// Pareto point of a QoS-constrained subtree DP (exact/closest_qos): `slack`
/// is the minimum remaining QoS budget over the subtree's unserved clients
/// (infinite when flow is 0). Backpointer roles match FrontierEntry.
struct QosFrontierEntry {
  std::int32_t count = 0;
  Requests flow = 0;
  double slack = 0.0;
  std::int32_t prev = -1;
  std::int32_t child = -1;
};

/// Offset/length handle into a frontier arena slab. Handles stay valid across
/// arena growth (they are indices, not pointers).
struct FrontierSpan {
  std::uint32_t begin = 0;
  std::uint32_t size = 0;

  bool empty() const { return size == 0; }
};

/// Per-solve telemetry of the frontier machinery.
struct FrontierStats {
  std::size_t peakWidth = 0;      ///< widest pruned frontier produced
  std::size_t arenaBytes = 0;     ///< arena high-water mark, in bytes
  std::size_t entriesMerged = 0;  ///< candidate (a,b) pairs examined
  std::size_t convolutions = 0;   ///< monotone merges performed
};

namespace detail {

/// The OS side of SlabAllocator (core/frontier.cpp): an anonymous private
/// mapping of `bytes`, and its release. mapSlab throws std::bad_alloc when
/// the mapping fails.
void* mapSlab(std::size_t bytes);
void unmapSlab(void* slab, std::size_t bytes) noexcept;

}  // namespace detail

/// Allocator of the frontier slabs. A slab of at least 1 MiB is mapped from
/// the OS and unmapped when freed, so its untouched reserve holds no
/// resident pages and a dropped slab (a closed session's) leaves the process
/// at once; from the malloc heap, glibc's dynamic mmap threshold would keep
/// such a slab across reopens. Smaller slabs come from operator new.
template <typename T>
struct SlabAllocator {
  using value_type = T;
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;

  SlabAllocator() = default;
  template <typename U>
  SlabAllocator(const SlabAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n * sizeof(T) < kMapBytes) return std::allocator<T>().allocate(n);
    return static_cast<T*>(detail::mapSlab(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) < kMapBytes)
      std::allocator<T>().deallocate(p, n);
    else
      detail::unmapSlab(p, n * sizeof(T));
  }
  friend bool operator==(const SlabAllocator&, const SlabAllocator&) noexcept { return true; }
};

/// Bump allocator for frontier entries. Every frontier produced during one
/// solve lives in a single flat slab; nodes hold FrontierSpan handles instead
/// of per-node vectors, so the DP performs O(1) heap allocations overall and
/// reconstruction walks stay cache-friendly. Templated on the entry type so
/// the 2-D (count, flow) and 3-D (count, flow, slack) DPs share the storage
/// machinery.
template <typename Entry>
class BasicFrontierArena {
 public:
  /// Drop all spans and reserve room for `expectedEntries` entries.
  void reset(std::size_t expectedEntries) {
    slab_.clear();
    slab_.reserve(expectedEntries);
  }

  std::span<const Entry> view(FrontierSpan span) const {
    return {slab_.data() + span.begin, span.size};
  }

  const Entry& at(FrontierSpan span, std::size_t index) const {
    return slab_[span.begin + index];
  }
  Entry& at(FrontierSpan span, std::size_t index) { return slab_[span.begin + index]; }

  /// Append one entry to the span currently being built (see beginSpan).
  /// Slab growth is an Allocation fault site: when armed, a growing push may
  /// throw std::bad_alloc exactly as a memory-starved host would — consumers
  /// (the incremental solver, the resilient pipeline) must unwind cleanly.
  void push(const Entry& entry) {
    if (slab_.size() == slab_.capacity() && fault::fire(fault::Site::Allocation))
      throw std::bad_alloc();
    slab_.push_back(entry);
  }

  /// Start a new span at the current top of the slab.
  std::uint32_t beginSpan() const { return static_cast<std::uint32_t>(slab_.size()); }

  /// Close the span opened at `begin`.
  FrontierSpan endSpan(std::uint32_t begin) const {
    return {begin, static_cast<std::uint32_t>(slab_.size()) - begin};
  }

  /// Drop every entry from `top` on, keeping the capacity: the slab used as
  /// a stack (the streaming counts, core/frontier_stream).
  void truncate(std::size_t top) { slab_.resize(top); }

  std::size_t bytes() const { return slab_.capacity() * sizeof(Entry); }
  std::size_t entryCount() const { return slab_.size(); }
  /// Entries the slab holds before its next (doubling) reallocation.
  std::size_t capacity() const { return slab_.capacity(); }

 private:
  std::vector<Entry, SlabAllocator<Entry>> slab_;
};

// FrontierArena / QosFrontierArena aliases live in core/frontier_fwd.hpp.

/// Sort-free monotone merges over count-sorted / flow-decreasing frontiers.
///
/// The classic inner loop materialises the |A|x|B| cross product and prunes
/// it with an O(m log m) sort. Both inputs are already monotone, so the
/// merged Pareto frontier has at most maxCount+1 entries (one per replica
/// count): candidates are scattered into a count-indexed scratch bucket kept
/// at the minimum flow, then a single ascending sweep emits the strictly
/// decreasing survivors straight into the arena. No sort, no temporary
/// vectors, output allocation capped by the frontier-width bound
/// (clients/internals in the subtree, never |A|*|B|). Buckets span only the
/// live count range [min live count sum, reach], so a merge of two
/// ceiling-bounded frontiers costs O(live width), whatever the counts are.
class FrontierConvolver {
 public:
  explicit FrontierConvolver(FrontierArena& arena) : arena_(&arena) {}

  /// The neutral frontier {(count 0, flow 0)} that seeds a convolution chain.
  FrontierSpan unit();

  /// Merge two frontiers: counts add, flows add. `maxCount` caps the output
  /// width (counts above it cannot be Pareto-optimal for the caller), and
  /// pairs whose flow exceeds `ceiling` are dead and never stored.
  /// Backpointers record (prev = index into a, child = index into b).
  FrontierSpan convolve(FrontierSpan a, FrontierSpan b, std::int32_t maxCount,
                        Requests ceiling = kNoFlowCeiling);

  /// Prune an arbitrary count-keyed candidate list (already appended by the
  /// caller into `scatter`-style usage): used by solvers whose place/skip
  /// step produces two monotone option streams. Candidates are merged via the
  /// same bucket + sweep, those above `ceiling` dropped; backpointers pass
  /// through untouched.
  FrontierSpan pruneCandidates(std::span<const FrontierEntry> candidates,
                               std::int32_t maxCount,
                               Requests ceiling = kNoFlowCeiling);

  FrontierArena& arena() const { return *arena_; }
  const FrontierStats& stats() const { return stats_; }

  /// Record the width of a frontier the caller assembled by hand (e.g. the
  /// place/skip options of a DP node, which bypass the bucket sweep).
  void noteWidth(std::size_t width) {
    if (width > stats_.peakWidth) stats_.peakWidth = width;
  }

  /// Record the arena high-water mark into the stats (call once per solve).
  void noteArenaUsage();

 private:
  void ensureBuckets(std::size_t width);
  /// Emit the Pareto survivors of the buckets for counts [minCount, reach].
  FrontierSpan sweep(std::int32_t minCount, std::int32_t reach);

  FrontierArena* arena_;
  FrontierStats stats_;
  // Scratch indexed by count - minCount: best flow plus the winning
  // backpointers.
  std::vector<Requests> bucketFlow_;
  std::vector<std::int32_t> bucketPrev_;
  std::vector<std::int32_t> bucketChild_;
};

/// 3-D dominance filter for (count, flow, slack) frontiers: an entry is
/// dominated when another has count <=, flow <= and slack >= it. Replaces the
/// retired sort + O(k^2) pairwise prune of the QoS solver.
///
/// Candidates are scattered into count-indexed buckets; each bucket keeps a
/// 2-D (flow, slack) staircase — flow ascending, slack strictly ascending —
/// under insertion, so within-bucket dominance is resolved on the fly.
/// emit() then sweeps buckets by ascending count, testing each survivor
/// against the running staircase of all lower counts and streaming the
/// non-dominated points into the arena in (count, flow) order — exactly the
/// order the old sort produced, so downstream consumers see identical
/// frontiers. Bucket vectors are recycled across batches: steady-state
/// filtering performs no heap allocations. A batch spans only its live count
/// range and drops candidates above its flow ceiling (W under Closest+QoS:
/// one replica serves everything a bag sends up), so a dead candidate can
/// neither survive nor dominate a live one.
class QosFrontierSweep {
 public:
  explicit QosFrontierSweep(QosFrontierArena& arena) : arena_(&arena) {}

  /// The neutral frontier {(count 0, flow 0, infinite slack)} that seeds a
  /// convolution chain.
  FrontierSpan unit();

  /// Start a batch whose counts lie in [minCount, maxCount]; candidates with
  /// flow above `ceiling` are dead and dropped on add().
  void begin(std::int32_t minCount, std::int32_t maxCount, Requests ceiling);

  /// Offer one candidate (count must be within the begin() bounds).
  void add(const QosFrontierEntry& entry);

  /// Cross-bucket dominance sweep; emits the pruned frontier into the arena.
  FrontierSpan emit();

  /// One step of the QoS child-convolution chain: every live state of
  /// `child` first pays its `uplink` latency (states whose slack goes
  /// negative are dead), then pairs with every state of `acc` — counts add,
  /// flows add, slacks combine by min — and the batch is pruned. Counts
  /// above `maxCount` and flows above `ceiling` are dropped. Backpointers
  /// record (prev = index into acc, child = index into child). An empty
  /// result means no pair survived.
  FrontierSpan convolve(FrontierSpan acc, FrontierSpan child, std::int32_t maxCount,
                        double uplink, Requests ceiling);

  QosFrontierArena& arena() const { return *arena_; }
  const FrontierStats& stats() const { return stats_; }
  void noteArenaUsage();

 private:
  struct Step {  ///< one staircase point inside a count bucket
    Requests flow;
    double slack;
    std::int32_t prev;
    std::int32_t child;
  };

  /// Insert into a staircase (flow strictly ascending, slack strictly
  /// ascending) unless a step dominates the entry (flow <=, slack >=,
  /// non-strict — the incumbent wins exact ties); steps the entry dominates
  /// are removed. Returns false when the entry was dominated. Shared by the
  /// per-count buckets (add) and the cross-bucket skyline (emit).
  static bool staircaseInsert(std::vector<Step>& steps, const Step& entry);

  QosFrontierArena* arena_;
  FrontierStats stats_;
  std::vector<std::vector<Step>> buckets_;  ///< capacity recycled across batches
  std::int32_t bucketsInUse_ = 0;
  std::int32_t minCount_ = 0;  ///< count of buckets_[0] in the current batch
  Requests ceiling_ = kNoFlowCeiling;
  std::vector<Step> skyline_;  ///< emit()'s running lower-count staircase
};

}  // namespace treeplace
