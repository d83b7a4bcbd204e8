#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/budget.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Tuning knobs of the width-capped streaming frontier path.
struct FrontierStreamOptions {
  /// Maximum entries kept per frontier: a safety net, not the working
  /// bound. The streaming DPs keep live states only (flow at most what the
  /// bag's ancestors can absorb, see core/frontier.hpp), so a Closest
  /// accumulator never exceeds its child count + 1 and the default cap does
  /// not fire on the feasible-at-scale profiles, even at s=10^6. A merge
  /// whose pruned result is still wider is downsampled to this many points
  /// (first and last always kept, interior strided), keeping an
  /// O(widthCap * depth) memory bound and an O(widthCap^2) per-merge time
  /// bound. Every surviving point stays achievable, so capped results are
  /// valid upper bounds.
  std::int32_t widthCap = 512;
  /// Optional shared budget: the driving postorder walk ticks it per visit
  /// (throwing SolveInterrupted on a trip) and the streamer charges its slab
  /// high-water against the memory budget. Non-owning; must outlive the run.
  BudgetGuard* guard = nullptr;
};

/// Telemetry of one streaming DP run.
struct FrontierStreamStats {
  std::size_t peakWidth = 0;        ///< widest frontier produced (pre-cap)
  std::size_t peakStackEntries = 0; ///< slab high-water mark, in entries
  std::size_t peakBytes = 0;        ///< slab + scratch high-water mark
  std::size_t convolutions = 0;     ///< child merges + place/skip prunes
  std::size_t pairsMerged = 0;      ///< candidate entries examined
  std::size_t cappedMerges = 0;     ///< merges that hit widthCap
  std::size_t droppedPoints = 0;    ///< Pareto points discarded by capped merges
  /// Quantified cap damage: per capped merge, the largest replica-count gap
  /// between consecutive kept points that had points dropped between them,
  /// summed over all capped merges. Dropping a point forces later steps onto
  /// the next kept point, whose flow is no worse (flows strictly decrease
  /// along a 2-D frontier) and whose count exceeds the dropped one by at most
  /// that gap — so for the 2-D DPs (Closest/Multiple)
  ///   exact optimum >= capped answer - capGapBound.
  /// The 3-D QoS streamer tracks the same quantity as telemetry, but the
  /// slack dimension breaks the no-worse-flow argument, so there it is NOT a
  /// certified bracket.
  std::int64_t capGapBound = 0;
  /// No merge was ever capped: the run explored the full Pareto frontier and
  /// its answer matches the exact DP.
  bool exact = true;
};

/// Result of a streaming (count-only) policy solve. The streaming DPs drop
/// the reconstruction backpointers, so they return the replica count but no
/// placement; `stats.exact` says whether the count is provably optimal or an
/// achievable upper bound (some merge hit widthCap). A capped run is
/// bracketed: for the 2-D policies the optimum lies in
/// [replicasFloor(), replicas] (see FrontierStreamStats::capGapBound).
struct StreamCountResult {
  bool feasible = false;
  std::int32_t replicas = 0;
  FrontierStreamStats stats;

  /// Certified lower bound on the exact optimum for the 2-D DPs
  /// (Closest/Multiple): the capped count minus the accumulated cap gap.
  /// Equals `replicas` on uncapped runs. Not certified for the QoS streamer.
  std::int32_t replicasFloor() const {
    const std::int64_t floor = static_cast<std::int64_t>(replicas) - stats.capGapBound;
    return floor > 0 ? static_cast<std::int32_t>(floor) : 0;
  }
};

/// Stack machine for subtree frontier DPs at scales where the exact
/// backpointer arena (core/frontier) cannot fit: frontiers live on one SoA
/// slab under strict stack discipline — one accumulator per node on the
/// current root path — so memory is O(widthCap * depth) instead of
/// O(total entries), at the price of dropping reconstruction backpointers
/// (the streaming DPs return counts, not placements).
///
/// Protocol, driven by the solver's postorder walk:
///  - pushUnit() opens an internal node's accumulator {(0, 0)};
///  - a child frontier is then built on top of the slab (pushEntry for a
///    leaf, recursively for a subtree) and folded into the accumulator with
///    foldChild(), which convolves the two top frontiers (counts add, flows
///    add, bucket scatter + monotone sweep — no sort) and replaces them by
///    the capped result, dropping states above the caller's flow ceiling;
///  - the place/skip step either edits the finished accumulator in place
///    through countAt/flowAt/resize/pushEntry (Closest keeps the first
///    entry and its place point) or rebuilds it through the candidate batch
///    API (clearCandidates / addCandidate / commitPruned — Multiple's
///    general prune).
///
/// The inner merge loop runs over the flow array of the denser input; when
/// the child's counts are contiguous the bucket indices are too, and the
/// min-scatter reduces to a stride-1 loop the compiler auto-vectorizes.
class FrontierStreamer {
 public:
  explicit FrontierStreamer(FrontierStreamOptions options) : options_(options) {}

  void reset() {
    counts_.clear();
    flows_.clear();
    stats_ = {};
  }

  std::size_t top() const { return counts_.size(); }
  std::int32_t countAt(std::size_t i) const { return counts_[i]; }
  Requests flowAt(std::size_t i) const { return flows_[i]; }

  /// Truncate the slab (only ever back to a frontier boundary).
  void resize(std::size_t newTop) {
    counts_.resize(newTop);
    flows_.resize(newTop);
  }

  void pushEntry(std::int32_t count, Requests flow) {
    counts_.push_back(count);
    flows_.push_back(flow);
    noteStack();
  }

  /// Open an accumulator with the neutral frontier {(0, 0)}; returns its
  /// begin index, which stays valid until the owning node completes.
  std::size_t pushUnit() {
    const std::size_t begin = top();
    pushEntry(0, 0);
    return begin;
  }

  /// Convolve the accumulator [accBegin, childBegin) with the child frontier
  /// [childBegin, top()): counts add, flows add, counts above maxCount are
  /// discarded, the Pareto survivors replace both inputs at accBegin.
  /// Pairs whose flow exceeds `ceiling` are dead and never stored; when no
  /// live pair is left the accumulator folds to empty (top() == accBegin),
  /// which callers must treat as infeasible.
  void foldChild(std::size_t accBegin, std::size_t childBegin, std::int32_t maxCount,
                 Requests ceiling);

  /// Candidate batch: collect arbitrary (count, flow) points, then replace
  /// the top frontier [begin, top()) with the capped Pareto prune of those
  /// with count <= maxCount and flow <= ceiling.
  void clearCandidates() {
    candCounts_.clear();
    candFlows_.clear();
  }
  void addCandidate(std::int32_t count, Requests flow) {
    candCounts_.push_back(count);
    candFlows_.push_back(flow);
  }
  void commitPruned(std::size_t begin, std::int32_t maxCount, Requests ceiling);

  const FrontierStreamStats& stats() const { return stats_; }

 private:
  void noteStack() {
    stats_.peakStackEntries = std::max(stats_.peakStackEntries, counts_.size());
    const std::size_t bytes =
        counts_.capacity() * sizeof(std::int32_t) +
        flows_.capacity() * sizeof(Requests) +
        bucketFlow_.capacity() * sizeof(Requests) +
        outCounts_.capacity() * sizeof(std::int32_t) +
        outFlows_.capacity() * sizeof(Requests);
    stats_.peakBytes = std::max(stats_.peakBytes, bytes);
    if (options_.guard != nullptr) options_.guard->noteMemory(bytes);
  }
  /// Sweep bucketFlow_ (count range [minSum, minSum + range)) into the Pareto
  /// survivors, cap to widthCap, and write the result at accBegin.
  void sweepAndCommit(std::size_t accBegin, std::int32_t minSum, std::size_t range);

  FrontierStreamOptions options_;
  FrontierStreamStats stats_;
  // SoA frontier slab: parallel count/flow arrays under stack discipline.
  std::vector<std::int32_t> counts_;
  std::vector<Requests> flows_;
  // Merge scratch: count-indexed min-flow buckets, swept result, candidates.
  std::vector<Requests> bucketFlow_;
  std::vector<std::int32_t> outCounts_;
  std::vector<Requests> outFlows_;
  std::vector<std::int32_t> candCounts_;
  std::vector<Requests> candFlows_;
};

/// Streaming counterpart of QosFrontierSweep: the same slab/stack protocol as
/// FrontierStreamer with a slack lane added, pruned by per-count (flow,
/// slack) staircases instead of single min-flow buckets (see
/// QosFrontierSweep for the dominance rules mirrored here). foldChild charges
/// the child's uplink latency and drops dead states (negative slack or flow
/// above the ceiling), exactly like the exact QoS convolution; the width cap
/// strides over the emitted (count, flow) order. A fold may legitimately
/// produce an empty frontier (every pair dead) — callers must treat that as
/// infeasible.
class QosFrontierStreamer {
 public:
  explicit QosFrontierStreamer(FrontierStreamOptions options) : options_(options) {}

  void reset();

  std::size_t top() const { return counts_.size(); }
  std::int32_t countAt(std::size_t i) const { return counts_[i]; }
  Requests flowAt(std::size_t i) const { return flows_[i]; }
  double slackAt(std::size_t i) const { return slacks_[i]; }

  void resize(std::size_t newTop) {
    counts_.resize(newTop);
    flows_.resize(newTop);
    slacks_.resize(newTop);
  }

  void pushEntry(std::int32_t count, Requests flow, double slack) {
    counts_.push_back(count);
    flows_.push_back(flow);
    slacks_.push_back(slack);
    noteStack();
  }

  /// Neutral accumulator {(0, 0, +inf)}; returns its begin index.
  std::size_t pushUnit();

  /// Fold the child frontier [childBegin, top()) into the accumulator
  /// [accBegin, childBegin): the child first pays `uplink` latency on every
  /// live (flow > 0) state, dead pairs (negative slack, or flow above
  /// `ceiling`) are dropped, slacks combine by min.
  void foldChild(std::size_t accBegin, std::size_t childBegin,
                 std::int32_t maxCount, double uplink, Requests ceiling);

  void clearCandidates();
  void addCandidate(std::int32_t count, Requests flow, double slack);
  void commitPruned(std::size_t begin, std::int32_t maxCount, Requests ceiling);

  const FrontierStreamStats& stats() const { return stats_; }

 private:
  struct Step {  ///< one staircase point inside a count bucket
    Requests flow;
    double slack;
  };

  void noteStack();
  /// Open a batch over counts [minCount, maxCount] dropping flows above
  /// `ceiling` (bucket k holds count minCount + k).
  void beginBuckets(std::int32_t minCount, std::int32_t maxCount, Requests ceiling);
  void bucketAdd(std::int32_t count, Requests flow, double slack);
  /// Cross-bucket dominance sweep (mirrors QosFrontierSweep::emit), cap,
  /// write at accBegin.
  void sweepAndCommit(std::size_t accBegin);
  static bool staircaseInsert(std::vector<Step>& steps, const Step& entry);

  FrontierStreamOptions options_;
  FrontierStreamStats stats_;
  std::vector<std::int32_t> counts_;
  std::vector<Requests> flows_;
  std::vector<double> slacks_;
  std::vector<std::vector<Step>> buckets_;  ///< capacity recycled across folds
  std::int32_t bucketsInUse_ = 0;
  std::int32_t minCount_ = 0;  ///< count of buckets_[0] in the current batch
  Requests ceiling_ = 0;
  std::vector<Step> skyline_;
  std::vector<std::int32_t> outCounts_;
  std::vector<Requests> outFlows_;
  std::vector<double> outSlacks_;
  std::vector<std::int32_t> candCounts_;
  std::vector<Requests> candFlows_;
  std::vector<double> candSlacks_;
};

/// One open internal vertex of a streaming sweep: its accumulator on the
/// streamer's slab, the shape facts the caps and ceilings derive from, and
/// the inputs the policy gathered for it.
template <class Input>
struct SweepFrame {
  std::size_t accBegin;    ///< first slab entry of the accumulator
  std::int32_t end;        ///< preorder position one past the subtree
  std::int32_t depth;      ///< hop depth of the vertex (root 0)
  std::int32_t clients;    ///< clients in the subtree
  std::int32_t internals;  ///< internal vertices in the subtree, itself included
  Input input;
};

/// Preorder positions gathered per block of the sweep: the reads by vertex
/// id run as independent loads ahead of the fold instead of one dependent
/// cache miss at a time.
inline constexpr std::size_t kSweepBlock = 2048;

/// Drive a count-only streaming DP over the tree in one linear sweep of
/// preorder positions. The frame stack holds the open internal vertices of
/// the current root path; at each position the sweep first closes the frames
/// whose subtree ended there (place/skip, then fold into the parent), then
/// visits the vertex: a client is seeded and folded into the top
/// accumulator, an internal vertex opens a frame with the unit frontier.
/// Children are therefore folded in raw id order — the order preorder lists
/// them — and the fold sequence, every count and every stats field are a
/// function of the tree shape alone, while the memory traffic is a forward
/// scan whatever the vertex numbering.
///
/// Per-vertex inputs are read by vertex id in blocks of kSweepBlock
/// positions into a fixed buffer (no O(n) allocation per solve). The guard
/// is ticked once per visit: (n - 1) child visits plus one close per
/// internal vertex. A fold that leaves no live state stops the sweep, and
/// the result is infeasible.
///
/// `step` supplies the policy:
///   Input gather(VertexId v, bool client) const;  // per-vertex values by id
///   void seed(const Input& client);       // push a client's frontier
///   void placeSkip(const SweepFrame<Input>& node);  // node frontier in place
///   void fold(const SweepFrame<Input>& parent, std::size_t childBegin,
///             const Input& child);        // [childBegin, top()) into parent
template <class Streamer, class Step>
StreamCountResult sweepStreamingCount(const Tree& tree, Streamer& streamer, Step& step,
                                      BudgetGuard* guard) {
  using Input = decltype(std::declval<const Step&>().gather(VertexId{}, false));
  using Frame = SweepFrame<Input>;
  struct Slot {
    bool client;
    std::int32_t end;
    std::int32_t clients;
    Input input;
  };
  const std::span<const VertexId> order = tree.preorder();
  const auto n = static_cast<std::int32_t>(order.size());
  std::vector<Slot> block(std::min<std::size_t>(kSweepBlock, order.size()));
  std::vector<Frame> stack;
  stack.reserve(64);

  const auto open = [&](std::int32_t pos, const Slot& slot) {
    const auto depth = static_cast<std::int32_t>(stack.size());
    stack.push_back({streamer.pushUnit(), slot.end, depth, slot.clients,
                     slot.end - pos - slot.clients, slot.input});
  };
  // Closes the top frame; false when its fold left the parent nothing live.
  const auto close = [&] {
    if (guard != nullptr) guard->checkpoint();
    const Frame child = stack.back();
    step.placeSkip(child);
    stack.pop_back();
    if (stack.empty()) return true;
    step.fold(stack.back(), child.accBegin, child.input);
    return streamer.top() != stack.back().accBegin;
  };
  const auto gather = [&](std::int32_t pos, Slot& slot) {
    const VertexId v = order[static_cast<std::size_t>(pos)];
    slot.client = tree.clientsBefore(pos + 1) != tree.clientsBefore(pos);
    slot.end = slot.client ? pos + 1 : tree.preorderEnd(v);
    slot.clients = tree.clientsBefore(slot.end) - tree.clientsBefore(pos);
    slot.input = step.gather(v, slot.client);
  };

  gather(0, block[0]);
  open(0, block[0]);
  bool alive = true;
  for (std::int32_t base = 1; base < n && alive;) {
    const std::int32_t size =
        std::min(n - base, static_cast<std::int32_t>(block.size()));
    for (std::int32_t k = 0; k < size; ++k)
      gather(base + k, block[static_cast<std::size_t>(k)]);
    for (std::int32_t k = 0; k < size; ++k) {
      const std::int32_t pos = base + k;
      while (alive && stack.back().end <= pos) alive = close();
      if (!alive) break;
      if (guard != nullptr) guard->checkpoint();
      const Slot& slot = block[static_cast<std::size_t>(k)];
      if (!slot.client) {
        open(pos, slot);
        continue;
      }
      const std::size_t childBegin = streamer.top();
      step.seed(slot.input);
      step.fold(stack.back(), childBegin, slot.input);
      alive = streamer.top() != stack.back().accBegin;
    }
    base += size;
  }
  while (alive && !stack.empty()) alive = close();

  // The root frontier now occupies the whole slab; a zero-flow entry is
  // unique and last when present.
  StreamCountResult result;
  result.stats = streamer.stats();
  const std::size_t width = streamer.top();
  if (alive && width > 0 && streamer.flowAt(width - 1) == 0) {
    result.feasible = true;
    result.replicas = streamer.countAt(width - 1);
  }
  return result;
}

}  // namespace treeplace
