// Predictive Dynamic Query processing (Sect. 4.1 of the paper).
//
// A PDQ is associated with a known query trajectory (key snapshots). One
// priority-queue traversal of the R-tree, ordered by the time each index
// entry *enters* the moving query window, serves every frame of the dynamic
// query incrementally: each node is read at most once for the whole query,
// independent of the frame rate, and each object is returned exactly once,
// together with the time set during which it stays in view (so the client
// cache can evict it at its disappearance time).
#ifndef DQMO_QUERY_PDQ_H_
#define DQMO_QUERY_PDQ_H_

#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "geom/trajectory.h"
#include "motion/motion_segment.h"
#include "query/budget.h"
#include "query/kernels.h"
#include "rtree/rtree.h"
#include "rtree/stats.h"

namespace dqmo {

class Prefetcher;

/// One retrieved object plus the exact times it is inside the moving window.
struct PdqResult {
  MotionSegment motion;
  TimeSet visible_times;
};

/// Priority-queue evaluator for predictive dynamic queries.
///
/// Not thread-safe; one instance per running dynamic query, exactly like
/// the per-query priority queue of the paper.
class PredictiveDynamicQuery : public UpdateListener {
 public:
  /// How the processor reacts when an insertion creates new index nodes
  /// (Sect. 4.1, Update Management).
  enum class UpdatePolicy {
    /// Push the lowest-common-ancestor entry of the new nodes into the
    /// queue; duplicates are eliminated when popped (the paper's default).
    kLcaInsert,
    /// Empty the queue and rebuild from the root (the paper's alternative
    /// for splits near the root). Already-returned objects stay suppressed;
    /// node re-reads are re-charged, which is the cost this policy trades.
    kRebuild,
  };

  struct Options {
    /// Page source for reads; nullptr uses the tree's backing file.
    PageReader* reader = nullptr;
    /// Subscribe to concurrent insertions. When false the query assumes a
    /// static (historical) database, the common case in the paper.
    bool track_updates = false;
    UpdatePolicy update_policy = UpdatePolicy::kLcaInsert;
    /// With kLcaInsert: if the reported subtree's level is >= this value,
    /// fall back to a rebuild anyway ("if the lowest common ancestor ... is
    /// close to the root, it is better to empty the priority queues").
    /// Default never triggers.
    int rebuild_level_threshold = 1 << 20;
    /// Reaction to unreadable nodes (rtree/fault_policy.h). Under
    /// kSkipSubtree an unexplorable subtree is dropped from the queue and
    /// recorded in skip_report(); results become a subset of the fault-free
    /// answer and integrity() flips to kPartial.
    FaultPolicy fault_policy = FaultPolicy::kFailFast;
    /// kSoa explores nodes through the decoded-node cache and the batch
    /// kernels (query/kernels.h); kLegacyAos keeps the original per-entry
    /// path. Results and counters are bit-identical either way.
    HotPath hot_path = HotPath::kSoa;
    /// Per-frame work budget + cancellation (query/budget.h); not owned,
    /// may be null (unbudgeted — the bit-identical default). One node
    /// charge per queue pop of a node item; a failed charge requeues the
    /// node for a later frame, records it in skip_report(), and ends the
    /// frame degraded (kPartial) with the results found so far.
    QueryBudget* budget = nullptr;
    /// Speculative read driver (storage/prefetch.h); not owned, may be null
    /// (no speculation — the bit-identical default). The priority queue IS
    /// the declared future: before exploring a popped node the query peeks
    /// the heap's front region and hints the node pages most imminent to
    /// pop, so their disk reads land while this node's entries are being
    /// decoded and filtered. Results and node-level counters are unchanged;
    /// only prefetch_* IoStats counters move. With a `budget`, a stopped
    /// or cancelled frame issues no more speculation.
    Prefetcher* prefetcher = nullptr;
  };

  /// Creates the processor. `tree` must outlive it. `trajectory` dims must
  /// match the tree's.
  static Result<std::unique_ptr<PredictiveDynamicQuery>> Make(
      RTree* tree, QueryTrajectory trajectory, const Options& options);

  /// Creates the processor with default options (static database reads).
  static Result<std::unique_ptr<PredictiveDynamicQuery>> Make(
      RTree* tree, QueryTrajectory trajectory);

  ~PredictiveDynamicQuery() override;

  PredictiveDynamicQuery(const PredictiveDynamicQuery&) = delete;
  PredictiveDynamicQuery& operator=(const PredictiveDynamicQuery&) = delete;

  /// The paper's getNext(t_start, t_end): returns the next object that is
  /// inside the moving window at some instant of [t_start, t_end] and has
  /// not been returned before, or nullopt when no (more) such object exists
  /// yet. Frames must advance monotonically: t_start must be >= the
  /// t_start of every previous call.
  Result<std::optional<PdqResult>> GetNext(double t_start, double t_end);

  /// Drains GetNext for one frame interval: all newly visible objects in
  /// [t_start, t_end].
  Result<std::vector<PdqResult>> Frame(double t_start, double t_end);

  const QueryTrajectory& trajectory() const { return trajectory_; }
  const QueryStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Subtrees skipped so far (only populated under kSkipSubtree);
  /// accumulates over the whole life of the query.
  const SkipReport& skip_report() const { return skip_report_; }
  /// kPartial once any subtree was skipped.
  ResultIntegrity integrity() const { return skip_report_.integrity(); }

  // UpdateListener interface (invoked by the tree when track_updates).
  void OnObjectInserted(const MotionSegment& m) override;
  void OnSubtreeCreated(const ChildEntry& subtree, int level) override;
  void OnRootSplit(PageId new_root) override;

 private:
  PredictiveDynamicQuery(RTree* tree, QueryTrajectory trajectory,
                         const Options& options);

  struct Item {
    double priority = 0.0;  // Earliest remaining time the item is in view.
    bool is_object = false;
    PageId page = kInvalidPageId;  // When !is_object.
    StBox bounds;  // When !is_object: parent-entry box (empty for root).
    MotionSegment motion;          // When is_object.
    TimeSet times;
  };

  struct ItemCompare {
    bool operator()(const Item& a, const Item& b) const {
      return a.priority > b.priority;  // Min-heap on priority.
    }
  };

  /// Min-heap with a window onto its backing array: raw()[0] is the top and
  /// the heap-property prefix around it holds the most-imminent items —
  /// exactly the pages worth speculating on. Read-only access; the heap
  /// invariant is never touched.
  struct PeekQueue
      : std::priority_queue<Item, std::vector<Item>, ItemCompare> {
    const std::vector<Item>& raw() const { return c; }
  };

  void PushNodeItem(PageId page, const StBox& bounds, TimeSet times,
                    double not_before);
  void PushObjectItem(const MotionSegment& m, TimeSet times,
                      double not_before);
  /// Hints the prefetcher with the node pages in the heap's front region
  /// (no-op without a prefetcher). Called after a node pop, before its
  /// exploration, so speculative reads overlap the node's CPU work.
  void HintPrefetch();
  void RebuildFromRoot();
  Status Explore(const Item& node_item, double t_start);
  Status ExploreLegacy(const Item& node_item, double t_start);

  /// Identity of a popped item, recorded for duplicate elimination without
  /// copying the item's TimeSet/MotionSegment payload.
  struct DedupKey {
    bool is_object = false;
    PageId page = kInvalidPageId;
    MotionSegment::Key key{0, 0.0};

    bool Matches(const Item& item) const {
      if (is_object != item.is_object) return false;
      if (is_object) return key == item.motion.key();
      return page == item.page;
    }
  };

  /// Pop-side duplicate elimination (footnote 2 of the paper): identities
  /// popped at the current priority value.
  bool IsDuplicate(const Item& item);

  RTree* tree_;
  QueryTrajectory trajectory_;
  Options options_;
  TrajectoryCoeffs coeffs_;
  PeekQueue queue_;
  // Objects already returned; guards exactly-once delivery across update
  // notifications and queue rebuilds.
  std::unordered_set<MotionSegment::Key, MotionKeyHash> returned_;
  std::vector<DedupKey> dedup_window_;
  // Kernel output TimeSets, reused across Explore calls so the hot path
  // performs no per-node allocation once capacities have warmed up.
  std::vector<TimeSet> overlap_scratch_;
  // Page ids collected by HintPrefetch, reused across calls.
  std::vector<PageId> hint_scratch_;
  double dedup_priority_ = -kInf;
  double last_t_start_;
  bool attached_ = false;
  QueryStats stats_;
  SkipReport skip_report_;
};

}  // namespace dqmo

#endif  // DQMO_QUERY_PDQ_H_
