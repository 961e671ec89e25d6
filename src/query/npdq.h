// Non-Predictive Dynamic Query processing (Sect. 4.2 of the paper).
//
// The trajectory is unknown; each snapshot query Q is evaluated against the
// index, but the processor remembers the previous snapshot P and skips
// ("discards") any subtree R whose Q-relevant contents were already
// retrieved by P — Lemma 1: R is discardable iff (Q ∩ R) ⊆ P, evaluated
// under double temporal axes (motion start- and end-times as independent
// dimensions, Fig. 5(b)) so that temporally-disjoint consecutive snapshots
// still prune. Only objects not retrieved by P are returned.
//
// Update management uses per-node timestamps: every insertion stamps the
// nodes along its path, and a node whose stamp is newer than P's execution
// disables discardability (and the returned-by-P skip) beneath it. Node
// reads follow the read contract every engine shares (query/traversal.h).
#ifndef DQMO_QUERY_NPDQ_H_
#define DQMO_QUERY_NPDQ_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "geom/box.h"
#include "motion/motion_segment.h"
#include "query/budget.h"
#include "query/traversal.h"
#include "rtree/node_soa.h"
#include "rtree/rtree.h"
#include "rtree/stats.h"

namespace dqmo {

/// How a motion segment is tested against a query box at the leaf level.
///
/// The two semantics pair with the two spatial pruning rules below; see the
/// soundness note on NpdqOptions.
enum class LeafSemantics {
  /// A segment matches iff its bounding box overlaps the query (the
  /// pre-optimization NSI semantics). May admit segments whose exact
  /// trajectory misses the query.
  kBoundingBox,
  /// A segment matches iff its exact space-time line intersects the query
  /// (the Sect. 3.2 optimization).
  kExact,
};

/// Spatial part of the discardability test for a subtree R.
enum class SpatialPruning {
  /// Paper's Lemma 1: (Q ∩ R).spatial ⊆ P.spatial.
  kIntersectionContained,
  /// Stricter: R.spatial ⊆ P.spatial.
  kNodeContained,
};

/// Options for NPDQ evaluation.
///
/// Soundness: Lemma 1 guarantees "everything in Q ∩ R was retrieved by P"
/// under *bounding-box* leaf semantics. Under exact-segment semantics a
/// discarded subtree can contain a fast mover that only enters P's spatial
/// window after P's time window closed — its BB intersects P but its exact
/// trajectory does not, so an exact P never returned it. The sound pairings
/// are therefore (kBoundingBox, kIntersectionContained) — the paper's
/// configuration, our default — and (kExact, kNodeContained). The tests
/// verify completeness of both; abl_discardability measures the unsound
/// pairing's miss rate alongside the pruning rates.
///
/// Node reads follow the inherited TraversalOptions (query/traversal.h).
/// Under kSkipSubtree each Execute completes over the readable tree and
/// reports the skips through skip_report(). A skip degrades the whole
/// *sequence*: the snapshot becomes this-and-future queries' "previous"
/// despite missing objects, so anything lost stays lost. The budget is
/// charged once per node visit; a refused charge prunes the subtree. So
/// callers pairing a budget or kSkipSubtree with a sequence should
/// ResetHistory() after a degraded Execute (DynamicQuerySession does).
/// NPDQ's declared future is its recursion frontier: after classifying a
/// node's children, the surviving siblings beyond the first are hinted
/// before recursing into the first, so their disk reads land while its
/// subtree is walked.
struct NpdqOptions : TraversalOptions {
  NpdqOptions() = default;
  explicit NpdqOptions(const TraversalOptions& traversal)
      : TraversalOptions(traversal) {}

  LeafSemantics leaf_semantics = LeafSemantics::kBoundingBox;
  SpatialPruning spatial_pruning = SpatialPruning::kIntersectionContained;
  /// Disables all use of the previous query (the processor degenerates to
  /// independent snapshot evaluation; used for baseline comparisons).
  bool use_previous = true;
};

/// True iff subtree entry `r` is discardable for current query `q` given
/// previous query `p` (Lemma 1 under double temporal axes). The scalar
/// reference for NpdqClassifyBatch (query/kernels.h); kernels_test
/// compares the two entry by entry.
bool Discardable(const StBox& p, const StBox& q, const ChildEntry& r,
                 SpatialPruning pruning);

/// Sequential evaluator for non-predictive dynamic queries. Not
/// thread-safe; one instance per running dynamic query.
class NonPredictiveDynamicQuery {
 public:
  /// `tree` must outlive the query processor.
  NonPredictiveDynamicQuery(RTree* tree, const NpdqOptions& options = {});

  /// Evaluates the next snapshot of the dynamic query: returns all motion
  /// segments that satisfy `q` and were *not* retrieved by the previous
  /// snapshot (the first call behaves as a plain snapshot query). Queries
  /// must advance in time: q.time.lo must be >= the previous q.time.lo.
  Result<std::vector<MotionSegment>> Execute(const StBox& q);

  /// Forgets the previous snapshot (e.g. after the observer teleports);
  /// the next Execute behaves as a first query.
  void ResetHistory();

  /// Records `q` as the previous snapshot *without* evaluating it — for a
  /// caller that proved q matches nothing in this tree (the sharded router
  /// skips shards whose root bounds miss q). Sound exactly under that
  /// proof: an empty answer set makes "retrieved by P" trivially empty, so
  /// installing q as P (with the current tree stamp, as Execute would)
  /// leaves every later delta identical to having executed q. Without the
  /// prev update a skipped snapshot would be silently wrong: a segment
  /// matching q_{i-1} and q_{i+1} but not q_i must still be suppressed in
  /// frame i+1.
  void NoteSkippedSnapshot(const StBox& q);

  const QueryStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Subtrees skipped by the most recent Execute (reset at each call).
  const SkipReport& skip_report() const { return skip_report_; }
  /// Integrity of the most recent Execute's answer.
  ResultIntegrity integrity() const { return skip_report_.integrity(); }

  /// The previous snapshot box, if any (for tests).
  const std::optional<StBox>& previous() const { return prev_; }

 private:
  Status Visit(PageId pid, const StBox& entry_bounds, const StBox& q,
               int depth, std::vector<MotionSegment>* out);

  RTree* tree_;
  NpdqOptions options_;
  std::optional<StBox> prev_;
  // One classification buffer per recursion depth, reused across Execute
  // calls so the hot path performs no per-node allocation once warm.
  std::vector<std::vector<uint8_t>> cls_pool_;
  // Leaf emission flags, reused across leaves (leaf visits never recurse,
  // so unlike cls_pool_ one buffer serves every depth).
  std::vector<uint8_t> leaf_match_;
  // Frontier pages collected for the visitor's Hint; safe to share across
  // recursion depths because the hint is issued before recursing.
  std::vector<PageId> hint_scratch_;
  UpdateStamp prev_stamp_ = 0;  // Tree stamp when prev_ was executed.
  QueryStats stats_;
  SkipReport skip_report_;
  NodeVisitor visitor_;  // Reads through options_, charges the two above.
};

}  // namespace dqmo

#endif  // DQMO_QUERY_NPDQ_H_
