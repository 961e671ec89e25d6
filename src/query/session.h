// DynamicQuerySession: automated PDQ <-> NPDQ hand-off (the paper's
// future-work item (iv): "find automated ways to handle the PDQ <-> NPDQ
// hand-off" and (Sect. 4) the three operating modes — Snapshot, Predictive,
// Non-Predictive — of a system using dynamic queries).
//
// The session consumes the observer's state (position, velocity) once per
// frame and decides how to evaluate the frame:
//
//  * Predictive: while the observer stays within `deviation_bound` of a
//    constant-velocity prediction, frames are served by an SPDQ — a PDQ
//    over the predicted trajectory with windows inflated by the bound
//    (Sect. 4's Semi-Predictive Dynamic Query).
//  * Non-predictive: when the observer deviates (interaction, teleports),
//    the session falls back to NPDQ and keeps watching the motion; after
//    `stable_frames_to_predict` consecutive frames consistent with a
//    constant-velocity fit, it refits a prediction and hands back.
//
// Delivery contract: within one mode, each object is delivered at most
// once; a hand-off may re-deliver objects the client already caches (the
// disappearance-time cache absorbs duplicates). No visible object is ever
// missed. SPDQ frames may deliver a superset of the exact view (the
// inflated window), exactly as Sect. 4 describes.
//
// Sharded lockstep contract (server/router.h): the sharded engine runs one
// DynamicQuerySession per shard, all fed the identical observer state each
// frame. Every decision a session makes — hand-off, refit, horizon renewal
// — depends only on the observer's motion, never on what the frame
// delivered, so N lockstep sessions stay in the same mode on the same
// frames and their per-frame streams union (key-sorted, deduplicated) to
// exactly the single-tree session's stream. Keep it that way:
// a future heuristic that consults delivered results would silently break
// the router's exactness argument.
#ifndef DQMO_QUERY_SESSION_H_
#define DQMO_QUERY_SESSION_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "geom/trajectory.h"
#include "query/npdq.h"
#include "query/pdq.h"
#include "query/traversal.h"
#include "rtree/rtree.h"

namespace dqmo {

/// Orchestrates dynamic-query evaluation for one observer.
class DynamicQuerySession {
 public:
  /// The inherited TraversalOptions (query/traversal.h) are the one read
  /// contract of both engines: the SPDQ and the NPDQ fallback read through
  /// the same reader, fault policy, budget and prefetcher, so a hand-off
  /// only changes which engine is reading.
  ///
  /// Under kSkipSubtree a frame served from a degraded traversal is
  /// flagged FrameResult::integrity == kPartial, and a degraded
  /// *predictive* frame additionally hands the session off to NPDQ: the
  /// PDQ reads every node once, so a subtree it skipped is lost for its
  /// whole remaining run, while NPDQ re-reads per snapshot and recovers as
  /// soon as the fault clears. The caller arms the budget before each
  /// OnFrame; a budget-stopped frame is served kPartial the same way and,
  /// like any degraded frame, never poisons future completeness: a
  /// degraded predictive frame hands off to NPDQ, a degraded NPDQ frame
  /// resets the snapshot history. The NPDQ fallback runs the paper's
  /// configuration (NpdqOptions defaults).
  struct Options : TraversalOptions {
    Options() = default;
    explicit Options(const TraversalOptions& traversal)
        : TraversalOptions(traversal) {}

    /// Side length of the (square) view window around the observer.
    double window = 8.0;
    /// Maximum tolerated deviation from the predicted path before handing
    /// off to NPDQ; also the SPDQ window inflation.
    double deviation_bound = 1.0;
    /// How far ahead (time units) each predictive trajectory extends; the
    /// PDQ is renewed when the prediction horizon is exhausted.
    double prediction_horizon = 5.0;
    /// Consecutive in-bound frames required before handing back to PDQ.
    int stable_frames_to_predict = 5;
  };

  enum class Mode { kPredictive, kNonPredictive };

  struct FrameResult {
    /// Objects delivered this frame (new to the current mode's run).
    std::vector<MotionSegment> fresh;
    /// The mode that served this frame.
    Mode mode = Mode::kNonPredictive;
    /// True if this frame triggered a mode change.
    bool handoff = false;
    /// kPartial when this frame's traversal skipped unreadable subtrees
    /// (only possible under FaultPolicy::kSkipSubtree); `fresh` may then
    /// miss visible objects.
    ResultIntegrity integrity = ResultIntegrity::kComplete;
  };

  struct SessionStats {
    uint64_t predictive_frames = 0;
    uint64_t non_predictive_frames = 0;
    uint64_t handoffs_to_npdq = 0;
    uint64_t handoffs_to_pdq = 0;
    uint64_t pdq_renewals = 0;  // Prediction horizon exhausted, refit.
    uint64_t degraded_frames = 0;  // Frames answered kPartial.
    /// PDQ -> NPDQ handoffs forced by a degraded predictive traversal
    /// (subset of handoffs_to_npdq).
    uint64_t degraded_fallbacks = 0;
  };

  /// `tree` must outlive the session.
  DynamicQuerySession(RTree* tree, const Options& options);

  /// Reports the observer's state at time `t` (strictly increasing) and
  /// evaluates the frame covering [previous t, t].
  Result<FrameResult> OnFrame(double t, const Vec& position,
                              const Vec& velocity);

  Mode mode() const { return mode_; }
  const SessionStats& session_stats() const { return session_stats_; }

  /// Adjusts the prediction horizon used by future predictive (re)fits —
  /// the overload governor shrinks it under load so each SPDQ covers less
  /// future and enqueues fewer subtrees. Takes effect at the next
  /// StartPredictive; a running SPDQ is not rebuilt.
  void set_prediction_horizon(double horizon);

  /// Every subtree skipped over the session's lifetime (both engines).
  const SkipReport& skip_report() const { return skip_report_; }

  /// Combined query-processing cost across both engines.
  QueryStats TotalStats() const;

 private:
  /// (Re)builds the SPDQ from a constant-velocity prediction anchored at
  /// (t, position, velocity).
  Status StartPredictive(double t, const Vec& position, const Vec& velocity);

  /// Serves a frame through the NPDQ fallback.
  Result<std::vector<MotionSegment>> NpdqFrame(double t0, double t1,
                                               const Vec& position);

  Vec PredictedAt(double t) const;

  RTree* tree_;
  Options options_;
  Mode mode_ = Mode::kNonPredictive;
  double last_t_ = -kInf;

  // Predictive state.
  std::unique_ptr<PredictiveDynamicQuery> spdq_;
  /// Prefix of spdq_'s (accumulating) skip report already folded into
  /// skip_report_; reset whenever a new SPDQ is built.
  size_t spdq_skips_merged_ = 0;
  double prediction_t0_ = 0.0;
  Vec prediction_origin_;
  Vec prediction_velocity_;
  double prediction_end_ = 0.0;

  // Non-predictive state.
  NonPredictiveDynamicQuery npdq_;
  int stable_streak_ = 0;
  std::optional<std::pair<double, Vec>> streak_anchor_;  // (t, position).
  Vec last_velocity_;

  SessionStats session_stats_;
  QueryStats retired_pdq_stats_;  // Stats of finished PDQ instances.
  SkipReport skip_report_;        // Session-lifetime accumulation.
};

}  // namespace dqmo

#endif  // DQMO_QUERY_SESSION_H_
