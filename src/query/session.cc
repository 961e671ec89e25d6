#include "query/session.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

/// Hand-off session health: how often sessions fall back to NPDQ and how
/// often frames are served degraded (partial answers under faults).
struct SessionMetrics {
  Counter* handoffs_to_npdq;
  Counter* handoffs_to_pdq;
  Counter* degraded_frames;

  static SessionMetrics& Get() {
    static SessionMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return SessionMetrics{
          r.GetCounter("dqmo_session_handoffs_to_npdq_total",
                       "PDQ -> NPDQ hand-offs (deviation or degradation)"),
          r.GetCounter("dqmo_session_handoffs_to_pdq_total",
                       "NPDQ -> PDQ hand-offs (stable streak reached)"),
          r.GetCounter("dqmo_session_degraded_frames_total",
                       "Frames answered partial under storage faults"),
      };
    }();
    return m;
  }
};

}  // namespace

DynamicQuerySession::DynamicQuerySession(RTree* tree, const Options& options)
    : tree_(tree),
      options_(options),
      npdq_(tree, NpdqOptions(options)),
      last_velocity_(tree->dims()) {
  DQMO_CHECK(tree != nullptr);
  DQMO_CHECK(options.window > 0.0);
  DQMO_CHECK(options.deviation_bound > 0.0);
  DQMO_CHECK(options.prediction_horizon > 0.0);
  DQMO_CHECK(options.stable_frames_to_predict >= 1);
  prediction_origin_ = Vec(tree->dims());
  prediction_velocity_ = Vec(tree->dims());
}

Vec DynamicQuerySession::PredictedAt(double t) const {
  return prediction_origin_ + prediction_velocity_ * (t - prediction_t0_);
}

Status DynamicQuerySession::StartPredictive(double t, const Vec& position,
                                            const Vec& velocity) {
  if (spdq_ != nullptr) {
    retired_pdq_stats_ += spdq_->stats();
    skip_report_.MergeTail(spdq_->skip_report(), spdq_skips_merged_);
  }
  spdq_skips_merged_ = 0;
  prediction_t0_ = t;
  prediction_origin_ = position;
  prediction_velocity_ = velocity;
  prediction_end_ = t + options_.prediction_horizon;
  // SPDQ trajectory: the predicted straight-line path with windows inflated
  // by the deviation bound, so the true observer is covered while within
  // bound of the prediction.
  const double side = options_.window + 2.0 * options_.deviation_bound;
  std::vector<KeySnapshot> keys;
  keys.emplace_back(t, Box::Centered(position, side));
  keys.emplace_back(
      prediction_end_,
      Box::Centered(position + velocity * options_.prediction_horizon,
                    side));
  DQMO_ASSIGN_OR_RETURN(QueryTrajectory trajectory,
                        QueryTrajectory::Make(std::move(keys)));
  PredictiveDynamicQuery::Options pdq_options(options_);
  pdq_options.track_updates = true;  // Stay correct under live insertions.
  DQMO_ASSIGN_OR_RETURN(
      spdq_, PredictiveDynamicQuery::Make(tree_, std::move(trajectory),
                                          pdq_options));
  return Status::OK();
}

Result<std::vector<MotionSegment>> DynamicQuerySession::NpdqFrame(
    double t0, double t1, const Vec& position) {
  const StBox q(Box::Centered(position, options_.window),
                Interval(t0, t1));
  return npdq_.Execute(q);
}

Result<DynamicQuerySession::FrameResult> DynamicQuerySession::OnFrame(
    double t, const Vec& position, const Vec& velocity) {
  if (position.dims != tree_->dims() || velocity.dims != tree_->dims()) {
    return Status::InvalidArgument("observer state dims mismatch");
  }
  if (t <= last_t_) {
    return Status::InvalidArgument("frames must advance strictly in time");
  }
  const double t0 = last_t_ == -kInf ? t : last_t_;
  last_t_ = t;

  FrameResult result;

  if (mode_ == Mode::kPredictive) {
    const double deviation = position.DistanceTo(PredictedAt(t));
    if (deviation <= options_.deviation_bound) {
      if (t > prediction_end_) {
        // Prediction horizon exhausted while still on course: refit and
        // continue predictively.
        DQMO_RETURN_IF_ERROR(StartPredictive(t, position, velocity));
        ++session_stats_.pdq_renewals;
      }
      DQMO_ASSIGN_OR_RETURN(std::vector<PdqResult> frame,
                            spdq_->Frame(t0, t));
      result.fresh.reserve(frame.size());
      for (PdqResult& r : frame) result.fresh.push_back(std::move(r.motion));
      result.mode = Mode::kPredictive;
      ++session_stats_.predictive_frames;
      const size_t spdq_skips = spdq_->skip_report().skipped_pages().size();
      if (spdq_skips == spdq_skips_merged_) return result;

      // Degraded traversal: deliver what was found, flagged partial, and
      // fall back to NPDQ. The PDQ reads each node once, so a subtree it
      // skipped would stay lost for its whole remaining run; NPDQ re-reads
      // every snapshot and recovers the moment the fault clears.
      skip_report_.MergeTail(spdq_->skip_report(), spdq_skips_merged_);
      spdq_skips_merged_ = spdq_skips;
      result.integrity = ResultIntegrity::kPartial;
      ++session_stats_.degraded_frames;
      SessionMetrics::Get().degraded_frames->Add();
      mode_ = Mode::kNonPredictive;
      npdq_.ResetHistory();
      stable_streak_ = 0;
      streak_anchor_.reset();
      ++session_stats_.handoffs_to_npdq;
      SessionMetrics::Get().handoffs_to_npdq->Add();
      ++session_stats_.degraded_fallbacks;
      result.handoff = true;
      return result;
    }
    // Deviated beyond the bound: hand off to NPDQ. The previous NPDQ
    // history (if any) predates the PDQ run, so it must be forgotten.
    mode_ = Mode::kNonPredictive;
    npdq_.ResetHistory();
    stable_streak_ = 0;
    streak_anchor_.reset();
    ++session_stats_.handoffs_to_npdq;
    SessionMetrics::Get().handoffs_to_npdq->Add();
    result.handoff = true;
  }

  // Non-predictive service.
  DQMO_ASSIGN_OR_RETURN(result.fresh, NpdqFrame(t0, t, position));
  result.mode = Mode::kNonPredictive;
  ++session_stats_.non_predictive_frames;
  if (npdq_.skip_report().pages_skipped() > 0) {
    skip_report_.Merge(npdq_.skip_report());
    result.integrity = ResultIntegrity::kPartial;
    ++session_stats_.degraded_frames;
    SessionMetrics::Get().degraded_frames->Add();
    // A degraded snapshot must not become future frames' "previous": NPDQ
    // sequence semantics would mask everything the incomplete snapshot
    // *should* have retrieved ("anything lost stays lost", npdq.h). Forget
    // it, so the next frame is a fresh snapshot and recovers every visible
    // object the moment the fault (or the budget squeeze) clears. The cost
    // is re-delivery of cached objects, which the client cache absorbs —
    // the same contract as a hand-off.
    npdq_.ResetHistory();
  }

  // Stability watch: hand back to PDQ after enough frames consistent with
  // a constant-velocity extrapolation from the streak anchor.
  bool consistent = false;
  if (streak_anchor_.has_value()) {
    const Vec extrapolated =
        streak_anchor_->second +
        last_velocity_ * (t - streak_anchor_->first);
    consistent =
        position.DistanceTo(extrapolated) <= options_.deviation_bound;
  }
  if (consistent) {
    ++stable_streak_;
  } else {
    streak_anchor_ = std::make_pair(t, position);
    last_velocity_ = velocity;
    stable_streak_ = 0;
  }
  if (stable_streak_ >= options_.stable_frames_to_predict) {
    DQMO_RETURN_IF_ERROR(StartPredictive(t, position, velocity));
    mode_ = Mode::kPredictive;
    stable_streak_ = 0;
    streak_anchor_.reset();
    ++session_stats_.handoffs_to_pdq;
    SessionMetrics::Get().handoffs_to_pdq->Add();
    result.handoff = true;
  }
  return result;
}

void DynamicQuerySession::set_prediction_horizon(double horizon) {
  DQMO_CHECK(horizon > 0.0);
  options_.prediction_horizon = horizon;
}

QueryStats DynamicQuerySession::TotalStats() const {
  QueryStats total = retired_pdq_stats_;
  if (spdq_ != nullptr) total += spdq_->stats();
  total += npdq_.stats();
  return total;
}

}  // namespace dqmo
