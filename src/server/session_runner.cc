#include "server/session_runner.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <shared_mutex>

#include "common/check.h"
#include "common/random.h"
#include "common/recorder.h"
#include "common/trace.h"
#include "geom/box.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "query/session.h"
#include "server/health.h"
#include "storage/prefetch.h"

namespace dqmo::server_internal {
namespace {

struct RouterMetrics {
  Histogram* fanout_width;
  Counter* frames_pruned;
  Counter* frames_partial;
  Counter* sessions;

  static RouterMetrics& Get() {
    static RouterMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return RouterMetrics{
          r.GetHistogram("dqmo_shard_fanout_width",
                         "Shards evaluated per sharded query frame"),
          r.GetCounter("dqmo_shard_frames_pruned_total",
                       "Shard evaluations skipped by a root-bounds prune"),
          r.GetCounter("dqmo_shard_frames_partial_total",
                       "Sharded frames whose merged answer was kPartial"),
          r.GetCounter("dqmo_shard_sessions_total",
                       "Sessions run through the shard router"),
      };
    }();
    return m;
  }
};

// ---------------------------------------------------------------------------
// Result checksums. FNV-1a over a canonical byte stream: frame index, then
// the frame's results sorted by key. Canonicalization makes the checksum a
// function of *what* was delivered, never of thread scheduling — and never
// of how many shards delivered it.

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FoldU64(uint64_t* h, uint64_t v) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(&v);
  for (size_t i = 0; i < sizeof(v); ++i) {
    *h ^= bytes[i];
    *h *= kFnvPrime;
  }
}

void FoldDouble(uint64_t* h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  FoldU64(h, bits);
}

void FoldKeySorted(uint64_t* h, const std::vector<MotionSegment>& sorted) {
  for (const MotionSegment& m : sorted) {
    FoldU64(h, m.oid);
    FoldDouble(h, m.seg.time.lo);
  }
}

void FoldSegments(uint64_t* h, std::vector<MotionSegment>* fresh) {
  SortByKey(fresh);
  FoldKeySorted(h, *fresh);
}

void FoldNeighbors(uint64_t* h, const std::vector<Neighbor>& neighbors) {
  for (const Neighbor& n : neighbors) {
    FoldU64(h, n.motion.oid);
    FoldDouble(h, n.distance);
  }
}

// ---------------------------------------------------------------------------
// Observer model: the same random-turn flight as bench/abl_session.cc's
// Pilot, parameterized by the bounce region so tests can confine sessions
// spatially. Driven entirely by the session's own Rng — deterministic, and
// independent of the index layout, so every target count replays the
// identical trajectory.

struct Observer {
  Vec pos;
  Vec vel;
  double next_turn = 0.0;

  void Advance(Rng* rng, const SessionSpec& spec, double t) {
    if (t >= next_turn) {
      const double angle = rng->Uniform(0, 2 * M_PI);
      const double speed = rng->Uniform(0.5, 2.0);
      vel = Vec(speed * std::cos(angle), speed * std::sin(angle));
      next_turn = t + rng->Uniform(0.5 * spec.mean_leg, 1.5 * spec.mean_leg);
    }
    for (int d = 0; d < 2; ++d) {
      pos[d] += vel[d] * spec.frame_dt;
      if (pos[d] < spec.region_lo || pos[d] > spec.region_hi) {
        vel[d] = -vel[d];
        pos[d] = std::clamp(pos[d], spec.region_lo, spec.region_hi);
      }
    }
  }
};

Observer MakeObserver(Rng* rng, const SessionSpec& spec) {
  // Start well inside the region so the first frames are not all bounces.
  const double margin = 0.1 * (spec.region_hi - spec.region_lo);
  Observer obs;
  obs.pos = Vec(rng->Uniform(spec.region_lo + margin, spec.region_hi - margin),
                rng->Uniform(spec.region_lo + margin, spec.region_hi - margin));
  obs.vel = Vec(1.0, 0.0);
  return obs;
}

/// Per-session glue between the spec's budget knobs, the overload
/// governor, and the engines: arms the budget each frame with
/// governor-scaled limits, decides shedding, and feeds frame latency back.
/// Inactive (no budget, no limits, no governor) it hands the engines a
/// null budget — the bit-identical pre-budget path.
///
/// One controller serves all of a session's targets: every target's
/// engine is handed the same budget pointer, so a frame's deadline and
/// node allowance are charged once across the whole fan-out.
class FrameController {
 public:
  FrameController(const SessionSpec& spec, OverloadGovernor* governor)
      : spec_(spec),
        governor_(governor),
        budget_(spec.budget != nullptr ? spec.budget : &local_),
        active_(spec.budget != nullptr || governor != nullptr ||
                spec.frame_deadline_us > 0 || spec.frame_node_budget > 0) {}

  /// What the engines see: null when the session runs unbudgeted.
  QueryBudget* engine_budget() { return active_ ? budget_ : nullptr; }

  bool cancelled() const { return active_ && budget_->cancel_requested(); }

  /// Arms the budget for the coming frame. True: the governor sheds this
  /// frame instead — skip it entirely.
  bool ShedOrArm() {
    if (!active_) return false;
    OverloadGovernor::Directive d;
    d.frame_deadline_ns = spec_.frame_deadline_us * 1000;
    d.node_budget = spec_.frame_node_budget;
    if (governor_ != nullptr) {
      d = governor_->FrameDirective(spec_.priority, d.frame_deadline_ns,
                                    d.node_budget);
    }
    horizon_scale_ = d.horizon_scale;
    if (d.shed_frame) {
      ExecMetrics::Get().frames_shed->Add();
      FlightRecorder::Record(FlightEventKind::kFrameShed, -1,
                             static_cast<uint64_t>(spec_.priority));
      return true;
    }
    budget_->ArmFrame(QueryBudget::Limits{d.frame_deadline_ns, d.node_budget});
    frame_start_ns_ = governor_ != nullptr ? NowNs() : 0;
    return false;
  }

  bool FrameDegraded() const { return active_ && budget_->stopped(); }

  /// Reports the completed frame's wall time to the governor. (Frame
  /// latency as a metric is dqmo_query_frame_ns, recorded for every frame
  /// by the loop's Tracer::FrameScope.)
  void EndFrame() {
    if (governor_ != nullptr) governor_->OnFrame(NowNs() - frame_start_ns_);
  }

  double horizon_scale() const { return horizon_scale_; }

 private:
  const SessionSpec& spec_;
  OverloadGovernor* governor_;
  QueryBudget local_;
  QueryBudget* budget_;
  bool active_;
  double horizon_scale_ = 1.0;
  uint64_t frame_start_ns_ = 0;
};

/// Measures one evaluated frame's wall time into
/// SessionResult::frame_latencies_us when the spec asks for it (the
/// sharding ablation's p99 source; off by default — no clock reads).
class FrameLatencyScope {
 public:
  FrameLatencyScope(const SessionSpec& spec, SessionResult* out)
      : out_(spec.record_frame_latency ? out : nullptr),
        start_ns_(out_ != nullptr ? NowNs() : 0) {}
  ~FrameLatencyScope() {
    if (out_ != nullptr) {
      out_->frame_latencies_us.push_back((NowNs() - start_ns_) / 1000);
    }
  }
  FrameLatencyScope(const FrameLatencyScope&) = delete;
  FrameLatencyScope& operator=(const FrameLatencyScope&) = delete;

 private:
  SessionResult* out_;
  uint64_t start_ns_;
};

/// Per-frame breaker bookkeeping of a routed session over failure-domain
/// shards; inert otherwise. StartFrame runs before any gate is held: it
/// advances each breaker's frame plane, drains the redo queue of every
/// shard whose reads will flow this frame (DrainRedo takes the exclusive
/// gate itself; no-op at depth zero), and records blocked / probe /
/// just-reinstated per shard.
struct BreakerFramePlane {
  std::vector<uint8_t> blocked;
  std::vector<uint8_t> probe;
  /// Blocked on the previous evaluated frame, flowing on this one — the
  /// resync boundary (NPDQ histories of such shards must be forgotten).
  std::vector<uint8_t> reinstated;
  bool any_blocked = false;
  ShardedEngine* engine;  // Null: inert.

  BreakerFramePlane(ShardedEngine* e, size_t n)
      : blocked(n),
        probe(n),
        reinstated(n),
        engine(e != nullptr && e->failure_domains() ? e : nullptr) {}

  void StartFrame() {
    if (engine == nullptr) return;
    any_blocked = false;
    for (int s = 0; s < engine->num_shards(); ++s) {
      const size_t si = static_cast<size_t>(s);
      CircuitBreaker* b = engine->breaker(s);
      if (b == nullptr) continue;
      const CircuitBreaker::FrameDecision d = b->OnFrameStart();
      bool now_blocked = d.blocked;
      probe[si] = d.probe ? 1 : 0;
      if (!now_blocked) {
        // Parked writes become visible before this frame reads. A failed
        // drain re-opened the breaker; treat the frame as blocked.
        Tracer::ShardScope drain_scope(s, SpanKind::kRedoDrain);
        now_blocked = !engine->DrainRedo(s).ok();
      }
      reinstated[si] = (blocked[si] != 0 && !now_blocked) ? 1 : 0;
      blocked[si] = now_blocked ? 1 : 0;
      any_blocked |= now_blocked;
    }
  }
};

// ---------------------------------------------------------------------------
// Per-kind evaluators.

/// How every query kind reads a target.
TraversalOptions TargetTraversal(const FrameTarget& target,
                                 QueryBudget* budget) {
  TraversalOptions o;
  o.reader = target.reader;
  o.budget = budget;
  o.prefetcher = target.prefetcher;
  // A budgeted frame must degrade (skip + kPartial), not fail. So must a
  // failure domain: a quarantined shard answers reads with IOError, and
  // skip-subtree turns that into an attributed kPartial frame instead of
  // killing the whole fan-out.
  if (budget != nullptr || target.breaker != nullptr) {
    o.fault_policy = FaultPolicy::kSkipSubtree;
  }
  return o;
}

/// One target's verdict for one frame.
struct TargetOutcome {
  bool evaluated = true;  // False: pruned without a read.
  bool partial = false;   // Some subtree was skipped.
  bool clean = true;      // No new skip this frame (the probe verdict).
  /// This frame's skips, folded into the target's session report; null
  /// when the evaluator reports lifetime skips at Finish instead.
  const SkipReport* skips = nullptr;
};

/// One query kind's per-frame work over a session's targets. Per evaluated
/// frame the loop calls Prepare before taking the gates, Order under them,
/// Evaluate for each target in that order, then Merge, Fold and EndFrame.
class Evaluator {
 public:
  Evaluator() = default;
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;
  virtual ~Evaluator() = default;
  virtual void ScaleHorizon(double /*scale*/) {}
  virtual void Prepare(double /*t*/, const Observer& /*obs*/,
                       const std::vector<uint8_t>& /*reinstated*/) {}
  /// Permutes `order` (every target index once) into this frame's visit
  /// order. The default keeps the order as it is: target index.
  virtual void Order(double /*t*/, const Observer& /*obs*/,
                     std::vector<size_t>* /*order*/) {}
  /// `may_prune` false: read target s even where a prune would skip it.
  virtual Status Evaluate(size_t s, double t, const Observer& obs,
                          bool may_prune, TargetOutcome* out) = 0;
  /// Fold of target s's own (pre-merge) answer, for FrameRecords.
  virtual uint64_t TargetChecksum(size_t s) const = 0;
  /// Completes the frame's answer from the targets' (kNN folds each one
  /// as it is evaluated); returns its size.
  virtual size_t Merge(uint64_t evaluated) = 0;
  virtual void Fold(uint64_t* h) = 0;
  /// Keys of the merged answer, for FrameRecords.
  virtual void MergedKeys(std::vector<MotionSegment::Key>* keys) const = 0;
  virtual void EndFrame(bool /*degraded*/) {}
  /// Fills the per-target cost (and lifetime skips, where kept).
  virtual void Finish(ShardedSessionResult* out) const = 0;
};

/// Delivery streams (PDQ/SPDQ sessions and NPDQ): the frame's answer is
/// the key-sorted, key-deduplicated union of the targets' deliveries.
class StreamEvaluator : public Evaluator {
 public:
  explicit StreamEvaluator(size_t n) : streams_(n) {}

  uint64_t TargetChecksum(size_t s) const override {
    // Copies — the stream still has to feed the merge.
    std::vector<MotionSegment> copy = streams_[s];
    uint64_t h = kFnvOffset;
    FoldSegments(&h, &copy);
    return h;
  }

  size_t Merge(uint64_t evaluated) override {
    Tracer::SpanScope merge_span(SpanKind::kMerge, evaluated);
    merged_ = MergeStreamsByKey(&streams_);
    return merged_.size();
  }

  void Fold(uint64_t* h) override { FoldKeySorted(h, merged_); }

  void MergedKeys(std::vector<MotionSegment::Key>* keys) const override {
    for (const MotionSegment& m : merged_) keys->push_back(m.key());
  }

 protected:
  std::vector<std::vector<MotionSegment>> streams_;
  std::vector<MotionSegment> merged_;
};

/// kSession: one DynamicQuerySession per target in lockstep. Session
/// decisions depend only on observer motion (src/query/session.h), so the
/// union of per-target deliveries equals the single-tree delivery.
class HandoffEvaluator : public StreamEvaluator {
 public:
  HandoffEvaluator(const SessionSpec& spec,
                   const std::vector<FrameTarget>& targets,
                   QueryBudget* budget)
      : StreamEvaluator(targets.size()) {
    for (const FrameTarget& target : targets) {
      DynamicQuerySession::Options sopt(TargetTraversal(target, budget));
      sopt.window = spec.window;
      base_horizon_ = sopt.prediction_horizon;
      sessions_.push_back(
          std::make_unique<DynamicQuerySession>(target.tree, sopt));
    }
  }

  void ScaleHorizon(double scale) override {
    for (auto& session : sessions_) {
      session->set_prediction_horizon(std::max(1e-3, base_horizon_ * scale));
    }
  }

  Status Evaluate(size_t s, double t, const Observer& obs, bool /*may_prune*/,
                  TargetOutcome* out) override {
    DynamicQuerySession& session = *sessions_[s];
    const uint64_t skips0 = session.skip_report().pages_skipped();
    auto frame = session.OnFrame(t, obs.pos, obs.vel);
    if (!frame.ok()) return frame.status();
    out->partial = frame->integrity == ResultIntegrity::kPartial;
    out->clean = session.skip_report().pages_skipped() == skips0;
    streams_[s] = std::move(frame->fresh);
    return Status::OK();
  }

  void Finish(ShardedSessionResult* out) const override {
    for (size_t s = 0; s < sessions_.size(); ++s) {
      out->shard_stats[s] = sessions_[s]->TotalStats();
      out->shard_skips[s].Merge(sessions_[s]->skip_report());
    }
  }

 private:
  std::vector<std::unique_ptr<DynamicQuerySession>> sessions_;
  double base_horizon_ = 0.0;
};

/// One target's root bounds (a cover of every stored match box), behind
/// both root-bounds prunes: NPDQ's window test and kNN's root distance.
/// Refreshed when the tree's update stamp moves (inserts; removals only
/// shrink bounds, so a stale cover stays conservative). Called under the
/// target's shared gate. Where the root cannot be read, neither prune
/// fires, so the traversal surfaces the error.
class RootBounds {
 public:
  /// True iff the tree provably contributes nothing to `q`: empty, or its
  /// root cover disjoint from q.
  bool Misses(const RTree& tree, const StBox& q) {
    if (tree.num_segments() == 0) return true;
    const StBox* root = Get(tree);
    return root != nullptr && !root->Overlaps(q);
  }

  /// Lower bound on the distance from `point` at `t` of every object the
  /// tree holds alive at t: +inf when it is empty or its root's time span
  /// misses t, 0 when the root cannot be read.
  double Distance(const RTree& tree, double t, const Vec& point) {
    if (tree.num_segments() == 0) return kInf;
    const StBox* root = Get(tree);
    if (root == nullptr) return 0.0;
    if (!root->time.Contains(t)) return kInf;
    return root->spatial.MinDistance(point);
  }

 private:
  const StBox* Get(const RTree& tree) {
    const UpdateStamp stamp = tree.stamp();
    if (!valid_ || stamp_ != stamp) {
      auto bounds = tree.RootBounds();
      if (!bounds.ok()) return nullptr;
      bounds_ = *bounds;
      stamp_ = stamp;
      valid_ = true;
    }
    return &bounds_;
  }

  UpdateStamp stamp_ = 0;
  bool valid_ = false;
  StBox bounds_;
};

/// kNpdq: the observer's window as a snapshot sequence, one
/// NonPredictiveDynamicQuery per target.
class NpdqEvaluator : public StreamEvaluator {
 public:
  NpdqEvaluator(const SessionSpec& spec,
                const std::vector<FrameTarget>& targets, QueryBudget* budget,
                bool prune)
      : StreamEvaluator(targets.size()),
        targets_(targets),
        window_(spec.window),
        prev_t_(spec.t0),
        prune_(prune),
        bounds_(targets.size()) {
    for (const FrameTarget& target : targets) {
      npdq_.push_back(std::make_unique<NonPredictiveDynamicQuery>(
          target.tree, NpdqOptions(TargetTraversal(target, budget))));
    }
  }

  void Prepare(double t, const Observer& obs,
               const std::vector<uint8_t>& reinstated) override {
    for (size_t s = 0; s < npdq_.size(); ++s) {
      // Quarantined frames left this shard's "previous" snapshots
      // incomplete; anything they masked must not stay lost. Forgetting
      // the history makes the first flowing frame a full re-delivery —
      // the resync after which the merged stream is byte-identical to a
      // never-faulted engine's.
      if (reinstated[s] != 0) npdq_[s]->ResetHistory();
    }
    // Shed frames never get here: the next snapshot covers their gap.
    q_ = StBox(Box::Centered(obs.pos, window_), Interval(prev_t_, t));
    prev_t_ = t;
  }

  Status Evaluate(size_t s, double /*t*/, const Observer& /*obs*/,
                  bool may_prune, TargetOutcome* out) override {
    NonPredictiveDynamicQuery& npdq = *npdq_[s];
    if (prune_ && may_prune && bounds_[s].Misses(*targets_[s].tree, q_)) {
      // The target provably matches nothing; install q as its previous
      // snapshot so later deltas stay exact (NoteSkippedSnapshot's
      // soundness note).
      npdq.NoteSkippedSnapshot(q_);
      streams_[s].clear();
      out->evaluated = false;
      return Status::OK();
    }
    auto fresh = npdq.Execute(q_);
    if (!fresh.ok()) return fresh.status();
    out->partial = npdq.integrity() == ResultIntegrity::kPartial;
    out->clean = npdq.skip_report().pages_skipped() == 0;
    out->skips = &npdq.skip_report();
    streams_[s] = std::move(*fresh);
    return Status::OK();
  }

  void EndFrame(bool degraded) override {
    // An incomplete snapshot must not mask later frames in any target
    // (Lemma 1 assumes "previous" retrieved everything); re-read fresh.
    if (!degraded) return;
    for (auto& npdq : npdq_) npdq->ResetHistory();
  }

  void Finish(ShardedSessionResult* out) const override {
    for (size_t s = 0; s < npdq_.size(); ++s) {
      out->shard_stats[s] = npdq_[s]->stats();
    }
  }

 private:
  const std::vector<FrameTarget>& targets_;
  double window_;
  double prev_t_;
  bool prune_;
  StBox q_;
  std::vector<RootBounds> bounds_;
  std::vector<std::unique_ptr<NonPredictiveDynamicQuery>> npdq_;
};

/// kKnn: one stateless KnnAt per target, bounded by the frame's running
/// answer, at every target count. Targets are visited in ascending root
/// distance at t, ties by index. Each search gets the running k-th
/// distance as its prune bound (+inf until k objects are known), and a
/// target whose root distance exceeds that bound is skipped unread.
///
/// Exact: the running k-th distance is that of k real objects, so it is
/// never below the true k-th distance. Neither prune drops an object at or
/// inside it (both tests are strict, so ties at the k-th distance
/// survive), and every true neighbour is among its own target's bounded
/// top-k by (distance, key). A degraded target still returns real objects
/// at correct distances, so it can only loosen the bound. No answer state
/// outlives a frame: a fence cache is unsound across shards (a segment
/// rollover that crosses a shard boundary makes an object appear in a
/// shard whose cache never saw it, with no distance constraint).
class KnnEvaluator : public Evaluator {
 public:
  KnnEvaluator(const SessionSpec& spec,
               const std::vector<FrameTarget>& targets, QueryBudget* budget)
      : spec_(spec),
        targets_(targets),
        budget_(budget),
        k_(static_cast<size_t>(spec.k)),
        bounds_(targets.size()),
        root_distance_(targets.size(), 0.0),
        skips_(targets.size()),
        stats_(targets.size()),
        answers_(targets.size()) {}

  void Prepare(double /*t*/, const Observer& /*obs*/,
               const std::vector<uint8_t>& /*reinstated*/) override {
    top_.clear();
  }

  void Order(double t, const Observer& obs,
             std::vector<size_t>* order) override {
    // One target: nothing to order, and its bound is +inf, so it is never
    // skipped and its root is never read.
    if (order->size() < 2) return;
    for (size_t s = 0; s < targets_.size(); ++s) {
      root_distance_[s] = bounds_[s].Distance(*targets_[s].tree, t, obs.pos);
    }
    std::sort(order->begin(), order->end(), [this](size_t a, size_t b) {
      if (root_distance_[a] != root_distance_[b]) {
        return root_distance_[a] < root_distance_[b];
      }
      return a < b;
    });
  }

  Status Evaluate(size_t s, double t, const Observer& obs, bool may_prune,
                  TargetOutcome* out) override {
    const double bound = top_.size() < k_ ? kInf : top_.back().distance;
    if (may_prune && root_distance_[s] > bound) {
      out->evaluated = false;
      return Status::OK();
    }
    KnnOptions kopt(TargetTraversal(targets_[s], budget_));
    skips_[s].Reset();
    kopt.skip_report = &skips_[s];
    kopt.prune_bound = bound;
    DQMO_ASSIGN_OR_RETURN(answers_[s], KnnAt(*targets_[s].tree, obs.pos, t,
                                             spec_.k, &stats_[s], kopt));
    out->skips = &skips_[s];
    out->partial = skips_[s].pages_skipped() > 0;
    out->clean = !out->partial;
    Tracer::SpanScope merge_span(SpanKind::kMerge, answers_[s].size());
    MergeNeighborsByDistance(&top_, answers_[s], k_);
    return Status::OK();
  }

  uint64_t TargetChecksum(size_t s) const override {
    uint64_t h = kFnvOffset;
    FoldNeighbors(&h, answers_[s]);
    return h;
  }

  size_t Merge(uint64_t /*evaluated*/) override { return top_.size(); }

  void Fold(uint64_t* h) override { FoldNeighbors(h, top_); }

  void MergedKeys(std::vector<MotionSegment::Key>* keys) const override {
    for (const Neighbor& n : top_) keys->push_back(n.motion.key());
  }

  void Finish(ShardedSessionResult* out) const override {
    for (size_t s = 0; s < stats_.size(); ++s) out->shard_stats[s] = stats_[s];
  }

 private:
  const SessionSpec& spec_;
  const std::vector<FrameTarget>& targets_;
  QueryBudget* budget_;
  size_t k_;
  std::vector<RootBounds> bounds_;
  /// This frame's root distances; 0 (read) until Order computes them.
  std::vector<double> root_distance_;
  std::vector<SkipReport> skips_;
  std::vector<QueryStats> stats_;
  /// Each evaluated target's own answer this frame.
  std::vector<std::vector<Neighbor>> answers_;
  /// The running answer: the k first by NeighborBefore of every answer
  /// folded so far this frame.
  std::vector<Neighbor> top_;
};

std::unique_ptr<Evaluator> MakeEvaluator(
    const SessionSpec& spec, const std::vector<FrameTarget>& targets,
    QueryBudget* budget, bool prune) {
  if (spec.kind == SessionKind::kNpdq) {
    return std::make_unique<NpdqEvaluator>(spec, targets, budget, prune);
  }
  if (spec.kind == SessionKind::kKnn) {
    return std::make_unique<KnnEvaluator>(spec, targets, budget);
  }
  return std::make_unique<HandoffEvaluator>(spec, targets, budget);
}

}  // namespace

ShardedSessionResult RunFrames(const SessionSpec& spec,
                               const std::vector<FrameTarget>& targets,
                               const ShardRouter::Options& options,
                               ShardedEngine* engine) {
  const uint64_t tick = TickNs();
  const bool routed = engine != nullptr;
  const size_t n = targets.size();
  ShardedSessionResult out;
  out.shard_stats.resize(n);
  out.shard_skips.resize(n);
  SessionResult& res = out.result;
  res.checksum = kFnvOffset;
  Rng rng(spec.seed);
  Observer obs = MakeObserver(&rng, spec);
  FrameController ctl(spec, options.governor);
  const std::unique_ptr<Evaluator> eval =
      MakeEvaluator(spec, targets, ctl.engine_budget(), options.spatial_prune);
  BreakerFramePlane plane(engine, n);
  // Per-frame buffers, reused by every frame.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(n);
  std::vector<size_t> order(n);
  for (size_t s = 0; s < n; ++s) order[s] = s;
  std::vector<uint64_t> target_checksums;

  for (int i = 1; i <= spec.frames; ++i) {
    const double t = spec.t0 + i * spec.frame_dt;
    obs.Advance(&rng, spec, t);
    if (options.frame_hook) options.frame_hook(i);
    if (ctl.cancelled()) break;
    if (ctl.ShedOrArm()) {
      ++res.frames_shed;
      // A shed frame voids its declared future: speculative reads hinted
      // for it would only land as wasted I/O.
      for (const FrameTarget& target : targets) {
        if (target.prefetcher != nullptr) target.prefetcher->CancelPending();
      }
      continue;  // The next frame's interval covers the gap.
    }
    eval->ScaleHorizon(ctl.horizon_scale());
    // The frame scope opens before breaker/redo work so the merged trace
    // captures redo drains and gate waits, not just evaluation.
    Tracer::FrameScope frame_scope(spec.seed, static_cast<uint64_t>(i));
    plane.StartFrame();
    eval->Prepare(t, obs, plane.reinstated);
    FrameLatencyScope latency(spec, &res);
    // Shared side of every gate, ascending. Writers hold a single gate at
    // a time, so the order cannot deadlock.
    for (size_t s = 0; s < n; ++s) {
      if (targets[s].gate == nullptr) continue;
      // Routed: the gate-wait span lands in this shard's trace subtree.
      std::optional<Tracer::ShardTag> tag;
      if (routed) tag.emplace(static_cast<int>(s));
      locks.push_back(targets[s].gate->LockShared());
    }

    bool partial = false;
    uint64_t evaluated = 0;
    if (options.record_frames) target_checksums.assign(n, kFnvOffset);
    eval->Order(t, obs, &order);
    for (size_t s : order) {
      std::optional<Tracer::ShardScope> shard_scope;
      if (routed) shard_scope.emplace(static_cast<int>(s));
      TargetOutcome o;
      // The breaker closes only on probe verdicts, and only an evaluated
      // target reports one: a probing target is never pruned.
      res.status = eval->Evaluate(s, t, obs, plane.probe[s] == 0, &o);
      if (!res.status.ok()) break;
      if (!o.evaluated) {
        ++out.shard_frames_pruned;
        RouterMetrics::Get().frames_pruned->Add();
        continue;
      }
      ++evaluated;
      partial |= o.partial;
      if (plane.probe[s] != 0) {
        // Probe verdict: the frame ran end to end without a single new
        // skip. One bad probe re-opens; a streak of good ones closes.
        targets[s].breaker->OnProbeOutcome(o.clean);
      }
      if (o.skips != nullptr) out.shard_skips[s].Merge(*o.skips);
      if (options.record_frames) target_checksums[s] = eval->TargetChecksum(s);
    }
    if (!res.status.ok()) break;
    if (routed) RouterMetrics::Get().fanout_width->Record(evaluated);
    const size_t delivered = eval->Merge(evaluated);
    FoldU64(&res.checksum, static_cast<uint64_t>(i));
    eval->Fold(&res.checksum);
    res.objects_delivered += delivered;
    ++res.frames_completed;
    if (partial) {
      ++out.frames_partial;
      if (routed) RouterMetrics::Get().frames_partial->Add();
    }
    if (plane.any_blocked) {
      ++out.frames_quarantined;
      HealthMetrics::Get().quarantined_frames->Add();
    }
    if (options.record_frames) {
      ShardedSessionResult::FrameRecord rec;
      rec.frame = i;
      rec.merged_checksum = kFnvOffset;
      FoldU64(&rec.merged_checksum, static_cast<uint64_t>(i));
      eval->Fold(&rec.merged_checksum);
      eval->MergedKeys(&rec.merged_keys);
      rec.partial = partial;
      rec.shard_checksums = target_checksums;
      rec.shard_blocked = plane.blocked;
      out.frames.push_back(std::move(rec));
    }
    const bool degraded = ctl.FrameDegraded();
    if (degraded) ++res.frames_degraded;
    eval->EndFrame(degraded);
    ctl.EndFrame();
    locks.clear();
  }
  locks.clear();  // A failed frame leaves the loop holding its gates.
  if (ctl.cancelled()) {
    res.outcome = SessionResult::Outcome::kCancelled;
    ExecMetrics::Get().sessions_cancelled->Add();
  }
  eval->Finish(&out);
  for (const QueryStats& stats : out.shard_stats) res.stats += stats;

  ExecMetrics& em = ExecMetrics::Get();
  em.session_ns->RecordSince(tick);
  em.sessions->Add();
  em.session_objects->Add(res.objects_delivered);
  if (routed) RouterMetrics::Get().sessions->Add();
  return out;
}

}  // namespace dqmo::server_internal
