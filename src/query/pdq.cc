#include "query/pdq.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace dqmo {
namespace {

/// Per-frame traversal shape of the PDQ hot path.
struct PdqMetrics {
  Histogram* queue_depth;
  Histogram* nodes_per_frame;
  Histogram* results_per_frame;

  static PdqMetrics& Get() {
    static PdqMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return PdqMetrics{
          r.GetHistogram("dqmo_pdq_queue_depth",
                         "PDQ priority-queue size at end of frame"),
          r.GetHistogram("dqmo_pdq_nodes_per_frame",
                         "Node loads (physical + decoded) per PDQ frame"),
          r.GetHistogram("dqmo_pdq_results_per_frame",
                         "Fresh objects delivered per PDQ frame"),
      };
    }();
    return m;
  }
};

}  // namespace

Result<std::unique_ptr<PredictiveDynamicQuery>> PredictiveDynamicQuery::Make(
    RTree* tree, QueryTrajectory trajectory) {
  return Make(tree, std::move(trajectory), Options());
}

Result<std::unique_ptr<PredictiveDynamicQuery>> PredictiveDynamicQuery::Make(
    RTree* tree, QueryTrajectory trajectory, const Options& options) {
  if (tree == nullptr) return Status::InvalidArgument("null tree");
  if (trajectory.dims() != tree->dims()) {
    return Status::InvalidArgument(
        StrFormat("trajectory dims %d != tree dims %d", trajectory.dims(),
                  tree->dims()));
  }
  auto pdq = std::unique_ptr<PredictiveDynamicQuery>(
      new PredictiveDynamicQuery(tree, std::move(trajectory), options));
  if (options.track_updates) {
    tree->AddListener(pdq.get());
    pdq->attached_ = true;
  }
  return pdq;
}

PredictiveDynamicQuery::PredictiveDynamicQuery(RTree* tree,
                                               QueryTrajectory trajectory,
                                               const Options& options)
    : tree_(tree),
      trajectory_(std::move(trajectory)),
      options_(options),
      coeffs_(TrajectoryCoeffs::Build(trajectory_)),
      last_t_start_(-kInf),
      visitor_(tree, &options_, &skip_report_, &stats_) {
  // Seed the queue with the root. Its exact overlap times are computed when
  // it is popped and explored (one disk access), matching the paper's "each
  // node read at most once" accounting; until then the full trajectory span
  // is a safe over-approximation.
  PushNodeItem(tree_->root(), StBox(), TimeSet(trajectory_.TimeSpan()),
               -kInf);
}

PredictiveDynamicQuery::~PredictiveDynamicQuery() {
  if (attached_) tree_->RemoveListener(this);
}

void PredictiveDynamicQuery::PushNodeItem(PageId page, const StBox& bounds,
                                          TimeSet times, double not_before) {
  const double start = times.FirstInstantAtOrAfter(not_before);
  if (start == kInf) return;  // Entirely in the past: never relevant again.
  Item item;
  item.priority = start;
  item.is_object = false;
  item.page = page;
  item.bounds = bounds;
  item.times = std::move(times);
  queue_.push(std::move(item));
  stats_.queue_pushes.fetch_add(1, std::memory_order_relaxed);
}

void PredictiveDynamicQuery::PushObjectItem(const MotionSegment& m,
                                            TimeSet times,
                                            double not_before) {
  const double start = times.FirstInstantAtOrAfter(not_before);
  if (start == kInf) return;
  Item item;
  item.priority = start;
  item.is_object = true;
  item.motion = m;
  item.times = std::move(times);
  queue_.push(std::move(item));
  stats_.queue_pushes.fetch_add(1, std::memory_order_relaxed);
}

bool PredictiveDynamicQuery::IsDuplicate(const Item& item) {
  // Duplicates introduced by update management carry the same priority
  // (their overlap times are computed from identical geometry), so a window
  // of identities at the current priority value suffices — the paper's
  // "check a few objects with the same priority".
  if (item.priority != dedup_priority_) {
    dedup_priority_ = item.priority;
    dedup_window_.clear();
  }
  for (const DedupKey& seen : dedup_window_) {
    if (seen.Matches(item)) return true;
  }
  return false;
}

Status PredictiveDynamicQuery::Explore(const Item& node_item,
                                       double t_start) {
  DQMO_ASSIGN_OR_RETURN(std::shared_ptr<const SoaNode> node,
                        visitor_.Load(node_item.page, node_item.bounds));
  if (node == nullptr) return Status::OK();  // Subtree skipped.
  Tracer::SpanScope prune_span(SpanKind::kKernelPrune,
                               static_cast<uint64_t>(node->count));
  // The paper charges one distance computation per entry of a loaded node
  // (Sect. 5), counted before the empty-times filter.
  stats_.distance_computations.fetch_add(static_cast<uint64_t>(node->count),
                                         std::memory_order_relaxed);
  if (node->is_leaf()) {
    PdqOverlapSegmentsBatch(coeffs_, *node, &overlap_scratch_);
    for (int k = 0; k < node->count; ++k) {
      TimeSet& times = overlap_scratch_[static_cast<size_t>(k)];
      if (times.empty()) continue;
      PushObjectItem(node->SegmentAt(k), std::move(times), t_start);
    }
  } else {
    PdqOverlapBoxBatch(coeffs_, *node, &overlap_scratch_);
    for (int k = 0; k < node->count; ++k) {
      TimeSet& times = overlap_scratch_[static_cast<size_t>(k)];
      if (times.empty()) continue;
      PushNodeItem(node->child[static_cast<size_t>(k)],
                   node->EntryBoundsAt(k), std::move(times), t_start);
    }
  }
  return Status::OK();
}

Result<std::optional<PdqResult>> PredictiveDynamicQuery::GetNext(
    double t_start, double t_end) {
  if (t_start > t_end) {
    return Status::InvalidArgument("t_start must be <= t_end");
  }
  if (t_start < last_t_start_) {
    return Status::InvalidArgument(
        "PDQ frames must advance monotonically in time");
  }
  last_t_start_ = t_start;
  const Interval frame(t_start, t_end);

  // Already out of budget this frame (a previous GetNext stopped): answer
  // "no more results" until the budget is re-armed for the next frame.
  if (options_.budget != nullptr && options_.budget->stopped()) {
    return std::optional<PdqResult>{};
  }

  while (!queue_.empty()) {
    if (queue_.top().priority > t_end) return std::optional<PdqResult>{};
    // Move the item out of the heap slot instead of copying its TimeSet and
    // MotionSegment payload; pop() only needs the slot to be destructible,
    // and ItemCompare reads nothing but the double priority.
    Item item = std::move(const_cast<Item&>(queue_.top()));
    queue_.pop();
    stats_.queue_pops.fetch_add(1, std::memory_order_relaxed);
    if (!item.is_object && !visitor_.Charge(item.page, item.bounds)) {
      // Out of budget: the unexplored subtree is recorded (the frame
      // becomes kPartial); push the node back for a later frame. The charge
      // happens before the dedup window sees the item, so the retry pop is
      // not mistaken for an update-management duplicate.
      queue_.push(std::move(item));
      stats_.queue_pushes.fetch_add(1, std::memory_order_relaxed);
      return std::optional<PdqResult>{};
    }
    if (IsDuplicate(item)) {
      stats_.duplicates_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    dedup_window_.push_back(DedupKey{item.is_object, item.page,
                                     item.is_object ? item.motion.key()
                                                    : MotionSegment::Key{
                                                          0, 0.0}});

    if (!item.times.Overlaps(frame)) {
      // In view neither now nor earlier this frame. If it re-enters the
      // view later, requeue it for that time; otherwise it has expired.
      const double next = item.times.FirstInstantAtOrAfter(t_start);
      if (next == kInf) continue;
      item.priority = next;
      queue_.push(std::move(item));
      stats_.queue_pushes.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    if (item.is_object) {
      if (!returned_.insert(item.motion.key()).second) {
        stats_.duplicates_skipped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      stats_.objects_returned.fetch_add(1, std::memory_order_relaxed);
      return std::optional<PdqResult>(
          PdqResult{item.motion, std::move(item.times)});
    }
    // Declare the heap's most-imminent node pages before the (synchronous)
    // exploration of this one: the speculative reads land while this
    // node's entries are decoded and filtered.
    visitor_.HintHeapFront(queue_);
    DQMO_RETURN_IF_ERROR(Explore(item, t_start));
  }
  return std::optional<PdqResult>{};
}

Result<std::vector<PdqResult>> PredictiveDynamicQuery::Frame(double t_start,
                                                             double t_end) {
  const uint64_t loads0 =
      stats_.node_reads.load(std::memory_order_relaxed) +
      stats_.decoded_hits.load(std::memory_order_relaxed);
  std::vector<PdqResult> out;
  {
    Tracer::SpanScope heap_span(SpanKind::kHeapOp);
    for (;;) {
      DQMO_ASSIGN_OR_RETURN(std::optional<PdqResult> next,
                            GetNext(t_start, t_end));
      if (!next.has_value()) break;
      out.push_back(std::move(*next));
    }
  }
  PdqMetrics& pm = PdqMetrics::Get();
  pm.queue_depth->Record(queue_.size());
  pm.nodes_per_frame->Record(
      stats_.node_reads.load(std::memory_order_relaxed) +
      stats_.decoded_hits.load(std::memory_order_relaxed) - loads0);
  pm.results_per_frame->Record(out.size());
  return out;
}

void PredictiveDynamicQuery::RebuildFromRoot() {
  queue_ = {};
  dedup_window_.clear();
  dedup_priority_ = -kInf;
  PushNodeItem(tree_->root(), StBox(), TimeSet(trajectory_.TimeSpan()),
               last_t_start_);
}

void PredictiveDynamicQuery::OnObjectInserted(const MotionSegment& m) {
  TimeSet times = trajectory_.OverlapTimes(m.seg);
  if (times.empty()) return;
  PushObjectItem(m, std::move(times), last_t_start_);
}

void PredictiveDynamicQuery::OnSubtreeCreated(const ChildEntry& subtree,
                                              int /*level*/) {
  if (options_.update_policy == UpdatePolicy::kRebuild) {
    RebuildFromRoot();
    return;
  }
  TimeSet times = trajectory_.OverlapTimes(subtree.bounds);
  if (times.empty()) return;
  PushNodeItem(subtree.child, subtree.bounds, std::move(times),
               last_t_start_);
}

void PredictiveDynamicQuery::OnRootSplit(PageId /*new_root*/) {
  RebuildFromRoot();
}

}  // namespace dqmo
