#include "query/npdq.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "query/kernels.h"

namespace dqmo {
namespace {

/// Per-query traversal shape of the NPDQ hot path. The discard rate is the
/// fraction of candidate subtrees pruned by the paper's discardability
/// test — the quantity Figs. 8/10 trade against window size.
struct NpdqMetrics {
  Histogram* nodes_per_query;
  Histogram* discarded_per_query;
  Histogram* discard_rate_pct;

  static NpdqMetrics& Get() {
    static NpdqMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return NpdqMetrics{
          r.GetHistogram("dqmo_npdq_nodes_per_query",
                         "Node loads (physical + decoded) per NPDQ snapshot"),
          r.GetHistogram("dqmo_npdq_discarded_per_query",
                         "Subtrees pruned as discardable per NPDQ snapshot"),
          r.GetHistogram("dqmo_npdq_discard_rate_pct",
                         "Discarded / (discarded + visited) per snapshot, %"),
      };
    }();
    return m;
  }
};

}  // namespace

bool Discardable(const StBox& p, const StBox& q, const ChildEntry& r,
                 SpatialPruning pruning) {
  // Double-temporal-axes test. A motion (ts, te) is Q-relevant iff
  // ts <= q.time.hi and te >= q.time.lo; the subtree's Q-relevant motions
  // have ts in i_ts and te in i_te below. All of them were temporally
  // P-relevant iff every such ts <= p.time.hi and every such te >=
  // p.time.lo.
  const Interval i_ts =
      r.start_times.Intersect(Interval(-kInf, q.time.hi));
  const Interval i_te = r.end_times.Intersect(Interval(q.time.lo, kInf));
  if (i_ts.empty() || i_te.empty()) {
    return true;  // No Q-relevant motion below R at all.
  }
  if (i_ts.hi > p.time.hi) return false;  // Some motion started after P.
  if (i_te.lo < p.time.lo) return false;  // Some motion ended before P.

  // Spatial containment.
  for (int i = 0; i < r.bounds.spatial.dims; ++i) {
    const Interval ri = r.bounds.spatial.extent(i);
    const Interval region =
        pruning == SpatialPruning::kIntersectionContained
            ? ri.Intersect(q.spatial.extent(i))
            : ri;
    if (region.empty()) return true;  // Spatially disjoint from Q.
    if (!p.spatial.extent(i).Contains(region)) return false;
  }
  return true;
}

NonPredictiveDynamicQuery::NonPredictiveDynamicQuery(
    RTree* tree, const NpdqOptions& options)
    : tree_(tree),
      options_(options),
      visitor_(tree, &options_, &skip_report_, &stats_) {
  DQMO_CHECK(tree != nullptr);
}

void NonPredictiveDynamicQuery::ResetHistory() {
  prev_.reset();
  prev_stamp_ = 0;
}

void NonPredictiveDynamicQuery::NoteSkippedSnapshot(const StBox& q) {
  // Exactly the prev-installation Execute performs, minus the traversal:
  // the caller certified the answer set is empty.
  prev_ = q;
  prev_stamp_ = tree_->stamp();
}

Status NonPredictiveDynamicQuery::Visit(PageId pid, const StBox& entry_bounds,
                                        const StBox& q, int depth,
                                        std::vector<MotionSegment>* out) {
  // Out of budget: prune, finish degraded.
  if (!visitor_.Charge(pid, entry_bounds)) return Status::OK();
  DQMO_ASSIGN_OR_RETURN(std::shared_ptr<const SoaNode> node,
                        visitor_.Load(pid, entry_bounds));
  if (node == nullptr) return Status::OK();  // Subtree skipped.
  // A node stamped after the previous query ran may contain motions
  // inserted since then; neither discardability nor the returned-by-P skip
  // may use P beneath it (Sect. 4.2, Update Management).
  const bool p_usable = prev_.has_value() && options_.use_previous &&
                        node->stamp <= prev_stamp_;
  // The paper charges one distance computation per entry of a loaded node
  // (Sect. 5), counted before any entry is tested.
  stats_.distance_computations.fetch_add(static_cast<uint64_t>(node->count),
                                         std::memory_order_relaxed);
  if (node->is_leaf()) {
    // The batch kernel answers "in Q and not already retrieved by P" for
    // the whole leaf; only the emitted segments are ever materialized.
    {
      Tracer::SpanScope prune_span(SpanKind::kKernelPrune,
                                   static_cast<uint64_t>(node->count));
      NpdqLeafMatchBatch(p_usable ? &*prev_ : nullptr, q,
                         options_.leaf_semantics == LeafSemantics::kExact,
                         *node, &leaf_match_);
    }
    for (int k = 0; k < node->count; ++k) {
      if (!leaf_match_[static_cast<size_t>(k)]) continue;
      out->push_back(node->SegmentAt(k));
      stats_.objects_returned.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  }
  if (static_cast<size_t>(depth) >= cls_pool_.size()) {
    cls_pool_.resize(static_cast<size_t>(depth) + 1);
  }
  {
    Tracer::SpanScope prune_span(SpanKind::kKernelPrune,
                                 static_cast<uint64_t>(node->count));
    NpdqClassifyBatch(
        p_usable ? &*prev_ : nullptr, q,
        options_.spatial_pruning == SpatialPruning::kIntersectionContained,
        *node, &cls_pool_[static_cast<size_t>(depth)]);
  }
  if (options_.prefetcher != nullptr) {
    // The surviving siblings beyond the first ARE the traversal's declared
    // future: the first is read synchronously right away, the rest while
    // its subtree is walked. Issued before recursing, so the recursion may
    // reuse hint_scratch_.
    hint_scratch_.clear();
    bool first = true;
    for (int k = 0; k < node->count; ++k) {
      if (cls_pool_[static_cast<size_t>(depth)][static_cast<size_t>(k)] !=
          kNpdqVisit) {
        continue;
      }
      if (first) {
        first = false;
        continue;
      }
      hint_scratch_.push_back(node->child[static_cast<size_t>(k)]);
    }
    visitor_.Hint(hint_scratch_);
  }
  for (int k = 0; k < node->count; ++k) {
    // Re-index the pool each iteration: the recursive Visit below may grow
    // it, which moves (but preserves) the per-depth buffers.
    const uint8_t cls = cls_pool_[static_cast<size_t>(depth)]
                                 [static_cast<size_t>(k)];
    if (cls == kNpdqSkip) continue;
    if (cls == kNpdqDiscard) {
      stats_.nodes_discarded.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    DQMO_RETURN_IF_ERROR(Visit(node->child[static_cast<size_t>(k)],
                               node->EntryBoundsAt(k), q, depth + 1, out));
  }
  return Status::OK();
}

Result<std::vector<MotionSegment>> NonPredictiveDynamicQuery::Execute(
    const StBox& q) {
  if (q.spatial.dims != tree_->dims()) {
    return Status::InvalidArgument("query dims mismatch");
  }
  if (q.empty()) return Status::InvalidArgument("empty query box");
  if (prev_.has_value() && q.time.lo < prev_->time.lo) {
    return Status::InvalidArgument(
        "NPDQ snapshots must advance monotonically in time");
  }
  const uint64_t loads0 = stats_.node_reads.load(std::memory_order_relaxed) +
                          stats_.decoded_hits.load(std::memory_order_relaxed);
  const uint64_t discarded0 =
      stats_.nodes_discarded.load(std::memory_order_relaxed);
  std::vector<MotionSegment> out;
  skip_report_.Reset();
  DQMO_RETURN_IF_ERROR(Visit(tree_->root(), StBox(), q, 0, &out));
  prev_ = q;
  prev_stamp_ = tree_->stamp();
  if (MetricsEnabled()) {
    const uint64_t loads =
        stats_.node_reads.load(std::memory_order_relaxed) +
        stats_.decoded_hits.load(std::memory_order_relaxed) - loads0;
    const uint64_t discarded =
        stats_.nodes_discarded.load(std::memory_order_relaxed) - discarded0;
    NpdqMetrics& nm = NpdqMetrics::Get();
    nm.nodes_per_query->Record(loads);
    nm.discarded_per_query->Record(discarded);
    if (loads + discarded > 0) {
      nm.discard_rate_pct->Record(100 * discarded / (loads + discarded));
    }
  }
  return out;
}

}  // namespace dqmo
