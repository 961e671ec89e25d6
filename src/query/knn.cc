#include "query/knn.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "query/kernels.h"

namespace dqmo {
namespace {

/// Moving-kNN fence economics: how often the cached candidate set answered
/// a frame without touching the index at all.
struct KnnMetrics {
  Counter* full_searches;
  Counter* cache_answers;
  Histogram* nodes_per_search;

  static KnnMetrics& Get() {
    static KnnMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return KnnMetrics{
          r.GetCounter("dqmo_knn_full_searches_total",
                       "Moving-kNN frames that ran a full index search"),
          r.GetCounter("dqmo_knn_cache_answers_total",
                       "Moving-kNN frames answered from the cached fence"),
          r.GetHistogram("dqmo_knn_nodes_per_search",
                         "Node loads (physical + decoded) per full search"),
      };
    }();
    return m;
  }
};

struct HeapEntry {
  double min_distance;
  bool is_object;
  PageId page = kInvalidPageId;
  StBox bounds;  // When !is_object: parent-entry box (empty for root).
  MotionSegment motion;

  friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
    return a.min_distance > b.min_distance;
  }
};

}  // namespace

Result<std::vector<Neighbor>> KnnAt(const RTree& tree, const Vec& point,
                                    double t, int k, QueryStats* stats,
                                    const KnnOptions& options) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (point.dims != tree.dims()) {
    return Status::InvalidArgument("query point dims mismatch");
  }
  DQMO_CHECK(stats != nullptr);

  std::vector<Neighbor> best;  // Sorted by NeighborBefore, size <= k.
  auto worst_bound = [&]() {
    return static_cast<int>(best.size()) < k
               ? options.prune_bound
               : std::min(options.prune_bound, best.back().distance);
  };

  // Kernel outputs, reused across every node scan of this search.
  std::vector<double> dist_scratch;
  std::vector<uint8_t> alive_scratch;
  NodeVisitor visitor(&tree, &options, options.skip_report, stats);

  Tracer::SpanScope heap_span(SpanKind::kHeapOp);
  PeekHeap<HeapEntry, std::greater<>> heap;
  heap.push(HeapEntry{0.0, false, tree.root(), StBox(), {}});
  while (!heap.empty()) {
    HeapEntry top = std::move(const_cast<HeapEntry&>(heap.top()));
    heap.pop();
    if (top.min_distance > worst_bound()) break;  // Nothing closer remains.
    if (top.is_object) {
      // Ties at the k-th distance are popped too (the break above is
      // strict), so keeping the (distance, key) order here truncates to
      // the k smallest by NeighborBefore whatever the heap's pop order.
      best.push_back(Neighbor{std::move(top.motion), top.min_distance});
      std::inplace_merge(best.begin(), best.end() - 1, best.end(),
                         NeighborBefore);
      if (static_cast<int>(best.size()) > k) best.pop_back();
      continue;
    }
    // Out of budget: every remaining node is skipped (already-enqueued
    // objects may still surface); the degraded-kNN contract applies.
    if (!visitor.Charge(top.page, top.bounds)) continue;
    // Declare the heap's nearest node pages before the (synchronous) scan
    // of this one: the speculative reads land while it is scanned.
    visitor.HintHeapFront(heap);
    DQMO_ASSIGN_OR_RETURN(std::shared_ptr<const SoaNode> node,
                          visitor.Load(top.page, top.bounds));
    if (node == nullptr) continue;  // Subtree skipped.
    // The paper charges one distance computation per entry of a loaded
    // node (Sect. 5), counted before the alive filter. `best` cannot change
    // during one node scan (only object pops change it), so the bound is
    // loop-invariant.
    stats->distance_computations.fetch_add(
        static_cast<uint64_t>(node->count), std::memory_order_relaxed);
    const double bound = worst_bound();
    if (node->is_leaf()) {
      KnnLeafDistanceBatch(*node, t, point, &dist_scratch, &alive_scratch);
      for (int i = 0; i < node->count; ++i) {
        if (alive_scratch[static_cast<size_t>(i)] == 0) continue;
        const double d = dist_scratch[static_cast<size_t>(i)];
        if (d > bound) continue;
        heap.push(
            HeapEntry{d, true, kInvalidPageId, StBox(), node->SegmentAt(i)});
      }
    } else {
      KnnEntryDistanceBatch(*node, t, point, &dist_scratch, &alive_scratch);
      for (int i = 0; i < node->count; ++i) {
        if (alive_scratch[static_cast<size_t>(i)] == 0) continue;
        const double d = dist_scratch[static_cast<size_t>(i)];
        if (d > bound) continue;
        heap.push(HeapEntry{d, false, node->child[static_cast<size_t>(i)],
                            node->EntryBoundsAt(i), {}});
      }
    }
  }
  stats->objects_returned += best.size();
  return best;
}

MovingKnnQuery::MovingKnnQuery(const RTree* tree, int k,
                               const Options& options)
    : tree_(tree), k_(k), options_(options) {
  DQMO_CHECK(tree != nullptr);
  DQMO_CHECK(k >= 1);
}

MovingKnnQuery::MovingKnnQuery(const RTree* tree, int k)
    : MovingKnnQuery(tree, k, Options()) {}

Result<std::vector<Neighbor>> MovingKnnQuery::At(double t,
                                                 const Vec& point) {
  if (t < previous_t_) {
    return Status::InvalidArgument(
        "moving kNN instants must be non-decreasing");
  }
  previous_t_ = t;
  skip_report_.Reset();

  // Try to answer from the cached candidate set.
  if (has_cache_ && tree_->stamp() == cache_stamp_) {
    // Every cached candidate must still be represented by its cached
    // segment; a rolled-over segment means the object's current position
    // is not in the cache.
    bool all_alive = true;
    std::vector<Neighbor> now;
    now.reserve(cached_.size());
    for (const Neighbor& n : cached_) {
      if (!n.motion.seg.time.Contains(t)) {
        all_alive = false;
        break;
      }
      ++stats_.distance_computations;
      now.push_back(Neighbor{n.motion, n.motion.seg.DistanceAt(t, point)});
    }
    if (all_alive && static_cast<int>(now.size()) >= k_) {
      std::sort(now.begin(), now.end(), NeighborBefore);
      const double moved = point.DistanceTo(cache_point_);
      const double drift = tree_->max_speed() * (t - cache_t_);
      const double safe =
          fence_ - moved - drift - options_.discontinuity_margin;
      const double kth = now[static_cast<size_t>(k_) - 1].distance;
      // Strict: an uncached object may sit exactly at `safe` with a
      // smaller key than the cached k-th, and then belongs in the answer.
      if (kth < safe) {
        now.resize(static_cast<size_t>(k_));
        ++cache_answers_;
        KnnMetrics::Get().cache_answers->Add();
        stats_.objects_returned += now.size();
        return now;
      }
    }
  }

  // Full search: fetch 2k candidates and rebuild the fence.
  KnnOptions knn_options(options_);
  knn_options.skip_report = &skip_report_;
  const uint64_t loads0 = stats_.node_reads.load(std::memory_order_relaxed) +
                          stats_.decoded_hits.load(std::memory_order_relaxed);
  DQMO_ASSIGN_OR_RETURN(
      std::vector<Neighbor> candidates,
      KnnAt(*tree_, point, t, fetch_count(), &stats_, knn_options));
  ++full_searches_;
  KnnMetrics& km = KnnMetrics::Get();
  km.full_searches->Add();
  km.nodes_per_search->Record(
      stats_.node_reads.load(std::memory_order_relaxed) +
      stats_.decoded_hits.load(std::memory_order_relaxed) - loads0);
  if (skip_report_.pages_skipped() == 0) {
    has_cache_ = true;
    cached_ = candidates;
    fence_ = static_cast<int>(candidates.size()) < fetch_count()
                 ? kInf
                 : candidates.back().distance;
    cache_t_ = t;
    cache_point_ = point;
    cache_stamp_ = tree_->stamp();
  } else {
    // Degraded search: the candidate set may miss true neighbors, so a
    // fence built from it is unsound — answer this frame degraded but make
    // the next frame re-search the (hopefully recovered) index.
    has_cache_ = false;
  }

  if (static_cast<int>(candidates.size()) > k_) {
    candidates.resize(static_cast<size_t>(k_));
  }
  return candidates;
}

}  // namespace dqmo
