// Nearest-neighbor search over mobile objects — the paper's future-work
// item (i) ("generalizing the concept of dynamic queries to nearest
// neighbor searches, similar to the moving-query point of [24]").
//
// KnnAt() is a best-first (Hjaltason–Samet style, the paper's refs [17,7])
// search for the k objects nearest to a query point at one time instant.
// MovingKnnQuery evaluates a *sequence* of such instants along an observer
// trajectory, priming each search with an upper bound derived from the
// previous answer set so that most of the tree is pruned when the query
// point moves smoothly — the dynamic-query idea applied to kNN. Every kNN
// answer is ordered by (distance, key) (NeighborBefore), so exact distance
// ties resolve the same way on one tree, from the fence cache and across
// shards. Node reads follow the read contract every engine shares
// (query/traversal.h).
#ifndef DQMO_QUERY_KNN_H_
#define DQMO_QUERY_KNN_H_

#include <vector>

#include "common/result.h"
#include "geom/vec.h"
#include "motion/motion_segment.h"
#include "query/budget.h"
#include "query/traversal.h"
#include "rtree/node_soa.h"
#include "rtree/rtree.h"
#include "rtree/stats.h"

namespace dqmo {

/// One nearest-neighbor answer: the motion segment alive at the query time
/// and its distance from the query point at that time.
struct Neighbor {
  MotionSegment motion;
  double distance = 0.0;
};

/// The one kNN answer order: ascending distance, equal distances by motion
/// key. KnnAt, MovingKnnQuery's cache answer and the shard router's merge
/// all sort by it, so truncating at k keeps the same objects whether an
/// answer comes from one tree, a fence cache or any number of shards.
inline bool NeighborBefore(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.motion.key() < b.motion.key();
}

/// Options for KnnAt. Node reads follow the inherited TraversalOptions
/// (query/traversal.h); the budget is charged once per node pop.
///
/// Degraded-kNN contract: when kSkipSubtree or the budget skips a subtree,
/// every returned distance is still correct and the list is still sorted,
/// but true neighbors inside the skipped subtree are missing, so the k-th
/// returned object may be farther than the true k-th. (Unlike range
/// queries the result is NOT a subset of the fault-free answer: the search
/// backfills with farther objects.) The best-first heap's front region is
/// hinted to the prefetcher after each node pop, so those disk reads land
/// while the popped node is scanned.
struct KnnOptions : TraversalOptions {
  KnnOptions() = default;
  explicit KnnOptions(const TraversalOptions& traversal)
      : TraversalOptions(traversal) {}

  /// Discard anything farther than this (kInf = no bound).
  double prune_bound = kInf;
  /// Receives the skipped subtrees (may be null).
  SkipReport* skip_report = nullptr;
};

/// Returns the (up to) k motion segments alive at time `t` whose positions
/// at `t` are nearest to `point`, in NeighborBefore order: the k smallest
/// by (distance, key).
Result<std::vector<Neighbor>> KnnAt(const RTree& tree, const Vec& point,
                                    double t, int k, QueryStats* stats,
                                    const KnnOptions& options = {});

/// Incremental kNN along a moving query point — the dynamic-query idea
/// applied to nearest-neighbor search (in the spirit of the paper's
/// reference [24], Song & Roussopoulos).
///
/// Each full index search fetches 2k candidates and remembers the 2k-th
/// distance as a *fence*. For a later instant t1 with query point q1,
/// every object outside the cached candidate set was at distance >= fence
/// from q0 at time t0, so its distance at t1 is at least
///   fence - |q1 - q0| - max_speed * (t1 - t0) - margin,
/// where max_speed is the tree's maximum stored motion speed. While the
/// k-th candidate distance stays strictly below that bound, the answer is
/// computed entirely from the cache — zero disk accesses. (Strictly: an
/// uncached object exactly at the bound may have a smaller key.)
///
/// Soundness assumptions (documented, matching the paper's motion model):
/// objects alive at t1 were alive at t0 with spatially continuous
/// trajectories (consecutive motion segments join); concurrent insertions
/// invalidate the cache automatically via the tree's update stamp. If the
/// update policy allows small discontinuities between consecutive segments
/// (e.g. a dead-reckoning threshold, Sect. 3.1), pass that bound as
/// `Options::discontinuity_margin`.
class MovingKnnQuery {
 public:
  /// The inherited TraversalOptions serve each full search (KnnOptions).
  /// A degraded full search (a fault skip or a budget stop) answers under
  /// the degraded-kNN contract but does NOT install the fence cache: a
  /// fence built from an incomplete candidate set would let later frames
  /// silently compound the miss.
  struct Options : TraversalOptions {
    Options() = default;
    explicit Options(const TraversalOptions& traversal)
        : TraversalOptions(traversal) {}

    /// Slack subtracted from the fence for per-update trajectory jumps.
    double discontinuity_margin = 0.0;
  };

  /// `tree` must outlive the query. k >= 1.
  MovingKnnQuery(const RTree* tree, int k, const Options& options);
  MovingKnnQuery(const RTree* tree, int k);

  /// Nearest k objects at time `t` (monotonically non-decreasing across
  /// calls) from `point`.
  Result<std::vector<Neighbor>> At(double t, const Vec& point);

  const QueryStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Number of At() calls answered purely from the cache (no disk access).
  uint64_t cache_answers() const { return cache_answers_; }
  /// Number of At() calls that ran a full index search.
  uint64_t full_searches() const { return full_searches_; }

  /// Subtrees skipped by the most recent At() (reset at each call; cache
  /// answers trivially report kComplete — they read nothing).
  const SkipReport& skip_report() const { return skip_report_; }
  /// Integrity of the most recent At()'s answer.
  ResultIntegrity integrity() const { return skip_report_.integrity(); }

 private:
  int fetch_count() const { return 2 * k_; }

  const RTree* tree_;
  int k_;
  Options options_;
  // Cache state from the last full search.
  bool has_cache_ = false;
  std::vector<Neighbor> cached_;
  double fence_ = kInf;      // 2k-th distance; +inf if fewer returned.
  double cache_t_ = 0.0;     // Instant of the last full search.
  Vec cache_point_;          // Query point of the last full search.
  UpdateStamp cache_stamp_ = 0;
  double previous_t_ = -kInf;
  uint64_t cache_answers_ = 0;
  uint64_t full_searches_ = 0;
  QueryStats stats_;
  SkipReport skip_report_;
};

}  // namespace dqmo

#endif  // DQMO_QUERY_KNN_H_
