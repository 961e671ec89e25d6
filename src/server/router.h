// Query fan-out over the sharded engine (server/shard.h): the control
// plane that makes N shards answer exactly like one tree.
//
// ShardRouter runs each session through the one frame loop
// (server/session_runner.h) with every shard as a target; the single-tree
// executor is that loop's one-target case. A sharded session replays the
// same seed-derived observer trajectory as the single tree, but drives one
// engine instance per shard (DynamicQuerySession, NonPredictiveDynamicQuery
// or a stateless KnnAt). Per frame the loop takes the shared side of every
// shard's gate, evaluates the relevant shards, and merges the per-shard
// answers:
//
//  * PDQ/NPDQ streams: a k-way heap merge ordered by window entry time
//    (segment start time, key-tiebroken), duplicate-free. Shards partition
//    the segment set, and every delivery rule in the engines is
//    per-segment and trajectory-driven, so the union of per-shard frame
//    deliveries equals the single-tree frame delivery — the differential
//    sweeps in tests/shard_test.cc assert byte-identical checksums.
//  * kNN candidates: merged by (distance, key) and truncated to k, at
//    every shard count. Every true global neighbor is in its shard's local
//    top-k, and distances are computed on identical quantized geometry, so
//    the merged distances are bit-identical to the single tree's fenced
//    MovingKnnQuery (equal-distance ties may order differently; the random
//    workloads the tests sweep have none). A shard-local fence cache would
//    be unsound, so every shard runs a stateless search each frame.
//
// Overload semantics are preserved: one FrameController arms one
// QueryBudget per frame and hands the same pointer to every shard's
// engine, so deadline + node allowance are charged once across the whole
// fan-out; governor shed/degrade decisions apply to the frame as a unit.
// ResultIntegrity aggregates conservatively — if any evaluated shard
// answers kPartial, the merged frame is kPartial, and the per-shard
// SkipReports say which shard lost what.
//
// NPDQ fan-out is pruned by shard root bounds: a shard whose root MBR
// misses the snapshot provably contributes nothing, and the router tells
// its NPDQ instance via NoteSkippedSnapshot so later deltas stay exact
// (see that method's soundness note).
//
// Failure domains (server/health.h, when the engine runs with them): the
// router is the breakers' frame plane. Each frame it advances every
// shard's breaker (OnFrameStart), drains any pending redo queue of an
// unblocked shard *before* taking the read locks, and keeps calling every
// shard's session — a quarantined shard's reads short-circuit at the
// breaker gate, so its frames come back as attributed kPartial through
// the ordinary kSkipSubtree machinery while the per-shard control state
// stays in observer lockstep for a clean resync at reinstatement. On
// half-open probe frames the shard serves reads normally and the router
// reports the verdict (frame completed with zero new skips) back via
// OnProbeOutcome; enough healthy probes close the breaker.
#ifndef DQMO_SERVER_ROUTER_H_
#define DQMO_SERVER_ROUTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "motion/motion_segment.h"
#include "query/knn.h"
#include "rtree/fault_policy.h"
#include "rtree/stats.h"
#include "server/executor.h"
#include "server/overload.h"
#include "server/shard.h"

namespace dqmo {

/// Stable k-way heap merge of per-shard result streams by window entry
/// time. Each input stream must be sorted by (seg.time.lo, key); the
/// output is sorted the same way, with exact-tie stability by (stream
/// index, position) and duplicates (same key) dropped keeping the first
/// occurrence in merge order. Empty streams are fine. Consumes the inputs.
std::vector<MotionSegment> MergeStreamsByEntryTime(
    std::vector<std::vector<MotionSegment>>* streams);

/// Merges per-shard kNN candidate lists into the global top-k by
/// (distance, key). Inputs need not be sorted; the result is.
std::vector<Neighbor> MergeNeighborsByDistance(
    const std::vector<std::vector<Neighbor>>& streams, size_t k);

/// SessionResult plus the per-shard detail the aggregate hides.
struct ShardedSessionResult {
  SessionResult result;
  /// Frames whose merged answer was kPartial (some shard skipped
  /// subtrees — faults or budget stops). Superset counter of
  /// result.frames_degraded, which only counts budget stops.
  uint64_t frames_partial = 0;
  /// Per-shard query cost; sums to result.stats.
  std::vector<QueryStats> shard_stats;
  /// Per-shard skipped subtrees over the session's lifetime. A fault
  /// injected into one shard shows up in exactly that slot — the
  /// never-silently-wrong contract the fault tests pin down.
  std::vector<SkipReport> shard_skips;
  /// Shard evaluations skipped by the NPDQ root-bounds prune.
  uint64_t shard_frames_pruned = 0;
  /// Frames evaluated while at least one shard's breaker blocked reads.
  uint64_t frames_quarantined = 0;

  /// One completed frame's answer, per shard (Options::record_frames).
  /// This is the vehicle for the chaos harness's strongest invariant:
  /// run the same session against a clean twin engine and require
  /// shard_checksums[s] equal for every *healthy* shard on every frame —
  /// quarantining shard X must never change a byte of shard Y's answers.
  struct FrameRecord {
    int frame = 0;
    /// Fold of this frame's merged delivery alone (kFnvOffset-seeded).
    uint64_t merged_checksum = 0;
    bool partial = false;
    /// Per-shard fold of the shard's own (pre-merge) delivery.
    std::vector<uint64_t> shard_checksums;
    /// 1 when the shard's breaker blocked its reads this frame.
    std::vector<uint8_t> shard_blocked;
  };
  std::vector<FrameRecord> frames;
};

/// Fans deterministic query sessions out over a ShardedEngine, mirroring
/// SessionScheduler's contract (admission, priorities, governor, serial
/// replay at num_threads <= 1) for sharded execution.
class ShardRouter {
 public:
  struct Options {
    int num_threads = 1;
    /// Bound on the session pool's task queue; 0 = unbounded.
    size_t max_queue = 0;
    AdmissionController* admission = nullptr;
    OverloadGovernor* governor = nullptr;
    /// Skip NPDQ evaluation of shards whose root bounds miss the snapshot
    /// (exactness preserved; see header comment). The differential tests
    /// sweep both settings.
    bool spatial_prune = true;
    /// Called at the top of every session frame (shed or not), before any
    /// shard gate is held — the injection point for chaos programs, which
    /// arm/clear per-shard faults and force breakers at scripted frames.
    std::function<void(int frame)> frame_hook;
    /// Record a FrameRecord per completed frame (chaos differential runs;
    /// costs a per-shard stream copy, leave off outside tests).
    bool record_frames = false;
  };

  explicit ShardRouter(ShardedEngine* engine) : engine_(engine) {}
  ShardRouter(ShardedEngine* engine, const Options& options)
      : engine_(engine), options_(options) {}

  /// Runs one sharded session (inline, on the calling thread).
  ShardedSessionResult RunOne(const SessionSpec& spec) const;

  /// Runs a batch of sharded sessions over a thread pool (num_threads <= 1:
  /// inline in spec order — the serial replay the differential tests
  /// compare against).
  ExecutorReport Run(const std::vector<SessionSpec>& specs) const;

  ShardedEngine* engine() const { return engine_; }
  const Options& options() const { return options_; }

 private:
  ShardedEngine* engine_;
  Options options_;
};

}  // namespace dqmo

#endif  // DQMO_SERVER_ROUTER_H_
