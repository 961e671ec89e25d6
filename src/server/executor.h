// Concurrent multi-session query engine.
//
// The paper (Sect. 4) frames dynamic queries as a *server-side* service:
// many clients each run a continuous query over the shared index. This
// module supplies the server scaffolding: a fixed-size ThreadPool, the
// single-writer/multi-reader TreeGate that serializes motion updates
// against running sessions, and a SessionScheduler that executes many
// deterministic, seed-driven query sessions (PDQ/NPDQ hand-off sessions,
// raw NPDQ sequences, moving kNN) concurrently against one shared RTree —
// typically through one shared sharded BufferPool. RunSession and
// SessionScheduler are thin adapters: they hand the one frame loop
// (server/session_runner.h) a single target, the same loop ShardRouter
// (server/router.h) runs over N shards.
//
// Threading model (see DESIGN.md "Threading model" for the full story):
//
//  * Sessions only *read* the tree. The read path is race-free provided the
//    backing PageFile was Publish()ed (or every writer seals its dirt
//    before readers resume — the TreeGate write guard does).
//  * Insert/Remove take the exclusive side of the gate; sessions take the
//    shared side once per frame, so a frame always sees a consistent tree.
//  * Each session is deterministic given its spec: the observer trajectory
//    is derived from the seed, and the per-frame results are folded into an
//    order-independent-of-thread-schedule FNV-1a checksum. Running the same
//    specs serially therefore reproduces the checksums exactly — the basis
//    of the differential tests in tests/executor_test.cc.
#ifndef DQMO_SERVER_EXECUTOR_H_
#define DQMO_SERVER_EXECUTOR_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "query/budget.h"
#include "rtree/rtree.h"
#include "rtree/stats.h"
#include "server/overload.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace dqmo {

/// Fixed-size pool of worker threads draining per-priority FIFO task
/// queues (higher priority classes are always dequeued first). The queue
/// may be bounded: a full bounded pool either rejects (TrySubmit) or
/// back-pressures the submitter (Submit blocks) instead of growing without
/// limit — the overload-resilience contract of DESIGN.md.
class ThreadPool {
 public:
  struct Options {
    int num_threads = 1;
    /// Upper bound on queued-but-not-running tasks across all priorities;
    /// 0 = unbounded (the pre-admission-control behaviour).
    size_t max_queue = 0;
  };

  /// Spawns `num_threads` (>= 1) workers immediately (unbounded queue).
  explicit ThreadPool(int num_threads);
  explicit ThreadPool(const Options& options);
  /// Blocks until every submitted task finished, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; blocks while a bounded queue is full (backpressure).
  /// Tasks must not throw.
  void Submit(std::function<void()> task,
              SessionPriority priority = SessionPriority::kNormal);

  /// Enqueues unless the bounded queue is full; false = rejected (the task
  /// was not consumed in that case). Never blocks.
  bool TrySubmit(std::function<void()> task,
                 SessionPriority priority = SessionPriority::kNormal);

  /// Blocks until the queue is empty and no task is running.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks queued but not yet running, across all priorities.
  size_t queue_depth() const;

 private:
  void WorkerLoop();
  size_t QueueDepthLocked() const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Signaled when tasks arrive / stop.
  std::condition_variable idle_cv_;   // Signaled when the pool drains.
  std::condition_variable space_cv_;  // Signaled when a bounded slot frees.
  /// One FIFO per priority class, indexed by SessionPriority.
  std::array<std::deque<std::function<void()>>, 3> queues_;
  size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Single-writer / multi-reader gate over one RTree + its storage.
///
/// Readers (query sessions) hold the shared side for the duration of one
/// frame; the writer (motion updates) holds the exclusive side per Insert
/// batch. The write guard's release does the storage handover that makes
/// the next shared section race-free: it invalidates every dirtied page in
/// the shared BufferPool (stale cached bytes must not be served), seals
/// all dirty pages (so readers never race to recompute a checksum
/// trailer), and — when a WAL is attached — syncs the write-ahead log, so
/// readers never observe a motion whose redo record is not yet durable.
/// Lock order where it matters: gate first, then the tree's internal
/// listeners mutex.
class TreeGate {
 public:
  /// No pointer is owned; `pool` may be null (no cache to invalidate),
  /// `wal` may be null (no durability), and `node_cache` may be null (no
  /// decoded-node cache in use). `file` may be null only if no writer ever
  /// runs.
  ///
  /// Passing the decoded-node cache here is belt-and-braces: the tree
  /// already invalidates it synchronously on every StoreNode/FreePage (see
  /// RTree::AttachNodeCache), so the guard's sweep over the dirty page ids
  /// only matters for pages dirtied behind the tree's back.
  explicit TreeGate(PageStore* file, BufferPool* pool = nullptr,
                    WalWriter* wal = nullptr,
                    DecodedNodeCache* node_cache = nullptr)
      : file_(file), pool_(pool), wal_(wal), node_cache_(node_cache) {}

  TreeGate(const TreeGate&) = delete;
  TreeGate& operator=(const TreeGate&) = delete;

  /// Shared (reader) side; hold for at most one query frame. Records the
  /// wait (time to acquire while a writer holds the gate) in the
  /// dqmo_gate_reader_wait_ns histogram.
  [[nodiscard]] std::shared_lock<std::shared_mutex> LockShared();

  /// Exclusive (writer) side. Destruction performs the storage handover
  /// (pool invalidation + sealing) *before* readers resume.
  class WriteGuard {
   public:
    ~WriteGuard();
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    friend class TreeGate;
    explicit WriteGuard(TreeGate* gate);
    TreeGate* gate_;
    std::unique_lock<std::shared_mutex> lock_;
  };

  [[nodiscard]] WriteGuard LockExclusive() { return WriteGuard(this); }

  /// First WAL sync failure observed by a write guard's release (OK when
  /// none): a destructor cannot return a Status, so the writer checks here
  /// after its batch — inserts in a failed batch were never made durable
  /// and must not be acknowledged.
  Status wal_status() const {
    std::lock_guard<std::mutex> lock(wal_status_mu_);
    return wal_status_;
  }

 private:
  std::shared_mutex mu_;
  PageStore* file_;
  BufferPool* pool_;
  WalWriter* wal_;
  DecodedNodeCache* node_cache_;
  mutable std::mutex wal_status_mu_;
  Status wal_status_;  // Guarded by wal_status_mu_.
};

/// Which query algorithm a session runs.
enum class SessionKind {
  kSession,  // DynamicQuerySession: automated PDQ <-> NPDQ hand-off.
  kNpdq,     // Raw NPDQ snapshot sequence over the observer's window.
  kKnn,      // MovingKnnQuery along the observer trajectory.
};

/// One deterministic client session: an observer flying a seed-derived
/// random-turn trajectory inside [region_lo, region_hi]^2, issuing one
/// query per frame. Equal specs produce equal results and checksums, on
/// any thread, provided the tree contents visible to each frame are equal.
struct SessionSpec {
  SessionKind kind = SessionKind::kSession;
  uint64_t seed = 1;
  int frames = 100;
  double frame_dt = 0.1;
  /// First frame covers [t0, t0 + frame_dt].
  double t0 = 1.0;
  /// Side length of the square view window (kSession / kNpdq).
  double window = 8.0;
  /// Neighbor count (kKnn).
  int k = 8;
  /// Mean straight-leg duration of the observer's flight.
  double mean_leg = 4.0;
  /// The observer bounces inside this square. Tests running concurrent
  /// inserts confine readers and writer to disjoint regions, which makes
  /// every interleaving deliver identical results.
  double region_lo = 6.0;
  double region_hi = 94.0;
  /// Query hot path for every engine the session drives (results and
  /// QueryStats are bit-identical across paths; the determinism tests
  /// assert exactly that).
  HotPath hot_path = HotPath::kSoa;

  // --- Overload-resilience knobs (all defaults preserve the pre-budget
  // engine bit-for-bit: no budget is consulted, no frame is shed). ---

  /// Client identity for admission quotas.
  uint64_t client_id = 0;
  /// Service class: admission headroom and governor shedding order.
  SessionPriority priority = SessionPriority::kNormal;
  /// Per-frame wall-clock deadline in microseconds; a frame that exceeds
  /// it finishes degraded (kPartial). 0 = unbounded.
  uint64_t frame_deadline_us = 0;
  /// Per-frame node-read budget; same degradation. 0 = unbounded.
  uint64_t frame_node_budget = 0;
  /// Optional externally owned budget, the cooperative-cancellation
  /// channel: another thread calls budget->RequestCancel() and the session
  /// winds up with Outcome::kCancelled after its current frame. When null
  /// and a deadline/node budget (or governor) is active, the runner uses a
  /// private budget. Must outlive the run.
  QueryBudget* budget = nullptr;
  /// Record each evaluated frame's wall time into
  /// SessionResult::frame_latencies_us (the abl_sharding p99 source). Off
  /// by default: no extra clock reads on the frame path.
  bool record_frame_latency = false;
};

/// Outcome of one session.
struct SessionResult {
  /// How the session ended. Only kCompleted sessions contribute a failure
  /// Status to the report-level aggregate; rejected sessions carry their
  /// ResourceExhausted status here without poisoning it.
  enum class Outcome : uint8_t { kCompleted, kRejected, kCancelled };

  Status status;  // First frame failure / rejection cause, or OK.
  Outcome outcome = Outcome::kCompleted;
  /// FNV-1a over (frame index, sorted result keys / neighbor distances).
  uint64_t checksum = 0;
  uint64_t objects_delivered = 0;
  uint64_t frames_completed = 0;
  /// Frames dropped whole by the overload governor (not evaluated at all).
  uint64_t frames_shed = 0;
  /// Frames answered degraded because the budget stopped the traversal.
  uint64_t frames_degraded = 0;
  /// This session's query-processing cost (disk accesses etc.).
  QueryStats stats;
  /// Wall time of each evaluated frame, microseconds, in frame order
  /// (empty unless SessionSpec::record_frame_latency).
  std::vector<uint64_t> frame_latencies_us;
};

/// Aggregate outcome of one SessionScheduler::Run.
struct ExecutorReport {
  std::vector<SessionResult> sessions;
  /// Sum of every session's QueryStats.
  QueryStats total_stats;
  uint64_t total_objects = 0;
  /// Shared-pool hit/miss deltas over this run (0 when no pool was given).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  /// Sessions refused at admission / cancelled cooperatively.
  uint64_t sessions_rejected = 0;
  uint64_t sessions_cancelled = 0;
  uint64_t total_frames_shed = 0;
  uint64_t total_frames_degraded = 0;
  /// Deepest pool-queue depth observed at submit time during this run.
  size_t max_queue_depth = 0;
  double wall_seconds = 0.0;
  Status status;  // First completed-session failure, or OK.
};

/// Runs one session to completion. `reader` is the page source for every
/// query read (null: the tree's file). When `gate` is non-null the shared
/// side is held for each frame; pass null in single-threaded use. When
/// `governor` is non-null every frame consults it (shed / tightened
/// limits) and reports its wall time back.
SessionResult RunSession(RTree* tree, const SessionSpec& spec,
                         PageReader* reader, TreeGate* gate,
                         OverloadGovernor* governor = nullptr);

/// Runs a batch of sessions, one task per session, over a fixed-size
/// thread pool (num_threads <= 1: inline on the calling thread, in spec
/// order — the serial replay mode the differential tests compare against).
class SessionScheduler {
 public:
  struct Options {
    int num_threads = 1;
    /// Page source shared by all sessions (typically a sharded
    /// BufferPool); null reads the tree's file directly.
    PageReader* reader = nullptr;
    /// Reader/writer gate; null when no writer runs concurrently.
    TreeGate* gate = nullptr;
    /// When set, the report carries this pool's hit/miss deltas.
    BufferPool* pool = nullptr;
    /// Bound on the thread pool's task queue; 0 = unbounded. With no
    /// admission controller a full queue back-pressures the submitter.
    size_t max_queue = 0;
    /// Admission policy (not owned, may be null: admit everything).
    /// Rejected specs get a ResourceExhausted SessionResult with
    /// Outcome::kRejected and are never queued.
    AdmissionController* admission = nullptr;
    /// Overload governor (not owned, may be null). Attached to the pool's
    /// queue-depth probe for the duration of the run; every frame consults
    /// it and feeds its latency back.
    OverloadGovernor* governor = nullptr;
  };

  SessionScheduler(RTree* tree, const Options& options)
      : tree_(tree), options_(options) {}

  ExecutorReport Run(const std::vector<SessionSpec>& specs);

 private:
  RTree* tree_;
  Options options_;
};

}  // namespace dqmo

#endif  // DQMO_SERVER_EXECUTOR_H_
