// Sharded scale-out engine: spatial + velocity partitioning of the index
// (ROADMAP item 1).
//
// The single-tree engine tops out where one R-tree, one WAL, and one
// writer gate serialize everything. This module partitions the segment
// space into N independent shards — a uniform spatial grid crossed with a
// 2-way speed split (slow/fast movers), following the grid fan-out of
// "Distributed processing of continuous range queries over moving
// objects" (arXiv 2206.01905) and the velocity partitioning of "Speed
// Partitioning for Indexing Moving Objects" (arXiv 1411.4940): fast
// movers produce long, fat space-time MBRs, and giving them their own
// trees stops them inflating every slow shard's internal nodes.
//
// Each shard owns the full single-tree storage stack: an RTree over its
// own PageFile (or DurableIndex: checkpoint + WAL), a BufferPool, a
// DecodedNodeCache, and a TreeGate. Shards share *nothing* — no common
// page ids, no common caches, no common gate — so per-shard writers never
// contend and a fault in one shard degrades only that shard's answers.
//
// Partitioning function (ShardMap):
//   1. speed class: fast iff segment speed >= speed_split_threshold
//      (skipped when speed_split is off or num_shards == 1);
//   2. within the class, a rows x cols grid over [0, space_size]^2,
//      indexed by the segment's spatial-midpoint cell.
// The map is a pure function of the segment, so the differential oracle
// can replay it and assert every segment lands in exactly one shard.
//
// Query fan-out, stream merging, and result-integrity aggregation live in
// server/router.h; this header is the data plane.
#ifndef DQMO_SERVER_SHARD_H_
#define DQMO_SERVER_SHARD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "motion/motion_segment.h"
#include "rtree/node_cache.h"
#include "rtree/rtree.h"
#include "server/durability.h"
#include "server/executor.h"
#include "server/health.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/fault.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/prefetch.h"

namespace dqmo {

/// The pure routing function: segment -> shard index.
///
/// With the speed split on and N >= 2 shards, max(1, N/4) shards serve the
/// fast class and the rest the slow class (most traffic is slow movers —
/// the paper's workload draws speeds from N(1, 0.25), so a 1.5 threshold
/// sends the ~2.3% tail to the fast trees where it cannot fatten anyone
/// else's MBRs). Each class lays its shards out as a rows x cols grid with
/// rows the largest divisor of the class size <= sqrt(size), so any shard
/// count works, not just perfect squares.
class ShardMap {
 public:
  ShardMap(int num_shards, double space_size, bool speed_split,
           double speed_split_threshold);

  /// Shard owning this segment. Pure: depends only on the constructor
  /// parameters and the segment's geometry (midpoint + speed), never on
  /// insertion order or current shard contents. Positions outside
  /// [0, space_size] clamp into the boundary cells.
  int ShardOf(const MotionSegment& m) const;

  int num_shards() const { return num_shards_; }
  bool speed_split() const { return split_; }
  double speed_split_threshold() const { return threshold_; }
  /// Shards serving the fast class (0 when the split is off).
  int fast_shards() const { return split_ ? fast_.count : 0; }
  int slow_shards() const { return slow_.count; }

  std::string Describe() const;

 private:
  /// One speed class's contiguous run of shard ids, laid out as a grid.
  struct ClassGrid {
    int first = 0;
    int count = 1;
    int rows = 1;
    int cols = 1;
  };
  static ClassGrid MakeGrid(int first, int count);
  int CellOf(const ClassGrid& grid, const MotionSegment& m) const;

  int num_shards_;
  double space_size_;
  bool split_;
  double threshold_;
  ClassGrid slow_;
  ClassGrid fast_;
};

struct ShardedEngineOptions {
  int num_shards = 1;
  /// Spatial extent of the world, [0, space_size]^2 (the paper's 100x100).
  double space_size = 100.0;
  /// Cross the spatial grid with a slow/fast speed split.
  bool speed_split = true;
  /// Segment speed (length units / time unit) at or above which a segment
  /// routes to the fast-class shards.
  double speed_split_threshold = 1.5;
  /// Per-shard BufferPool capacity (pages) and internal lock sharding.
  size_t pool_pages = 1024;
  int pool_shards = 4;
  /// Per-shard decoded-node cache capacity (nodes); 0 disables the cache.
  size_t cache_nodes = 512;
  RTree::Options tree;
  /// Non-empty: durable mode. Each shard persists as
  /// <durable_dir>/shard-NNNN.pgf + shard-NNNN.wal (the layout
  /// dqmo_tool scrub/walinfo/recover accept), group-commit WAL synced by
  /// each shard gate's write-guard release. Empty: in-memory page files.
  std::string durable_dir;
  /// Live-page backend for durable shards (storage/async_io.h). kMemory
  /// (default) keeps the PR-7 in-process PageFile. kPread/kUring give each
  /// shard its own DiskPageFile (shard-NNNN.pgf.live, own fd + async read
  /// queue) plus a Prefetcher the per-shard query sessions hint. Ignored
  /// for in-memory (non-durable) engines.
  IoBackend io_backend = IoBackend::kMemory;
  /// O_DIRECT for the disk backends (downgraded when the fs refuses).
  bool o_direct = false;
  /// Speculative reads outstanding per shard (0 disables prefetch).
  size_t prefetch_depth = 8;
  /// Memory budget (MiB) split across all shards' page caches: each shard
  /// gets budget/num_shards, of which 3/4 sizes its BufferPool and 1/4 its
  /// DiskPageFile dirty-frame table (floors of 16 pages each). 0 keeps
  /// pool_pages and the default dirty budget as given.
  size_t page_budget_mb = 0;
  /// Per-shard failure domains (server/health.h): each shard gains a
  /// circuit breaker + quarantine gate, a hedged/faulty/retrying read
  /// chain under its BufferPool, and a redo queue that parks writes while
  /// the breaker is open. Off (the default) leaves the PR 7 chain — and
  /// its byte-for-byte I/O accounting — untouched.
  bool failure_domains = false;
  BreakerOptions breaker;
  HedgeOptions hedge;
  /// Retry layer of the failure-domain chain (post-hedge, pre-breaker).
  RetryingPageReader::RetryPolicy retry;
  /// Serves injected slow-read delays for the per-shard fault planes;
  /// null sleeps for real. Tests inject a counting no-op for sleep-free
  /// slow-storm chaos programs.
  FaultyPageReader::Sleeper fault_sleeper;
  /// Reads DQMO_SHARDS (shard count), DQMO_SPEED_SPLIT (threshold;
  /// "off"/"0" disables the split), DQMO_FAILURE_DOMAINS, the
  /// DQMO_BREAKER_* / DQMO_HEDGE_* knobs, and the disk knobs —
  /// DQMO_IO_BACKEND, DQMO_O_DIRECT, DQMO_PREFETCH_DEPTH,
  /// DQMO_PAGE_BUDGET_MB — over these defaults.
  static ShardedEngineOptions FromEnv();
};

/// N independent single-tree engines behind one insert-routing facade.
class ShardedEngine {
 public:
  /// One shard's full storage stack. Readers take gate->LockShared() per
  /// frame and read tree through reader(); the insert path takes the
  /// exclusive side per routed batch.
  struct Shard {
    /// Durable mode only: owns file/tree/wal.
    std::unique_ptr<DurableIndex> durable;
    /// In-memory mode only.
    PageFile memory_file;
    std::unique_ptr<RTree> memory_tree;

    PageStore* file = nullptr;  // Points into durable or memory_file.
    RTree* tree = nullptr;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<DecodedNodeCache> node_cache;
    std::unique_ptr<TreeGate> gate;

    /// Disk mode only: speculative read driver over the shard's own
    /// DiskPageFile (own fd + async queue). Sits at the bottom of the read
    /// chain — pool (or the failure-domain chain) reads through it — and
    /// is hinted by this shard's query sessions.
    std::unique_ptr<Prefetcher> prefetcher;

    /// Failure-domain chain (options.failure_domains only; otherwise the
    /// pool reads the file directly). Pool misses flow
    ///   breaker_gate -> retry -> hedged -> faulty_{primary,secondary}
    /// -> file; the two faulty readers share one per-shard injector (the
    /// satellite-3 fix: fault config addressable per shard) but never a
    /// scratch buffer, because the hedge worker reads the primary while
    /// the caller probes the secondary.
    std::unique_ptr<CircuitBreaker> breaker;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<FaultyPageReader> faulty_primary;
    std::unique_ptr<FaultyPageReader> faulty_secondary;
    std::unique_ptr<HedgedPageReader> hedged;
    std::unique_ptr<RetryingPageReader> retry;
    std::unique_ptr<BreakerGateReader> breaker_gate;
    std::unique_ptr<RedoQueue> redo;

    /// Page source for this shard's queries (the shard's pool).
    PageReader* reader() { return pool.get(); }
  };

  static Result<std::unique_ptr<ShardedEngine>> Create(
      const ShardedEngineOptions& options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Routes one motion update to its shard and inserts it under that
  /// shard's exclusive gate (durable mode: with its WAL record; the
  /// guard's release syncs, and the post-release wal_status check makes
  /// the acknowledgment honest).
  Status Insert(const MotionSegment& m);

  /// Groups `batch` by shard and inserts each group under one exclusive
  /// gate acquisition per shard — the amortization Insert cannot do.
  Status InsertBatch(const std::vector<MotionSegment>& batch);

  /// Routes `data` into per-shard partitions and STR bulk-loads each
  /// shard's tree. Requires empty shards (fresh engine, in-memory mode).
  /// Query-equivalent to inserting every segment through Insert: routing
  /// uses the same ShardMap and storage the same quantization. The rebuilt
  /// shards' pools hold pool_pages each; page_budget_mb does not apply.
  Status BulkLoad(std::vector<MotionSegment> data);

  /// Durable mode: checkpoints every shard (image + WAL reset). A
  /// quarantined shard holding parked writes is skipped — resetting its
  /// WAL would orphan records the tree has not applied; its checkpoint
  /// resumes after reinstatement. Reinstated shards drain first.
  Status Checkpoint();

  /// Satellite 3: per-shard fault addressing. Swaps shard `i`'s fault
  /// injector (under its exclusive gate, with the hedge worker quiesced
  /// and that shard's caches dropped, so the new schedule bites on the
  /// very next read). failure_domains mode only. The injector stays owned
  /// by the engine; the returned pointer is valid until the next
  /// Arm/Clear on the same shard.
  FaultInjector* ArmShardFault(int i, const FaultInjector::Options& o);
  void ClearShardFault(int i);

  /// Applies shard `i`'s parked writes to its tree (exclusive gate taken
  /// inside). Durable shards replay by LSN — entries a repair already
  /// replayed from the WAL are skipped, so draining is idempotent across
  /// crash/repair interleavings. Called by the router at reinstatement,
  /// the scrubber after repair, and the insert path before a post-
  /// quarantine insert.
  Status DrainRedo(int i);

  bool failure_domains() const { return options_.failure_domains; }
  CircuitBreaker* breaker(int i) { return shard(i).breaker.get(); }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Shard& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const ShardMap& map() const { return map_; }
  const ShardedEngineOptions& options() const { return options_; }
  uint64_t num_segments() const;

  /// Sum of every shard's PageFile counters — the global I/O account.
  /// Shards share no storage, so per-shard stats are disjoint and the sum
  /// never double counts (tests/io_stats_test.cc pins this down).
  IoStats TotalIoStats() const;

 private:
  ShardedEngine(const ShardedEngineOptions& options)
      : options_(options),
        map_(options.num_shards, options.space_size, options.speed_split,
             options.speed_split_threshold) {}

  Status InsertIntoShard(Shard* s, const MotionSegment& m);
  /// Wires shard `i`'s read stack over its file and tree: a BufferPool of
  /// `pool_pages`, the decoded-node cache, the gate (syncing the shard's
  /// WAL when durable), and with failure_domains the breaker / retry /
  /// hedge / fault chain under the pool plus the redo queue.
  void BuildReadStack(Shard* s, int i, size_t pool_pages);
  /// Caller holds s->gate exclusively.
  Status DrainRedoLocked(Shard* s);
  Status ParkLocked(Shard* s, const MotionSegment& m);

  ShardedEngineOptions options_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dqmo

#endif  // DQMO_SERVER_SHARD_H_
