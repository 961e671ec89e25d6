#include "server/shard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "common/check.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"
#include "rtree/bulk_load.h"
#include "rtree/layout.h"

namespace dqmo {
namespace {

// Lock sharding inside each shard's BufferPool.
constexpr int kPoolShards = 4;

struct ShardMetrics {
  Gauge* shard_count;
  Counter* inserts;
  Counter* batches;
  Histogram* batch_fanout;

  static ShardMetrics& Get() {
    static ShardMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ShardMetrics{
          r.GetGauge("dqmo_shard_count",
                     "Shards in the most recently created sharded engine"),
          r.GetCounter("dqmo_shard_inserts_total",
                       "Motion updates routed through the sharded engine"),
          r.GetCounter("dqmo_shard_insert_batches_total",
                       "Insert batches routed through the sharded engine"),
          r.GetHistogram("dqmo_shard_batch_fanout",
                         "Shards touched (gate acquisitions) per batch"),
      };
    }();
    return m;
  }
};

/// Applies one parked write to its shard's tree; returns whether the tree
/// changed. A durable shard's record already sits in its WAL (parking
/// logged it, and that sync was the ack), so the one redo step applies it
/// without logging it again and skips by LSN what a repair's full-WAL
/// replay already applied. An in-memory shard's queue is the only copy.
Result<bool> ApplyParked(ShardedEngine::Shard* s,
                         const RedoQueue::Entry& e) {
  if (s->durable != nullptr) return s->durable->Redo(e.lsn, e.motion);
  DQMO_RETURN_IF_ERROR(s->tree->Insert(e.motion));
  return true;
}

std::string ShardFileName(const std::string& dir, int shard,
                          const char* suffix) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d.%s", shard, suffix);
  return dir + "/" + name;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardMap.

ShardMap::ShardMap(int num_shards, double space_size, bool speed_split,
                   double speed_split_threshold)
    : num_shards_(num_shards),
      space_size_(space_size),
      // One shard cannot split by speed; the whole world is one cell.
      split_(speed_split && num_shards >= 2),
      threshold_(speed_split_threshold) {
  DQMO_CHECK(num_shards >= 1);
  DQMO_CHECK(space_size > 0.0);
  if (split_) {
    const int fast = std::max(1, num_shards / 4);
    slow_ = MakeGrid(0, num_shards - fast);
    fast_ = MakeGrid(num_shards - fast, fast);
  } else {
    slow_ = MakeGrid(0, num_shards);
    fast_ = slow_;
  }
}

ShardMap::ClassGrid ShardMap::MakeGrid(int first, int count) {
  ClassGrid g;
  g.first = first;
  g.count = count;
  // Largest divisor <= sqrt(count) keeps cells near-square for any count.
  g.rows = 1;
  for (int r = 1; r * r <= count; ++r) {
    if (count % r == 0) g.rows = r;
  }
  g.cols = count / g.rows;
  return g;
}

int ShardMap::CellOf(const ClassGrid& grid, const MotionSegment& m) const {
  // Route by the segment's spatial midpoint: one owner per segment, and a
  // pure function of the geometry.
  const double mx = 0.5 * (m.seg.p0[0] + m.seg.p1[0]);
  const double my = 0.5 * (m.seg.p0[1] + m.seg.p1[1]);
  const int col = std::clamp(
      static_cast<int>(mx / space_size_ * grid.cols), 0, grid.cols - 1);
  const int row = std::clamp(
      static_cast<int>(my / space_size_ * grid.rows), 0, grid.rows - 1);
  return grid.first + row * grid.cols + col;
}

int ShardMap::ShardOf(const MotionSegment& m) const {
  if (!split_) return CellOf(slow_, m);
  const bool fast = m.seg.Speed() >= threshold_;
  return CellOf(fast ? fast_ : slow_, m);
}

std::string ShardMap::Describe() const {
  if (!split_) {
    return StrFormat("%d shard(s): %dx%d grid, no speed split", num_shards_,
                     slow_.rows, slow_.cols);
  }
  return StrFormat("%d shards: slow %dx%d grid + fast %dx%d grid (speed >= %s)",
                   num_shards_, slow_.rows, slow_.cols, fast_.rows, fast_.cols,
                   FormatDouble(threshold_).c_str());
}

// ---------------------------------------------------------------------------
// ShardedEngine.

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const ShardedEngineOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("need at least one shard");
  }
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(options));

  const bool durable = !options.durable_dir.empty();
  if (durable) {
    std::error_code ec;
    std::filesystem::create_directories(options.durable_dir, ec);
    if (ec) {
      return Status::IOError(StrFormat("cannot create %s: %s",
                                       options.durable_dir.c_str(),
                                       ec.message().c_str()));
    }
  }

  // Per-shard slice of the page_budget_mb memory budget: 3/4 to the
  // BufferPool, floor of 16 pages so tiny budgets stay functional. A disk
  // store's frames are not budgeted: they hold the pages written since the
  // shard's last checkpoint, so the checkpoint cadence bounds them.
  size_t pool_pages = options.pool_pages;
  if (options.page_budget_mb > 0) {
    const size_t budget_pages = options.page_budget_mb *
                                (size_t{1} << 20) / kPageSize /
                                static_cast<size_t>(options.num_shards);
    pool_pages = std::max<size_t>(16, budget_pages * 3 / 4);
  }

  for (int i = 0; i < options.num_shards; ++i) {
    auto s = std::make_unique<Shard>();
    if (durable) {
      DurableIndex::Options dopt;
      dopt.tree = options.tree;
      dopt.io_backend = options.io_backend;
      DQMO_ASSIGN_OR_RETURN(
          s->durable,
          DurableIndex::Open(ShardFileName(options.durable_dir, i, "pgf"),
                             ShardFileName(options.durable_dir, i, "wal"),
                             dopt));
      s->file = s->durable->file();
      s->tree = s->durable->tree();
      if (s->durable->disk_file() != nullptr && options.prefetch_depth > 0) {
        // Each shard gets its own Prefetcher over its own fd and workers;
        // shards share nothing, so speculation in one never steals another's
        // read slots.
        Prefetcher::Options popt;
        popt.depth = options.prefetch_depth;
        s->prefetcher = std::make_unique<Prefetcher>(
            s->durable->disk_file(), popt);
      }
    } else {
      DQMO_ASSIGN_OR_RETURN(s->memory_tree,
                            RTree::Create(&s->memory_file, options.tree));
      s->file = &s->memory_file;
      s->tree = s->memory_tree.get();
    }
    engine->BuildReadStack(s.get(), i, pool_pages);
    engine->shards_.push_back(std::move(s));
  }
  ShardMetrics::Get().shard_count->Set(options.num_shards);
  return engine;
}

void ShardedEngine::BuildReadStack(Shard* s, int i, size_t pool_pages) {
  s->pool = std::make_unique<BufferPool>(s->file, pool_pages, kPoolShards);
  if (s->prefetcher != nullptr) s->pool->set_source(s->prefetcher.get());
  if (options_.cache_nodes > 0) {
    s->node_cache = std::make_unique<DecodedNodeCache>(options_.cache_nodes);
    s->tree->AttachNodeCache(s->node_cache.get());
  }
  s->gate = std::make_unique<TreeGate>(s->file, s->pool.get());
  if (!options_.failure_domains) return;
  s->breaker = std::make_unique<CircuitBreaker>(i, options_.breaker);
  // Disk mode slots the Prefetcher at the BOTTOM of the chain (directly
  // over the DiskPageFile): the fault plane above keeps drawing its
  // synchronous stream in consumption order, untouched by speculation.
  PageReader* bottom =
      s->prefetcher != nullptr ? static_cast<PageReader*>(s->prefetcher.get())
                               : static_cast<PageReader*>(s->file);
  s->faulty = std::make_unique<FaultyPageReader>(bottom, nullptr);
  // The retrying reader verifies every page: the integrity net under the
  // pool.
  s->retry = std::make_unique<RetryingPageReader>(
      s->faulty.get(), RetryingPageReader::RetryPolicy(),
      s->file->mutable_stats());
  s->breaker_gate =
      std::make_unique<BreakerGateReader>(s->retry.get(), s->breaker.get());
  s->redo = std::make_unique<RedoQueue>();
  s->pool->set_source(s->breaker_gate.get());
}

FaultInjector* ShardedEngine::SwapInjector(
    int i, std::unique_ptr<FaultInjector> injector) {
  Shard* s = shards_[static_cast<size_t>(i)].get();
  DQMO_CHECK(s->faulty != nullptr);  // failure_domains mode only.
  auto guard = s->gate->LockExclusive();
  // Speculations issued under the old schedule must not land under the
  // new one; quiescing also stops any async read from racing the swap.
  if (s->prefetcher != nullptr) s->prefetcher->Quiesce();
  s->faulty->set_injector(injector.get());
  if (s->prefetcher != nullptr) s->prefetcher->set_injector(injector.get());
  s->injector = std::move(injector);
  // Drop the shard's caches so the schedule bites on the next read rather
  // than whenever eviction happens to reach the hot pages.
  s->pool->Clear();
  if (s->node_cache != nullptr) s->node_cache->Clear();
  return s->injector.get();
}

FaultInjector* ShardedEngine::ArmShardFault(int i,
                                            const FaultInjector::Options& o) {
  return SwapInjector(i, std::make_unique<FaultInjector>(o));
}

void ShardedEngine::ClearShardFault(int i) { SwapInjector(i, nullptr); }

Status ShardedEngine::DrainRedo(int i) {
  Shard* s = shards_[static_cast<size_t>(i)].get();
  if (s->redo == nullptr || s->redo->depth() == 0) return Status::OK();
  auto guard = s->gate->LockExclusive();
  return DrainRedoLocked(s);
}

Status ShardedEngine::DrainRedoLocked(Shard* s) {
  std::vector<RedoQueue::Entry> entries = s->redo->Take();
  if (entries.empty()) return Status::OK();
  Status st = Status::OK();
  uint64_t applied = 0;
  size_t next = 0;
  for (; next < entries.size(); ++next) {
    Result<bool> done = ApplyParked(s, entries[next]);
    if (!done.ok()) {
      st = done.status();
      break;
    }
    if (*done) ++applied;
  }
  if (!st.ok()) {
    // Put the unapplied tail back (front of the queue, order preserved) so
    // a later drain — typically after the scrubber repairs whatever made
    // this insert fail — still applies every acked write.
    std::vector<RedoQueue::Entry> tail(entries.begin() +
                                           static_cast<long>(next),
                                       entries.end());
    s->redo->Restore(std::move(tail));
    if (s->breaker != nullptr) s->breaker->ForceOpen("redo drain failed");
  }
  HealthMetrics::Get().redo_drained->Add(applied);
  if (applied != 0) {
    FlightRecorder::Record(
        FlightEventKind::kRedoDrain,
        s->breaker != nullptr ? s->breaker->shard() : -1, applied);
  }
  return st;
}

Status ShardedEngine::ParkLocked(Shard* s, const MotionSegment& m) {
  MotionSegment stored = m;
  stored.seg = QuantizeStored(m.seg);
  uint64_t lsn = 0;
  if (s->durable != nullptr) {
    // Park = log to the shard's own WAL without touching the (possibly
    // damaged) tree. WriteShard's Sync acknowledges it like any durable
    // insert, so "acked writes are never lost" needs no new recovery
    // machinery: restart replays them from the log, live reinstatement
    // drains them by LSN. A refused Log parks nothing.
    DQMO_ASSIGN_OR_RETURN(lsn, s->durable->Log(stored));
  }
  s->redo->Park(lsn, stored);
  FlightRecorder::Record(FlightEventKind::kRedoPark,
                         s->breaker != nullptr ? s->breaker->shard() : -1,
                         lsn);
  return Status::OK();
}

Status ShardedEngine::ApplyLocked(
    Shard* s, const std::vector<const MotionSegment*>& group) {
  // The quarantine decision and any pending drain happen under the same
  // guard as the writes: a parked entry's LSN is always below any later
  // normal insert's, so "drain before insert" can never skip one.
  if (s->breaker != nullptr && s->breaker->state() == BreakerState::kOpen) {
    for (const MotionSegment* m : group) {
      DQMO_RETURN_IF_ERROR(ParkLocked(s, *m));
    }
    return Status::OK();
  }
  if (s->redo != nullptr && s->redo->depth() > 0) {
    DQMO_RETURN_IF_ERROR(DrainRedoLocked(s));
  }
  for (const MotionSegment* m : group) {
    DQMO_RETURN_IF_ERROR(s->durable != nullptr ? s->durable->Insert(*m)
                                               : s->tree->Insert(*m));
  }
  return Status::OK();
}

Status ShardedEngine::WriteShard(
    Shard* s, const std::vector<const MotionSegment*>& group) {
  Status st;
  {
    auto guard = s->gate->LockExclusive();
    st = ApplyLocked(s, group);
    // The acknowledgment barrier, still exclusive: whatever the group
    // logged is durable before readers resume, so no session observes an
    // un-logged motion, and this Status is the write's ack (parked or
    // not). A failed sync is final: the shard refuses every later write
    // until it is reopened.
    if (s->durable != nullptr) {
      const Status synced = s->durable->Sync();
      if (st.ok()) st = synced;
    }
  }
  if (!st.ok() && s->breaker != nullptr) s->breaker->OnWalOutcome(false);
  return st;
}

Status ShardedEngine::Insert(const MotionSegment& m) {
  ShardMetrics::Get().inserts->Add();
  return WriteShard(shards_[static_cast<size_t>(map_.ShardOf(m))].get(), {&m});
}

Status ShardedEngine::InsertBatch(const std::vector<MotionSegment>& batch) {
  // Group by shard first so each shard's gate is taken exactly once.
  std::unordered_map<int, std::vector<const MotionSegment*>> groups;
  for (const MotionSegment& m : batch) {
    groups[map_.ShardOf(m)].push_back(&m);
  }
  ShardMetrics& sm = ShardMetrics::Get();
  sm.batches->Add();
  sm.batch_fanout->Record(groups.size());
  sm.inserts->Add(batch.size());
  for (const auto& [shard, group] : groups) {
    DQMO_RETURN_IF_ERROR(
        WriteShard(shards_[static_cast<size_t>(shard)].get(), group));
  }
  return Status::OK();
}

Status ShardedEngine::BulkLoad(std::vector<MotionSegment> data) {
  if (!options_.durable_dir.empty()) {
    return Status::InvalidArgument("BulkLoad: in-memory engines only");
  }
  for (const auto& s : shards_) {
    if (s->tree->num_segments() != 0) {
      return Status::InvalidArgument("BulkLoad requires empty shards");
    }
  }
  std::vector<std::vector<MotionSegment>> parts(shards_.size());
  for (MotionSegment& m : data) {
    parts[static_cast<size_t>(map_.ShardOf(m))].push_back(std::move(m));
  }
  data.clear();
  ShardMetrics::Get().inserts->Add(
      [&parts] {
        size_t n = 0;
        for (const auto& p : parts) n += p.size();
        return n;
      }());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // STR packing needs an empty file; rebuild the shard's stack around a
    // fresh one (the old stack held only the empty insert-built tree).
    auto s = std::make_unique<Shard>();
    DQMO_ASSIGN_OR_RETURN(
        s->memory_tree,
        dqmo::BulkLoad(&s->memory_file, std::move(parts[i]),
                       BulkLoadOptions{options_.tree, 0.5}));
    DQMO_RETURN_IF_ERROR(s->memory_file.Publish());
    s->file = &s->memory_file;
    s->tree = s->memory_tree.get();
    BuildReadStack(s.get(), static_cast<int>(i), options_.pool_pages);
    shards_[i] = std::move(s);
  }
  return Status::OK();
}

Status ShardedEngine::Checkpoint() {
  for (const auto& s : shards_) {
    if (s->durable == nullptr) {
      return Status::InvalidArgument("Checkpoint: durable engines only");
    }
    auto guard = s->gate->LockExclusive();
    if (s->redo != nullptr && s->redo->depth() > 0) {
      if (s->breaker != nullptr &&
          s->breaker->state() == BreakerState::kOpen) {
        // Checkpointing would reset a WAL whose parked records the tree
        // has not applied — the one way to lose an acked write. Skip; the
        // shard checkpoints after reinstatement.
        continue;
      }
      DQMO_RETURN_IF_ERROR(DrainRedoLocked(s.get()));
    }
    DQMO_RETURN_IF_ERROR(s->durable->Checkpoint());
  }
  return Status::OK();
}

uint64_t ShardedEngine::num_segments() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->tree->num_segments();
  return n;
}

IoStats ShardedEngine::TotalIoStats() const {
  IoStats total;
  for (const auto& s : shards_) total += s->file->stats();
  return total;
}

}  // namespace dqmo
