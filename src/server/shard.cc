#include "server/shard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"
#include "rtree/bulk_load.h"
#include "rtree/layout.h"

namespace dqmo {
namespace {

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
// ShardedEngineOptions.

ShardedEngineOptions ShardedEngineOptions::FromEnv() {
  ShardedEngineOptions o;
  o.num_shards = static_cast<int>(GetEnvInt("DQMO_SHARDS", o.num_shards));
  // DQMO_SPEED_SPLIT: "off" / "0" disables; a number sets the threshold.
  const std::string split =
      GetEnvString("DQMO_SPEED_SPLIT", std::to_string(o.speed_split_threshold));
  if (split == "off" || split == "0") {
    o.speed_split = false;
  } else {
    o.speed_split_threshold = GetEnvDouble("DQMO_SPEED_SPLIT",
                                           o.speed_split_threshold);
  }
  o.failure_domains = GetEnvBool("DQMO_FAILURE_DOMAINS", o.failure_domains);
  if (o.failure_domains) {
    o.breaker = BreakerOptions::FromEnv();
    o.hedge = HedgeOptions::FromEnv();
  }
  o.io_backend = IoBackendFromEnv();
  o.o_direct = GetEnvBool("DQMO_O_DIRECT", o.o_direct);
  o.prefetch_depth = PrefetchDepthFromEnv();
  o.page_budget_mb = static_cast<size_t>(
      GetEnvInt("DQMO_PAGE_BUDGET_MB",
                static_cast<int64_t>(o.page_budget_mb)));
  return o;
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

  // Per-shard slice of the DQMO_PAGE_BUDGET_MB memory budget: 3/4 to the
  // BufferPool, 1/4 to the disk store's dirty-frame table, floors of 16
  // pages each so tiny budgets stay functional.
  size_t pool_pages = options.pool_pages;
  size_t dirty_frame_budget = DiskPageFile::Options().dirty_frame_budget;
  if (options.page_budget_mb > 0) {
    const size_t budget_pages = options.page_budget_mb *
                                (size_t{1} << 20) / kPageSize /
                                static_cast<size_t>(options.num_shards);
    pool_pages = std::max<size_t>(16, budget_pages * 3 / 4);
    dirty_frame_budget = std::max<size_t>(16, budget_pages / 4);
  }

  for (int i = 0; i < options.num_shards; ++i) {
    auto s = std::make_unique<Shard>();
    if (durable) {
      DurableIndex::Options dopt;
      dopt.tree = options.tree;
      // Group commit: the shard gate's write-guard release syncs the batch.
      dopt.sync_each_insert = false;
      dopt.io_backend = options.io_backend;
      dopt.disk.o_direct = options.o_direct;
      dopt.disk.dirty_frame_budget = dirty_frame_budget;
      DQMO_ASSIGN_OR_RETURN(
          s->durable,
          DurableIndex::Open(ShardFileName(options.durable_dir, i, "pgf"),
                             ShardFileName(options.durable_dir, i, "wal"),
                             dopt));
      s->file = s->durable->file();
      s->tree = s->durable->tree();
      if (s->durable->disk_file() != nullptr && options.prefetch_depth > 0) {
        // Each shard gets its own Prefetcher over its own fd + async queue;
        // shards share nothing, so speculation in one never steals another's
        // queue slots.
        Prefetcher::Options popt;
        popt.depth = options.prefetch_depth;
        popt.sleeper = options.fault_sleeper;
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
  s->pool = std::make_unique<BufferPool>(s->file, pool_pages,
                                         options_.pool_shards);
  if (s->prefetcher != nullptr) s->pool->set_source(s->prefetcher.get());
  if (options_.cache_nodes > 0) {
    s->node_cache = std::make_unique<DecodedNodeCache>(options_.cache_nodes);
    s->tree->AttachNodeCache(s->node_cache.get());
  }
  s->gate = std::make_unique<TreeGate>(
      s->file, s->pool.get(),
      s->durable != nullptr ? s->durable->wal() : nullptr,
      s->node_cache.get());
  if (!options_.failure_domains) return;
  BreakerOptions bopt = options_.breaker;
  // Distinct, deterministic probe schedule per shard.
  bopt.probe_seed = options_.breaker.probe_seed + static_cast<uint64_t>(i);
  s->breaker = std::make_unique<CircuitBreaker>(i, bopt);
  // Disk mode slots the Prefetcher at the BOTTOM of the chain (directly
  // over the DiskPageFile): the fault plane above keeps drawing its
  // synchronous stream in consumption order, untouched by speculation.
  PageReader* bottom =
      s->prefetcher != nullptr ? static_cast<PageReader*>(s->prefetcher.get())
                               : static_cast<PageReader*>(s->file);
  s->faulty_primary = std::make_unique<FaultyPageReader>(
      bottom, nullptr, options_.fault_sleeper);
  s->faulty_secondary = std::make_unique<FaultyPageReader>(
      bottom, nullptr, options_.fault_sleeper);
  s->hedged = std::make_unique<HedgedPageReader>(
      s->faulty_primary.get(), s->faulty_secondary.get(), s->breaker.get(),
      options_.hedge);
  RetryingPageReader::RetryPolicy retry = options_.retry;
  retry.verify_checksums = true;  // The integrity net under the pool.
  s->retry = std::make_unique<RetryingPageReader>(s->hedged.get(), retry,
                                                  s->file->mutable_stats());
  s->breaker_gate =
      std::make_unique<BreakerGateReader>(s->retry.get(), s->breaker.get());
  s->redo = std::make_unique<RedoQueue>();
  s->pool->set_source(s->breaker_gate.get());
}

FaultInjector* ShardedEngine::ArmShardFault(int i,
                                            const FaultInjector::Options& o) {
  Shard* s = shards_[static_cast<size_t>(i)].get();
  DQMO_CHECK(s->faulty_primary != nullptr);  // failure_domains mode only.
  auto guard = s->gate->LockExclusive();
  s->hedged->Quiesce();  // No probe may hold the old injector mid-read.
  // Speculations issued under the old schedule must not land under the
  // new one; quiescing also stops any async read from racing the swap.
  if (s->prefetcher != nullptr) s->prefetcher->Quiesce();
  s->injector = std::make_unique<FaultInjector>(o);
  s->faulty_primary->set_injector(s->injector.get());
  s->faulty_secondary->set_injector(s->injector.get());
  if (s->prefetcher != nullptr) s->prefetcher->set_injector(s->injector.get());
  // Drop the shard's caches so the schedule bites on the next read rather
  // than whenever eviction happens to reach the hot pages.
  s->pool->Clear();
  if (s->node_cache != nullptr) s->node_cache->Clear();
  return s->injector.get();
}

void ShardedEngine::ClearShardFault(int i) {
  Shard* s = shards_[static_cast<size_t>(i)].get();
  DQMO_CHECK(s->faulty_primary != nullptr);
  auto guard = s->gate->LockExclusive();
  s->hedged->Quiesce();
  if (s->prefetcher != nullptr) s->prefetcher->Quiesce();
  s->faulty_primary->set_injector(nullptr);
  s->faulty_secondary->set_injector(nullptr);
  if (s->prefetcher != nullptr) s->prefetcher->set_injector(nullptr);
  s->injector.reset();
  s->pool->Clear();
  if (s->node_cache != nullptr) s->node_cache->Clear();
}

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
  if (s->durable != nullptr) {
    // The parked records already sit in the shard's WAL (parking appended
    // them there; that sync was the ack) — apply without re-logging,
    // exactly like recovery replay, and skip by LSN anything a repair's
    // full-WAL replay already materialized.
    RTree* tree = s->tree;
    tree->AttachWal(nullptr);
    for (; next < entries.size(); ++next) {
      const RedoQueue::Entry& e = entries[next];
      if (e.lsn <= tree->applied_lsn()) continue;
      st = tree->Insert(e.motion);
      if (!st.ok()) break;
      tree->set_applied_lsn(e.lsn);
      ++applied;
    }
    tree->AttachWal(s->durable->wal());
  } else {
    for (; next < entries.size(); ++next) {
      st = s->tree->Insert(entries[next].motion);
      if (!st.ok()) break;
      ++applied;
    }
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
    // Park = append to the shard's own WAL without touching the (possibly
    // damaged) tree. The gate's write-guard release syncs the batch, and
    // the caller's wal_status check makes the ack honest — the same
    // contract as a normal durable insert, so "acked writes are never
    // lost" needs no new recovery machinery: restart replays them from
    // the log, live reinstatement drains them by LSN.
    DQMO_ASSIGN_OR_RETURN(lsn, s->durable->wal()->AppendInsert(stored));
  }
  s->redo->Park(lsn, stored);
  FlightRecorder::Record(FlightEventKind::kRedoPark,
                         s->breaker != nullptr ? s->breaker->shard() : -1,
                         lsn);
  return Status::OK();
}

Status ShardedEngine::InsertIntoShard(Shard* s, const MotionSegment& m) {
  const bool durable = s->durable != nullptr;
  {
    auto guard = s->gate->LockExclusive();
    // The quarantine decision and any pending drain happen under the same
    // guard as the insert itself: a parked entry's LSN is always below any
    // later normal insert's, so "drain before insert" can never skip one.
    if (s->breaker != nullptr &&
        s->breaker->state() == BreakerState::kOpen) {
      DQMO_RETURN_IF_ERROR(ParkLocked(s, m));
    } else {
      if (s->redo != nullptr && s->redo->depth() > 0) {
        DQMO_RETURN_IF_ERROR(DrainRedoLocked(s));
      }
      Status st = durable ? s->durable->Insert(m) : s->tree->Insert(m);
      if (!st.ok()) {
        if (s->breaker != nullptr) s->breaker->OnWalOutcome(false);
        return st;
      }
    }
  }
  // The guard's release synced this shard's WAL; an insert (parked or not)
  // is only acknowledged once its redo record is durable.
  if (!durable) return Status::OK();
  Status ack = s->gate->wal_status();
  if (!ack.ok() && s->breaker != nullptr) s->breaker->OnWalOutcome(false);
  return ack;
}

Status ShardedEngine::Insert(const MotionSegment& m) {
  ShardMetrics::Get().inserts->Add();
  return InsertIntoShard(shards_[static_cast<size_t>(map_.ShardOf(m))].get(),
                         m);
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
  for (auto& [shard, group] : groups) {
    Shard* s = shards_[static_cast<size_t>(shard)].get();
    const bool durable = s->durable != nullptr;
    {
      auto guard = s->gate->LockExclusive();
      const bool open = s->breaker != nullptr &&
                        s->breaker->state() == BreakerState::kOpen;
      if (!open && s->redo != nullptr && s->redo->depth() > 0) {
        DQMO_RETURN_IF_ERROR(DrainRedoLocked(s));
      }
      for (const MotionSegment* m : group) {
        DQMO_RETURN_IF_ERROR(open ? ParkLocked(s, *m)
                                  : (durable ? s->durable->Insert(*m)
                                             : s->tree->Insert(*m)));
      }
    }
    if (durable) DQMO_RETURN_IF_ERROR(s->gate->wal_status());
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
