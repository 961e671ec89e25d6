#include "server/scrubber.h"

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"
#include "server/durability.h"
#include "server/health.h"
#include "storage/fault.h"
#include "storage/image_format.h"
#include "storage/wal.h"

namespace dqmo {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

std::string ShardScrubber::PassReport::ToString() const {
  return StrFormat(
      "scrub{shards=%d, scanned=%llu, bad=%llu, rebuilt=%llu, promoted=%d, "
      "unrepairable=%d}",
      shards_scrubbed, static_cast<unsigned long long>(pages_scanned),
      static_cast<unsigned long long>(pages_bad),
      static_cast<unsigned long long>(pages_rebuilt), shards_promoted,
      shards_unrepairable);
}

ShardScrubber::ShardScrubber(ShardedEngine* engine, const ScrubOptions& options)
    : engine_(engine), options_(options) {
  DQMO_CHECK(engine != nullptr);
  DQMO_CHECK(engine->failure_domains());
}

ShardScrubber::~ShardScrubber() { Stop(); }

void ShardScrubber::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ShardScrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void ShardScrubber::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    ScrubPass();
    lock.lock();
  }
}

ShardScrubber::PassReport ShardScrubber::ScrubPass() {
  PassReport report;
  for (int i = 0; i < engine_->num_shards(); ++i) {
    CircuitBreaker* b = engine_->breaker(i);
    if (b == nullptr || b->state() != BreakerState::kOpen) continue;
    ScrubShard(i, &report);
  }
  passes_.fetch_add(1, std::memory_order_relaxed);
  return report;
}

void ShardScrubber::ScrubShard(int i, PassReport* report) {
  ShardedEngine::Shard& s = engine_->shard(i);
  ++report->shards_scrubbed;
  {
    auto guard = s.gate->LockExclusive();
    // No speculative read may be in flight: a reload reopens the image
    // under the fd and drops the frames, and a speculation issued
    // pre-rebuild must never land post-rebuild.
    if (s.prefetcher != nullptr) s.prefetcher->Quiesce();
    std::vector<PageId> bad;
    const uint64_t bad_count = s.file->VerifyAllPages(&bad);
    report->pages_scanned += s.file->num_pages();
    HealthMetrics::Get().scrub_pages->Add(s.file->num_pages());
    report->pages_bad += bad_count;
    if (bad_count > 0) {
      if (s.durable == nullptr) {
        // At-rest damage with nothing to rebuild from: the shard stays
        // quarantined, serving attributed kPartial frames.
        ++report->shards_unrepairable;
        return;
      }
      CrashPoints::Hit(crash_points::kScrubBeforeRepair);
      Status st = s.durable->ReloadFromDisk();
      if (!st.ok()) {
        // Durable pair itself damaged (or no checkpoint image yet).
        // Leave the breaker open; a later pass retries — recovery stays
        // monotone once whatever is corrupting reads clears.
        ++report->shards_unrepairable;
        return;
      }
      report->pages_rebuilt += bad_count;
      HealthMetrics::Get().scrub_pages_rebuilt->Add(bad_count);
      FlightRecorder::Record(FlightEventKind::kScrubRepair, i, bad_count);
    }
    // Caches may hold frames/nodes decoded from the damaged bytes.
    s.pool->Clear();
    if (s.node_cache != nullptr) s.node_cache->Clear();
  }
  // Drain outside the scrub guard: DrainRedo takes the gate itself, and a
  // write parked between the two acquisitions simply lands in this drain
  // (still open — inserts keep parking until promotion below).
  CrashPoints::Hit(crash_points::kScrubBeforeDrain);
  Status drain = engine_->DrainRedo(i);
  CrashPoints::Hit(crash_points::kScrubAfterDrain);
  if (!drain.ok()) return;  // DrainRedoLocked re-opened the breaker.
  s.breaker->OnRepairComplete();
  ++report->shards_promoted;
}

Result<OfflineRepair> RepairDurableShard(const std::string& pgf_path,
                                         const std::string& wal_path,
                                         const RTree::Options& tree) {
  OfflineRepair rep;
  if (FileExists(pgf_path)) {
    // Forensic pass first: count the damage before deciding how to heal.
    // The streaming loader's own verify is off so one pass sees every page.
    StreamPgfOptions forensic;
    forensic.verify_checksums = false;
    auto swept = StreamPgfPages(
        pgf_path, forensic, [&rep](uint64_t, const uint8_t* page) {
          if (!PageChecksumOk(page)) ++rep.pages_bad;
          return Status::OK();
        });
    if (!swept.ok()) rep.pages_bad = 1;  // Damaged beyond even loading.
  }

  DurableIndex::Options opt;
  opt.tree = tree;
  {
    Result<std::unique_ptr<DurableIndex>> open =
        DurableIndex::Open(pgf_path, wal_path, opt);
    if (open.ok()) {
      // Image and log both load: normal recovery (torn tails truncated,
      // post-checkpoint records replayed). A fresh checkpoint re-seals
      // everything and empties the log.
      std::unique_ptr<DurableIndex> idx = std::move(open).value();
      rep.replayed = idx->report().replayed;
      rep.segments = idx->tree()->num_segments();
      DQMO_RETURN_IF_ERROR(idx->Checkpoint());
      return rep;
    }
  }

  // The pair would not open — image corruption, or mid-log WAL damage
  // (which the scan below reproduces and propagates: that state genuinely
  // lost acknowledged data). Image damage is repairable exactly when the
  // WAL still covers the full insert history, i.e. was never reset by a
  // checkpoint: its first insert record carries LSN 1.
  uint64_t first_insert_lsn = 0;
  DQMO_RETURN_IF_ERROR(
      ScanWal(wal_path, [&first_insert_lsn](const WalRecord& r) {
        if (first_insert_lsn == 0 && r.type == WalRecordType::kInsert) {
          first_insert_lsn = r.lsn;
        }
        return Status::OK();
      }).status());
  if (first_insert_lsn != 1) {
    return Status::Corruption(
        "unrepairable: checkpoint image damaged and the WAL does not cover "
        "the full history (first insert LSN != 1)");
  }
  const std::string aside = pgf_path + ".damaged";
  std::remove(aside.c_str());
  if (std::rename(pgf_path.c_str(), aside.c_str()) != 0) {
    return Status::IOError("could not set damaged image aside: " + pgf_path);
  }
  rep.image_rebuilt = true;
  DQMO_ASSIGN_OR_RETURN(std::unique_ptr<DurableIndex> idx,
                        DurableIndex::Open(pgf_path, wal_path, opt));
  rep.replayed = idx->report().replayed;
  rep.segments = idx->tree()->num_segments();
  DQMO_RETURN_IF_ERROR(idx->Checkpoint());
  return rep;
}

}  // namespace dqmo
