#include "storage/prefetch.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"
#include "storage/fault.h"

namespace dqmo {
namespace {

struct PrefetchMetrics {
  Counter* issued;
  Counter* hits;
  Counter* wasted;
  Counter* failed;
  Gauge* inflight;
  Histogram* wait_ns;

  static PrefetchMetrics& Get() {
    static PrefetchMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return PrefetchMetrics{
          r.GetCounter("dqmo_prefetch_issued_total",
                       "Speculative page reads submitted"),
          r.GetCounter("dqmo_prefetch_hits_total",
                       "Speculative reads consumed by the traversal"),
          r.GetCounter("dqmo_prefetch_wasted_total",
                       "Speculative reads discarded unconsumed"),
          r.GetCounter("dqmo_prefetch_failed_total",
                       "Speculative reads that failed (I/O or injected)"),
          r.GetGauge("dqmo_prefetch_inflight",
                     "Speculative reads currently tracked"),
          r.GetHistogram("dqmo_prefetch_wait_ns",
                         "Time a consuming read waited for its in-flight "
                         "speculation to land"),
      };
    }();
    return m;
  }
};

}  // namespace

Prefetcher::Prefetcher(DiskPageFile* file, const Options& options)
    : file_(file),
      options_(options),
      queue_(file->MakeReadQueue(options.depth == 0 ? 1 : options.depth)) {
  if (!options_.sleeper) {
    options_.sleeper = [](uint64_t delay_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    };
  }
}

Prefetcher::~Prefetcher() { Quiesce(); }

void Prefetcher::set_injector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.injector = injector;
}

uint8_t* Prefetcher::ThreadScratch() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  return scratch_[std::this_thread::get_id()].data();
}

size_t Prefetcher::tracked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

uint64_t Prefetcher::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Prefetcher::ChargeWasted(const Entry& entry, PageId id) {
  // The disk really was read; the memory backend never would have — this
  // is exactly the physical_reads delta the differential test predicts:
  // disk == memory + prefetch_wasted.
  file_->mutable_stats()->physical_reads.fetch_add(1,
                                                   std::memory_order_relaxed);
  file_->mutable_stats()->prefetch_wasted.fetch_add(
      1, std::memory_order_relaxed);
  PrefetchMetrics::Get().wasted->Add();
  if (entry.trace != nullptr) {
    const uint64_t now = NowNs();
    Tracer::RecordRemote(entry.trace, SpanKind::kPrefetchWaste,
                         SpanOrigin::kPrefetchWorker, entry.shard,
                         entry.submit_ns, now - entry.submit_ns, id);
  }
}

void Prefetcher::EraseLocked(
    std::unordered_map<PageId, Entry>::iterator it) {
  tag_to_page_.erase(it->second.tag);
  table_.erase(it);
  PrefetchMetrics::Get().inflight->Set(static_cast<int64_t>(table_.size()));
}

size_t Prefetcher::ReapLocked(bool block) {
  reap_scratch_.clear();
  const size_t n = queue_->Reap(&reap_scratch_, block);
  for (const AsyncCompletion& done : reap_scratch_) {
    auto tag_it = tag_to_page_.find(done.tag);
    if (tag_it == tag_to_page_.end()) continue;  // Already force-erased.
    auto it = table_.find(tag_it->second);
    if (it == table_.end() || it->second.tag != done.tag) continue;
    Entry& entry = it->second;
    const bool io_ok = done.result == static_cast<int32_t>(kPageSize);
    if (entry.canceled) {
      // Doomed while in flight: the buffer is safe to free now; the read
      // happened, so it is wasted, not failed.
      if (io_ok) {
        ChargeWasted(entry, tag_it->second);
      } else {
        ++failed_;
        PrefetchMetrics::Get().failed->Add();
      }
      EraseLocked(it);
      continue;
    }
    if (!io_ok || entry.inject_fail) {
      entry.state = EntryState::kFailed;
      ++failed_;
      PrefetchMetrics::Get().failed->Add();
    } else {
      entry.state = EntryState::kLanded;
    }
  }
  return n;
}

void Prefetcher::Hint(const PageId* ids, size_t n, const ChargeFn& charge) {
  if (options_.depth == 0 || n == 0) return;
  // Causal capture happens here, on the frame thread, before the lock: the
  // active-frame handle and shard tag are thread-local and meaningless on
  // the completion side. One out-of-line call per Hint, zero when unarmed.
  Tracer::FrameHandle frame_trace;
  int16_t hint_shard = -1;
  uint64_t submit_ns = 0;
  if (internal::ThreadFrameArmed()) {
    frame_trace = Tracer::ActiveFrame();
    hint_shard = internal::ThreadCurrentShard();
    submit_ns = NowNs();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Free completed slots first so a steady traversal keeps the pipe full.
  ReapLocked(/*block=*/false);
  // Hints run under the shared side of the gate, so no write lands while
  // this batch submits: one count stamps every entry.
  const uint64_t write_count = file_->write_count();
  for (size_t i = 0; i < n && table_.size() < options_.depth; ++i) {
    const PageId id = ids[i];
    if (id >= file_->num_pages()) continue;
    if (table_.count(id) != 0) continue;
    // A dirty frame means the on-disk bytes are stale; the sync path
    // serves those from the frame table.
    if (file_->HasDirtyFrame(id)) continue;
    if (charge && !charge()) break;
    Entry entry;
    entry.tag = next_tag_++;
    entry.write_count = write_count;
    entry.trace = frame_trace;
    entry.shard = hint_shard;
    entry.submit_ns = submit_ns;
    if (options_.injector != nullptr) {
      // Decision drawn at submit: submission order is deterministic (it
      // follows the traversal's hint order), so the async schedule
      // replays even though kernel completion order does not.
      const FaultInjector::Decision d =
          options_.injector->NextAsyncRead(id);
      using Kind = FaultInjector::Decision::Kind;
      if (d.kind == Kind::kTransientFail ||
          d.kind == Kind::kPermanentFail) {
        entry.inject_fail = true;
      } else if (d.kind == Kind::kSlow) {
        entry.delay_us = d.delay_us;
      }
    }
    auto [it, inserted] = table_.emplace(id, std::move(entry));
    AsyncRead read;
    read.tag = it->second.tag;
    read.offset = file_->PageOffset(id);
    read.buf = it->second.buf.data();
    read.len = kPageSize;
    if (!queue_->Submit(read).ok()) {
      table_.erase(it);  // Queue full: drop the speculation silently.
      break;
    }
    tag_to_page_[read.tag] = id;
    file_->mutable_stats()->prefetch_issued.fetch_add(
        1, std::memory_order_relaxed);
    PrefetchMetrics::Get().issued->Add();
    PrefetchMetrics::Get().inflight->Set(
        static_cast<int64_t>(table_.size()));
  }
}

Result<PageReader::ReadResult> Prefetcher::Read(PageId id) {
  uint64_t delay_us = 0;
  uint8_t* scratch = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = table_.find(id);
    if (it != table_.end() && it->second.state == EntryState::kInflight) {
      const uint64_t tick = TickNs();
      while (it->second.state == EntryState::kInflight) {
        if (ReapLocked(/*block=*/true) == 0) break;  // Queue drained.
        it = table_.find(id);
        if (it == table_.end()) break;
      }
      PrefetchMetrics::Get().wait_ns->RecordSince(tick);
      it = table_.find(id);
    }
    if (it != table_.end()) {
      Entry& entry = it->second;
      if (entry.state == EntryState::kFailed) {
        // Degrade to the synchronous path below. Nothing is charged: the
        // observable account matches a hint never issued, and the frame
        // the traversal fills from the sync read was never touched by the
        // failed speculation.
        EraseLocked(it);
      } else if (entry.state == EntryState::kLanded &&
                 entry.write_count == file_->write_count()) {
        // The hit path. Verify-once exactly like DiskPageFile::Read.
        if (file_->verify_on_read() && !file_->PageVerified(id)) {
          if (!PageChecksumOk(entry.buf.data())) {
            file_->mutable_stats()->checksum_failures.fetch_add(
                1, std::memory_order_relaxed);
            EraseLocked(it);
            return Status::Corruption(StrFormat(
                "page %u checksum mismatch (stored %08x, computed %08x)",
                id, StoredPageChecksum(entry.buf.data()),
                ComputePageChecksum(entry.buf.data())));
          }
          file_->MarkPageVerified(id);
        }
        scratch = ThreadScratch();
        std::memcpy(scratch, entry.buf.data(), kPageSize);
        delay_us = entry.delay_us;
        file_->mutable_stats()->physical_reads.fetch_add(
            1, std::memory_order_relaxed);
        file_->mutable_stats()->prefetch_hits.fetch_add(
            1, std::memory_order_relaxed);
        PrefetchMetrics::Get().hits->Add();
        if (entry.trace != nullptr) {
          const uint64_t now = NowNs();
          Tracer::RecordRemote(entry.trace, SpanKind::kPrefetchRead,
                               SpanOrigin::kPrefetchWorker, entry.shard,
                               entry.submit_ns, now - entry.submit_ns, id);
        }
        EraseLocked(it);
      } else if (entry.state == EntryState::kLanded) {
        // A write came after the hint: the landed bytes may predate it
        // even though no dirty frame is left (the write guard wrote it
        // back). Discard as wasted and read synchronously.
        ChargeWasted(entry, id);
        EraseLocked(it);
      }
    }
  }
  if (scratch != nullptr) {
    // Injected completion latency (the async arm of a slow-read storm) is
    // served at consumption, outside the lock — latency, not loss.
    if (delay_us != 0) options_.sleeper(delay_us);
    return ReadResult{scratch, /*physical=*/true};
  }
  return file_->Read(id);
}

size_t Prefetcher::CancelPending() {
  std::lock_guard<std::mutex> lock(mu_);
  ReapLocked(/*block=*/false);
  size_t affected = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    Entry& entry = it->second;
    if (entry.state == EntryState::kInflight) {
      entry.canceled = true;  // Discarded on completion.
      ++affected;
      ++it;
      continue;
    }
    if (entry.state == EntryState::kLanded) {
      ChargeWasted(entry, it->first);
    } else {
      ++failed_;
      PrefetchMetrics::Get().failed->Add();
    }
    ++affected;
    tag_to_page_.erase(entry.tag);
    it = table_.erase(it);
  }
  PrefetchMetrics::Get().inflight->Set(static_cast<int64_t>(table_.size()));
  if (affected != 0) {
    FlightRecorder::Record(FlightEventKind::kPrefetchCancel, -1, affected);
  }
  return affected;
}

void Prefetcher::Quiesce() {
  std::lock_guard<std::mutex> lock(mu_);
  while (queue_->inflight() > 0) {
    if (ReapLocked(/*block=*/true) == 0) break;
  }
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.state == EntryState::kLanded) {
      ChargeWasted(it->second, it->first);
    } else if (it->second.state == EntryState::kInflight) {
      // Unreachable after the drain above, but never leak silently.
      ChargeWasted(it->second, it->first);
    }
    tag_to_page_.erase(it->second.tag);
    it = table_.erase(it);
  }
  PrefetchMetrics::Get().inflight->Set(0);
}

}  // namespace dqmo
