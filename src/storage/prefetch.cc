#include "storage/prefetch.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/metrics.h"
#include "common/recorder.h"
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
    : file_(file), options_(options) {
  if (!options_.sleeper) {
    options_.sleeper = [](uint64_t delay_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    };
  }
  // Workers scale with depth — idle ones just sleep — so up to `depth`
  // reads (or modelled delays) really are in flight at once, like a device
  // queue.
  const size_t workers = std::clamp<size_t>(options_.depth, 2, 8);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Prefetcher::~Prefetcher() {
  Quiesce();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

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
  table_.erase(it);
  PrefetchMetrics::Get().inflight->Set(static_cast<int64_t>(table_.size()));
}

void Prefetcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queued_.empty(); });
    if (queued_.empty()) return;  // stop_ and drained.
    const PageId id = queued_.front();
    queued_.pop_front();
    // The entry stays in the table until this read lands, and node-based
    // map entries never move, so its buffer is filled outside the lock.
    uint8_t* buf = table_.find(id)->second.buf.data();
    lock.unlock();
    const ssize_t n = ::pread(file_->fd(), buf, kPageSize,
                              static_cast<off_t>(file_->PageOffset(id)));
    if (file_->sim_read_delay_us() > 0) {
      // Slow-device model: the landing arrives late, in this worker, so
      // the traversal's concurrent CPU work genuinely overlaps it.
      std::this_thread::sleep_for(
          std::chrono::microseconds(file_->sim_read_delay_us()));
    }
    lock.lock();
    LandLocked(id, n == static_cast<ssize_t>(kPageSize));
    landed_cv_.notify_all();
  }
}

void Prefetcher::LandLocked(PageId id, bool io_ok) {
  auto it = table_.find(id);
  Entry& entry = it->second;
  --inflight_;
  if (entry.canceled) {
    // Doomed while in flight: the read happened, so it is wasted, not
    // failed.
    if (io_ok) {
      ChargeWasted(entry, id);
    } else {
      ++failed_;
      PrefetchMetrics::Get().failed->Add();
    }
    EraseLocked(it);
  } else if (!io_ok || entry.inject_fail) {
    entry.state = EntryState::kFailed;
    ++failed_;
    PrefetchMetrics::Get().failed->Add();
  } else {
    entry.state = EntryState::kLanded;
  }
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
  std::unique_lock<std::mutex> lock(mu_);
  size_t queued = 0;
  // Hints run under the shared side of the gate, so no write lands while
  // this batch queues: one count stamps every entry.
  const uint64_t write_count = file_->write_count();
  for (size_t i = 0; i < n && table_.size() < options_.depth; ++i) {
    const PageId id = ids[i];
    if (id >= file_->num_pages()) continue;
    if (table_.count(id) != 0) continue;
    // A framed page was written since the image: its image bytes are
    // stale (or absent), and the sync path serves the frame.
    if (file_->HasFrame(id)) continue;
    if (charge && !charge()) break;
    Entry entry;
    entry.write_count = write_count;
    entry.trace = frame_trace;
    entry.shard = hint_shard;
    entry.submit_ns = submit_ns;
    if (options_.injector != nullptr) {
      // Decision drawn here: hint order is deterministic (it follows the
      // traversal's queue), so the async schedule replays even though the
      // workers' completion order does not.
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
    table_.emplace(id, std::move(entry));
    queued_.push_back(id);
    ++inflight_;
    ++queued;
    file_->mutable_stats()->prefetch_issued.fetch_add(
        1, std::memory_order_relaxed);
    PrefetchMetrics::Get().issued->Add();
    PrefetchMetrics::Get().inflight->Set(
        static_cast<int64_t>(table_.size()));
  }
  lock.unlock();
  for (size_t i = 0; i < queued; ++i) work_cv_.notify_one();
}

Result<PageReader::ReadResult> Prefetcher::Read(PageId id) {
  uint64_t delay_us = 0;
  uint8_t* scratch = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = table_.find(id);
    if (it != table_.end() && it->second.state == EntryState::kInflight) {
      const uint64_t tick = TickNs();
      // Other threads may rehash the table while this one waits: look the
      // entry up again on every wake. A doomed entry is gone once landed.
      landed_cv_.wait(lock, [&] {
        it = table_.find(id);
        return it == table_.end() ||
               it->second.state != EntryState::kInflight;
      });
      PrefetchMetrics::Get().wait_ns->RecordSince(tick);
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
            return PageChecksumError(id, entry.buf.data());
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
        // even though no frame is left (a checkpoint installed it).
        // Discard as wasted and read synchronously.
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
  size_t affected = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    Entry& entry = it->second;
    if (entry.state == EntryState::kInflight) {
      entry.canceled = true;  // Discarded on completion.
      ++affected;
      ++it;
      continue;
    }
    // A failed entry was counted when its read finished; dropping it
    // charges nothing more.
    if (entry.state == EntryState::kLanded) ChargeWasted(entry, it->first);
    ++affected;
    it = table_.erase(it);
  }
  PrefetchMetrics::Get().inflight->Set(static_cast<int64_t>(table_.size()));
  if (affected != 0) {
    FlightRecorder::Record(FlightEventKind::kPrefetchCancel, -1, affected);
  }
  return affected;
}

void Prefetcher::Quiesce() {
  std::unique_lock<std::mutex> lock(mu_);
  landed_cv_.wait(lock, [this] { return inflight_ == 0; });
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.state == EntryState::kLanded) {
      ChargeWasted(it->second, it->first);
    }
    it = table_.erase(it);
  }
  PrefetchMetrics::Get().inflight->Set(0);
}

}  // namespace dqmo
