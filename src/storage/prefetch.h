// Prefetcher: speculative page reads driven by the query's own declared
// future — PDQ/kNN peek the next k entries of their priority queues, NPDQ
// its recursion frontier, and hand those page ids here; the Prefetcher's
// own pread workers read them while the traversal chews on the current
// node. By the time the traversal pops the next entry, its page is
// (ideally) already resident: the disk latency was hidden behind CPU work
// instead of serialized after it.
//
// One mechanism: Hint creates a table entry per page and queues its id;
// one of clamp(depth, 2, 8) worker threads preads the page straight into
// that entry's buffer, serves the store's modelled device delay
// (DiskPageFile::sim_read_delay_us), and lands it. An in-flight entry is
// never erased before its read finishes, so a page id names exactly one
// read.
//
// Position in the read chain — at the BOTTOM, directly over the
// DiskPageFile:
//
//   BufferPool -> [breaker -> retry -> faulty] -> Prefetcher -> disk
//
// Everything above sees one PageReader and stays byte-identical: the
// FaultyPageReader still draws its synchronous fault stream in consumption
// order (chaos_test determinism), while the Prefetcher's speculative reads
// draw from FaultInjector::NextAsyncRead — a separate seeded stream that
// never shifts the synchronous one.
//
// Accounting (the differential-test contract, tests/disk_backend_test.cc):
//   * Hint charges prefetch_issued when it queues the read.
//   * A consumed landing charges prefetch_hits + the one physical_read the
//     store would have charged synchronously — hits are counted exactly
//     once, and node-level read counts stay identical to the memory
//     backend.
//   * A discarded landing (cancel, shed, quiesce, or stale: the file's
//     write_count() moved since the hint, so a write may have replaced the
//     page after the speculative read) charges prefetch_wasted +
//     physical_read (the disk really was read); a stale one is then read
//     synchronously.
//   * A failed speculative read charges nothing and the consumer falls
//     through to the synchronous path — same observable behaviour as if
//     the hint had never been issued; the frame is never poisoned.
#ifndef DQMO_STORAGE_PREFETCH_H_
#define DQMO_STORAGE_PREFETCH_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "storage/disk_file.h"
#include "storage/page_store.h"

namespace dqmo {

class FaultInjector;

class Prefetcher : public PageReader {
 public:
  struct Options {
    /// Max speculative reads outstanding (landed + in flight). Also sizes
    /// the worker pool: clamp(depth, 2, 8) threads.
    size_t depth = 8;
    /// Optional fault plane: speculative reads draw decisions from
    /// injector->NextAsyncRead at Hint (deterministic order); kSlow
    /// delays are served at consumption through `sleeper`, so a seeded
    /// slow-read storm delays async completions exactly like sync reads.
    /// May be swapped later via set_injector (under shard exclusion, like
    /// FaultyPageReader::set_injector).
    FaultInjector* injector = nullptr;
    /// Serves injected completion delays (microseconds); null sleeps for
    /// real. Injectable so latency-fault tests stay sleep-free.
    std::function<void(uint64_t delay_us)> sleeper;
  };

  /// `file` is not owned and must outlive the Prefetcher. Starts the
  /// worker threads; the destructor quiesces and joins them.
  Prefetcher(DiskPageFile* file, const Options& options);
  ~Prefetcher() override;

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Reads `id`, consuming a landed speculative read when one exists and
  /// no write came after its hint (the hit path), waiting for it when
  /// still in flight, or falling through to the synchronous store read
  /// (miss / failed or stale speculation). Same result and error surface
  /// as DiskPageFile::Read.
  Result<ReadResult> Read(PageId id) override;

  /// Charging hook: called once per speculative read about to be issued;
  /// returning false skips it (and stops this Hint call). The query layer
  /// passes QueryBudget::TryChargePrefetch through this — a function, not
  /// the type, so storage stays below query in the layering.
  using ChargeFn = std::function<bool()>;

  /// Declares the traversal's next page ids (most-imminent first). Issues
  /// speculative reads for ids not already tracked, up to the depth bound,
  /// each charged through `charge` (null: unbudgeted). Framed (written
  /// since the image), out-of-range, and duplicate ids are skipped.
  /// Best-effort and cheap to call every pop.
  void Hint(const PageId* ids, size_t n, const ChargeFn& charge = nullptr);
  void Hint(const std::vector<PageId>& ids,
            const ChargeFn& charge = nullptr) {
    Hint(ids.data(), ids.size(), charge);
  }

  /// Discards every tracked speculation (landed ones charge wasted; failed
  /// ones were counted when their read finished and charge nothing more;
  /// in-flight ones are marked canceled and discarded on completion).
  /// Called when a frame is shed or a session canceled. Returns the number
  /// of entries discarded or doomed.
  size_t CancelPending();

  /// Blocks until nothing is in flight, discarding all landings as wasted.
  /// After Quiesce: issued == hits + wasted + failed.
  void Quiesce();

  /// Swaps the async fault plane (null disarms). Requires the same
  /// exclusion as FaultyPageReader::set_injector.
  void set_injector(FaultInjector* injector);
  FaultInjector* injector() const { return options_.injector; }

  size_t depth() const { return options_.depth; }
  /// Entries currently tracked (landed + in flight); test introspection.
  size_t tracked() const;
  /// Speculative reads that failed (I/O error or injected) so far.
  uint64_t failed() const;

 private:
  enum class EntryState : uint8_t { kInflight, kLanded, kFailed };

  struct Entry {
    AlignedPageBuf buf;
    EntryState state = EntryState::kInflight;
    // The file's write_count() at Hint; a landing is served only while it
    // still matches.
    uint64_t write_count = 0;
    uint64_t delay_us = 0;  // Injected completion delay, served at consume.
    bool inject_fail = false;  // Decision drawn at Hint: fail on landing.
    bool canceled = false;     // Discard (as wasted) when it completes.
    // Causal attribution: the armed frame (if any) whose traversal hinted
    // this page, the shard it was hinted under, and the submit tick. A
    // consumed or discarded speculation reports a kPrefetchRead /
    // kPrefetchWaste span back into that frame's merged tree; if the frame
    // already closed, the span counts as an orphan instead of vanishing.
    Tracer::FrameHandle trace;
    int16_t shard = -1;
    uint64_t submit_ns = 0;
  };

  /// One worker: takes queued page ids in hint order, preads each into
  /// its entry's buffer outside the lock, then lands it.
  void WorkerLoop();
  /// Records the finished read of `id` in its entry: a doomed entry is
  /// discarded, a failed one kept (kFailed) for Read to fall through, the
  /// rest marked kLanded. mu_ held.
  void LandLocked(PageId id, bool io_ok);
  /// Charges a wasted discard (physical_read + prefetch_wasted) and reports
  /// the entry's kPrefetchWaste span to its hinting frame. mu_ held.
  void ChargeWasted(const Entry& entry, PageId id);
  /// Removes `it`'s entry. mu_ held.
  void EraseLocked(std::unordered_map<PageId, Entry>::iterator it);
  uint8_t* ThreadScratch();

  DiskPageFile* file_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;    // queued_ grew, or stop_ was set.
  std::condition_variable landed_cv_;  // An in-flight read finished.
  std::unordered_map<PageId, Entry> table_;
  std::deque<PageId> queued_;  // Hinted, not yet taken by a worker.
  size_t inflight_ = 0;        // Entries whose read has not finished.
  uint64_t failed_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  mutable std::mutex scratch_mu_;
  std::unordered_map<std::thread::id, AlignedPageBuf> scratch_;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_PREFETCH_H_
