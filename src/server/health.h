// Per-shard failure domains: health tracking, circuit breaking, hedged
// reads, and the redo queue that parks writes for quarantined shards.
//
// PR 7 made the shard the unit of scale; this layer makes it the unit of
// *failure*. Each shard's read chain gains two decorators and a tracker:
//
//   BufferPool -> BreakerGateReader -> RetryingPageReader
//              -> HedgedPageReader  -> FaultyPageReader x2 -> PageFile
//
//   - CircuitBreaker: error-rate + latency EWMAs fed from post-retry read
//     outcomes and WAL acks, driving the classic three-state machine
//     (closed -> open -> half-open with seeded probe frames). While open,
//     BreakerGateReader fails every read of that shard *instantly* — the
//     router keeps calling the shard's sessions each frame, so the
//     existing kSkipSubtree machinery turns quarantine into attributed
//     kPartial frames with zero special cases in the merge paths, and the
//     per-shard session control state stays in observer lockstep for a
//     clean resync at reinstatement.
//   - HedgedPageReader: for slow-but-alive shards. The primary read runs
//     on a worker thread; if it has not answered within
//     max(min_latency, factor x latency EWMA) a second probe is issued on
//     the caller thread and the first successful result wins. Slow reads
//     therefore never open the breaker — errors do, latency gets hedged.
//   - RedoQueue: writes routed to a quarantined shard park instead of
//     touching a possibly-damaged tree. For durable shards the parked
//     record is appended to the *shard's own WAL* (synced before the ack),
//     so "acked writes are never lost" holds by the same ARIES argument as
//     normal inserts: a crash at any point replays them from the log, and
//     a live drain applies exactly the records the tree has not seen, by
//     LSN. For in-memory shards the queue is the ack domain (process
//     lifetime), matching the storage tier's guarantees.
//
// Everything is deterministic under a fixed seed (probe schedules, chaos
// programs) so a failing quarantine run replays bit-for-bit.
#ifndef DQMO_SERVER_HEALTH_H_
#define DQMO_SERVER_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "motion/motion_segment.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace dqmo {

/// The classic three states. kOpen = quarantined: reads short-circuit,
/// writes park. kHalfOpen = repaired (or cooled down), being probed back
/// into service frame by frame.
enum class BreakerState : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateName(BreakerState s);

struct BreakerOptions {
  /// EWMA smoothing factor for the per-read error indicator (1 = only the
  /// latest read matters).
  double error_alpha = 0.25;
  /// Error-rate EWMA at or above which the breaker opens...
  double open_error_rate = 0.5;
  /// ...once at least this many post-retry outcomes were observed.
  uint64_t min_samples = 8;
  /// Independent fast trip: this many consecutive failed reads open the
  /// breaker regardless of the EWMA (a freshly dead shard should not need
  /// min_samples frames to be noticed).
  uint64_t consecutive_failures = 4;
  /// Evaluated frames spent open before moving to half-open on our own
  /// (transient faults may simply pass). 0 = never: only the scrubber's
  /// OnRepairComplete() promotes, i.e. repair is mandatory.
  uint64_t cooldown_frames = 16;
  /// Probability that a half-open frame probes (serves reads normally) vs
  /// stays blocked. Drawn from a seeded stream: probe schedules replay.
  double probe_rate = 0.5;
  /// Consecutive healthy probe frames required to close.
  uint64_t probe_successes_to_close = 3;
  uint64_t probe_seed = 1;
  /// EWMA smoothing factor for successful-read latency (hedging threshold).
  double latency_alpha = 0.2;

  /// DQMO_BREAKER_ERROR_RATE, DQMO_BREAKER_MIN_SAMPLES,
  /// DQMO_BREAKER_CONSECUTIVE, DQMO_BREAKER_COOLDOWN_FRAMES,
  /// DQMO_BREAKER_PROBE_RATE, DQMO_BREAKER_PROBE_CLOSES.
  static BreakerOptions FromEnv();
};

/// Per-shard health tracker + three-state circuit breaker. Fed from three
/// planes: read outcomes (any reader thread, post-retry), WAL/write acks
/// (the insert path), and the router's frame plane (OnFrameStart /
/// OnProbeOutcome). Thread-safe; the read-side hot question "are reads
/// blocked right now?" is two relaxed atomic loads.
class CircuitBreaker {
 public:
  CircuitBreaker(int shard, const BreakerOptions& options);

  /// One post-retry read outcome. `latency_ns` is charged to the latency
  /// EWMA only for successful reads (a fast failure is not a fast shard).
  /// Error outcomes here mean the retry layer was *exhausted* — transient
  /// blips that a retry absorbed never reach the breaker.
  void OnReadOutcome(bool ok, uint64_t latency_ns);

  /// One WAL append/sync outcome from the write path.
  void OnWalOutcome(bool ok);

  /// What the router should do with this shard this frame.
  struct FrameDecision {
    /// Reads short-circuit this frame (open, or half-open non-probe).
    bool blocked = false;
    /// Half-open probe frame: reads flow; report the verdict via
    /// OnProbeOutcome once the shard's frame completed.
    bool probe = false;
  };

  /// Advances the frame plane: counts cooldown while open (possibly
  /// promoting to half-open), draws the probe coin while half-open.
  FrameDecision OnFrameStart();

  /// Verdict of a probe frame: `healthy` when the shard's frame completed
  /// with no skipped pages. Enough consecutive healthy probes close the
  /// breaker (resetting health state); one failed probe reopens it.
  void OnProbeOutcome(bool healthy);

  /// Quarantines immediately (chaos programs, operator action, scrub
  /// verdicts). No-op when already open.
  void ForceOpen(const std::string& cause);

  /// The scrubber finished rebuilding this shard: move open -> half-open
  /// so the router's probe frames re-admit it gradually.
  void OnRepairComplete();

  /// True when a read arriving *now* must be short-circuited. Cheap —
  /// called on every pool-miss read.
  bool ReadsBlocked() const {
    const auto s =
        static_cast<BreakerState>(state_.load(std::memory_order_relaxed));
    if (s == BreakerState::kClosed) return false;
    if (s == BreakerState::kOpen) return true;
    return !probe_frame_.load(std::memory_order_relaxed);
  }

  BreakerState state() const {
    return static_cast<BreakerState>(state_.load(std::memory_order_relaxed));
  }
  int shard() const { return shard_; }
  double error_rate() const;
  uint64_t latency_ewma_ns() const;
  /// Times the breaker entered kOpen (trips + failed probes).
  uint64_t open_events() const;
  uint64_t probe_frames() const;
  std::string last_open_cause() const;

 private:
  void OpenLocked(const std::string& cause);
  void SetStateLocked(BreakerState next);

  const int shard_;
  const BreakerOptions options_;

  mutable std::mutex mu_;
  // Guarded by mu_.
  Rng probe_rng_;
  double error_ewma_ = 0.0;
  double latency_ewma_ns_d_ = 0.0;
  uint64_t samples_ = 0;
  uint64_t consecutive_errors_ = 0;
  uint64_t frames_open_ = 0;
  uint64_t probe_streak_ = 0;
  uint64_t open_events_ = 0;
  uint64_t probe_frames_ = 0;
  std::string last_open_cause_;

  // Mirrors of the mu_-guarded state for the lock-free read-side question.
  std::atomic<uint8_t> state_{static_cast<uint8_t>(BreakerState::kClosed)};
  std::atomic<bool> probe_frame_{false};
  std::atomic<uint64_t> latency_ewma_ns_{0};
};

/// Top-of-chain decorator: the quarantine short-circuit plus the breaker's
/// outcome feed. Sits directly under the BufferPool, above the retry layer,
/// so (a) a blocked read costs nothing downstream and (b) outcomes reaching
/// the breaker are post-retry — only genuinely exhausted reads count.
class BreakerGateReader : public PageReader {
 public:
  /// Neither pointer owned. `clock_ns` is injectable for tests; null uses
  /// steady_clock.
  BreakerGateReader(PageReader* base, CircuitBreaker* breaker,
                    uint64_t (*clock_ns)() = nullptr);

  Result<ReadResult> Read(PageId id) override;

  uint64_t blocked_reads() const {
    return blocked_reads_.load(std::memory_order_relaxed);
  }

 private:
  PageReader* base_;
  CircuitBreaker* breaker_;
  uint64_t (*clock_ns_)();
  std::atomic<uint64_t> blocked_reads_{0};
  /// The chain below (retry Rng, faulty scratch, single-caller hedging) is
  /// stateful; concurrent pool misses from different sessions serialize
  /// here. Blocked reads and pool hits never touch it.
  std::mutex fetch_mu_;
};

struct HedgeOptions {
  /// Master switch; off keeps the chain a pure pass-through (and the
  /// worker thread unspawned).
  bool enabled = false;
  /// Hedge once the primary is this many times slower than the shard's
  /// successful-read latency EWMA...
  double latency_factor = 4.0;
  /// ...but never before this floor (a cold EWMA must not cause a hedge
  /// storm).
  uint64_t min_latency_us = 200;

  /// DQMO_HEDGE, DQMO_HEDGE_FACTOR, DQMO_HEDGE_MIN_US.
  static HedgeOptions FromEnv();
};

/// Tail-latency hedging for slow-but-alive shards: the primary read runs
/// on a dedicated worker thread; when it dawdles past the threshold a
/// second probe runs on the caller thread against an independent reader
/// (separate FaultyPageReader scratch — the two must not share buffers),
/// and the first result wins. Single caller at a time (it lives under the
/// per-shard BufferPool miss path, which serializes fetches per page);
/// the worker only ever touches `primary`.
///
/// Budget interaction: hedging is charged once by construction — the
/// traversal charges the QueryBudget per node *visit*, not per physical
/// probe, so a hedged node costs exactly what an unhedged one does. A
/// frame whose budget stopped reads no further node, so it issues no
/// hedge either. The reader holds no per-session state: many sessions
/// share it.
class HedgedPageReader : public PageReader {
 public:
  /// Pointers not owned. `health` supplies the latency EWMA (may be null:
  /// the floor alone decides). `clock_ns` injectable for tests.
  HedgedPageReader(PageReader* primary, PageReader* secondary,
                   CircuitBreaker* health, const HedgeOptions& options,
                   uint64_t (*clock_ns)() = nullptr);
  ~HedgedPageReader() override;

  Result<ReadResult> Read(PageId id) override;

  /// Blocks until no primary probe is outstanding on the worker. Callers
  /// that are about to mutate the chain underneath (swap a fault injector,
  /// reload the page file) quiesce first, under the shard's exclusive
  /// gate.
  void Quiesce();

  uint64_t hedges() const { return hedges_; }
  /// Hedges where the secondary probe delivered the winning result.
  uint64_t hedges_won() const { return hedges_won_; }
  /// Hedges where the primary finished first after all.
  uint64_t hedges_lost() const { return hedges_lost_; }

 private:
  struct Job {
    PageId id = 0;
    bool pending = false;   // Submitted, worker has not finished it.
    bool done = false;      // Finished, result not yet consumed.
    Status status = Status::OK();
    ReadResult result;
    // Causal attribution for the worker leg: the armed frame (if any) that
    // submitted this read, the shard it ran under, and the submit tick. The
    // worker reports its kHedgeProbe span back into that frame's merged
    // tree when it finishes — even if the hedge already won the race.
    Tracer::FrameHandle trace;
    int16_t shard = -1;
    uint64_t submit_ns = 0;
  };

  void WorkerLoop();
  /// Blocks until no job is outstanding (a previous hedge may have left
  /// the worker mid-read; its result buffer must not be overwritten while
  /// a caller still holds it, so we join here, at the *next* read).
  void DrainWorker(std::unique_lock<std::mutex>& lock);
  /// Copies a worker-produced page into this caller thread's own buffer.
  /// The worker's result points into the *worker thread's* per-thread
  /// scratch (the DiskPageFile contract ties scratch lifetime to the
  /// reading thread), which is recycled as soon as the worker accepts the
  /// next job — possibly while this caller is still decoding the page.
  /// Must be called with mu_ held: that orders the copy before any next
  /// job submission. Results produced on the caller's own thread (the
  /// hedge leg) keep the base contract and must NOT be localized.
  ReadResult Localize(const ReadResult& r);

  PageReader* primary_;
  PageReader* secondary_;
  CircuitBreaker* health_;
  const HedgeOptions options_;
  uint64_t (*clock_ns_)();

  uint64_t hedges_ = 0;
  uint64_t hedges_won_ = 0;
  uint64_t hedges_lost_ = 0;

  std::mutex mu_;
  std::condition_variable work_cv_;   // Caller -> worker: job submitted.
  std::condition_variable done_cv_;   // Worker -> caller: job finished.
  // One page buffer per caller thread (touched only under mu_): holds the
  // localized copy of a worker-produced result until that caller's next
  // read through this reader.
  std::unordered_map<std::thread::id, std::vector<uint8_t>> caller_pages_;
  Job job_;
  bool stop_ = false;
  std::thread worker_;  // Spawned lazily on the first enabled Read.
  bool worker_started_ = false;
};

/// Parked writes for a quarantined shard. The queue itself is an in-memory
/// list of (lsn, stored segment); durability of the *ack* comes from the
/// shard's own WAL — the insert path appends the record there (group-commit
/// synced by the gate's write guard, same as a normal insert) and parks the
/// (lsn, segment) pair here instead of touching the tree. Draining applies
/// exactly the entries whose LSN the tree has not reached; after a repair
/// (ReloadFromDisk replays the full WAL) that is naturally none of them.
/// In-memory shards park with lsn 0 and drain unconditionally.
class RedoQueue {
 public:
  struct Entry {
    uint64_t lsn = 0;
    MotionSegment motion;
  };

  void Park(uint64_t lsn, const MotionSegment& stored);
  /// Removes and returns everything parked, FIFO.
  std::vector<Entry> Take();
  /// Puts a Take()n tail back at the *front* (a failed drain must not
  /// reorder acked writes behind ones parked meanwhile).
  void Restore(std::vector<Entry> entries);
  size_t depth() const;
  uint64_t total_parked() const;

 private:
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  uint64_t total_parked_ = 0;
};

/// Counters/gauges for the failure-domain layer, registered once.
struct HealthMetrics {
  // Gauge: number of shards currently NOT closed (0 = all healthy).
  class Gauge* breaker_state;
  class Counter* breaker_transitions;
  class Counter* quarantine_events;
  class Counter* quarantined_frames;
  class Counter* hedged_reads;
  class Counter* hedged_reads_won;
  class Counter* hedged_reads_lost;
  class Counter* scrub_pages;
  class Counter* scrub_pages_rebuilt;
  class Gauge* redo_queue_depth;
  class Counter* redo_parked;
  class Counter* redo_drained;

  static HealthMetrics& Get();
};

}  // namespace dqmo

#endif  // DQMO_SERVER_HEALTH_H_
