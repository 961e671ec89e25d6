// Per-shard failure domains: health tracking, circuit breaking, and the
// redo queue that parks writes for quarantined shards.
//
// PR 7 made the shard the unit of scale; this layer makes it the unit of
// *failure*. Each shard's read chain gains one decorator and a tracker:
//
//   BufferPool -> BreakerGateReader -> RetryingPageReader
//              -> FaultyPageReader -> Prefetcher or PageFile
//
//   - CircuitBreaker: an error-rate EWMA fed from post-retry read
//     outcomes and WAL acks, driving the classic three-state machine
//     (closed -> open -> half-open with seeded probe frames). While open,
//     BreakerGateReader fails every read of that shard *instantly* — the
//     router keeps calling the shard's sessions each frame, so the
//     existing kSkipSubtree machinery turns quarantine into attributed
//     kPartial frames with zero special cases in the merge paths, and the
//     per-shard session control state stays in observer lockstep for a
//     clean resync at reinstatement. Slow reads never open the breaker;
//     only errors do.
//   - RedoQueue: writes routed to a quarantined shard park instead of
//     touching a possibly-damaged tree. For durable shards the parked
//     record is logged to the *shard's own WAL* by DurableIndex::Log and
//     synced before the ack, so "acked writes are never lost" holds by the
//     same ARIES argument as normal inserts: a crash at any point replays
//     them from the log, and a live drain applies exactly the records the
//     tree has not seen, by LSN, through DurableIndex::Redo. For in-memory
//     shards the queue is the ack domain (process lifetime), matching the
//     storage tier's guarantees.
//   - A failed WAL sync opens the shard's breaker, and the shard's
//     DurableIndex refuses every later write — parked or not — until the
//     shard is reopened: the log is fail-stop (server/durability.h).
//
// Everything is deterministic under a fixed seed (probe schedules, chaos
// programs) so a failing quarantine run replays bit-for-bit.
#ifndef DQMO_SERVER_HEALTH_H_
#define DQMO_SERVER_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
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

/// Breaker policy. Besides these, a closed breaker also opens once its
/// error-rate EWMA (smoothing 0.25 per post-retry read) reaches 0.5 after
/// at least 8 reads.
struct BreakerOptions {
  /// Fast trip: this many consecutive failed reads open the breaker
  /// regardless of the EWMA (a freshly dead shard should not need 8 reads'
  /// worth of EWMA to be noticed).
  uint64_t consecutive_failures = 4;
  /// Evaluated frames spent open before moving to half-open on our own
  /// (transient faults may simply pass). 0 = never: only the scrubber's
  /// OnRepairComplete() promotes, i.e. repair is mandatory.
  uint64_t cooldown_frames = 16;
  /// Probability that a half-open frame probes (serves reads normally) vs
  /// stays blocked. Drawn from a stream seeded with 1 + shard: probe
  /// schedules replay, and differ per shard.
  double probe_rate = 0.5;
  /// Consecutive healthy probe frames required to close.
  uint64_t probe_successes_to_close = 3;
};

/// Per-shard health tracker + three-state circuit breaker. Fed from three
/// planes: read outcomes (any reader thread, post-retry), WAL/write acks
/// (the insert path), and the router's frame plane (OnFrameStart /
/// OnProbeOutcome). Thread-safe; the read-side hot question "are reads
/// blocked right now?" is two relaxed atomic loads.
class CircuitBreaker {
 public:
  CircuitBreaker(int shard, const BreakerOptions& options);

  /// One post-retry read outcome. Error outcomes here mean the retry
  /// layer was *exhausted* — transient blips that a retry absorbed never
  /// reach the breaker.
  void OnReadOutcome(bool ok);

  /// One write-path outcome: a tree insert or a WAL append/sync ack.
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
};

/// Top-of-chain decorator: the quarantine short-circuit plus the breaker's
/// outcome feed. Sits directly under the BufferPool, above the retry layer,
/// so (a) a blocked read costs nothing downstream and (b) outcomes reaching
/// the breaker are post-retry — only genuinely exhausted reads count.
class BreakerGateReader : public PageReader {
 public:
  /// Neither pointer owned.
  BreakerGateReader(PageReader* base, CircuitBreaker* breaker);

  Result<ReadResult> Read(PageId id) override;

  uint64_t blocked_reads() const {
    return blocked_reads_.load(std::memory_order_relaxed);
  }

 private:
  PageReader* base_;
  CircuitBreaker* breaker_;
  std::atomic<uint64_t> blocked_reads_{0};
  /// The chain below is stateful (the faulty reader's scratch buffer, the
  /// retry reader's exhausted-read count); concurrent pool misses from
  /// different sessions serialize here. Blocked reads and pool hits never
  /// touch it.
  std::mutex fetch_mu_;
};

/// Parked writes for a quarantined shard. The queue itself is an in-memory
/// list of (lsn, stored segment); durability of the *ack* comes from the
/// shard's own WAL — the insert path logs the record there with
/// DurableIndex::Log (synced with the rest of its write group before the
/// shard gate is released, same as a normal insert) and parks the (lsn,
/// segment) pair here instead of touching the tree. Draining applies
/// exactly the entries whose LSN the tree has not reached, through
/// DurableIndex::Redo; after a repair (ReloadFromDisk replays the full WAL)
/// that is naturally none of them. In-memory shards park with lsn 0 and
/// drain unconditionally.
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
  class Counter* scrub_pages;
  class Counter* scrub_pages_rebuilt;
  class Gauge* redo_queue_depth;
  class Counter* redo_parked;
  class Counter* redo_drained;

  static HealthMetrics& Get();
};

}  // namespace dqmo

#endif  // DQMO_SERVER_HEALTH_H_
