// Deterministic storage-fault injection and the retrying reader that
// absorbs it.
//
// The paper's testbed assumes a well-behaved disk; a server tracking
// thousands of moving objects cannot. This module provides the fault model
// for the integrity subsystem (DESIGN.md, "Fault model & integrity"):
//
//   PageFile  ->  FaultyPageReader  ->  RetryingPageReader  ->  queries
//   (sealed       (injects seeded        (bounded retries,
//    + verified)   failures)              verifies checksums)
//
// Every schedule is reproducible from an Rng seed, so a failing
// degraded-query run can be replayed bit-for-bit.
#ifndef DQMO_STORAGE_FAULT_H_
#define DQMO_STORAGE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace dqmo {

/// Names of the crash points the durability protocol registers, in the
/// order they are reached. Tests iterate CrashPoints::All(); the constants
/// exist so call sites and tests cannot drift apart.
namespace crash_points {
/// WalWriter::Sync, before any byte of the pending batch reaches the file:
/// the whole batch is lost, none of it was acknowledged.
inline constexpr char kWalBeforeSync[] = "wal:before_sync";
/// WalWriter::Sync, after roughly half the pending batch's bytes were
/// written: recovery must truncate the torn record.
inline constexpr char kWalTornWrite[] = "wal:torn_write";
/// WalWriter::Sync, after the fsync: the batch is durable but the caller
/// never saw Sync return (durable-but-unacknowledged inserts may surface
/// after recovery; they must never be *lost*).
inline constexpr char kWalAfterSync[] = "wal:after_sync";
/// DurableIndex::Checkpoint, after the WAL sync but before the checkpoint
/// temp file is written: the old image plus the full log must recover.
inline constexpr char kCkptBeforeTemp[] = "ckpt:before_temp";
/// PageFile::SaveTo, after the temp file is written and fsynced but before
/// the rename: the previous image must be untouched.
inline constexpr char kSaveBeforeRename[] = "save:before_rename";
/// DurableIndex::Checkpoint, after the rename installed the new image but
/// before the WAL reset: recovery must skip the already-checkpointed
/// records by LSN instead of replaying them twice.
inline constexpr char kCkptBeforeWalReset[] = "ckpt:before_wal_reset";
}  // namespace crash_points

/// Deterministic kill-point injection for the fork-based crash tests
/// (tests/recovery_test.cc): a test arms one named point (optionally
/// skipping the first `skip` hits), forks, and the child dies with
/// _exit(kExitCode) the moment the durability code reaches it — no stack
/// unwinding, no buffers flushed, exactly like a kill -9 at that
/// instruction. Disarmed (the default) a crash point costs one relaxed
/// atomic load.
///
/// The registry is process-global; Arm/Disarm are meant for a forked child
/// before it starts work (arming while other threads run durability code
/// would kill the process from an arbitrary thread, which is the point of
/// the exercise but rarely what a unit test wants).
class CrashPoints {
 public:
  /// Exit code of a crashed process; chosen to be distinguishable from
  /// gtest failures (1), sanitizer aborts, and signal deaths.
  static constexpr int kExitCode = 87;

  /// Arms `name`: the (skip+1)-th Hit/ConsumeHit of that name crashes.
  static void Arm(const char* name, uint64_t skip = 0);
  static void Disarm();
  static bool armed();

  /// Crashes via _exit(kExitCode) if `name` is armed and its skip count is
  /// exhausted; otherwise decrements and returns.
  static void Hit(const char* name);

  /// Like Hit but lets the caller interleave work between the decision and
  /// the death (the torn-write point writes half a batch first): returns
  /// true when this hit should crash — the caller must then call Die().
  static bool ConsumeHit(const char* name);

  /// Immediate _exit(kExitCode).
  [[noreturn]] static void Die();

  /// Every registered crash point name, in protocol order.
  static std::vector<std::string> All();
};

/// Decides, deterministically, whether each successive read fails and how.
/// A schedule combines:
///   - a seeded Bernoulli stream of *transient* faults (transient_fault_rate),
///   - a seeded Bernoulli stream of *slow* reads (slow_read_rate): the page
///     is delivered intact, but only after a configured delay — the
///     overload-bench's model of a saturated or degraded disk,
///   - "hard" points: fail permanently after N reads (fail_after), fail
///     transiently on every Kth read (fail_every_kth), delay every Kth read
///     (slow_every_kth), stop injecting anything after N reads (stop_after:
///     "the fault window closes"),
///   - targeted corruptions: flip bits of page P at byte B, either once
///     (transient: the stored page is intact, only the returned copy is
///     damaged) or persistently (every read of P returns damaged bytes).
///
/// Determinism contract: the outcome of read #n depends only on the seed,
/// the options, and n — never on wall-clock or pointer values. New option
/// streams (slow reads) draw from the Rng only when their rate is non-zero,
/// so schedules produced by older option sets replay bit-for-bit.
///
/// Thread-safe: decision state is guarded by a mutex, so one injector may
/// be shared by concurrent readers (the overload chaos harness does). Under
/// concurrency the read *numbering* follows arrival order, so which thread
/// draws fault #n depends on scheduling — single-threaded use remains
/// bit-for-bit reproducible.
class FaultInjector {
 public:
  struct Options {
    uint64_t seed = 42;
    /// Probability that any given read fails transiently (IOError).
    double transient_fault_rate = 0.0;
    /// After this many successful reads, every further read fails
    /// permanently (IOError, non-recovering). 0 disables.
    uint64_t fail_after = 0;
    /// Every Kth read (K, 2K, ...) fails transiently. 0 disables.
    uint64_t fail_every_kth = 0;
    /// Probability that any given read is delayed by slow_read_delay_us
    /// before being delivered intact. 0 disables.
    double slow_read_rate = 0.0;
    /// Every Kth read (K, 2K, ...) is delayed. 0 disables.
    uint64_t slow_every_kth = 0;
    /// Delay applied to slow reads, microseconds.
    uint64_t slow_read_delay_us = 1000;
    /// After this many reads, every further read passes untouched — no
    /// faults, no delays (registered per-page flips/dead pages included).
    /// Models a fault window that clears; 0 = faults never stop.
    uint64_t stop_after = 0;
  };

  /// What the injector decided for one read.
  struct Decision {
    enum class Kind : uint8_t {
      kPass,           // Deliver the page untouched.
      kTransientFail,  // IOError this time; a retry may succeed.
      kPermanentFail,  // IOError now and on every future attempt.
      kCorrupt,        // Deliver the page with bytes flipped.
      kSlow,           // Deliver the page untouched after delay_us.
    };
    Kind kind = Kind::kPass;
    uint64_t delay_us = 0;  // Meaningful for kSlow.
  };

  explicit FaultInjector(const Options& options);

  /// Registers a bit flip: reads of `page` return its bytes with `mask`
  /// XORed into byte `offset`. Transient flips damage only the first
  /// delivered copy (a retry sees clean bytes); persistent flips damage
  /// every delivery, modelling at-rest corruption.
  void AddBitFlip(PageId page, size_t offset, uint8_t mask, bool transient);

  /// Registers `page` as unreadable: every read of it fails with IOError.
  void AddPermanentFault(PageId page);

  /// Decides the fate of the next read of `page`. Advances the seeded
  /// stream, so call exactly once per physical read attempt.
  Decision NextRead(PageId page);

  /// Decides the fate of the next *asynchronous* (speculative prefetch)
  /// read. Same Options knobs — transient_fault_rate, fail_after,
  /// fail_every_kth, slow_read_rate, slow_every_kth, stop_after — but
  /// drawn from a separately-seeded Rng stream with its own read counter,
  /// so arming a prefetcher never shifts the synchronous schedule (which
  /// chaos_test replays bit-for-bit) and a seeded slow-read storm delays
  /// speculative landings exactly as it delays synchronous reads.
  /// Page-targeted faults (bit flips, dead pages) stay on the synchronous
  /// stream: a failed speculative read merely degrades to the sync path,
  /// where those are injected, retried, and repaired as usual. Never
  /// returns kCorrupt or kPermanentFail; a speculative read either
  /// passes, fails transiently, or is slow.
  Decision NextAsyncRead(PageId page);

  /// Total asynchronous reads decided so far.
  uint64_t async_reads_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return async_reads_seen_;
  }
  /// Asynchronous faults injected so far (slow completions included).
  uint64_t async_faults_injected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return async_faults_injected_;
  }

  /// Applies any registered (still-armed) bit flips for `page` to `buf`
  /// (kPageSize bytes). Consumes transient flips.
  void ApplyCorruption(PageId page, uint8_t* buf);

  /// Total reads decided so far.
  uint64_t reads_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_seen_;
  }
  /// Faults injected so far (all kinds, slow reads included).
  uint64_t faults_injected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return faults_injected_;
  }
  /// Slow (delayed) reads decided so far.
  uint64_t slow_reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slow_reads_;
  }

 private:
  struct BitFlip {
    size_t offset;
    uint8_t mask;
    bool transient;
    bool spent = false;  // Transient flips fire once.
  };

  Options options_;
  mutable std::mutex mu_;
  // All decision state below is guarded by mu_.
  Rng rng_;
  uint64_t reads_seen_ = 0;
  uint64_t faults_injected_ = 0;
  uint64_t slow_reads_ = 0;
  /// The async (speculative-read) stream: independent Rng and counters so
  /// the synchronous schedule is untouched by prefetch activity.
  Rng async_rng_;
  uint64_t async_reads_seen_ = 0;
  uint64_t async_faults_injected_ = 0;
  std::unordered_map<PageId, std::vector<BitFlip>> flips_;
  std::unordered_map<PageId, bool> dead_pages_;
};

/// PageReader decorator that injects the faults an injector schedules.
/// Failed reads still count as physical accesses on the underlying reader's
/// accounting only when the underlying read actually happened (corruption
/// does read the page; transient/permanent failures abort before it).
class FaultyPageReader : public PageReader {
 public:
  /// How a kSlow decision's delay is served; injectable so latency-fault
  /// tests stay deterministic and sleep-free. The default performs a real
  /// sleep_for of that many microseconds.
  using Sleeper = std::function<void(uint64_t delay_us)>;

  /// Neither pointer is owned. `injector` may be shared across readers
  /// (its stream then interleaves in call order) or null — a null injector
  /// makes the reader a pure pass-through, which is how a per-shard fault
  /// plane sits permanently in a read chain without costing anything until
  /// a chaos program arms that shard. A null `sleeper` uses a real sleep.
  FaultyPageReader(PageReader* base, FaultInjector* injector,
                   Sleeper sleeper = nullptr);

  Result<ReadResult> Read(PageId id) override;

  /// Swaps the injector (null disarms). Not synchronized against concurrent
  /// Read calls — callers must hold the owning shard's exclusive gate (or
  /// otherwise quiesce readers) while swapping, which is exactly what
  /// ShardedEngine::ArmShardFault/ClearShardFault do.
  void set_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* injector() const { return injector_; }

 private:
  PageReader* base_;
  FaultInjector* injector_;
  Sleeper sleeper_;
  // Corrupted deliveries need a private buffer: the base reader's bytes
  // must stay pristine (transient corruption, by definition, is not
  // written back).
  std::vector<uint8_t> scratch_;
};

/// PageReader decorator that absorbs transient faults by retrying, verifies
/// checksums on every delivered page, and converts unrecoverable failures
/// into typed errors for the degraded-result machinery above it.
///
/// Retry policy: IOError / Corruption results are retried back to back, up
/// to max_attempts total attempts; other codes (e.g. OutOfRange for a bad
/// page id) are returned immediately — retrying a malformed request cannot
/// help.
class RetryingPageReader : public PageReader {
 public:
  struct RetryPolicy {
    /// Total attempts per read, including the first. Must be >= 1.
    int max_attempts = 3;
  };

  /// `base` is not owned. `stats` (may be null) receives retry and
  /// checksum-failure counts; pass the PageFile's mutable_stats() to fold
  /// them into the experiment accounting.
  RetryingPageReader(PageReader* base, const RetryPolicy& policy,
                     IoStats* stats = nullptr);

  Result<ReadResult> Read(PageId id) override;

  const RetryPolicy& policy() const { return policy_; }

  /// Reads that ultimately failed after exhausting the policy.
  uint64_t exhausted_reads() const { return exhausted_reads_; }

 private:
  static bool Retryable(const Status& s) {
    return s.IsIOError() || s.IsCorruption();
  }

  PageReader* base_;
  RetryPolicy policy_;
  IoStats* stats_;
  uint64_t exhausted_reads_ = 0;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_FAULT_H_
