// Online scrub & repair for quarantined shards (the recovery half of the
// failure-domain layer in server/health.h).
//
// While a shard's circuit breaker is open, its sessions get instant
// attributed kPartial frames and its writes park in the redo queue — but
// nothing yet *fixes* it. The ShardScrubber closes that loop: a background
// pass (or an explicit ScrubPass() call, which is what the deterministic
// chaos tests drive) walks every quarantined shard and, under that shard's
// exclusive gate,
//
//   1. CRC-verifies every page of the shard's PageFile (scrub semantics —
//      no trust cache, unlike the read path's verify-once model);
//   2. if damage is found and the shard is durable, rebuilds the live tree
//      in place from the durable pair via DurableIndex::ReloadFromDisk()
//      — checkpoint image + full-WAL ARIES redo, the same recovery
//      sequence a restart runs, but into the existing objects so every
//      pointer held by router sessions stays valid;
//   3. drops the shard's caches, drains the redo queue (LSN-idempotent:
//      records the repair's replay already materialized are skipped), and
//      promotes the breaker to half-open — the router's seeded probe
//      frames then re-admit the shard gradually.
//
// A clean scrub (storage intact; the failure was transient or lives in the
// delivery path) skips straight to promotion: probing, not the scrub, is
// the arbiter of "healthy again" — if faults persist, the first failed
// probe reopens the breaker and the scrubber simply tries again later, so
// recovery is monotone once the fault clears. An in-memory shard with
// at-rest damage has no durable pair to rebuild from and stays
// quarantined (reported as unrepairable).
//
// Crash points: the fork-based chaos tests kill the process around the
// repair protocol. They are deliberately NOT in CrashPoints::All() — that
// list enumerates the single-tree durability protocol for
// tests/recovery_test.cc; these belong to the sharded chaos harness.
#ifndef DQMO_SERVER_SCRUBBER_H_
#define DQMO_SERVER_SCRUBBER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "rtree/rtree.h"
#include "server/shard.h"

namespace dqmo {

namespace crash_points {
/// ShardScrubber, after damage was found but before ReloadFromDisk: the
/// damaged in-memory state dies with the process; restart must recover
/// from the untouched durable pair, parked acks included.
inline constexpr char kScrubBeforeRepair[] = "scrub:before_repair";
/// After the in-place rebuild, before the redo queue drains: parked
/// records are applied to nothing in memory, but they sit in the WAL —
/// restart replays them.
inline constexpr char kScrubBeforeDrain[] = "scrub:before_drain";
/// After the drain applied parked records to the live tree (no checkpoint
/// yet): restart replays the same records from the WAL; LSN filtering
/// makes that exactly-once.
inline constexpr char kScrubAfterDrain[] = "scrub:after_drain";
}  // namespace crash_points

struct ScrubOptions {
  /// Background pass period. Each pass only touches quarantined shards,
  /// so an all-healthy engine pays num_shards breaker-state loads.
  uint64_t interval_ms = 50;
};

/// Walks quarantined shards, verifying, repairing, draining, promoting.
/// One scrubber per engine; the engine must outlive it. Thread-safe with
/// concurrent router frames and inserts — every mutation happens under the
/// affected shard's exclusive gate, with its prefetcher quiesced.
class ShardScrubber {
 public:
  /// What one full pass over the engine did.
  struct PassReport {
    int shards_scrubbed = 0;    // Quarantined shards examined.
    uint64_t pages_scanned = 0; // CRC checks performed.
    uint64_t pages_bad = 0;     // Checksum mismatches found.
    uint64_t pages_rebuilt = 0; // Bad pages healed by in-place repair.
    int shards_promoted = 0;    // Breakers moved open -> half-open.
    int shards_unrepairable = 0;// Damaged but no (loadable) durable pair.

    std::string ToString() const;
  };

  ShardScrubber(ShardedEngine* engine, const ScrubOptions& options);
  ~ShardScrubber();  // Stops the background thread if running.

  ShardScrubber(const ShardScrubber&) = delete;
  ShardScrubber& operator=(const ShardScrubber&) = delete;

  /// Starts the periodic background pass. Idempotent.
  void Start();
  /// Stops and joins the background thread. Idempotent; safe if never
  /// started.
  void Stop();

  /// One synchronous pass over all shards, as the background thread would
  /// run it. The chaos tests call this directly so scrub timing is
  /// deterministic. A shard whose repair failed shows up as
  /// shards_unrepairable and stays quarantined; the next pass retries.
  PassReport ScrubPass();

  uint64_t passes() const { return passes_; }

 private:
  void Loop();
  /// Scrubs one quarantined shard. Caller verified breaker state == kOpen.
  void ScrubShard(int i, PassReport* report);

  ShardedEngine* engine_;
  const ScrubOptions options_;

  std::atomic<uint64_t> passes_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
};

/// Offline repair of one durable shard pair (`dqmo_tool scrub --repair`):
/// the process-down analogue of the scrubber's in-place rebuild.
struct OfflineRepair {
  /// Corrupt pages found in the checkpoint image before repair.
  uint64_t pages_bad = 0;
  /// The image was damaged beyond loading, set aside as
  /// `<pgf>.damaged`, and rebuilt purely from the WAL (possible only when
  /// the log still covers the full history, i.e. starts at LSN 1).
  bool image_rebuilt = false;
  /// WAL records replayed into the repaired index.
  uint64_t replayed = 0;
  /// Segments in the repaired index.
  uint64_t segments = 0;
};

/// Repairs the shard persisted as `pgf_path` + `wal_path` and leaves a
/// fresh checkpoint behind. Recoverable damage (torn WAL tail, image
/// corruption with a full-history WAL) is healed; a corrupt image whose
/// WAL was already reset is unrepairable — that state genuinely lost data
/// — and fails with Corruption. `tree` configures a rebuilt-from-scratch
/// tree (ignored when the image loads).
Result<OfflineRepair> RepairDurableShard(const std::string& pgf_path,
                                         const std::string& wal_path,
                                         const RTree::Options& tree);

}  // namespace dqmo

#endif  // DQMO_SERVER_SCRUBBER_H_
