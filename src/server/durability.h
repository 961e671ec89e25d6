// Durable index orchestration: checkpoint + WAL = a restartable service.
//
// Ties the storage-layer pieces together (DESIGN.md "Durability &
// recovery"): the checkpoint image (one layout and one atomic writer,
// storage/image_format.h), the write-ahead log of motion insertions
// (storage/wal.h, read only through ScanWal), and the ARIES-style redo
// recovery that makes the pair crash-safe. The durable state of the index
// at any instant is exactly
//
//   (last renamed checkpoint image, WAL records synced since then)
//
// DurableIndex is the one owner of its WalWriter: nothing else appends to,
// syncs, or replays the log. One write is
//
//   Insert (apply to the tree, then append the redo record) or Log (append
//   only: the redo queue's park) -> Sync (the acknowledgment barrier)
//
// and Redo is the one step that applies a logged record without logging
// it again — Open's scan, ReloadFromDisk, and the sharded engine's redo
// drain all go through it. Open() reconstructs the tree:
//
//   1. load the checkpoint image if present (else start a fresh tree);
//   2. scan the WAL once, in WalWriter::Open, passing every insert record
//      to Redo as it streams by (Redo skips an LSN the image's meta page
//      already covers, so a crash between the checkpoint rename and the
//      WAL reset never replays a record twice); mid-log corruption fails
//      the open, a torn tail is truncated;
//   3. keep the WAL open for new records, continuing the LSN sequence.
//
// Checkpoint() runs the protocol whose crash points (storage/fault.h) the
// fork-based kill tests in tests/recovery_test.cc enumerate:
//
//   sync WAL -> [ckpt:before_temp] -> flush meta -> write image temp +
//   fsync -> [save:before_rename] -> rename -> append checkpoint marker +
//   sync -> [ckpt:before_wal_reset] -> reset WAL
//
// Invariants at every point:
//   - acknowledged = Sync() returned OK: such an insert is recoverable, and
//     recovery yields a *prefix* of the insert sequence (the tree never
//     holds a later insert while missing an earlier one);
//   - a failed sync is final until reopen: after Sync fails, Insert, Log,
//     Sync and Checkpoint return that first error before touching the tree
//     or the file. Retrying would write the batch again after whatever part
//     of it landed — a hole with well-formed records after it, which no
//     reopen accepts — and a later fsync can report success for data the
//     kernel already dropped. Reopening truncates the torn tail.
#ifndef DQMO_SERVER_DURABILITY_H_
#define DQMO_SERVER_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "motion/motion_segment.h"
#include "rtree/rtree.h"
#include "storage/disk_file.h"
#include "storage/page_file.h"
#include "storage/wal.h"

namespace dqmo {

/// Where a durable index keeps its live pages.
enum class IoBackend : uint8_t {
  kMemory,  // In-process PageFile (the seed backend; I/O is a counter).
  kPread,   // DiskPageFile: sync pread of the checkpoint image, plus the
            // Prefetcher's pread workers for speculative reads.
};

/// What recovery found and did; returned by DurableIndex::Open and printed
/// by `dqmo_tool recover`.
struct RecoveryReport {
  /// A checkpoint image existed and was loaded (else: fresh tree).
  bool checkpoint_loaded = false;
  /// Applied LSN recorded in the loaded image (0 when none / pre-WAL).
  uint64_t checkpoint_lsn = 0;
  /// Well-formed records found in the WAL (both types).
  uint64_t wal_records_scanned = 0;
  /// Insert records redone into the tree.
  uint64_t replayed = 0;
  /// Records skipped as already contained in the checkpoint image.
  uint64_t skipped = 0;
  /// Trailing bytes dropped as a torn write.
  uint64_t torn_bytes_dropped = 0;
  bool torn_tail = false;
  /// The tree's applied LSN after recovery.
  uint64_t recovered_lsn = 0;

  std::string ToString() const;
};

/// An RTree made crash-safe by a checkpoint file + WAL pair. Single-writer:
/// in the concurrent engine, Insert/Log/Sync/Checkpoint/Redo run under the
/// exclusive side of the shard's TreeGate, and the writer syncs before it
/// releases the gate; queries read tree() under the shared side.
class DurableIndex {
 public:
  struct Options {
    /// Tree geometry for a fresh index (ignored when a checkpoint loads).
    RTree::Options tree;
    /// Where the live pages reside. kMemory (the default): an in-process
    /// PageFile, the original behavior. kPread: a DiskPageFile over the
    /// checkpoint image itself — read in place, never written; pages
    /// written since the last checkpoint stay in its in-memory frames.
    /// The durable contract is unchanged either way: the durable state is
    /// always (installed image, synced WAL tail); only where the *live*
    /// pages sit moves.
    IoBackend io_backend = IoBackend::kMemory;
  };

  /// Opens (recovering if needed) the index persisted as `pgf_path` +
  /// `wal_path`. Neither file need exist (a fresh service). Fails with the
  /// scan's typed Status on mid-log corruption, and with the loader's on a
  /// damaged checkpoint image — recovery never silently drops
  /// acknowledged data.
  static Result<std::unique_ptr<DurableIndex>> Open(
      const std::string& pgf_path, const std::string& wal_path,
      const Options& options);

  DurableIndex(const DurableIndex&) = delete;
  DurableIndex& operator=(const DurableIndex&) = delete;

  /// Applies one motion insertion to the tree, then appends its redo
  /// record (the stored, float32-quantized form, so Redo reproduces the
  /// tree bit for bit). Not durable, and so not acknowledgeable, until
  /// Sync() returns OK.
  Status Insert(const MotionSegment& m);

  /// Appends a redo record for `m` without applying it and returns its LSN:
  /// the redo queue's park (server/health.h). Durable after Sync(); Redo
  /// applies it later.
  Result<uint64_t> Log(const MotionSegment& m);

  /// The acknowledgment barrier: makes every appended record durable (one
  /// group commit). A failure is final until the index is reopened.
  Status Sync();

  /// The one redo step: applies the logged insert `stored` (LSN `lsn`) to
  /// the tree without logging it again and advances applied_lsn — unless
  /// the tree already holds it (lsn <= applied_lsn), in which case nothing
  /// happens. Returns whether it applied.
  Result<bool> Redo(uint64_t lsn, const MotionSegment& stored);

  /// Writes a new checkpoint image atomically and resets the WAL. On
  /// return the WAL is empty and the image contains every insert so far.
  /// Safe to crash at any point (see the protocol above); the caller may
  /// simply re-Open after a failure.
  Status Checkpoint();

  /// Online repair: rebuilds the live tree, in place, from the durable pair
  /// (checkpoint image + full WAL) — the recovery sequence of Open(), but
  /// into the existing file_/tree_/wal_ objects so every pointer captured
  /// by sessions, pools, and gates stays valid. Syncs first, so it is
  /// refused after a failed sync like every write. Used by the ShardScrubber
  /// on a quarantined shard whose in-memory pages are damaged; the
  /// source-of-truth durable state is untouched. Requires a checkpoint
  /// image to exist (the caller quarantines, it does not create state) and
  /// the single-writer side of the gate to be held. The WAL is left open,
  /// un-reset, with its LSN sequence intact — records parked for a
  /// quarantined shard replay into the rebuilt tree here, which is exactly
  /// how the redo queue drains through a repair. A log the scan rejects
  /// (a mid-log hole) fails with Corruption and applies nothing: the tree
  /// is left holding exactly the checkpoint image.
  Status ReloadFromDisk();

  RTree* tree() { return tree_.get(); }
  PageStore* file() { return store_; }
  /// Non-null exactly in disk mode (io_backend != kMemory); the shard
  /// layer builds its Prefetcher over this.
  DiskPageFile* disk_file() { return disk_.get(); }
  const std::string& pgf_path() const { return pgf_path_; }
  const std::string& wal_path() const { return wal_path_; }
  /// What Open()'s recovery pass found.
  const RecoveryReport& report() const { return report_; }

 private:
  DurableIndex() = default;

  std::string pgf_path_;
  std::string wal_path_;
  PageFile file_;                        // kMemory mode.
  std::unique_ptr<DiskPageFile> disk_;   // Disk mode.
  PageStore* store_ = nullptr;           // Points at file_ or *disk_.
  WalWriter wal_;
  std::unique_ptr<RTree> tree_;
  RecoveryReport report_;
  /// The first failed Sync (OK while none): every later write returns it.
  Status failed_;
};

}  // namespace dqmo

#endif  // DQMO_SERVER_DURABILITY_H_
