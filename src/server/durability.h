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
// and Open() reconstructs the tree from it:
//
//   1. load the checkpoint image if present (else start a fresh tree);
//   2. scan the WAL once, in WalWriter::Open, replaying every insert record
//      whose LSN exceeds the image's applied LSN as it streams by (the
//      meta page records that LSN, so a crash between the checkpoint
//      rename and the WAL reset never replays a record twice); mid-log
//      corruption fails the open, a torn tail is truncated;
//   3. attach the WAL for new inserts, continuing the LSN sequence.
//
// Checkpoint() runs the protocol whose crash points (storage/fault.h) the
// fork-based kill tests in tests/recovery_test.cc enumerate:
//
//   sync WAL -> [ckpt:before_temp] -> flush meta -> write image temp +
//   fsync -> [save:before_rename] -> rename -> append checkpoint marker +
//   sync -> [ckpt:before_wal_reset] -> reset WAL
//
// Invariant at every point: an insert acknowledged by Insert()/Sync() is
// recoverable, and recovery yields a *prefix* of the insert sequence (the
// tree never holds a later insert while missing an earlier one).
#ifndef DQMO_SERVER_DURABILITY_H_
#define DQMO_SERVER_DURABILITY_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "motion/motion_segment.h"
#include "rtree/rtree.h"
#include "storage/async_io.h"
#include "storage/disk_file.h"
#include "storage/page_file.h"
#include "storage/wal.h"

namespace dqmo {

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
/// in the concurrent engine, Insert/Sync/Checkpoint run under the exclusive
/// side of the TreeGate (which can also own the per-batch Sync — construct
/// it with the wal() pointer); queries read tree() under the shared side.
class DurableIndex {
 public:
  struct Options {
    /// Tree geometry for a fresh index (ignored when a checkpoint loads).
    RTree::Options tree;
    /// Sync the WAL inside every Insert (acknowledge-per-insert). Disable
    /// to group-commit: Insert only buffers, and the caller syncs per
    /// batch — explicitly or via the TreeGate write guard.
    bool sync_each_insert = true;
    /// Where the live pages reside. kMemory (the default): an in-process
    /// PageFile, the original behavior. kPread/kUring: a DiskPageFile at
    /// pgf_path + ".live" — a disposable working copy rebuilt from the
    /// checkpoint image on every Open (a crash mid-build costs nothing).
    /// The durable contract is unchanged either way: the durable state is
    /// always (installed image, synced WAL tail); only where the *live*
    /// pages sit moves.
    IoBackend io_backend = IoBackend::kMemory;
    /// Disk-mode tuning (dirty_frame_budget); `backend` is overwritten
    /// with io_backend above. Ignored for kMemory.
    DiskPageFile::Options disk;
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

  /// Inserts one motion segment, appending its redo record. With
  /// sync_each_insert the record is durable when this returns OK — the
  /// acknowledgment point; without it, call Sync() (or release a TreeGate
  /// write guard) before acknowledging.
  Status Insert(const MotionSegment& m);

  /// Makes every appended record durable (group-commit flush).
  Status Sync();

  /// Writes a new checkpoint image atomically and resets the WAL. On
  /// return the WAL is empty and the image contains every insert so far.
  /// Safe to crash at any point (see the protocol above); the caller may
  /// simply re-Open after a failure.
  Status Checkpoint();

  /// Online repair: rebuilds the live tree, in place, from the durable pair
  /// (checkpoint image + full WAL) — the recovery sequence of Open(), but
  /// into the existing file_/tree_/wal_ objects so every pointer captured
  /// by sessions, pools, and gates stays valid. Used by the ShardScrubber
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
  WalWriter* wal() { return &wal_; }
  const std::string& pgf_path() const { return pgf_path_; }
  const std::string& wal_path() const { return wal_path_; }
  /// What Open()'s recovery pass found.
  const RecoveryReport& report() const { return report_; }

 private:
  DurableIndex() = default;

  std::string pgf_path_;
  std::string wal_path_;
  Options options_;
  PageFile file_;                        // kMemory mode.
  std::unique_ptr<DiskPageFile> disk_;   // Disk mode.
  PageStore* store_ = nullptr;           // Points at file_ or *disk_.
  WalWriter wal_;
  std::unique_ptr<RTree> tree_;
  RecoveryReport report_;
};

}  // namespace dqmo

#endif  // DQMO_SERVER_DURABILITY_H_
