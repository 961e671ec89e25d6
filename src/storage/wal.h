// Write-ahead log for motion insertions: the durability substrate that
// turns the in-memory index into a restartable service.
//
// The paper's update management (Sect. 5) assumes motion insertions stay
// visible to running PDQ/NPDQ sessions; a server must additionally keep
// them visible across a crash. Live pages are a working copy, so the
// durable state is exactly (last checkpoint image, WAL tail): every
// acknowledged insert is a CRC32C-framed redo record fsynced to the log, a
// checkpoint atomically replaces the page image (write-temp + fsync +
// rename, WritePgfImage in storage/image_format.h) and resets the log, and
// recovery replays the tail whose LSNs exceed the checkpoint's
// (ARIES-style redo; see server/durability.h for the orchestration and
// DESIGN.md "Durability & recovery" for the protocol).
//
// ScanWal is the one reader of this format: recovery, online and offline
// repair, WalWriter::Open, and `dqmo_tool walinfo` all go through it.
//
// On-disk format (single-host byte order, like the page file):
//
//   header   : u64 magic "DQMOWAL1" | u32 version (1) | u32 reserved
//   record   : u32 crc | u32 payload_len | u64 lsn | u8 type | payload
//
// The CRC32C covers everything after the crc field (length, LSN, type,
// payload), so a damaged length field cannot silently re-frame the log.
// LSNs start at 1 and increase by exactly 1 per record, surviving log
// resets (a fresh post-checkpoint log continues the sequence).
//
// Torn-tail contract (the crash cases tests/wal_test.cc enumerates):
//   - A record cut off by the end of the file is a torn write: the scan
//     succeeds, delivers every record before it, and reports the dropped
//     byte count. Appending to such a log first truncates the torn tail.
//   - A damaged record *followed by a well-formed record* is mid-log
//     corruption: the scan fails with Status::Corruption carrying the
//     offset — replaying past a hole would silently drop acknowledged
//     inserts. (The final record's at-rest corruption is indistinguishable
//     from a torn write and is truncated; only unacknowledged data can be
//     lost that way.)
#ifndef DQMO_STORAGE_WAL_H_
#define DQMO_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "motion/motion_segment.h"
#include "storage/io_stats.h"

namespace dqmo {

/// What one WAL record describes.
enum class WalRecordType : uint8_t {
  kInsert = 1,      // One motion insertion (redo record).
  kCheckpoint = 2,  // Marker: all LSNs <= checkpoint_lsn are checkpointed.
};

/// One decoded WAL record.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsert;
  /// kInsert: the stored (float32-quantized) motion segment, so replaying
  /// it through DurableIndex::Redo reproduces the index bit-for-bit.
  MotionSegment motion;
  /// kCheckpoint: every record with lsn <= checkpoint_lsn is contained in
  /// the checkpoint image this marker follows.
  uint64_t checkpoint_lsn = 0;
  /// kCheckpoint: segment count of the checkpointed tree (for walinfo).
  uint64_t checkpoint_segments = 0;
};

/// What one pass of ScanWal found: the log's summary, without its records.
struct WalScan {
  /// Well-formed records, both types.
  uint64_t records = 0;
  uint64_t inserts = 0;
  uint64_t checkpoints = 0;
  /// LSN of the first / last good record (0 when the log holds none).
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;
  /// Fields of the newest checkpoint marker (0 when the log holds none).
  uint64_t last_ckpt_lsn = 0;
  uint64_t last_ckpt_segments = 0;
  /// Bytes of the good prefix: header plus every well-formed record.
  uint64_t good_bytes = 0;
  /// Trailing bytes dropped as a torn write (0 when the tail is clean).
  uint64_t torn_bytes = 0;
  bool torn_tail = false;
};

/// Receives each decoded record, in log order, from ScanWal. A non-OK
/// return stops the scan with that status.
using WalRecordSink = std::function<Status(const WalRecord&)>;

/// The one WAL reader. Scans the log at `path` front to back, one record
/// resident at a time, passing each well-formed record to `sink` (may be
/// null) and returning the summary. A missing or shorter-than-header file
/// yields an empty scan (a crash can interrupt log creation; an empty log
/// carries no acknowledged data). A torn tail is tolerated per the contract
/// above; mid-log corruption, an LSN discontinuity, a foreign magic, or an
/// unsupported version fail with a typed Status. Records stream before the
/// scan has seen the whole log, so a caller that must apply nothing from a
/// rejected log buffers them until the scan returns OK. Only the
/// torn-vs-hole look-ahead after a bad frame reads more than one record, so
/// only a damaged log costs more than O(max record) memory.
Result<WalScan> ScanWal(const std::string& path,
                        const WalRecordSink& sink = nullptr);

/// Appender with group commit. Append* buffers records in memory and
/// assigns LSNs; Sync() writes the batch and fsyncs, after which every
/// buffered record is durable — the moment an insert may be acknowledged.
/// Appends and syncs are counted in IoStats::{wal_appends, wal_syncs},
/// never in physical page I/O, so the paper's disk-access metric stays
/// comparable across benches.
///
/// Not thread-safe, and owned by exactly one DurableIndex
/// (server/durability.h), which appends and syncs under the exclusive side
/// of its TreeGate and syncs before releasing it; no other src/ code
/// touches a WalWriter (tools/ci.sh checks this).
class WalWriter {
 public:
  struct Options {
    /// Floor for the first assigned LSN. Recovery passes the checkpoint's
    /// applied LSN + 1 so a fresh post-reset log continues the sequence
    /// instead of restarting at 1 (which would make new inserts look
    /// already-checkpointed to the replay filter). The scanned log's own
    /// last LSN + 1 wins when larger.
    uint64_t min_next_lsn = 1;
  };

  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending, creating it (header only) if absent. An
  /// existing log is scanned once with ScanWal, its records passed to
  /// `replay` (may be null; recovery's redo pass rides this scan) and its
  /// summary stored in `*scanned` (may be null): a torn tail is truncated
  /// away before the first append lands; mid-log corruption fails the
  /// open before anything is written. `stats` (may be null) receives
  /// wal_appends/wal_syncs counts.
  Status Open(const std::string& path, IoStats* stats,
              const Options& options, const WalRecordSink& replay = nullptr,
              WalScan* scanned = nullptr);
  Status Open(const std::string& path, IoStats* stats = nullptr) {
    return Open(path, stats, Options{});
  }

  /// Closes the file (without syncing: unsynced appends were never
  /// promised durable). Open() may be called again.
  void Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Buffers a redo record for `m` (pass the stored, quantized form) and
  /// returns its LSN. Not durable until Sync().
  Result<uint64_t> AppendInsert(const MotionSegment& m);

  /// Buffers a checkpoint marker and returns its LSN.
  Result<uint64_t> AppendCheckpoint(uint64_t checkpoint_lsn,
                                    uint64_t checkpoint_segments);

  /// Writes every buffered record and fsyncs. On return all previously
  /// appended records are durable (synced_lsn() == last assigned LSN).
  /// No-op when nothing is pending. A failure leaves the batch buffered
  /// and an unknown prefix of it in the file, so calling Sync again would
  /// write it after that prefix: the owner treats a failure as final.
  /// Crash points: kWalBeforeSync fires before any byte of the batch
  /// reaches the file (the whole batch is lost), kWalTornWrite after
  /// roughly half the batch's bytes (a torn record for recovery to
  /// truncate), kWalAfterSync after the fsync.
  Status Sync();

  /// Replaces the log with a fresh empty one (write temp header + fsync +
  /// rename), dropping any unsynced batch. The LSN sequence continues —
  /// post-checkpoint logs never reuse LSNs, so a stale checkpoint image
  /// can always tell which records it already contains.
  Status Reset();

  /// LSN the next Append* will assign.
  uint64_t next_lsn() const { return next_lsn_; }
  /// Highest LSN guaranteed durable (0 before the first Sync of a fresh
  /// log).
  uint64_t synced_lsn() const { return synced_lsn_; }
  /// Records appended but not yet synced.
  size_t pending_records() const { return pending_records_; }

 private:
  Status WriteRaw(const uint8_t* data, size_t n);

  std::FILE* file_ = nullptr;
  std::string path_;
  IoStats* stats_ = nullptr;
  std::vector<uint8_t> batch_;  // Encoded records awaiting Sync.
  size_t pending_records_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t synced_lsn_ = 0;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_WAL_H_
