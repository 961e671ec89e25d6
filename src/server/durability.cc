#include "server/durability.h"

#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "rtree/layout.h"
#include "storage/fault.h"

namespace dqmo {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// The form the tree stores and the log records (rtree/layout.h);
/// quantizing is idempotent, so redoing a record reproduces the tree.
MotionSegment StoredForm(const MotionSegment& m) {
  MotionSegment stored = m;
  stored.seg = QuantizeStored(m.seg);
  return stored;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  return StrFormat(
      "recovery{image=%s, ckpt_lsn=%llu, scanned=%llu, replayed=%llu, "
      "skipped=%llu, torn_bytes=%llu, lsn=%llu}",
      checkpoint_loaded ? "loaded" : "fresh",
      static_cast<unsigned long long>(checkpoint_lsn),
      static_cast<unsigned long long>(wal_records_scanned),
      static_cast<unsigned long long>(replayed),
      static_cast<unsigned long long>(skipped),
      static_cast<unsigned long long>(torn_bytes_dropped),
      static_cast<unsigned long long>(recovered_lsn));
}

Result<std::unique_ptr<DurableIndex>> DurableIndex::Open(
    const std::string& pgf_path, const std::string& wal_path,
    const Options& options) {
  auto index = std::unique_ptr<DurableIndex>(new DurableIndex());
  index->pgf_path_ = pgf_path;
  index->wal_path_ = wal_path;

  // 1. Checkpoint image, if one was ever installed. A crash-left .tmp next
  // to it is ignored by construction: only the rename installs an image.
  // Disk mode reads the image in place (verified first, like the load).
  const bool had_image = FileExists(pgf_path);
  if (options.io_backend != IoBackend::kMemory) {
    DQMO_ASSIGN_OR_RETURN(index->disk_, DiskPageFile::Open(
                                            pgf_path, DiskPageFile::Options()));
    index->store_ = index->disk_.get();
  } else {
    if (had_image) DQMO_RETURN_IF_ERROR(index->file_.LoadFrom(pgf_path));
    index->store_ = &index->file_;
  }
  if (had_image) {
    DQMO_ASSIGN_OR_RETURN(index->tree_, RTree::Open(index->store_));
    index->report_.checkpoint_loaded = true;
    index->report_.checkpoint_lsn = index->tree_->applied_lsn();
  } else {
    DQMO_ASSIGN_OR_RETURN(index->tree_,
                          RTree::Create(index->store_, options.tree));
  }

  // 2-3. One pass over the log: WalWriter::Open scans it (torn tails
  // tolerated — nothing past the tear was acknowledged; mid-log corruption
  // fails with the scan's typed error before anything is truncated),
  // redoes the tail into the tree as records stream by, then truncates any
  // torn tail in place and opens for append. The stored form is already
  // quantized, so Redo reproduces the pre-crash tree bit-for-bit.
  // min_next_lsn guards the reset-log case: an empty post-checkpoint WAL
  // must not restart LSNs below what the image already claims to contain.
  DurableIndex* self = index.get();
  RecoveryReport* report = &index->report_;
  WalWriter::Options wal_options;
  wal_options.min_next_lsn = index->tree_->applied_lsn() + 1;
  WalScan scan;
  DQMO_RETURN_IF_ERROR(index->wal_.Open(
      wal_path, index->store_->mutable_stats(), wal_options,
      [self, report](const WalRecord& rec) -> Status {
        bool applied = false;
        if (rec.type == WalRecordType::kInsert) {
          DQMO_ASSIGN_OR_RETURN(applied, self->Redo(rec.lsn, rec.motion));
        }
        if (applied) {
          ++report->replayed;
        } else {
          ++report->skipped;
        }
        return Status::OK();
      },
      &scan));
  report->wal_records_scanned = scan.records;
  report->torn_bytes_dropped = scan.torn_bytes;
  report->torn_tail = scan.torn_tail;
  report->recovered_lsn = index->tree_->applied_lsn();
  return index;
}

Status DurableIndex::Insert(const MotionSegment& m) {
  DQMO_RETURN_IF_ERROR(failed_);
  DQMO_RETURN_IF_ERROR(tree_->Insert(m));
  DQMO_ASSIGN_OR_RETURN(const uint64_t lsn, wal_.AppendInsert(StoredForm(m)));
  tree_->set_applied_lsn(lsn);
  return Status::OK();
}

Result<uint64_t> DurableIndex::Log(const MotionSegment& m) {
  DQMO_RETURN_IF_ERROR(failed_);
  return wal_.AppendInsert(StoredForm(m));
}

Status DurableIndex::Sync() {
  DQMO_RETURN_IF_ERROR(failed_);
  failed_ = wal_.Sync();
  return failed_;
}

Result<bool> DurableIndex::Redo(uint64_t lsn, const MotionSegment& stored) {
  if (lsn <= tree_->applied_lsn()) return false;
  DQMO_RETURN_IF_ERROR(tree_->Insert(stored));
  tree_->set_applied_lsn(lsn);
  return true;
}

Status DurableIndex::Checkpoint() {
  // Make every logged insert durable before the image that contains it can
  // exist; a crash from here on recovers from (old image, full log).
  DQMO_RETURN_IF_ERROR(Sync());
  CrashPoints::Hit(crash_points::kCkptBeforeTemp);
  // Meta (with the applied LSN) goes into the pages, then the whole image
  // is installed atomically — SaveTo's temp + fsync + rename, with the
  // kSaveBeforeRename crash point between the two.
  DQMO_RETURN_IF_ERROR(tree_->Flush());
  DQMO_RETURN_IF_ERROR(store_->SaveTo(pgf_path_));
  // Marker after the image: recovery does not need it (the meta LSN is
  // authoritative), but walinfo uses it to explain a log whose reset never
  // happened.
  DQMO_RETURN_IF_ERROR(
      wal_.AppendCheckpoint(tree_->applied_lsn(), tree_->num_segments())
          .status());
  DQMO_RETURN_IF_ERROR(Sync());
  CrashPoints::Hit(crash_points::kCkptBeforeWalReset);
  // The image now contains everything: start an empty log (atomic rename
  // again), LSN sequence continuing.
  return wal_.Reset();
}

Status DurableIndex::ReloadFromDisk() {
  if (!FileExists(pgf_path_)) {
    return Status::FailedPrecondition(
        "no checkpoint image to reload from; checkpoint before relying on "
        "online repair");
  }
  // Anything buffered but unsynced would be lost by the rebuild below even
  // though it was never acknowledged; sync first so the WAL is the complete
  // story.
  DQMO_RETURN_IF_ERROR(Sync());
  if (disk_ != nullptr) {
    DQMO_RETURN_IF_ERROR(disk_->ReloadFromImage());
  } else {
    DQMO_RETURN_IF_ERROR(file_.LoadFrom(pgf_path_));
  }
  DQMO_RETURN_IF_ERROR(tree_->Reopen());
  // The live tree is shared with sessions, so nothing from a log the scan
  // rejects may reach it: hold the redo records until the whole log has
  // scanned clean, and leave the tree at exactly the image otherwise.
  std::vector<WalRecord> redo;
  DQMO_RETURN_IF_ERROR(ScanWal(wal_path_, [&redo](const WalRecord& rec) {
                         if (rec.type == WalRecordType::kInsert) {
                           redo.push_back(rec);
                         }
                         return Status::OK();
                       }).status());
  for (const WalRecord& rec : redo) {
    DQMO_RETURN_IF_ERROR(Redo(rec.lsn, rec.motion).status());
  }
  return Status::OK();
}

}  // namespace dqmo
