#include "server/durability.h"

#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "storage/fault.h"

namespace dqmo {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
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
  index->options_ = options;

  // 1. Checkpoint image, if one was ever installed. A crash-left .tmp next
  // to it is ignored by construction: only the rename installs an image.
  // Disk mode rebuilds the live file (pgf_path + ".live") from the image —
  // the live file is a disposable working copy, never the durable truth,
  // so a crash mid-build costs nothing.
  const bool had_image = FileExists(pgf_path);
  if (options.io_backend != IoBackend::kMemory) {
    DiskPageFile::Options disk_options = options.disk;
    disk_options.backend = options.io_backend;
    const std::string live_path = pgf_path + ".live";
    if (had_image) {
      DQMO_ASSIGN_OR_RETURN(index->disk_,
                            DiskPageFile::CreateFromImage(
                                live_path, pgf_path, disk_options));
    } else {
      DQMO_ASSIGN_OR_RETURN(index->disk_,
                            DiskPageFile::Create(live_path, disk_options));
    }
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

  // 2-4. One pass over the log: WalWriter::Open scans it (torn tails
  // tolerated — nothing past the tear was acknowledged; mid-log corruption
  // fails with the scan's typed error before anything is truncated),
  // redoes the tail into the tree as records stream by, then truncates any
  // torn tail in place and opens for append. The WAL is not attached to
  // the tree yet, so replayed inserts are not re-logged; the stored form is
  // already quantized, so Insert reproduces the pre-crash tree
  // bit-for-bit. min_next_lsn guards the reset-log case: an empty
  // post-checkpoint WAL must not restart LSNs below what the image already
  // claims to contain.
  RTree* tree = index->tree_.get();
  RecoveryReport* report = &index->report_;
  const uint64_t base_lsn = tree->applied_lsn();
  WalWriter::Options wal_options;
  wal_options.min_next_lsn = base_lsn + 1;
  WalScan scan;
  DQMO_RETURN_IF_ERROR(index->wal_.Open(
      wal_path, index->store_->mutable_stats(), wal_options,
      [tree, report, base_lsn](const WalRecord& rec) {
        if (rec.type != WalRecordType::kInsert || rec.lsn <= base_lsn) {
          ++report->skipped;
          return Status::OK();
        }
        DQMO_RETURN_IF_ERROR(tree->Insert(rec.motion));
        tree->set_applied_lsn(rec.lsn);
        ++report->replayed;
        return Status::OK();
      },
      &scan));
  report->wal_records_scanned = scan.records;
  report->torn_bytes_dropped = scan.torn_bytes;
  report->torn_tail = scan.torn_tail;
  report->recovered_lsn = tree->applied_lsn();
  tree->AttachWal(&index->wal_);
  return index;
}

Status DurableIndex::Insert(const MotionSegment& m) {
  DQMO_RETURN_IF_ERROR(tree_->Insert(m));
  if (options_.sync_each_insert) return wal_.Sync();
  return Status::OK();
}

Status DurableIndex::Sync() { return wal_.Sync(); }

Status DurableIndex::Checkpoint() {
  // Make every logged insert durable before the image that contains it can
  // exist; a crash from here on recovers from (old image, full log).
  DQMO_RETURN_IF_ERROR(wal_.Sync());
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
  DQMO_RETURN_IF_ERROR(wal_.Sync());
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
  if (wal_.pending_records() > 0) DQMO_RETURN_IF_ERROR(wal_.Sync());
  if (disk_ != nullptr) {
    DQMO_RETURN_IF_ERROR(disk_->ReloadFromImage(pgf_path_));
  } else {
    DQMO_RETURN_IF_ERROR(file_.LoadFrom(pgf_path_));
  }
  DQMO_RETURN_IF_ERROR(tree_->Reopen());
  // The live tree is shared with sessions, so nothing from a log the scan
  // rejects may reach it: hold the redo records until the whole log has
  // scanned clean, and leave the tree at exactly the image otherwise.
  const uint64_t base_lsn = tree_->applied_lsn();
  std::vector<WalRecord> redo;
  DQMO_RETURN_IF_ERROR(
      ScanWal(wal_path_, [&redo, base_lsn](const WalRecord& rec) {
        if (rec.type == WalRecordType::kInsert && rec.lsn > base_lsn) {
          redo.push_back(rec);
        }
        return Status::OK();
      }).status());
  // Replay without the WAL attached, exactly like Open(): redone inserts
  // must not be re-logged.
  tree_->AttachWal(nullptr);
  Status st = Status::OK();
  for (const WalRecord& rec : redo) {
    st = tree_->Insert(rec.motion);
    if (!st.ok()) break;
    tree_->set_applied_lsn(rec.lsn);
  }
  tree_->AttachWal(&wal_);
  return st;
}

}  // namespace dqmo
