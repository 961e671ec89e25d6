// DiskPageFile: the disk-resident PageStore — pages live in a real file and
// reads are real pread(2) calls, so the paper's I/O counts finally have
// milliseconds attached (bench/abl_disk.cc).
//
// File layout: the one image layout of storage/image_format.h — a PgfHeader
// padded to one full 4 KiB block, then the pages, each at a 4 KiB-aligned
// file offset, one device block per page read. The live file, the
// checkpoint images SaveTo writes, and PageFile's images share it byte for
// byte.
//
// Memory model: reads are served from a small per-thread aligned scratch
// buffer (no page cache of its own — the BufferPool above provides caching,
// and ShardedEngineOptions::page_budget_mb sizes pool + store together).
// Writes land in a bounded dirty-frame table; when it overflows its budget
// the oldest frame is sealed and written back (FIFO), and
// SealAllDirty/Publish/SaveTo flush everything. Accounting is deliberately
// identical to the in-memory PageFile: every Read charges one physical
// read — even when served from a dirty frame — and every
// Write/WritableView one physical write, so node-level I/O counts are
// byte-identical across backends (the differential sweep in
// tests/disk_backend_test.cc holds this line).
//
// Threading: same contract as PageFile (see page_store.h) — concurrent
// Read calls race only on atomic flags and scratch buffers keyed by thread;
// all mutations require the TreeGate's exclusion.
#ifndef DQMO_STORAGE_DISK_FILE_H_
#define DQMO_STORAGE_DISK_FILE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/image_format.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace dqmo {

/// 4 KiB-aligned heap buffer (posix_memalign): one page, block-aligned
/// for device transfers. Move-only.
class AlignedPageBuf {
 public:
  AlignedPageBuf();
  ~AlignedPageBuf();
  AlignedPageBuf(AlignedPageBuf&& other) noexcept : data_(other.data_) {
    other.data_ = nullptr;
  }
  AlignedPageBuf& operator=(AlignedPageBuf&& other) noexcept;
  AlignedPageBuf(const AlignedPageBuf&) = delete;
  AlignedPageBuf& operator=(const AlignedPageBuf&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }

 private:
  uint8_t* data_;
};

class DiskPageFile : public PageStore {
 public:
  struct Options {
    /// Dirty frames resident before the oldest is written back (FIFO).
    /// This is the store's share of ShardedEngineOptions::page_budget_mb;
    /// 0 means a minimal working set of one frame.
    size_t dirty_frame_budget = 256;
    /// Deterministic slow-device model (bench/abl_disk.cc's cold-cache
    /// knob, not a production setting): every pread costs this much extra,
    /// served in the caller thread on synchronous reads and in the
    /// Prefetcher's workers on speculative reads — so prefetch can genuinely
    /// hide it, exactly like real device latency. Dirty-frame hits are
    /// memory and stay free. 0 disables.
    uint64_t sim_read_delay_us = 0;
  };

  ~DiskPageFile() override;
  DiskPageFile(const DiskPageFile&) = delete;
  DiskPageFile& operator=(const DiskPageFile&) = delete;

  /// Creates a fresh, empty file at `path` (truncating any existing file)
  /// and opens it.
  static Result<std::unique_ptr<DiskPageFile>> Create(
      const std::string& path, const Options& options);

  /// Builds a live file at `live_path` from the checkpoint image at
  /// `image_path` (stream-verified, O(1) memory) and opens it. The live
  /// file is a disposable working copy: DurableIndex rebuilds it from the
  /// durable image on every open, so a crash mid-build costs nothing.
  static Result<std::unique_ptr<DiskPageFile>> CreateFromImage(
      const std::string& live_path, const std::string& image_path,
      const Options& options);

  /// Rebuilds this store's file in place from `image_path`, discarding all
  /// current pages and dirty frames. The object's address is stable across
  /// the reload — exactly what DurableIndex::ReloadFromDisk needs, since
  /// tree/pool/gate all hold this pointer. Requires exclusion from
  /// readers.
  Status ReloadFromImage(const std::string& image_path);

  // PageStore interface.
  PageId Allocate() override;
  size_t num_pages() const override { return num_pages_; }
  Result<ReadResult> Read(PageId id) override;
  Status Write(PageId id, const uint8_t* data) override;
  Result<PageView> WritableView(PageId id) override;
  void SealAllDirty() override;
  const std::vector<PageId>& dirty_page_ids() const override {
    return dirty_pages_;
  }
  Status Publish() override;
  Status VerifyPage(PageId id) override;
  size_t VerifyAllPages(std::vector<PageId>* bad) override;
  Status SaveTo(const std::string& path) override;
  Status CorruptPageForTest(PageId id, size_t offset, uint8_t mask) override;
  void set_verify_on_read(bool verify) override { verify_on_read_ = verify; }
  bool verify_on_read() const override { return verify_on_read_; }
  const IoStats& stats() const override { return stats_; }
  IoStats* mutable_stats() override { return &stats_; }
  void ResetStats() override { stats_.Reset(); }

  // Disk-specific surface (the Prefetcher rides on these).

  const std::string& path() const { return path_; }
  int fd() const { return fd_; }
  /// Options::sim_read_delay_us; the Prefetcher's workers serve it after
  /// each speculative pread.
  uint64_t sim_read_delay_us() const { return sim_read_delay_us_; }

  /// File offset of page `id`'s first byte.
  static uint64_t PageOffset(PageId id) { return PgfPageOffset(id); }

  /// True when `id` currently has an unflushed dirty frame — its on-disk
  /// bytes are stale, so speculative disk reads of it must be skipped.
  bool HasDirtyFrame(PageId id) const;

  /// Page mutations so far (Allocate, Write, WritableView, ReloadFromImage).
  /// The Prefetcher records it at Hint and discards a landing whose count
  /// moved: the write may have replaced the page after the speculative
  /// read, and the write guard's SealAllDirty leaves no dirty frame behind
  /// to say so.
  uint64_t write_count() const { return write_count_.load(); }

  /// Verify-once bookkeeping shared with the Prefetcher: prefetched bytes
  /// bypass Read, so the consumer applies the same first-read checksum
  /// policy through these.
  bool PageVerified(PageId id) const;
  void MarkPageVerified(PageId id);

  /// Dirty frames currently resident (test/introspection).
  size_t resident_dirty_frames() const { return frames_.size(); }

 private:
  struct Frame {
    AlignedPageBuf buf;
    bool sealed = false;
  };

  DiskPageFile() = default;

  Status CheckId(PageId id) const;
  /// Writes the header block for the current num_pages_ at offset 0.
  Status WriteHeader();
  /// pread of page `id` into `buf`, no verification, no accounting.
  Status RawRead(PageId id, uint8_t* buf) const;
  /// pwrite of page `id` from `buf`, no accounting.
  Status RawWrite(PageId id, const uint8_t* buf) const;
  /// Returns `id`'s frame, creating it (seeded from disk when the page
  /// already exists on disk) if absent. Mutation path only.
  Result<Frame*> EnsureFrame(PageId id, bool load_existing);
  /// Seals + writes back + drops the oldest frames until the budget holds.
  Status EvictFramesOverBudget(PageId keep);
  /// Seals + writes back + drops one specific frame.
  Status FlushFrame(PageId id, Frame* frame);
  /// Per-thread aligned scratch for Read results.
  uint8_t* ThreadScratch();

  std::string path_;
  int fd_ = -1;
  size_t num_pages_ = 0;
  size_t dirty_frame_budget_ = 256;
  uint64_t sim_read_delay_us_ = 0;
  bool verify_on_read_ = true;

  /// Unflushed writes, bounded by dirty_frame_budget_. frame_fifo_ orders
  /// eviction (oldest first; ids may repeat — stale entries are skipped).
  std::unordered_map<PageId, Frame> frames_;
  std::list<PageId> frame_fifo_;
  std::vector<PageId> dirty_pages_;

  /// Per-page verified flags (atomic_ref on the read path), same
  /// verify-once model as PageFile.
  std::vector<uint8_t> verified_;

  /// See write_count(). Bumped under the writer's exclusion, read by
  /// speculative readers.
  std::atomic<uint64_t> write_count_{0};

  /// Per-thread scratch buffers for Read results (guarded by scratch_mu_;
  /// the pointer handed out is stable — the map stores unique buffers).
  mutable std::mutex scratch_mu_;
  mutable std::unordered_map<std::thread::id, AlignedPageBuf> scratch_;

  IoStats stats_;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_DISK_FILE_H_
