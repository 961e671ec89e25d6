// DiskPageFile: the disk-resident PageStore — pages live in a real file and
// reads are real pread(2) calls, so the paper's I/O counts finally have
// milliseconds attached (bench/abl_disk.cc).
//
// File layout: the one image layout of storage/image_format.h — a PgfHeader
// padded to one full 4 KiB block, then the pages, each at a 4 KiB-aligned
// file offset, one device block per page read. The store's file IS its
// checkpoint image: the store opens it read-only and never writes it.
// Every durable page byte goes through WritePgfImage.
//
// Memory model: pages written since the image was installed (Allocate,
// Write, WritableView) live in in-memory frames until the next
// SaveTo(path()), which writes a new image from the frames and the old
// image's bytes, installs it, and drops the frames — so the store holds
// exactly the pages written since its last checkpoint, as the kMemory
// PageFile holds all of its pages. Image reads are served from a small
// per-thread aligned scratch buffer (no page cache of its own — the
// BufferPool above provides caching). Accounting is deliberately identical
// to the in-memory PageFile: every Read charges one physical read — even
// when served from a frame — and every Write/WritableView one physical
// write, so node-level I/O counts are byte-identical across backends (the
// differential sweep in tests/disk_backend_test.cc holds this line).
//
// Threading: same contract as PageFile (see page_store.h) — concurrent
// Read calls race only on atomic flags and scratch buffers keyed by thread;
// all mutations require the TreeGate's exclusion.
#ifndef DQMO_STORAGE_DISK_FILE_H_
#define DQMO_STORAGE_DISK_FILE_H_

#include <atomic>
#include <cstdint>
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
    /// Deterministic slow-device model (bench/abl_disk.cc's cold-cache
    /// knob, not a production setting): every pread costs this much extra,
    /// served in the caller thread on synchronous reads and in the
    /// Prefetcher's workers on speculative reads — so prefetch can genuinely
    /// hide it, exactly like real device latency. Frame hits are memory and
    /// stay free. 0 disables.
    uint64_t sim_read_delay_us = 0;
  };

  ~DiskPageFile() override;
  DiskPageFile(const DiskPageFile&) = delete;
  DiskPageFile& operator=(const DiskPageFile&) = delete;

  /// Opens the checkpoint image at `path` in place, read-only, after the
  /// loader's header check and per-page CRC stream (storage/image_format.h;
  /// O(1) memory). No file at `path` opens an empty store: its first
  /// SaveTo(path) creates the image.
  static Result<std::unique_ptr<DiskPageFile>> Open(const std::string& path,
                                                    const Options& options);

  /// Drops every frame and reopens the image at path() with Open's
  /// verification, discarding all writes since the last checkpoint. The
  /// object's address is stable across the reload — exactly what
  /// DurableIndex::ReloadFromDisk needs, since tree/pool/gate all hold this
  /// pointer. Requires exclusion from readers.
  Status ReloadFromImage();

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
  /// SaveTo(path()) is the checkpoint: it writes a new image from the
  /// frames and the current image's bytes, installs it, reopens it and
  /// drops the frames. Any other path gets an image copy; the frames stay.
  Status SaveTo(const std::string& path) override;
  /// Damages the store's copy of the page: its frame (made from the image
  /// when absent) gets the flipped byte with the trailer left stale. The
  /// image itself is never written.
  Status CorruptPageForTest(PageId id, size_t offset, uint8_t mask) override;
  void set_verify_on_read(bool verify) override { verify_on_read_ = verify; }
  bool verify_on_read() const override { return verify_on_read_; }
  const IoStats& stats() const override { return stats_; }
  IoStats* mutable_stats() override { return &stats_; }
  void ResetStats() override { stats_.Reset(); }

  // Disk-specific surface (the Prefetcher rides on these).

  const std::string& path() const { return path_; }
  /// The image's descriptor (-1 until an image exists). A checkpoint swaps
  /// the new image in under the same number (dup2), so a speculative pread
  /// in flight across it never sees a closed or reused descriptor.
  int fd() const { return fd_; }
  /// Options::sim_read_delay_us; the Prefetcher's workers serve it after
  /// each speculative pread.
  uint64_t sim_read_delay_us() const { return sim_read_delay_us_; }

  /// File offset of page `id`'s first byte.
  static uint64_t PageOffset(PageId id) { return PgfPageOffset(id); }

  /// True when `id` has a frame: it was written since the image was
  /// installed, so the image's bytes for it are stale (or absent) and
  /// speculative image reads of it must be skipped.
  bool HasFrame(PageId id) const;

  /// Page mutations so far (Allocate, Write, WritableView, ReloadFromImage,
  /// CorruptPageForTest). The Prefetcher records it at Hint and discards a
  /// landing whose count moved: the write may have replaced the page after
  /// the speculative read, and a checkpoint since then leaves no frame
  /// behind to say so.
  uint64_t write_count() const { return write_count_.load(); }

  /// Verify-once bookkeeping shared with the Prefetcher: prefetched bytes
  /// bypass Read, so the consumer applies the same first-read checksum
  /// policy through these.
  bool PageVerified(PageId id) const;
  void MarkPageVerified(PageId id);

  /// Frames currently resident: pages written since the last checkpoint
  /// (test/introspection).
  size_t resident_frames() const { return frames_.size(); }

 private:
  /// One page written since the image was installed. A plain heap buffer:
  /// nothing writes it to a device directly.
  struct Frame {
    std::unique_ptr<uint8_t[]> buf{new uint8_t[kPageSize]()};
    bool sealed = false;
  };

  DiskPageFile() = default;

  Status CheckId(PageId id) const;
  /// Verifies the image at path_ (header + every page's CRC) and points
  /// fd_ at it; sets num_pages_ and marks every page verified.
  Status LoadImage();
  /// Opens the file now at path_ and installs it as fd_: dup2 onto the
  /// old descriptor number when there is one.
  Status ReopenImage();
  /// pread of image page `id` into `buf`, no verification, no accounting.
  Status RawRead(PageId id, uint8_t* buf) const;
  /// Seals `frame` if a WritableView left it unsealed.
  void SealFrame(PageId id, Frame* frame);
  /// Copies page `id` (its sealed frame, else its image bytes) into `buf`.
  Status CopyPage(PageId id, uint8_t* buf);
  /// Returns `id`'s frame, creating it (seeded from the image when
  /// `load_existing`) if absent. Mutation path only.
  Result<Frame*> EnsureFrame(PageId id, bool load_existing);
  /// Per-thread aligned scratch for Read results.
  uint8_t* ThreadScratch();

  std::string path_;
  int fd_ = -1;
  size_t num_pages_ = 0;
  uint64_t sim_read_delay_us_ = 0;
  bool verify_on_read_ = true;

  /// Pages written since the image was installed, until the next
  /// checkpoint drops them.
  std::unordered_map<PageId, Frame> frames_;
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
