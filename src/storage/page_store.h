// PageStore: the abstract page-granular storage contract behind the engine.
//
// Until PR 9 the only store was the in-memory PageFile, and every layer —
// RTree, BufferPool, TreeGate, DurableIndex, ShardedEngine — held a
// concrete PageFile*. This interface lifts exactly the surface those layers
// use, so a disk-resident backend (storage/disk_file.h: pread over its
// 4 KiB-aligned checkpoint image) can slot in underneath all of them
// without changing query or server code.
//
// Contract (inherited verbatim from PageFile; see its header for the full
// story on each method):
//
//  * Every Read is one physical disk access — the paper's I/O metric — and
//    is safe from concurrent readers. The returned pointer follows the
//    PageReader rule: valid until the calling thread's next read on the
//    same store.
//  * All mutations (Allocate, Write, WritableView, SealAllDirty, Publish,
//    SaveTo, CorruptPageForTest) require external exclusion from every
//    reader; the engine provides it with the TreeGate.
//  * Pages carry CRC32C trailers (storage/page.h). Write/SealAllDirty seal;
//    Read verifies per the store's verify-once policy; VerifyPage /
//    VerifyAllPages always recompute (scrub semantics).
//  * dirty_page_ids() lists pages dirtied via WritableView/Allocate since
//    the last SealAllDirty, so the TreeGate write guard can invalidate
//    stale BufferPool frames before sealing.
#ifndef DQMO_STORAGE_PAGE_STORE_H_
#define DQMO_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace dqmo {

/// Abstract source of pages. Query processors read through this interface;
/// implementations are PageFile (every read is a disk access), DiskPageFile
/// (every read is a real pread), BufferPool (reads may be served from
/// cache), the fault-tolerance wrappers in storage/fault.h, and the
/// prefetch landing table (storage/prefetch.h).
class PageReader {
 public:
  virtual ~PageReader() = default;

  /// Result of a page read: a pointer to the page's kPageSize bytes (valid
  /// until the next call on the same reader — for BufferPool, until the
  /// calling thread's next read on any pool) and whether the read hit the
  /// physical store (i.e. counts as a disk access).
  struct ReadResult {
    const uint8_t* data = nullptr;
    bool physical = false;
  };

  /// Reads page `id`. Fails with NotFound/OutOfRange for unknown ids and
  /// with Corruption (message carries the page id) for checksum mismatches.
  virtual Result<ReadResult> Read(PageId id) = 0;
};

/// Abstract page store: PageReader plus the mutation/maintenance surface
/// the tree and server layers require. Implementations: PageFile (the
/// in-memory simulated disk) and DiskPageFile (a real file).
class PageStore : public PageReader {
 public:
  /// Appends a zeroed page and returns its id. Requires exclusion from
  /// concurrent readers.
  virtual PageId Allocate() = 0;

  virtual size_t num_pages() const = 0;

  /// Writes kPageSize bytes into page `id` and seals it (one physical
  /// write; the trailer bytes of `data` are recomputed).
  virtual Status Write(PageId id, const uint8_t* data) = 0;

  /// Mutable view for in-place serialization (one physical write). The
  /// page is re-sealed lazily before it is next read, verified, or saved.
  /// The pointer stays valid until the store's next mutation of that page.
  virtual Result<PageView> WritableView(PageId id) = 0;

  /// Seals every dirty page now. Writes nothing to any file: a disk store
  /// keeps the sealed pages in memory until the next checkpoint.
  virtual void SealAllDirty() = 0;

  /// Pages dirtied since the last SealAllDirty (may contain already-
  /// resealed duplicates). Requires exclusion from writers.
  virtual const std::vector<PageId>& dirty_page_ids() const = 0;

  /// Prepares for concurrent readers: seals dirt, verifies every page up
  /// front. Idempotent; fails with Corruption on the first bad page.
  virtual Status Publish() = 0;

  /// Scrub-semantics verification (always recomputes the checksum).
  virtual Status VerifyPage(PageId id) = 0;
  virtual size_t VerifyAllPages(std::vector<PageId>* bad) = 0;

  /// Persists all pages atomically to `path` (temp + fsync + rename; the
  /// kSaveBeforeRename crash point sits between the two). For a disk store,
  /// `path` equal to its own file is the checkpoint: the new image becomes
  /// the file it reads.
  virtual Status SaveTo(const std::string& path) = 0;

  /// Test hook: damages the store's copy of a page (trailer left stale).
  virtual Status CorruptPageForTest(PageId id, size_t offset,
                                    uint8_t mask) = 0;

  virtual void set_verify_on_read(bool verify) = 0;
  virtual bool verify_on_read() const = 0;

  virtual const IoStats& stats() const = 0;
  virtual IoStats* mutable_stats() = 0;
  virtual void ResetStats() = 0;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_PAGE_STORE_H_
