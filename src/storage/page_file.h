// PageFile: the simulated disk. A flat array of 4 KiB pages with physical
// read/write accounting, plus persistence to an OS file so that an index can
// be built once and reused across benchmark binaries.
//
// Integrity: every page carries a CRC32C trailer over its payload
// (storage/page.h). Pages are sealed when written and verified on load; a
// verified page is trusted until its bytes change (verify-once, the
// block-cache model), and a page damaged at rest is re-verified on its next
// read, so corruption surfaces as Status::Corruption carrying the page id
// instead of garbage geometry. Images on disk use the one layout of
// storage/image_format.h, byte-identical to what DiskPageFile writes.
//
// Threading model (see DESIGN.md "Threading model"): concurrent Read calls
// are safe with each other — the I/O counters are atomic, the verify-once /
// dirty flags are accessed through std::atomic_ref, and lazy sealing is
// serialized by an internal mutex. All *mutations* (Allocate, Write,
// WritableView, LoadFrom, SaveTo, Clear-like calls) require external
// exclusion from every reader; the query engine provides it with the
// single-writer/multi-reader TreeGate (server/executor.h). Publish() puts a
// file into the steady state concurrent readers want: no dirty pages, every
// page pre-verified, so the read path mutates nothing but atomic counters.
#ifndef DQMO_STORAGE_PAGE_FILE_H_
#define DQMO_STORAGE_PAGE_FILE_H_

#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace dqmo {

/// In-memory paged store standing in for the disk of the paper's testbed.
///
/// The substitution (documented in DESIGN.md) preserves the paper's metric:
/// every PageFile read/write is counted as one disk access, exactly what the
/// paper measures; actual seek latency is irrelevant to the reported
/// figures, which plot access *counts*. For real milliseconds, use the
/// disk-resident DiskPageFile backend (storage/disk_file.h) behind the same
/// PageStore interface.
class PageFile : public PageStore {
 public:
  PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  /// Moves are not thread-safe: never move a file another thread can reach.
  PageFile(PageFile&& other) noexcept { MoveFrom(other); }
  PageFile& operator=(PageFile&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  /// Appends a zeroed page and returns its id. Requires exclusion from
  /// concurrent readers (page storage may reallocate).
  PageId Allocate() override;

  size_t num_pages() const override { return num_pages_; }

  /// Reads page `id`, charging one physical read. Verifies the page's
  /// checksum on the first read after its bytes changed unsealed
  /// (CorruptPageForTest); once verified, a page is
  /// trusted until its bytes change — the block-cache model, so
  /// steady-state reads pay only a flag check. A mismatch returns
  /// Corruption naming the page and increments stats().checksum_failures.
  /// set_verify_on_read(false) disables even the first-read check.
  /// Safe to call from concurrent readers.
  Result<ReadResult> Read(PageId id) override;

  /// Writes the kPageSize bytes at `data` into page `id` and seals it,
  /// charging one physical write. (The trailer bytes of `data` are
  /// overwritten by the freshly computed checksum.)
  Status Write(PageId id, const uint8_t* data) override;

  /// Mutable view of a page for in-place serialization, charging one
  /// physical write (the caller is about to overwrite the page). The page
  /// is re-sealed lazily before it is next read, verified, or saved.
  Result<PageView> WritableView(PageId id) override;

  /// Seals every page dirtied via WritableView right now, instead of
  /// lazily on the next read. A writer that shares the file with
  /// concurrent readers must call this before readers resume (the
  /// TreeGate write guard does), so no two readers race to seal the same
  /// page; cost is proportional to the number of dirtied pages.
  void SealAllDirty() override;

  /// Pages dirtied via WritableView/Allocate since the last SealAllDirty.
  /// May contain duplicates of already-resealed ids. The TreeGate write
  /// guard walks this to invalidate stale BufferPool frames before
  /// sealing. Requires exclusion from writers.
  const std::vector<PageId>& dirty_page_ids() const override {
    return dirty_pages_;
  }

  /// Prepares the file for concurrent readers: seals every dirty page and
  /// verifies every page's checksum up front, so the steady-state Read
  /// path mutates nothing but atomic counters. Fails with Corruption on
  /// the first bad page. Idempotent.
  Status Publish() override;

  const IoStats& stats() const override { return stats_; }
  IoStats* mutable_stats() override { return &stats_; }
  void ResetStats() override { stats_.Reset(); }

  /// Toggles checksum verification on Read (default on). Exists so the
  /// fault-tolerance bench can measure verification cost; leave on
  /// otherwise.
  void set_verify_on_read(bool verify) override { verify_on_read_ = verify; }
  bool verify_on_read() const override { return verify_on_read_; }

  /// Verifies one page's checksum (sealing it first if it has pending
  /// in-place writes). Always recomputes — scrub semantics, no trust
  /// cache. Corruption carries the page id.
  Status VerifyPage(PageId id) override;

  /// Test hook: flips `mask` into byte `offset` of page `id` *at rest* —
  /// storage itself is damaged (not just a delivered copy, which is
  /// FaultInjector territory), the trailer is left stale, and the page's
  /// verified flag is cleared so the next Read re-hashes and fails with
  /// Corruption. This is what VerifyAllPages/scrub detect and what
  /// DurableIndex::ReloadFromDisk repairs. Requires exclusion from
  /// concurrent readers, like any mutation.
  Status CorruptPageForTest(PageId id, size_t offset, uint8_t mask) override;

  /// Verifies every page, appending the ids of all corrupt pages to `bad`
  /// (unlike Read/LoadFrom it does not stop at the first). Returns the
  /// number of corrupt pages found. Used by the ShardScrubber.
  size_t VerifyAllPages(std::vector<PageId>* bad) override;

  /// Persists all pages atomically through WritePgfImage
  /// (storage/image_format.h): a crash mid-save (including at the
  /// kSaveBeforeRename crash point) leaves the previous file at `path`
  /// intact and loadable.
  Status SaveTo(const std::string& path) override;

  /// Loads an image written by either store's SaveTo, replacing current
  /// contents. The byte count is validated against the header before
  /// anything is trusted, and every page's checksum is verified as it
  /// streams in: truncated, oversized, absurdly-sized, or damaged files
  /// fail with Corruption carrying the offending offset, and images of any
  /// other format version with NotSupported.
  Status LoadFrom(const std::string& path);

 private:
  Status CheckId(PageId id) const;

  uint8_t* PageData(PageId id) {
    return bytes_.data() + static_cast<size_t>(id) * kPageSize;
  }

  /// Recomputes the trailer of a page dirtied via WritableView. Safe under
  /// concurrent readers: the dirty flag is read atomically and sealing is
  /// serialized by seal_mu_.
  void SealIfDirty(PageId id);

  void MoveFrom(PageFile& other);

  std::vector<uint8_t> bytes_;
  /// Per-page flags, accessed through std::atomic_ref on the read path.
  /// dirty_: page written in place via WritableView, trailer stale.
  /// verified_: checksum verified (or freshly computed) since the bytes
  /// last changed; Read trusts these without re-hashing.
  std::vector<uint8_t> dirty_;
  std::vector<uint8_t> verified_;
  /// Ids dirtied via WritableView since the last SealAllDirty (may hold
  /// already-resealed ids; SealIfDirty is a no-op for them).
  std::vector<PageId> dirty_pages_;
  /// Serializes lazy sealing when concurrent readers hit a dirty page.
  std::mutex seal_mu_;
  size_t num_pages_ = 0;
  bool verify_on_read_ = true;
  IoStats stats_;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_PAGE_FILE_H_
