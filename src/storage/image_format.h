// On-disk page-image format: one layout, one writer, one reader, shared by
// PageFile (SaveTo/LoadFrom), the disk-resident DiskPageFile, and the
// forensic sweeps behind `dqmo_tool scrub` and RepairDurableShard.
//
// Layout (format v3, the only one): a PgfHeader zero-padded to one full
// 4 KiB block, then the pages, each carrying a CRC32C trailer
// (storage/page.h). Every page therefore sits at a 4 KiB-aligned file
// offset — page N at 4096 + N * 4096 — so one page read is one aligned
// device block.
// Images with any other version fail to load with NotSupported.
//
// WritePgfImage installs an image atomically (temp file + fsync + rename);
// StreamPgfPages reads and verifies ONE page at a time, so callers can
// verify arbitrarily large images with constant memory.
#ifndef DQMO_STORAGE_IMAGE_FORMAT_H_
#define DQMO_STORAGE_IMAGE_FORMAT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace dqmo {

inline constexpr uint64_t kPgfMagic = 0x4451'4d4f'5047'4631ULL;  // DQMOPGF1
inline constexpr uint32_t kPgfVersion = 3;  // Header block + CRC32C/page.

/// Byte offset of page 0: the header owns the whole first block.
inline constexpr uint64_t kPgfDataOffset = kPageSize;

struct PgfHeader {
  uint64_t magic = kPgfMagic;
  uint32_t version = kPgfVersion;
  uint32_t reserved = 0;
  uint64_t num_pages = 0;
};
static_assert(sizeof(PgfHeader) == 24);

/// File offset of page `id`'s first byte in an image.
inline uint64_t PgfPageOffset(uint64_t id) {
  return kPgfDataOffset + id * kPageSize;
}

/// Fills `block` (kPageSize bytes) with the header of a `num_pages`-page
/// image, zero-padded to the full block.
void EncodePgfHeaderBlock(uint64_t num_pages, uint8_t* block);

/// A run of consecutive sealed pages, `pages` * kPageSize bytes at `data`.
struct PgfPageRun {
  const uint8_t* data = nullptr;
  uint64_t pages = 0;
};

/// Supplies the pages of an image being written, in id order: returns a
/// run of one or more pages starting at page `first` (a store that holds
/// its pages contiguously hands over all the rest at once), valid until
/// the next call.
using PgfPageSource = std::function<Result<PgfPageRun>(uint64_t first)>;

/// Installs a `num_pages`-page image at `path` atomically: writes
/// `<path>.tmp` (header block, then every page from `source`), fflush +
/// fsync, hits the kSaveBeforeRename crash point, then rename(2) over
/// `path`. A crash or error anywhere before the rename leaves the previous
/// image at `path` intact and loadable. The one save protocol behind both
/// stores' SaveTo.
Status WritePgfImage(const std::string& path, uint64_t num_pages,
                     const PgfPageSource& source);

/// Per-page sink for StreamPgfPages. `page` holds the raw kPageSize bytes
/// of page `id` and is only valid during the call.
using PgfPageSink =
    std::function<Status(uint64_t id, const uint8_t* page)>;

struct StreamPgfOptions {
  /// Verify each page's CRC32C trailer before handing it to the sink; the
  /// first mismatch aborts the stream with Corruption carrying the page id
  /// and file offset. Forensic sweeps turn it off and judge each page in
  /// their sink, so one pass reports every damaged page.
  bool verify_checksums = true;
  /// Called once with the validated header before the first page, so sinks
  /// can pre-size their destination (PageFile::LoadFrom). A non-OK return
  /// aborts.
  std::function<Status(const PgfHeader&)> on_header;
};

/// Streams every page of the image at `path` through `sink` with O(1)
/// memory (one page buffer) and returns the image's header. The
/// header is checked against the file's actual size first: unknown magic,
/// another version, absurd page counts, truncation, and trailing garbage
/// all fail with a typed Status before anything is sized from the header.
/// The one loader behind PageFile::LoadFrom, DiskPageFile::Open's and
/// ReloadFromImage's verification, the tool's scrub and
/// RepairDurableShard's probe.
Result<PgfHeader> StreamPgfPages(const std::string& path,
                                 const StreamPgfOptions& options,
                                 const PgfPageSink& sink);

}  // namespace dqmo

#endif  // DQMO_STORAGE_IMAGE_FORMAT_H_
