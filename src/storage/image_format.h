// On-disk page-image format shared by PageFile (SaveTo/LoadFrom), the
// disk-resident DiskPageFile, and the streaming verifiers behind
// `dqmo_tool scrub --backend=pread`.
//
// Three versions share one magic:
//   v1  24-byte header, pages carry no checksums (legacy, read-only);
//   v2  24-byte header, CRC32C trailer per page (PageFile::SaveTo);
//   v3  header padded to one full 4 KiB block, CRC32C per page — every
//       page sits at a 4 KiB-aligned file offset, the layout io_uring
//       reads want (DiskPageFile's native format).
//
// The streaming loader reads and verifies ONE page at a time, so callers
// can verify arbitrarily large images with constant memory — the fix for
// the old LoadFrom, which required the whole image resident before the
// first checksum was checked.
#ifndef DQMO_STORAGE_IMAGE_FORMAT_H_
#define DQMO_STORAGE_IMAGE_FORMAT_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace dqmo {

inline constexpr uint64_t kPgfMagic = 0x4451'4d4f'5047'4631ULL;  // DQMOPGF1
inline constexpr uint32_t kPgfVersionLegacy = 1;   // No page checksums.
inline constexpr uint32_t kPgfVersion = 2;         // CRC32C trailer/page.
inline constexpr uint32_t kPgfVersionAligned = 3;  // v2 + 4 KiB header pad.

/// Upper bound on a plausible page count (256 GiB of pages). Headers
/// claiming more are rejected as corrupt before any allocation is sized
/// from them.
inline constexpr uint64_t kMaxLoadablePages = 1ULL << 26;

struct PgfHeader {
  uint64_t magic = kPgfMagic;
  uint32_t version = kPgfVersion;
  uint32_t reserved = 0;
  uint64_t num_pages = 0;
};
static_assert(sizeof(PgfHeader) == 24);

/// Byte offset of page 0 for a given format version (24 for v1/v2, one
/// full page for the aligned v3 layout).
inline uint64_t PgfDataOffset(uint32_t version) {
  return version == kPgfVersionAligned ? static_cast<uint64_t>(kPageSize)
                                       : sizeof(PgfHeader);
}

/// Reads and sanity-checks an image header against the file's actual size:
/// unknown magic/version, absurd page counts, truncation, and trailing
/// garbage all fail with a typed Status before anything is sized from the
/// header. Leaves `f` positioned at page 0.
Result<PgfHeader> ReadPgfHeader(std::FILE* f, const std::string& path);

/// Per-page sink for StreamPgfPages. `page` holds the raw kPageSize bytes
/// of page `id` and is only valid during the call.
using PgfPageSink =
    std::function<Status(uint64_t id, const uint8_t* page)>;

struct StreamPgfOptions {
  /// Verify each page's CRC32C trailer before handing it to the sink
  /// (ignored for v1 images, which carry no checksums); the first mismatch
  /// aborts the stream with Corruption carrying the page id and offset.
  bool verify_checksums = true;
  /// Keep streaming past corrupt pages instead of aborting; each bad page
  /// is counted (and still delivered to the sink) — scrub semantics.
  bool continue_on_corruption = false;
  /// Called once with the validated header before the first page, so sinks
  /// can pre-size their destination (PageFile::LoadFrom) or open their
  /// output file (DiskPageFile::CreateFromImage). A non-OK return aborts.
  std::function<Status(const PgfHeader&)> on_header;
};

struct StreamPgfResult {
  PgfHeader header;
  uint64_t pages_streamed = 0;
  uint64_t corrupt_pages = 0;
};

/// Streams every page of the image at `path` through `sink` with O(1)
/// memory (one page buffer), verifying checksums page-at-a-time per
/// `options`. This is the shared loader behind PageFile::LoadFrom,
/// DiskPageFile::Open/CreateFromImage, and the tool's pread-backend scrub.
Result<StreamPgfResult> StreamPgfPages(const std::string& path,
                                       const StreamPgfOptions& options,
                                       const PgfPageSink& sink);

}  // namespace dqmo

#endif  // DQMO_STORAGE_IMAGE_FORMAT_H_
