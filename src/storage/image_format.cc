#include "storage/image_format.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "storage/fault.h"

namespace dqmo {
namespace {

/// stdio buffer for image writes: runs of one page go out 16 per write(2)
/// call (longer runs bypass it). Kept small because a checkpoint runs
/// beside live readers and the buffer is resident while it runs.
constexpr size_t kWriteBufferBytes = 16 * kPageSize;

/// Upper bound on a plausible page count (256 GiB of pages). Headers
/// claiming more are rejected as corrupt before any allocation is sized
/// from them.
constexpr uint64_t kMaxLoadablePages = 1ULL << 26;

/// RAII wrapper over std::FILE.
class File {
 public:
  File(const char* path, const char* mode) : f_(std::fopen(path, mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() { return f_; }

 private:
  std::FILE* f_;
};

long FileSize(std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long size = std::ftell(f);
  if (std::fseek(f, 0, SEEK_SET) != 0) return -1;
  return size;
}

/// Reads and sanity-checks an image header against the file's actual size.
/// Leaves `f` positioned at page 0.
Result<PgfHeader> ReadPgfHeader(std::FILE* f, const std::string& path) {
  const long file_size = FileSize(f);
  if (file_size < 0) return Status::IOError("cannot stat " + path);
  PgfHeader header{};
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    return Status::Corruption("short header read from " + path);
  }
  if (header.magic != kPgfMagic) {
    return Status::Corruption(path + " is not a DQMO page file");
  }
  if (header.version != kPgfVersion) {
    return Status::NotSupported(
        StrFormat("page file version %u unsupported (only v%u loads)",
                  header.version, kPgfVersion));
  }
  // Never size anything from the header before sanity-checking it against
  // reality: a corrupt count must not drive a huge allocation or let a
  // truncated file masquerade as intact.
  if (header.num_pages > kMaxLoadablePages) {
    return Status::Corruption(
        StrFormat("%s: absurd page count %llu in header", path.c_str(),
                  static_cast<unsigned long long>(header.num_pages)));
  }
  const uint64_t expected_size = PgfPageOffset(header.num_pages);
  if (static_cast<uint64_t>(file_size) != expected_size) {
    return Status::Corruption(StrFormat(
        "%s: header claims %llu pages (%llu bytes) but file is %ld bytes "
        "(%s at offset %ld)",
        path.c_str(), static_cast<unsigned long long>(header.num_pages),
        static_cast<unsigned long long>(expected_size), file_size,
        static_cast<uint64_t>(file_size) < expected_size ? "truncated"
                                                         : "trailing data",
        file_size));
  }
  if (std::fseek(f, static_cast<long>(kPgfDataOffset), SEEK_SET) != 0) {
    return Status::IOError("cannot seek to page data in " + path);
  }
  return header;
}

}  // namespace

void EncodePgfHeaderBlock(uint64_t num_pages, uint8_t* block) {
  std::memset(block, 0, kPageSize);
  const PgfHeader header{kPgfMagic, kPgfVersion, 0, num_pages};
  std::memcpy(block, &header, sizeof(header));
}

Status WritePgfImage(const std::string& path, uint64_t num_pages,
                     const PgfPageSource& source) {
  // Write-to-temp + fsync + rename: the previous image at `path` stays
  // intact (and loadable) until the new one is complete and durable. A
  // crash anywhere in between leaves at worst a stale .tmp to ignore;
  // writing `path` directly would truncate the old checkpoint before the
  // new one exists.
  const std::string tmp = path + ".tmp";
  {
    // Declared before the File so it outlives fclose's final flush.
    const std::unique_ptr<char[]> buffer(new char[kWriteBufferBytes]);
    File f(tmp.c_str(), "wb");
    if (!f.ok()) return Status::IOError("cannot open " + tmp + " for write");
    std::setvbuf(f.get(), buffer.get(), _IOFBF, kWriteBufferBytes);
    std::vector<uint8_t> block(kPageSize);
    EncodePgfHeaderBlock(num_pages, block.data());
    if (std::fwrite(block.data(), kPageSize, 1, f.get()) != 1) {
      return Status::IOError("short header write to " + tmp);
    }
    for (uint64_t id = 0; id < num_pages;) {
      DQMO_ASSIGN_OR_RETURN(const PgfPageRun run, source(id));
      const uint64_t pages = std::min(run.pages, num_pages - id);
      if (pages == 0 ||
          std::fwrite(run.data, kPageSize, pages, f.get()) != pages) {
        return Status::IOError("short page write to " + tmp);
      }
      id += pages;
    }
    if (std::fflush(f.get()) != 0) {
      return Status::IOError("fflush failed on " + tmp);
    }
    if (::fsync(::fileno(f.get())) != 0) {
      return Status::IOError("fsync failed on " + tmp);
    }
  }
  CrashPoints::Hit(crash_points::kSaveBeforeRename);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " over " + path);
  }
  return Status::OK();
}

Result<PgfHeader> StreamPgfPages(const std::string& path,
                                 const StreamPgfOptions& options,
                                 const PgfPageSink& sink) {
  File f(path.c_str(), "rb");
  if (!f.ok()) return Status::IOError("cannot open " + path + " for read");
  DQMO_ASSIGN_OR_RETURN(const PgfHeader header, ReadPgfHeader(f.get(), path));
  if (options.on_header) DQMO_RETURN_IF_ERROR(options.on_header(header));
  // One page resident at a time: the whole point. An image far larger than
  // RAM verifies in constant memory.
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t id = 0; id < header.num_pages; ++id) {
    if (std::fread(page.data(), kPageSize, 1, f.get()) != 1) {
      return Status::Corruption(
          StrFormat("short page read from %s at page %llu", path.c_str(),
                    static_cast<unsigned long long>(id)));
    }
    if (options.verify_checksums && !PageChecksumOk(page.data())) {
      return Status::Corruption(StrFormat(
          "%s: page %llu checksum mismatch at file offset %llu "
          "(stored %08x, computed %08x)",
          path.c_str(), static_cast<unsigned long long>(id),
          static_cast<unsigned long long>(PgfPageOffset(id)),
          StoredPageChecksum(page.data()), ComputePageChecksum(page.data())));
    }
    DQMO_RETURN_IF_ERROR(sink(id, page.data()));
  }
  return header;
}

}  // namespace dqmo
