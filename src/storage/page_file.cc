#include "storage/page_file.h"

#include <atomic>
#include <cstring>

#include "common/metrics.h"
#include "common/string_util.h"
#include "storage/image_format.h"

namespace dqmo {
namespace {

/// Process-wide storage metrics (every PageFile instance aggregates; the
/// per-file IoStats remain the exact per-instance account).
struct StorageMetrics {
  Counter* reads;
  Counter* writes;
  Counter* checksum_failures;
  Histogram* save_ns;
  Histogram* load_ns;

  static StorageMetrics& Get() {
    static StorageMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return StorageMetrics{
          r.GetCounter("dqmo_storage_physical_reads_total",
                       "Physical page reads (the paper's disk accesses)"),
          r.GetCounter("dqmo_storage_physical_writes_total",
                       "Physical page writes"),
          r.GetCounter("dqmo_storage_checksum_failures_total",
                       "Page reads whose CRC32C trailer did not match"),
          r.GetHistogram("dqmo_storage_save_ns",
                         "PageFile::SaveTo latency (atomic checkpoint)"),
          r.GetHistogram("dqmo_storage_load_ns",
                         "PageFile::LoadFrom latency (verify included)"),
      };
    }();
    return m;
  }
};

/// Atomic view of one per-page flag byte. The flag vectors are plain
/// uint8_t storage; the read path touches them only through these helpers
/// so concurrent readers are race-free (std::atomic_ref, C++20).
inline uint8_t LoadFlag(const std::vector<uint8_t>& flags, PageId id) {
  // atomic_ref<const T> arrives only in C++26; cast away constness for the
  // load (the underlying byte is always mutable vector storage).
  return std::atomic_ref<uint8_t>(const_cast<uint8_t&>(flags[id]))
      .load(std::memory_order_acquire);
}

inline void StoreFlag(std::vector<uint8_t>& flags, PageId id, uint8_t v) {
  std::atomic_ref<uint8_t>(flags[id]).store(v, std::memory_order_release);
}

}  // namespace

void PageFile::MoveFrom(PageFile& other) {
  bytes_ = std::move(other.bytes_);
  dirty_ = std::move(other.dirty_);
  verified_ = std::move(other.verified_);
  dirty_pages_ = std::move(other.dirty_pages_);
  num_pages_ = other.num_pages_;
  verify_on_read_ = other.verify_on_read_;
  stats_ = other.stats_;
  other.num_pages_ = 0;
}

Status PageFile::CheckId(PageId id) const {
  if (id >= num_pages_) {
    return Status::OutOfRange(
        StrFormat("page %u out of range (file has %zu pages)", id,
                  num_pages_));
  }
  return Status::OK();
}

PageId PageFile::Allocate() {
  bytes_.resize(bytes_.size() + kPageSize, 0);
  dirty_.push_back(1);  // Zeroed page: trailer not yet a valid checksum.
  verified_.push_back(0);
  const PageId id = static_cast<PageId>(num_pages_++);
  dirty_pages_.push_back(id);
  return id;
}

void PageFile::SealIfDirty(PageId id) {
  if (LoadFlag(dirty_, id) == 0) return;
  // Serialize sealing: when two readers hit the same lazily-dirty page,
  // exactly one recomputes the trailer; the other waits and sees the clean
  // flag (release/acquire on the flag orders the trailer bytes).
  std::lock_guard<std::mutex> lock(seal_mu_);
  if (LoadFlag(dirty_, id) == 0) return;
  SealPage(PageData(id));
  StoreFlag(verified_, id, 1);  // Freshly sealed: consistent by construction.
  StoreFlag(dirty_, id, 0);
}

void PageFile::SealAllDirty() {
  for (PageId id : dirty_pages_) SealIfDirty(id);
  dirty_pages_.clear();
}

Status PageFile::Publish() {
  SealAllDirty();
  for (PageId id = 0; id < num_pages_; ++id) {
    if (LoadFlag(verified_, id) != 0) continue;
    if (!PageChecksumOk(PageData(id))) {
      ++stats_.checksum_failures;
      return PageChecksumError(id, PageData(id));
    }
    StoreFlag(verified_, id, 1);
  }
  return Status::OK();
}

Result<PageReader::ReadResult> PageFile::Read(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  stats_.physical_reads.fetch_add(1, std::memory_order_relaxed);
  StorageMetrics::Get().reads->Add();
  SealIfDirty(id);
  const uint8_t* data = PageData(id);
  // Verify-once: a page is checked when it enters memory untrusted (an
  // unverified load) and trusted until its bytes change — the block-cache
  // model. Steady-state reads pay only this flag load; racing verifiers
  // both hash the (immutable) bytes and both publish the same flag.
  if (verify_on_read_ && LoadFlag(verified_, id) == 0) {
    if (!PageChecksumOk(data)) {
      ++stats_.checksum_failures;
      StorageMetrics::Get().checksum_failures->Add();
      return PageChecksumError(id, data);
    }
    StoreFlag(verified_, id, 1);
  }
  return ReadResult{data, /*physical=*/true};
}

Status PageFile::Write(PageId id, const uint8_t* data) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  std::memcpy(PageData(id), data, kPageSize);
  SealPage(PageData(id));
  StoreFlag(verified_, id, 1);
  StoreFlag(dirty_, id, 0);
  stats_.physical_writes.fetch_add(1, std::memory_order_relaxed);
  StorageMetrics::Get().writes->Add();
  return Status::OK();
}

Result<PageView> PageFile::WritableView(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  stats_.physical_writes.fetch_add(1, std::memory_order_relaxed);
  StorageMetrics::Get().writes->Add();
  if (LoadFlag(dirty_, id) == 0) {
    StoreFlag(dirty_, id, 1);  // Sealed lazily before the next read/save.
    dirty_pages_.push_back(id);
  }
  StoreFlag(verified_, id, 0);
  return PageView(PageData(id), kPageSize);
}

Status PageFile::CorruptPageForTest(PageId id, size_t offset, uint8_t mask) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  if (offset >= kPageSize) {
    return Status::InvalidArgument("corruption offset past page end");
  }
  SealIfDirty(id);  // Damage the sealed form; sealing must not heal it.
  PageData(id)[offset] ^= mask;
  StoreFlag(verified_, id, 0);
  return Status::OK();
}

Status PageFile::VerifyPage(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  SealIfDirty(id);
  const uint8_t* data = PageData(id);
  // Scrub semantics: always recompute, never trust the verified_ cache.
  if (!PageChecksumOk(data)) {
    ++stats_.checksum_failures;
    return PageChecksumError(id, data);
  }
  StoreFlag(verified_, id, 1);
  return Status::OK();
}

size_t PageFile::VerifyAllPages(std::vector<PageId>* bad) {
  size_t corrupt = 0;
  for (PageId id = 0; id < num_pages_; ++id) {
    SealIfDirty(id);
    if (PageChecksumOk(PageData(id))) {
      StoreFlag(verified_, id, 1);
    } else {
      ++corrupt;
      if (bad != nullptr) bad->push_back(id);
    }
  }
  return corrupt;
}

Status PageFile::SaveTo(const std::string& path) {
  ScopedLatencyTimer timer(StorageMetrics::Get().save_ns);
  for (PageId id = 0; id < num_pages_; ++id) SealIfDirty(id);
  dirty_pages_.clear();
  return WritePgfImage(path, num_pages_,
                       [this](uint64_t first) -> Result<PgfPageRun> {
                         return PgfPageRun{PageData(static_cast<PageId>(first)),
                                           num_pages_ - first};
                       });
}

Status PageFile::LoadFrom(const std::string& path) {
  ScopedLatencyTimer timer(StorageMetrics::Get().load_ns);
  // Stream the image through the shared loader: checksums are verified
  // page-at-a-time as pages arrive, so a corrupt page fails the load after
  // O(1) extra memory (the loader's single page buffer), not after the
  // whole image has been materialized. The destination vector is still
  // sized up front from the validated header — PageFile is the in-memory
  // backend.
  std::vector<uint8_t> bytes;
  StreamPgfOptions stream;
  stream.on_header = [&](const PgfHeader& header) {
    bytes.resize(header.num_pages * kPageSize);
    return Status::OK();
  };
  auto streamed = StreamPgfPages(
      path, stream, [&](uint64_t id, const uint8_t* page) {
        std::memcpy(bytes.data() + id * kPageSize, page, kPageSize);
        return Status::OK();
      });
  if (!streamed.ok()) {
    if (streamed.status().IsCorruption()) ++stats_.checksum_failures;
    return streamed.status();
  }
  bytes_ = std::move(bytes);
  num_pages_ = streamed->num_pages;
  dirty_.assign(num_pages_, 0);
  dirty_pages_.clear();
  verified_.assign(num_pages_, 1);  // Every page verified by the stream.
  stats_.Reset();
  return Status::OK();
}

}  // namespace dqmo
