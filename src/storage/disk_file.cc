#include "storage/disk_file.h"

#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

struct DiskMetrics {
  Counter* reads;
  Counter* writes;
  Histogram* read_ns;

  static DiskMetrics& Get() {
    static DiskMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return DiskMetrics{
          r.GetCounter("dqmo_disk_reads_total",
                       "Physical pread page reads on the disk backend"),
          r.GetCounter("dqmo_disk_writes_total",
                       "Physical pwrite page writes on the disk backend"),
          r.GetHistogram("dqmo_disk_read_ns",
                         "DiskPageFile synchronous page read latency"),
      };
    }();
    return m;
  }
};

/// Synchronous reads slower than this land in the flight recorder as
/// kSlowRead events (microseconds; DQMO_SLOW_READ_US, default 1000).
uint64_t SlowReadThresholdUs() {
  static const uint64_t us = [] {
    const int64_t v = GetEnvInt("DQMO_SLOW_READ_US", 1000);
    return v <= 0 ? UINT64_MAX : static_cast<uint64_t>(v);
  }();
  return us;
}

inline uint8_t LoadFlag(const std::vector<uint8_t>& flags, PageId id) {
  return std::atomic_ref<uint8_t>(const_cast<uint8_t&>(flags[id]))
      .load(std::memory_order_acquire);
}

inline void StoreFlag(std::vector<uint8_t>& flags, PageId id, uint8_t v) {
  std::atomic_ref<uint8_t>(flags[id]).store(v, std::memory_order_release);
}

Status FullPread(int fd, uint8_t* buf, size_t len, uint64_t offset,
                 const std::string& path) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, buf + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("pread %s at offset %llu failed",
                                       path.c_str(),
                                       (unsigned long long)(offset + done)));
    }
    if (n == 0) {
      return Status::IOError(StrFormat(
          "pread %s at offset %llu hit EOF (%zu of %zu bytes)", path.c_str(),
          (unsigned long long)(offset + done), done, len));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FullPwrite(int fd, const uint8_t* buf, size_t len, uint64_t offset,
                  const std::string& path) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, buf + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("pwrite %s at offset %llu failed",
                                       path.c_str(),
                                       (unsigned long long)(offset + done)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

AlignedPageBuf::AlignedPageBuf() : data_(nullptr) {
  void* p = nullptr;
  if (::posix_memalign(&p, kPageSize, kPageSize) != 0) {
    DQMO_CHECK(false && "posix_memalign failed");
  }
  data_ = static_cast<uint8_t*>(p);
  std::memset(data_, 0, kPageSize);
}

AlignedPageBuf::~AlignedPageBuf() { ::free(data_); }

AlignedPageBuf& AlignedPageBuf::operator=(AlignedPageBuf&& other) noexcept {
  if (this != &other) {
    ::free(data_);
    data_ = other.data_;
    other.data_ = nullptr;
  }
  return *this;
}

DiskPageFile::~DiskPageFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<DiskPageFile>> DiskPageFile::Create(
    const std::string& path, const Options& options) {
  auto file = std::unique_ptr<DiskPageFile>(new DiskPageFile());
  file->path_ = path;
  file->dirty_frame_budget_ = options.dirty_frame_budget;
  file->sim_read_delay_us_ = options.sim_read_delay_us;
  file->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (file->fd_ < 0) {
    return Status::IOError("cannot create " + path);
  }
  DQMO_RETURN_IF_ERROR(file->WriteHeader());
  return file;
}

Result<std::unique_ptr<DiskPageFile>> DiskPageFile::CreateFromImage(
    const std::string& live_path, const std::string& image_path,
    const Options& options) {
  DQMO_ASSIGN_OR_RETURN(auto file, Create(live_path, options));
  DQMO_RETURN_IF_ERROR(file->ReloadFromImage(image_path));
  return file;
}

Status DiskPageFile::ReloadFromImage(const std::string& image_path) {
  // The live file is a disposable working copy: truncate, restream from
  // the durable image (verifying page-at-a-time), rewrite the header.
  // The object's address — held by tree, pool, and gate — never changes.
  ++write_count_;
  frames_.clear();
  frame_fifo_.clear();
  dirty_pages_.clear();
  if (::ftruncate(fd_, static_cast<off_t>(kPgfDataOffset)) != 0) {
    return Status::IOError("cannot truncate " + path_);
  }
  AlignedPageBuf copy;
  StreamPgfOptions stream;
  stream.verify_checksums = true;
  auto streamed = StreamPgfPages(
      image_path, stream, [&](uint64_t id, const uint8_t* page) {
        std::memcpy(copy.data(), page, kPageSize);
        return FullPwrite(fd_, copy.data(), kPageSize,
                          PageOffset(static_cast<PageId>(id)), path_);
      });
  if (!streamed.ok()) return streamed.status();
  num_pages_ = streamed->num_pages;
  verified_.assign(num_pages_, 1);
  DQMO_RETURN_IF_ERROR(WriteHeader());
  if (::fsync(fd_) != 0) return Status::IOError("fsync failed on " + path_);
  stats_.Reset();
  return Status::OK();
}

Status DiskPageFile::CheckId(PageId id) const {
  if (id >= num_pages_) {
    return Status::OutOfRange(StrFormat(
        "page %u out of range (file has %zu pages)", id, num_pages_));
  }
  return Status::OK();
}

Status DiskPageFile::WriteHeader() {
  AlignedPageBuf block;
  EncodePgfHeaderBlock(num_pages_, block.data());
  return FullPwrite(fd_, block.data(), kPageSize, 0, path_);
}

Status DiskPageFile::RawRead(PageId id, uint8_t* buf) const {
  return FullPread(fd_, buf, kPageSize, PageOffset(id), path_);
}

Status DiskPageFile::RawWrite(PageId id, const uint8_t* buf) const {
  return FullPwrite(fd_, buf, kPageSize, PageOffset(id), path_);
}

uint8_t* DiskPageFile::ThreadScratch() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  // Node-based map: the buffer's address is stable across rehashes, so the
  // pointer handed to a reader survives other threads' first reads.
  return scratch_[std::this_thread::get_id()].data();
}

bool DiskPageFile::HasDirtyFrame(PageId id) const {
  return frames_.count(id) != 0;
}

bool DiskPageFile::PageVerified(PageId id) const {
  return LoadFlag(verified_, id) != 0;
}

void DiskPageFile::MarkPageVerified(PageId id) {
  StoreFlag(verified_, id, 1);
}

PageId DiskPageFile::Allocate() {
  ++write_count_;
  const PageId id = static_cast<PageId>(num_pages_++);
  verified_.push_back(0);
  Frame& frame = frames_[id];  // Fresh zeroed aligned buffer.
  frame.sealed = false;
  frame_fifo_.push_back(id);
  dirty_pages_.push_back(id);
  // Budget eviction may flush older frames to disk; an error there would
  // have nowhere to go from Allocate's signature, but FlushFrame failures
  // surface again at SealAllDirty/Publish, which do return Status.
  (void)EvictFramesOverBudget(id);
  return id;
}

Result<PageReader::ReadResult> DiskPageFile::Read(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  // Identical accounting to the in-memory backend: one physical read per
  // Read call, dirty-frame hits included — so node-level I/O counts match
  // across backends byte-for-byte.
  stats_.physical_reads.fetch_add(1, std::memory_order_relaxed);
  DiskMetrics::Get().reads->Add();
  uint8_t* scratch = ThreadScratch();
  auto frame_it = frames_.find(id);
  if (frame_it != frames_.end()) {
    Frame& frame = frame_it->second;
    if (!std::atomic_ref<bool>(frame.sealed)
             .load(std::memory_order_acquire)) {
      // Serialize sealing like PageFile: one reader recomputes the
      // trailer, the rest see the sealed flag (release/acquire on the
      // flag orders the trailer bytes).
      std::lock_guard<std::mutex> lock(scratch_mu_);
      if (!frame.sealed) {
        SealPage(frame.buf.data());
        std::atomic_ref<bool>(frame.sealed)
            .store(true, std::memory_order_release);
      }
    }
    std::memcpy(scratch, frame.buf.data(), kPageSize);
    StoreFlag(verified_, id, 1);  // Freshly sealed: consistent.
    return ReadResult{scratch, /*physical=*/true};
  }
  {
    const uint64_t tick = TickNs();
    ScopedLatencyTimer timer(DiskMetrics::Get().read_ns);
    DQMO_RETURN_IF_ERROR(RawRead(id, scratch));
    if (sim_read_delay_us_ > 0) {
      // Slow-device model (Options::sim_read_delay_us): the synchronous
      // path pays the full latency in the caller, the speculative path
      // pays it in a Prefetcher worker — the asymmetry prefetch exists to
      // exploit.
      std::this_thread::sleep_for(
          std::chrono::microseconds(sim_read_delay_us_));
    }
    if (tick != 0) {
      const uint64_t elapsed_us = (NowNs() - tick) / 1000;
      if (elapsed_us >= SlowReadThresholdUs()) {
        FlightRecorder::Record(FlightEventKind::kSlowRead, -1, elapsed_us);
      }
    }
  }
  if (verify_on_read_ && LoadFlag(verified_, id) == 0) {
    if (!PageChecksumOk(scratch)) {
      ++stats_.checksum_failures;
      return PageChecksumError(id, scratch);
    }
    StoreFlag(verified_, id, 1);
  }
  return ReadResult{scratch, /*physical=*/true};
}

Status DiskPageFile::Write(PageId id, const uint8_t* data) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  ++write_count_;
  // Write-through: seal and persist immediately, superseding any frame.
  AlignedPageBuf copy;
  std::memcpy(copy.data(), data, kPageSize);
  SealPage(copy.data());
  DQMO_RETURN_IF_ERROR(RawWrite(id, copy.data()));
  frames_.erase(id);  // Stale fifo entries are skipped on pop.
  StoreFlag(verified_, id, 1);
  stats_.physical_writes.fetch_add(1, std::memory_order_relaxed);
  DiskMetrics::Get().writes->Add();
  return Status::OK();
}

Result<DiskPageFile::Frame*> DiskPageFile::EnsureFrame(PageId id,
                                                       bool load_existing) {
  auto it = frames_.find(id);
  if (it != frames_.end()) return &it->second;
  Frame& frame = frames_[id];
  if (load_existing) {
    // Invariant: any page without a resident frame is on disk (Allocate
    // creates the frame; eviction writes it back), so seeding an in-place
    // edit from disk always succeeds.
    Status s = RawRead(id, frame.buf.data());
    if (!s.ok()) {
      frames_.erase(id);
      return s;
    }
  }
  frame_fifo_.push_back(id);
  return &frame;
}

Result<PageView> DiskPageFile::WritableView(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  ++write_count_;
  stats_.physical_writes.fetch_add(1, std::memory_order_relaxed);
  DiskMetrics::Get().writes->Add();
  DQMO_ASSIGN_OR_RETURN(Frame * frame, EnsureFrame(id, /*load_existing=*/true));
  if (frame->sealed || LoadFlag(verified_, id) != 0) {
    dirty_pages_.push_back(id);
  } else if (std::find(dirty_pages_.begin(), dirty_pages_.end(), id) ==
             dirty_pages_.end()) {
    dirty_pages_.push_back(id);
  }
  frame->sealed = false;  // Trailer stale until sealed.
  StoreFlag(verified_, id, 0);
  DQMO_RETURN_IF_ERROR(EvictFramesOverBudget(id));
  // Re-find: eviction never drops `id`, but map insertions may have moved
  // nothing (node-based) — the frame pointer is stable.
  return PageView(frame->buf.data(), kPageSize);
}

Status DiskPageFile::FlushFrame(PageId id, Frame* frame) {
  if (!frame->sealed) {
    SealPage(frame->buf.data());
    frame->sealed = true;
  }
  DQMO_RETURN_IF_ERROR(RawWrite(id, frame->buf.data()));
  StoreFlag(verified_, id, 1);
  frames_.erase(id);
  return Status::OK();
}

Status DiskPageFile::EvictFramesOverBudget(PageId keep) {
  const size_t budget = dirty_frame_budget_ == 0 ? 1 : dirty_frame_budget_;
  while (frames_.size() > budget && frames_.size() > 1) {
    const PageId victim = frame_fifo_.front();
    frame_fifo_.pop_front();
    if (victim == keep) {
      frame_fifo_.push_back(victim);  // Never evict the page in hand.
      continue;
    }
    auto it = frames_.find(victim);
    if (it == frames_.end()) continue;  // Stale fifo entry.
    DQMO_RETURN_IF_ERROR(FlushFrame(victim, &it->second));
  }
  return Status::OK();
}

void DiskPageFile::SealAllDirty() {
  // Seal *and* write back: after this, every page is on disk and the frame
  // table is empty — the steady state concurrent readers (and speculative
  // prefetch reads, which bypass the frame table) require.
  while (!frames_.empty()) {
    auto it = frames_.begin();
    // Flush failures surface at Publish/SaveTo, which return Status; the
    // page stays framed (and correct in memory) if the write fails.
    if (!FlushFrame(it->first, &it->second).ok()) {
      frames_.erase(it);  // Avoid spinning; Publish will re-detect.
    }
  }
  frame_fifo_.clear();
  dirty_pages_.clear();
}

Status DiskPageFile::Publish() {
  SealAllDirty();
  AlignedPageBuf buf;
  for (PageId id = 0; id < num_pages_; ++id) {
    if (LoadFlag(verified_, id) != 0) continue;
    DQMO_RETURN_IF_ERROR(RawRead(id, buf.data()));
    if (!PageChecksumOk(buf.data())) {
      ++stats_.checksum_failures;
      return PageChecksumError(id, buf.data());
    }
    StoreFlag(verified_, id, 1);
  }
  return Status::OK();
}

Status DiskPageFile::VerifyPage(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  AlignedPageBuf buf;
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    if (!it->second.sealed) {
      SealPage(it->second.buf.data());
      it->second.sealed = true;
    }
    std::memcpy(buf.data(), it->second.buf.data(), kPageSize);
  } else {
    DQMO_RETURN_IF_ERROR(RawRead(id, buf.data()));
  }
  // Scrub semantics: always recompute, never trust the verified_ cache.
  if (!PageChecksumOk(buf.data())) {
    ++stats_.checksum_failures;
    return PageChecksumError(id, buf.data());
  }
  StoreFlag(verified_, id, 1);
  return Status::OK();
}

size_t DiskPageFile::VerifyAllPages(std::vector<PageId>* bad) {
  size_t corrupt = 0;
  for (PageId id = 0; id < num_pages_; ++id) {
    if (!VerifyPage(id).ok()) {
      ++corrupt;
      if (bad != nullptr) bad->push_back(id);
    }
  }
  return corrupt;
}

Status DiskPageFile::SaveTo(const std::string& path) {
  if (path == path_) {
    // The live file is a working copy; a checkpoint image lives elsewhere.
    return Status::InvalidArgument("cannot checkpoint " + path_ +
                                   " over its own live file");
  }
  // Everything to disk first; the frame table empties either way.
  for (auto it = frames_.begin(); it != frames_.end();
       it = frames_.begin()) {
    DQMO_RETURN_IF_ERROR(FlushFrame(it->first, &it->second));
  }
  frame_fifo_.clear();
  dirty_pages_.clear();
  // The one image writer, fed page-at-a-time from the (now fully flushed)
  // live file.
  AlignedPageBuf page;
  return WritePgfImage(path, num_pages_,
                       [&](uint64_t id) -> Result<PgfPageRun> {
                         DQMO_RETURN_IF_ERROR(
                             RawRead(static_cast<PageId>(id), page.data()));
                         return PgfPageRun{page.data(), 1};
                       });
}

Status DiskPageFile::CorruptPageForTest(PageId id, size_t offset,
                                        uint8_t mask) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  if (offset >= kPageSize) {
    return Status::InvalidArgument("corruption offset past page end");
  }
  // Damage at rest: the frame (if any) goes to disk sealed first, then the
  // stored bytes are flipped with the trailer left stale.
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    DQMO_RETURN_IF_ERROR(FlushFrame(id, &it->second));
  }
  AlignedPageBuf buf;
  DQMO_RETURN_IF_ERROR(RawRead(id, buf.data()));
  buf.data()[offset] ^= mask;
  DQMO_RETURN_IF_ERROR(RawWrite(id, buf.data()));
  StoreFlag(verified_, id, 0);
  return Status::OK();
}

}  // namespace dqmo
