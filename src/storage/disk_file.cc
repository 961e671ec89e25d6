#include "storage/disk_file.h"

#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

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
                       "Page writes on the disk backend (into in-memory "
                       "frames; a checkpoint writes the image)"),
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

Result<std::unique_ptr<DiskPageFile>> DiskPageFile::Open(
    const std::string& path, const Options& options) {
  auto file = std::unique_ptr<DiskPageFile>(new DiskPageFile());
  file->path_ = path;
  file->sim_read_delay_us_ = options.sim_read_delay_us;
  if (::access(path.c_str(), F_OK) != 0) {
    if (errno == ENOENT) return file;  // Fresh: SaveTo(path) creates it.
    return Status::IOError("cannot stat " + path);
  }
  DQMO_RETURN_IF_ERROR(file->LoadImage());
  return file;
}

Status DiskPageFile::ReloadFromImage() {
  // Verified before anything is dropped: a damaged image leaves the store
  // (and the tree over it) exactly as it was.
  DQMO_RETURN_IF_ERROR(LoadImage());
  ++write_count_;
  frames_.clear();
  dirty_pages_.clear();
  stats_.Reset();
  return Status::OK();
}

Status DiskPageFile::LoadImage() {
  // The loader's header check and CRC stream, keeping nothing: the pages
  // are read in place from here on.
  StreamPgfOptions stream;
  stream.verify_checksums = true;
  DQMO_ASSIGN_OR_RETURN(
      const PgfHeader header,
      StreamPgfPages(path_, stream,
                     [](uint64_t, const uint8_t*) { return Status::OK(); }));
  DQMO_RETURN_IF_ERROR(ReopenImage());
  num_pages_ = header.num_pages;
  verified_.assign(num_pages_, 1);
  return Status::OK();
}

Status DiskPageFile::ReopenImage() {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path_);
  if (fd_ < 0) {
    fd_ = fd;
    return Status::OK();
  }
  // Same descriptor number, new file, atomically: a speculative pread in
  // flight finishes on the old file, which a checkpoint leaves holding the
  // same bytes for every page such a read can target.
  const bool swapped = ::dup2(fd, fd_) == fd_;
  ::close(fd);
  if (!swapped) return Status::IOError("cannot reopen " + path_);
  return Status::OK();
}

Status DiskPageFile::CheckId(PageId id) const {
  if (id >= num_pages_) {
    return Status::OutOfRange(StrFormat(
        "page %u out of range (file has %zu pages)", id, num_pages_));
  }
  return Status::OK();
}

Status DiskPageFile::RawRead(PageId id, uint8_t* buf) const {
  return FullPread(fd_, buf, kPageSize, PageOffset(id), path_);
}

uint8_t* DiskPageFile::ThreadScratch() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  // Node-based map: the buffer's address is stable across rehashes, so the
  // pointer handed to a reader survives other threads' first reads.
  return scratch_[std::this_thread::get_id()].data();
}

bool DiskPageFile::HasFrame(PageId id) const { return frames_.count(id) != 0; }

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
  frames_[id];  // Zeroed and unsealed: the trailer is not yet valid.
  dirty_pages_.push_back(id);
  return id;
}

Result<PageReader::ReadResult> DiskPageFile::Read(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  // Identical accounting to the in-memory backend: one physical read per
  // Read call, frame hits included — so node-level I/O counts match
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
        SealPage(frame.buf.get());
        StoreFlag(verified_, id, 1);  // Freshly sealed: consistent.
        std::atomic_ref<bool>(frame.sealed)
            .store(true, std::memory_order_release);
      }
    }
    std::memcpy(scratch, frame.buf.get(), kPageSize);
  } else {
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
  DQMO_ASSIGN_OR_RETURN(Frame * frame,
                        EnsureFrame(id, /*load_existing=*/false));
  std::memcpy(frame->buf.get(), data, kPageSize);
  SealPage(frame->buf.get());
  frame->sealed = true;
  StoreFlag(verified_, id, 1);
  stats_.physical_writes.fetch_add(1, std::memory_order_relaxed);
  DiskMetrics::Get().writes->Add();
  return Status::OK();
}

Result<DiskPageFile::Frame*> DiskPageFile::EnsureFrame(PageId id,
                                                       bool load_existing) {
  auto it = frames_.find(id);
  if (it != frames_.end()) return &it->second;
  Frame frame;
  if (load_existing) {
    // Invariant: a page without a frame is in the image (Allocate creates
    // the frame and only a checkpoint, which installs it, drops it), whose
    // bytes are sealed.
    DQMO_RETURN_IF_ERROR(RawRead(id, frame.buf.get()));
    frame.sealed = true;
  }
  return &frames_.emplace(id, std::move(frame)).first->second;
}

Result<PageView> DiskPageFile::WritableView(PageId id) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  ++write_count_;
  stats_.physical_writes.fetch_add(1, std::memory_order_relaxed);
  DiskMetrics::Get().writes->Add();
  DQMO_ASSIGN_OR_RETURN(Frame * frame, EnsureFrame(id, /*load_existing=*/true));
  // An unsealed frame is already listed (Allocate or an earlier view).
  if (frame->sealed) dirty_pages_.push_back(id);
  frame->sealed = false;  // Trailer stale until sealed.
  StoreFlag(verified_, id, 0);
  return PageView(frame->buf.get(), kPageSize);
}

void DiskPageFile::SealFrame(PageId id, Frame* frame) {
  if (frame->sealed) return;
  SealPage(frame->buf.get());
  frame->sealed = true;
  StoreFlag(verified_, id, 1);
}

void DiskPageFile::SealAllDirty() {
  // Every unsealed frame is listed. Sealed frames stay resident until the
  // checkpoint: they are what concurrent readers see.
  for (PageId id : dirty_pages_) {
    auto it = frames_.find(id);
    if (it != frames_.end()) SealFrame(id, &it->second);
  }
  dirty_pages_.clear();
}

Status DiskPageFile::CopyPage(PageId id, uint8_t* buf) {
  auto it = frames_.find(id);
  if (it == frames_.end()) return RawRead(id, buf);
  SealFrame(id, &it->second);
  std::memcpy(buf, it->second.buf.get(), kPageSize);
  return Status::OK();
}

Status DiskPageFile::Publish() {
  SealAllDirty();
  AlignedPageBuf buf;
  for (PageId id = 0; id < num_pages_; ++id) {
    if (LoadFlag(verified_, id) != 0) continue;
    DQMO_RETURN_IF_ERROR(CopyPage(id, buf.data()));
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
  DQMO_RETURN_IF_ERROR(CopyPage(id, buf.data()));
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
  SealAllDirty();
  // The one image writer, fed each page's (sealed) frame or image bytes.
  AlignedPageBuf page;
  DQMO_RETURN_IF_ERROR(
      WritePgfImage(path, num_pages_, [&](uint64_t id) -> Result<PgfPageRun> {
        DQMO_RETURN_IF_ERROR(CopyPage(static_cast<PageId>(id), page.data()));
        return PgfPageRun{page.data(), 1};
      }));
  if (path != path_) return Status::OK();
  // The checkpoint: the installed image holds every frame's bytes. Until
  // the reopen succeeds the frames and the old file still serve them.
  DQMO_RETURN_IF_ERROR(ReopenImage());
  frames_.clear();
  return Status::OK();
}

Status DiskPageFile::CorruptPageForTest(PageId id, size_t offset,
                                        uint8_t mask) {
  DQMO_RETURN_IF_ERROR(CheckId(id));
  if (offset >= kPageSize) {
    return Status::InvalidArgument("corruption offset past page end");
  }
  ++write_count_;
  DQMO_ASSIGN_OR_RETURN(Frame * frame, EnsureFrame(id, /*load_existing=*/true));
  SealFrame(id, frame);  // Damage the sealed form; sealing must not heal it.
  frame->buf[offset] ^= mask;
  StoreFlag(verified_, id, 0);
  return Status::OK();
}

}  // namespace dqmo
