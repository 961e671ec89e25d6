#include "storage/async_io.h"

#include <errno.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#if __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#define DQMO_HAS_IO_URING 1
#else
#define DQMO_HAS_IO_URING 0
#endif

namespace dqmo {

#if DQMO_HAS_IO_URING

namespace {

int SysIoUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

}  // namespace

bool UringAvailable() {
  // One real probe, cached: containers commonly deny io_uring via seccomp
  // (EPERM) and old kernels via ENOSYS; only an actual setup call tells
  // the truth.
  static const bool available = [] {
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int fd = SysIoUringSetup(4, &params);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return available;
}

#else   // !DQMO_HAS_IO_URING

bool UringAvailable() { return false; }

#endif  // DQMO_HAS_IO_URING

namespace {

// ---------------------------------------------------------------------------
// ThreadReadQueue: worker threads issuing pread(2).

class ThreadReadQueue : public AsyncReadQueue {
 public:
  ThreadReadQueue(int fd, size_t depth, int num_threads,
                  uint64_t sim_read_delay_us = 0)
      : fd_(fd),
        depth_(depth == 0 ? 1 : depth),
        sim_read_delay_us_(sim_read_delay_us) {
    if (num_threads < 1) num_threads = 1;
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadReadQueue() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  Status Submit(const AsyncRead& read) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (inflight_ >= depth_) {
        return Status::ResourceExhausted("async read queue full");
      }
      pending_.push_back(read);
      ++inflight_;
    }
    work_cv_.notify_one();
    return Status::OK();
  }

  size_t Reap(std::vector<AsyncCompletion>* out, bool block) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (block) {
      done_cv_.wait(lock, [this] {
        return !completions_.empty() || inflight_ == completions_.size();
      });
    }
    const size_t n = completions_.size();
    for (AsyncCompletion& c : completions_) out->push_back(c);
    completions_.clear();
    inflight_ -= n;
    return n;
  }

  size_t inflight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_;
  }

  const char* name() const override { return "thread-pread"; }

 private:
  void WorkerLoop() {
    for (;;) {
      AsyncRead read;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
        if (pending_.empty()) return;  // stop_ and drained.
        read = pending_.front();
        pending_.pop_front();
      }
      const ssize_t n = ::pread(fd_, read.buf, read.len,
                                static_cast<off_t>(read.offset));
      if (sim_read_delay_us_ > 0) {
        // Slow-device model: the completion arrives late, in this worker,
        // so the caller's concurrent CPU work genuinely overlaps it.
        std::this_thread::sleep_for(
            std::chrono::microseconds(sim_read_delay_us_));
      }
      AsyncCompletion done;
      done.tag = read.tag;
      done.result = n < 0 ? -errno : static_cast<int32_t>(n);
      {
        std::lock_guard<std::mutex> lock(mu_);
        completions_.push_back(done);
      }
      done_cv_.notify_all();
    }
  }

  const int fd_;
  const size_t depth_;
  const uint64_t sim_read_delay_us_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<AsyncRead> pending_;
  std::vector<AsyncCompletion> completions_;
  /// Submitted but not yet reaped (pending + in a worker + completed).
  size_t inflight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

#if DQMO_HAS_IO_URING

// ---------------------------------------------------------------------------
// UringReadQueue: raw-syscall io_uring (no liburing). IORING_OP_READV is
// used rather than IORING_OP_READ because READV is in every io_uring kernel
// (5.1+) while READ arrived in 5.6.

class UringReadQueue : public AsyncReadQueue {
 public:
  /// Factory: returns null when ring setup fails (caller falls back to the
  /// thread queue), so a constructed UringReadQueue is always usable.
  static std::unique_ptr<UringReadQueue> Create(int fd, size_t depth) {
    auto q = std::unique_ptr<UringReadQueue>(new UringReadQueue(fd));
    if (!q->Init(depth)) return nullptr;
    return q;
  }

  ~UringReadQueue() override {
    // Drain: buffers belong to the caller; never let the kernel write into
    // them after this object (and possibly the buffers) are gone.
    std::vector<AsyncCompletion> sink;
    while (inflight() > 0) {
      if (Reap(&sink, /*block=*/true) == 0) break;
    }
    if (sq_ring_ != MAP_FAILED && sq_ring_ != nullptr) {
      ::munmap(sq_ring_, sq_ring_bytes_);
    }
    if (!single_mmap_ && cq_ring_ != MAP_FAILED && cq_ring_ != nullptr) {
      ::munmap(cq_ring_, cq_ring_bytes_);
    }
    if (sqes_ != MAP_FAILED && sqes_ != nullptr) {
      ::munmap(sqes_, sqe_bytes_);
    }
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  Status Submit(const AsyncRead& read) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_.load(std::memory_order_relaxed) >= sq_entries_) {
      return Status::ResourceExhausted("io_uring submission queue full");
    }
    const uint32_t tail = *sq_tail_;  // We are the only tail writer.
    const uint32_t index = tail & *sq_mask_;
    struct io_uring_sqe* sqe = &sqes_[index];
    std::memset(sqe, 0, sizeof(*sqe));
    iovecs_[index].iov_base = read.buf;
    iovecs_[index].iov_len = read.len;
    sqe->opcode = IORING_OP_READV;
    sqe->fd = fd_;
    sqe->addr = reinterpret_cast<uint64_t>(&iovecs_[index]);
    sqe->len = 1;
    sqe->off = read.offset;
    sqe->user_data = read.tag;
    sq_array_[index] = index;
    std::atomic_ref<uint32_t>(*sq_tail_).store(tail + 1,
                                               std::memory_order_release);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    const int n = SysIoUringEnter(ring_fd_, 1, 0, 0);
    if (n < 0) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      return Status::IOError("io_uring_enter submit failed");
    }
    return Status::OK();
  }

  size_t Reap(std::vector<AsyncCompletion>* out, bool block) override {
    std::lock_guard<std::mutex> lock(mu_);
    size_t reaped = DrainCq(out);
    while (reaped == 0 && block &&
           inflight_.load(std::memory_order_relaxed) > 0) {
      if (SysIoUringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS) < 0 &&
          errno != EINTR) {
        break;
      }
      reaped = DrainCq(out);
    }
    return reaped;
  }

  size_t inflight() const override {
    return inflight_.load(std::memory_order_relaxed);
  }

  const char* name() const override { return "io_uring"; }

 private:
  explicit UringReadQueue(int fd) : fd_(fd) {}

  bool Init(size_t depth) {
    if (depth == 0) depth = 1;
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    ring_fd_ = SysIoUringSetup(static_cast<unsigned>(depth), &params);
    if (ring_fd_ < 0) return false;
    sq_entries_ = params.sq_entries;
    single_mmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    sq_ring_bytes_ =
        params.sq_off.array + params.sq_entries * sizeof(uint32_t);
    cq_ring_bytes_ = params.cq_off.cqes +
                     params.cq_entries * sizeof(struct io_uring_cqe);
    if (single_mmap_ && cq_ring_bytes_ > sq_ring_bytes_) {
      sq_ring_bytes_ = cq_ring_bytes_;
    }
    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) return false;
    cq_ring_ = single_mmap_
                   ? sq_ring_
                   : ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ring_fd_,
                            IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) return false;
    sqe_bytes_ = params.sq_entries * sizeof(struct io_uring_sqe);
    sqes_ = static_cast<struct io_uring_sqe*>(
        ::mmap(nullptr, sqe_bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) return false;

    auto* sq = static_cast<uint8_t*>(sq_ring_);
    sq_tail_ = reinterpret_cast<uint32_t*>(sq + params.sq_off.tail);
    sq_mask_ = reinterpret_cast<uint32_t*>(sq + params.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<uint32_t*>(sq + params.sq_off.array);
    auto* cq = static_cast<uint8_t*>(cq_ring_);
    cq_head_ = reinterpret_cast<uint32_t*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<uint32_t*>(cq + params.cq_off.tail);
    cq_mask_ = reinterpret_cast<uint32_t*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq + params.cq_off.cqes);
    iovecs_.resize(sq_entries_);
    return true;
  }

  size_t DrainCq(std::vector<AsyncCompletion>* out) {
    size_t n = 0;
    uint32_t head = *cq_head_;  // We are the only head writer.
    const uint32_t tail =
        std::atomic_ref<uint32_t>(*cq_tail_).load(std::memory_order_acquire);
    while (head != tail) {
      const struct io_uring_cqe& cqe = cqes_[head & *cq_mask_];
      out->push_back(AsyncCompletion{cqe.user_data, cqe.res});
      ++head;
      ++n;
    }
    std::atomic_ref<uint32_t>(*cq_head_).store(head,
                                               std::memory_order_release);
    inflight_.fetch_sub(n, std::memory_order_relaxed);
    return n;
  }

  const int fd_;
  int ring_fd_ = -1;
  uint32_t sq_entries_ = 0;
  bool single_mmap_ = false;
  size_t sq_ring_bytes_ = 0;
  size_t cq_ring_bytes_ = 0;
  size_t sqe_bytes_ = 0;
  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  struct io_uring_sqe* sqes_ = nullptr;
  uint32_t* sq_tail_ = nullptr;
  uint32_t* sq_mask_ = nullptr;
  uint32_t* sq_array_ = nullptr;
  uint32_t* cq_head_ = nullptr;
  uint32_t* cq_tail_ = nullptr;
  uint32_t* cq_mask_ = nullptr;
  struct io_uring_cqe* cqes_ = nullptr;
  /// One registered iovec slot per sqe slot; slot i is rewritten only when
  /// sqe slot i is reused, which the ring's own depth bound serializes.
  std::vector<struct iovec> iovecs_;
  std::mutex mu_;
  std::atomic<size_t> inflight_{0};
};

#endif  // DQMO_HAS_IO_URING

}  // namespace

std::unique_ptr<AsyncReadQueue> CreateAsyncReadQueue(
    IoBackend backend, int fd, size_t depth, uint64_t sim_read_delay_us) {
#if DQMO_HAS_IO_URING
  if (backend == IoBackend::kUring && sim_read_delay_us == 0 &&
      UringAvailable()) {
    auto uring = UringReadQueue::Create(fd, depth);
    if (uring != nullptr) return uring;
  }
#endif
  (void)backend;
  // kPread, kUring on a host that denies io_uring, or any backend under a
  // simulated slow device: worker threads give the same overlap through
  // plain pread (and a thread to serve the simulated delay in). Workers
  // scale with depth — idle ones just sleep — so up to `depth` reads (or
  // simulated delays) really are in flight at once, like a device queue.
  const int workers =
      static_cast<int>(depth < 2 ? 2 : (depth > 8 ? 8 : depth));
  return std::make_unique<ThreadReadQueue>(fd, depth, workers,
                                           sim_read_delay_us);
}

}  // namespace dqmo
