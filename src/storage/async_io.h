// Asynchronous page-read queues for the disk-resident backend.
//
// PDQ's time-ordered priority queue is a declared future-access list: the
// next k entries name the pages the traversal will read next. AsyncReadQueue
// is the mechanism that turns that declaration into overlapped I/O — the
// Prefetcher (storage/prefetch.h) submits speculative reads here and the
// traversal consumes completions instead of blocking on pread.
//
// Two implementations behind one interface:
//   * ThreadReadQueue — a small worker pool issuing pread(2); works
//     everywhere, still overlaps I/O with traversal CPU.
//   * UringReadQueue — io_uring via raw syscalls (no liburing dependency),
//     compiled only when <linux/io_uring.h> exists and selected only when a
//     runtime probe (UringAvailable) confirms the kernel cooperates —
//     containers often deny io_uring via seccomp, so probing, not version
//     sniffing, is the gate.
//
// The caller picks the backend (ShardedEngineOptions::io_backend,
// DurableIndex::Options::io_backend); `uring` silently degrades to the
// thread queue when the probe fails, so one config works across hosts.
#ifndef DQMO_STORAGE_ASYNC_IO_H_
#define DQMO_STORAGE_ASYNC_IO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace dqmo {

/// Which physical I/O machinery backs the engine's page store.
enum class IoBackend : uint8_t {
  kMemory,  // In-memory PageFile (the seed backend; I/O is a counter).
  kPread,   // DiskPageFile, sync pread/pwrite + ThreadReadQueue prefetch.
  kUring,   // DiskPageFile with io_uring prefetch (falls back to kPread's
            // thread queue when the kernel denies io_uring).
};

/// True when io_uring_setup(2) actually works here (cached probe). False on
/// old kernels, seccomp-filtered containers, or !__has_include builds.
bool UringAvailable();

/// One speculative read: `len` bytes at file offset `offset` into caller-
/// owned memory at `buf` (which must stay valid until the completion for
/// `tag` is reaped). Tags are caller-chosen and opaque to the queue.
struct AsyncRead {
  uint64_t tag = 0;
  uint64_t offset = 0;
  uint8_t* buf = nullptr;
  uint32_t len = 0;
};

/// Completion of one AsyncRead: `result` is bytes read (>= 0) or a negated
/// errno, mirroring io_uring's CQE convention.
struct AsyncCompletion {
  uint64_t tag = 0;
  int32_t result = 0;
};

/// A queue of in-flight reads against one file descriptor. Thread-safe:
/// Submit and Reap may race (the Prefetcher serializes them anyway). Every
/// submitted read is eventually reaped exactly once; the destructor drains
/// outstanding completions so buffers are never written after free.
class AsyncReadQueue {
 public:
  virtual ~AsyncReadQueue() = default;

  /// Queues one read. Fails (ResourceExhausted) when the queue is full;
  /// the caller simply skips that prefetch — speculation is best-effort.
  virtual Status Submit(const AsyncRead& read) = 0;

  /// Appends finished completions to `out` and returns how many arrived.
  /// With block=true, waits until at least one completion is available
  /// (returns 0 only when nothing is in flight).
  virtual size_t Reap(std::vector<AsyncCompletion>* out, bool block) = 0;

  /// Reads submitted but not yet reaped.
  virtual size_t inflight() const = 0;

  virtual const char* name() const = 0;
};

/// Builds the queue for `backend` over `fd` with room for `depth` in-flight
/// reads. kUring degrades to the thread queue when the probe fails; kMemory
/// is invalid here (the memory backend has no fd and never prefetches).
///
/// `sim_read_delay_us` > 0 models a slow device deterministically: each
/// worker serves the delay between the pread and its completion, so the
/// latency is hidable by overlap exactly like a real device's. The model
/// needs a thread to sleep in, so a non-zero delay forces the thread queue
/// even under kUring (the kernel cannot simulate a slow disk). This is the
/// cold-cache knob of bench/abl_disk.cc, not a production setting.
std::unique_ptr<AsyncReadQueue> CreateAsyncReadQueue(
    IoBackend backend, int fd, size_t depth, uint64_t sim_read_delay_us = 0);

}  // namespace dqmo

#endif  // DQMO_STORAGE_ASYNC_IO_H_
