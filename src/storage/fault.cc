#include "storage/fault.h"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

/// Armed-point state. The fast path (disarmed) reads only g_armed; the
/// slow path serializes on a mutex so a multi-threaded child still dies at
/// exactly the requested hit.
std::atomic<bool> g_armed{false};
std::mutex g_crash_mu;
std::string g_crash_name;       // Guarded by g_crash_mu.
uint64_t g_crash_skip = 0;      // Hits to survive before dying.

}  // namespace

void CrashPoints::Arm(const char* name, uint64_t skip) {
  std::lock_guard<std::mutex> lock(g_crash_mu);
  g_crash_name = name;
  g_crash_skip = skip;
  g_armed.store(true, std::memory_order_release);
}

void CrashPoints::Disarm() {
  std::lock_guard<std::mutex> lock(g_crash_mu);
  g_crash_name.clear();
  g_armed.store(false, std::memory_order_release);
}

bool CrashPoints::armed() {
  return g_armed.load(std::memory_order_acquire);
}

bool CrashPoints::ConsumeHit(const char* name) {
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(g_crash_mu);
  if (g_crash_name != name) return false;
  if (g_crash_skip > 0) {
    --g_crash_skip;
    return false;
  }
  return true;
}

void CrashPoints::Hit(const char* name) {
  if (ConsumeHit(name)) Die();
}

void CrashPoints::Die() {
  // _exit, not exit: no atexit handlers, no stream flushing — the process
  // state that survives is exactly what already reached the kernel.
  ::_exit(kExitCode);
}

std::vector<std::string> CrashPoints::All() {
  return {crash_points::kWalBeforeSync, crash_points::kWalTornWrite,
          crash_points::kWalAfterSync,  crash_points::kCkptBeforeTemp,
          crash_points::kSaveBeforeRename,
          crash_points::kCkptBeforeWalReset};
}

FaultInjector::FaultInjector(const Options& options)
    : options_(options),
      rng_(options.seed),
      // The async stream derives from the same seed (one seed still
      // replays the whole run) but is an independent generator, so the
      // synchronous stream's draw sequence is identical whether or not a
      // prefetcher is issuing speculative reads.
      async_rng_(options.seed ^ 0xa5f3'c6d1'9b27'e48dULL) {
  DQMO_CHECK(options.transient_fault_rate >= 0.0 &&
             options.transient_fault_rate <= 1.0);
}

void FaultInjector::AddBitFlip(PageId page, size_t offset, uint8_t mask,
                               bool transient) {
  DQMO_CHECK(offset < kPageSize);
  std::lock_guard<std::mutex> lock(mu_);
  flips_[page].push_back(BitFlip{offset, mask, transient});
}

void FaultInjector::AddPermanentFault(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_pages_[page] = true;
}

FaultInjector::Decision FaultInjector::NextRead(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t n = ++reads_seen_;
  // The Bernoulli streams advance on *every* read regardless of which
  // branch fires, so decisions for read #n are independent of the pages
  // read before it — this is what makes schedules replayable across query
  // plans that reorder their page accesses. The slow-read stream draws
  // strictly after the fault stream (and only when its rate is non-zero),
  // so pre-existing schedules are unchanged by the new option.
  const bool rate_fault = options_.transient_fault_rate > 0.0 &&
                          rng_.Bernoulli(options_.transient_fault_rate);
  const bool rate_slow = options_.slow_read_rate > 0.0 &&
                         rng_.Bernoulli(options_.slow_read_rate);
  Decision d;
  if (options_.stop_after != 0 && n > options_.stop_after) {
    // The fault window has closed: everything passes from here on.
    return d;
  }
  if (dead_pages_.count(page) != 0) {
    d.kind = Decision::Kind::kPermanentFail;
  } else if (options_.fail_after != 0 && n > options_.fail_after) {
    d.kind = Decision::Kind::kPermanentFail;
  } else if (options_.fail_every_kth != 0 &&
             n % options_.fail_every_kth == 0) {
    d.kind = Decision::Kind::kTransientFail;
  } else if (rate_fault) {
    d.kind = Decision::Kind::kTransientFail;
  } else if ((options_.slow_every_kth != 0 &&
              n % options_.slow_every_kth == 0) ||
             rate_slow) {
    d.kind = Decision::Kind::kSlow;
    d.delay_us = options_.slow_read_delay_us;
    ++slow_reads_;
  } else {
    auto it = flips_.find(page);
    if (it != flips_.end()) {
      for (const BitFlip& flip : it->second) {
        if (!flip.spent) {
          d.kind = Decision::Kind::kCorrupt;
          break;
        }
      }
    }
  }
  if (d.kind != Decision::Kind::kPass) ++faults_injected_;
  return d;
}

FaultInjector::Decision FaultInjector::NextAsyncRead(PageId page) {
  (void)page;  // Page-targeted faults stay on the synchronous stream.
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t n = ++async_reads_seen_;
  // Mirror NextRead's structure on the independent stream: both Bernoulli
  // draws advance on every read so decision #n is position-dependent only,
  // and the slow draw comes strictly after the fault draw.
  const bool rate_fault = options_.transient_fault_rate > 0.0 &&
                          async_rng_.Bernoulli(options_.transient_fault_rate);
  const bool rate_slow = options_.slow_read_rate > 0.0 &&
                         async_rng_.Bernoulli(options_.slow_read_rate);
  Decision d;
  if (options_.stop_after != 0 && n > options_.stop_after) {
    return d;
  }
  if (options_.fail_after != 0 && n > options_.fail_after) {
    // Speculative reads have a synchronous fallback, so even the
    // "permanent" point degrades them transiently: the sync retry path
    // owns permanence.
    d.kind = Decision::Kind::kTransientFail;
  } else if (options_.fail_every_kth != 0 &&
             n % options_.fail_every_kth == 0) {
    d.kind = Decision::Kind::kTransientFail;
  } else if (rate_fault) {
    d.kind = Decision::Kind::kTransientFail;
  } else if ((options_.slow_every_kth != 0 &&
              n % options_.slow_every_kth == 0) ||
             rate_slow) {
    d.kind = Decision::Kind::kSlow;
    d.delay_us = options_.slow_read_delay_us;
  }
  if (d.kind != Decision::Kind::kPass) ++async_faults_injected_;
  return d;
}

void FaultInjector::ApplyCorruption(PageId page, uint8_t* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = flips_.find(page);
  if (it == flips_.end()) return;
  for (BitFlip& flip : it->second) {
    if (flip.spent) continue;
    buf[flip.offset] ^= flip.mask;
    if (flip.transient) flip.spent = true;
  }
}

FaultyPageReader::FaultyPageReader(PageReader* base, FaultInjector* injector,
                                   Sleeper sleeper)
    : base_(base), injector_(injector), sleeper_(std::move(sleeper)) {
  DQMO_CHECK(base != nullptr);
  if (!sleeper_) {
    sleeper_ = [](uint64_t delay_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    };
  }
}

Result<PageReader::ReadResult> FaultyPageReader::Read(PageId id) {
  if (injector_ == nullptr) return base_->Read(id);  // Disarmed shard.
  const FaultInjector::Decision d = injector_->NextRead(id);
  using Kind = FaultInjector::Decision::Kind;
  switch (d.kind) {
    case Kind::kTransientFail:
      return Status::IOError(
          StrFormat("injected transient fault reading page %u", id));
    case Kind::kPermanentFail:
      return Status::IOError(
          StrFormat("injected permanent fault reading page %u", id));
    case Kind::kCorrupt: {
      DQMO_ASSIGN_OR_RETURN(auto read, base_->Read(id));
      scratch_.assign(read.data, read.data + kPageSize);
      injector_->ApplyCorruption(id, scratch_.data());
      return ReadResult{scratch_.data(), read.physical};
    }
    case Kind::kSlow:
      // Latency, not loss: serve the delay, then the intact page.
      sleeper_(d.delay_us);
      break;
    case Kind::kPass:
      break;
  }
  return base_->Read(id);
}

RetryingPageReader::RetryingPageReader(PageReader* base,
                                       const RetryPolicy& policy,
                                       IoStats* stats)
    : base_(base), policy_(policy), stats_(stats) {
  DQMO_CHECK(base != nullptr);
  DQMO_CHECK(policy.max_attempts >= 1);
}

Result<PageReader::ReadResult> RetryingPageReader::Read(PageId id) {
  Status last = Status::OK();
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1 && stats_ != nullptr) ++stats_->retries;
    Result<ReadResult> r = base_->Read(id);
    if (r.ok()) {
      const ReadResult read = *r;
      if (PageChecksumOk(read.data)) return read;
      if (stats_ != nullptr) ++stats_->checksum_failures;
      last = PageChecksumError(id, read.data);
    } else {
      last = r.status();
      if (!Retryable(last)) return last;  // e.g. OutOfRange: a bad request.
    }
  }
  ++exhausted_reads_;
  return last;
}

}  // namespace dqmo
