#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/metrics.h"

namespace dqmo {
namespace {

/// Process-wide pool metrics (all BufferPool instances aggregate; the
/// per-pool hits()/misses() accessors remain for per-instance deltas).
struct PoolMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Histogram* hit_ns;
  Histogram* miss_ns;

  static PoolMetrics& Get() {
    static PoolMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return PoolMetrics{
          r.GetCounter("dqmo_pool_hits_total",
                       "Buffer-pool reads served from a cached frame"),
          r.GetCounter("dqmo_pool_misses_total",
                       "Buffer-pool reads that fetched from the page store"),
          r.GetCounter("dqmo_pool_evictions_total",
                       "Frames evicted to make room (per-shard LRU)"),
          r.GetHistogram("dqmo_pool_read_hit_ns",
                         "Latency of buffer-pool cache hits"),
          r.GetHistogram("dqmo_pool_read_miss_ns",
                         "Latency of buffer-pool misses (fetch included)"),
      };
    }();
    return m;
  }
};

/// Per-thread scratch page the pool copies frames into before returning.
/// Decouples the returned pointer from the frame's lifetime: another
/// thread's eviction can free the frame without invalidating a read in
/// flight. Shared by all pools on the thread — the documented contract is
/// "valid until this thread's next BufferPool read".
uint8_t* ScratchPage() {
  thread_local std::vector<uint8_t> scratch(kPageSize);
  return scratch.data();
}

}  // namespace

BufferPool::BufferPool(PageStore* file, size_t capacity_pages, int num_shards)
    : file_(file), capacity_(capacity_pages) {
  DQMO_CHECK(file != nullptr);
  DQMO_CHECK(capacity_pages >= 1);
  DQMO_CHECK(num_shards >= 1);
  num_shards_ = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(num_shards), capacity_pages));
  shard_capacity_ = capacity_ / static_cast<size_t>(num_shards_);
  DQMO_CHECK(shard_capacity_ >= 1);
  shards_ = std::make_unique<Shard[]>(static_cast<size_t>(num_shards_));
}

Result<PageReader::ReadResult> BufferPool::Read(PageId id) {
  const uint64_t tick = TickNs();
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(id);
    if (it != shard.index.end()) {
      // Hit: move to front of the shard's LRU order.
      shard.frames.splice(shard.frames.begin(), shard.frames, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      std::memcpy(ScratchPage(), shard.frames.front().bytes.data(),
                  kPageSize);
      PoolMetrics::Get().hits->Add();
      PoolMetrics::Get().hit_ns->RecordSince(tick);
      return ReadResult{ScratchPage(), /*physical=*/false};
    }
  }
  // Miss: fetch from the file (one disk access) outside the shard lock, so
  // a slow fetch does not stall hits on other pages of the shard. Two
  // threads missing the same page both fetch (both are real disk accesses);
  // the second install finds the frame already cached and reuses it.
  PageReader* src =
      source_ != nullptr ? source_ : static_cast<PageReader*>(file_);
  DQMO_ASSIGN_OR_RETURN(auto read, src->Read(id));
  if (source_ != nullptr && !PageChecksumOk(read.data)) {
    file_->mutable_stats()->checksum_failures.fetch_add(
        1, std::memory_order_relaxed);
    return PageChecksumError(id, read.data);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::memcpy(ScratchPage(), read.data, kPageSize);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(id);
    if (it == shard.index.end()) {
      if (shard.frames.size() >= shard_capacity_) {
        shard.index.erase(shard.frames.back().id);
        shard.frames.pop_back();
        PoolMetrics::Get().evictions->Add();
      }
      Frame frame;
      frame.id = id;
      frame.bytes.assign(ScratchPage(), ScratchPage() + kPageSize);
      shard.frames.push_front(std::move(frame));
      shard.index[id] = shard.frames.begin();
    } else {
      shard.frames.splice(shard.frames.begin(), shard.frames, it->second);
    }
  }
  PoolMetrics::Get().misses->Add();
  PoolMetrics::Get().miss_ns->RecordSince(tick);
  return ReadResult{ScratchPage(), /*physical=*/true};
}

void BufferPool::Clear() {
  for (int s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    shards_[s].frames.clear();
    shards_[s].index.clear();
  }
}

void BufferPool::Invalidate(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  shard.frames.erase(it->second);
  shard.index.erase(it);
}

size_t BufferPool::cached_pages() const {
  size_t total = 0;
  for (int s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].frames.size();
  }
  return total;
}

}  // namespace dqmo
