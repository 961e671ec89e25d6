// I/O accounting: the paper's primary performance measure is the number of
// disk accesses per query, split into leaf-level and higher-level accesses
// (Figs. 6, 8, 10, 12).
#ifndef DQMO_STORAGE_IO_STATS_H_
#define DQMO_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace dqmo {

/// Counters for page-level I/O. Physical reads are charged by the PageFile;
/// BufferPool hits are not disk accesses and are counted by the pool alone
/// (BufferPool::hits(), dqmo_pool_hits_total).
///
/// The counters are atomic so that one PageFile / BufferPool can be shared
/// by concurrent query sessions without under-counting (plain uint64_t
/// increments silently lose updates the moment two threads share a pool).
/// Increments use relaxed ordering: the counters are statistics, never a
/// synchronization mechanism. Copies and differences snapshot each counter
/// individually; take them while the storage layer is quiescent when a
/// cross-counter-consistent view matters.
struct IoStats {
  std::atomic<uint64_t> physical_reads{0};
  std::atomic<uint64_t> physical_writes{0};
  /// Page reads whose CRC32C trailer did not match the payload (storage
  /// corruption detected and surfaced as Status::Corruption).
  std::atomic<uint64_t> checksum_failures{0};
  /// Reads re-issued by RetryingPageReader after a transient failure. Does
  /// not count the first attempt.
  std::atomic<uint64_t> retries{0};
  /// WAL records buffered by WalWriter::Append* and batches made durable by
  /// WalWriter::Sync. Counted separately from physical page I/O so the
  /// paper's disk-access metric (and the A13/A14 ablation numbers) stay
  /// comparable whether or not durability is enabled.
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_syncs{0};
  /// Speculative reads issued by the Prefetcher (storage/prefetch.h).
  /// Accounting invariant (after Quiesce): issued == hits + wasted +
  /// failed-in-flight. A *hit* is charged exactly once, at consumption —
  /// the consuming Read also charges the one physical_read the store
  /// would have charged synchronously, so physical_reads stays
  /// byte-identical to the memory backend plus `prefetch_wasted` (wasted
  /// speculative reads did touch the disk; hits replaced a sync read 1:1).
  std::atomic<uint64_t> prefetch_issued{0};
  std::atomic<uint64_t> prefetch_hits{0};
  std::atomic<uint64_t> prefetch_wasted{0};

  IoStats() = default;
  IoStats(const IoStats& other) { CopyFrom(other); }
  IoStats& operator=(const IoStats& other) {
    CopyFrom(other);
    return *this;
  }

  void Reset() { CopyFrom(IoStats{}); }

  /// Accumulates another account into this one — the sharded engine sums
  /// its per-shard PageFile stats this way. Sound only because shards own
  /// disjoint storage: each physical read/write is charged to exactly
  /// one shard's counters, so the sum never double counts.
  IoStats& operator+=(const IoStats& other) {
    auto add = [](std::atomic<uint64_t>* a, const std::atomic<uint64_t>& b) {
      a->store(a->load(std::memory_order_relaxed) +
                   b.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    };
    add(&physical_reads, other.physical_reads);
    add(&physical_writes, other.physical_writes);
    add(&checksum_failures, other.checksum_failures);
    add(&retries, other.retries);
    add(&wal_appends, other.wal_appends);
    add(&wal_syncs, other.wal_syncs);
    add(&prefetch_issued, other.prefetch_issued);
    add(&prefetch_hits, other.prefetch_hits);
    add(&prefetch_wasted, other.prefetch_wasted);
    return *this;
  }

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.physical_reads = physical_reads.load(std::memory_order_relaxed) -
                       other.physical_reads.load(std::memory_order_relaxed);
    d.physical_writes = physical_writes.load(std::memory_order_relaxed) -
                        other.physical_writes.load(std::memory_order_relaxed);
    d.checksum_failures =
        checksum_failures.load(std::memory_order_relaxed) -
        other.checksum_failures.load(std::memory_order_relaxed);
    d.retries = retries.load(std::memory_order_relaxed) -
                other.retries.load(std::memory_order_relaxed);
    d.wal_appends = wal_appends.load(std::memory_order_relaxed) -
                    other.wal_appends.load(std::memory_order_relaxed);
    d.wal_syncs = wal_syncs.load(std::memory_order_relaxed) -
                  other.wal_syncs.load(std::memory_order_relaxed);
    d.prefetch_issued =
        prefetch_issued.load(std::memory_order_relaxed) -
        other.prefetch_issued.load(std::memory_order_relaxed);
    d.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed) -
                      other.prefetch_hits.load(std::memory_order_relaxed);
    d.prefetch_wasted =
        prefetch_wasted.load(std::memory_order_relaxed) -
        other.prefetch_wasted.load(std::memory_order_relaxed);
    return d;
  }

  friend bool operator==(const IoStats& a, const IoStats& b) {
    return a.physical_reads == b.physical_reads &&
           a.physical_writes == b.physical_writes &&
           a.checksum_failures == b.checksum_failures &&
           a.retries == b.retries && a.wal_appends == b.wal_appends &&
           a.wal_syncs == b.wal_syncs &&
           a.prefetch_issued == b.prefetch_issued &&
           a.prefetch_hits == b.prefetch_hits &&
           a.prefetch_wasted == b.prefetch_wasted;
  }

  std::string ToString() const;

 private:
  void CopyFrom(const IoStats& other) {
    physical_reads.store(
        other.physical_reads.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    physical_writes.store(
        other.physical_writes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    checksum_failures.store(
        other.checksum_failures.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    retries.store(other.retries.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    wal_appends.store(other.wal_appends.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    wal_syncs.store(other.wal_syncs.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    prefetch_issued.store(
        other.prefetch_issued.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    prefetch_hits.store(other.prefetch_hits.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    prefetch_wasted.store(
        other.prefetch_wasted.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_IO_STATS_H_
