// IoStats unit tests: the golden ToString rendering, snapshot equality /
// difference algebra, and copies taken while another thread counts.
#include "storage/io_stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace dqmo {
namespace {

IoStats MakeStats(uint64_t reads, uint64_t writes, uint64_t crc_fail,
                  uint64_t retries, uint64_t wal_app, uint64_t wal_sync,
                  uint64_t pf_issued = 0, uint64_t pf_hit = 0,
                  uint64_t pf_wasted = 0) {
  IoStats s;
  s.physical_reads = reads;
  s.physical_writes = writes;
  s.checksum_failures = crc_fail;
  s.retries = retries;
  s.wal_appends = wal_app;
  s.wal_syncs = wal_sync;
  s.prefetch_issued = pf_issued;
  s.prefetch_hits = pf_hit;
  s.prefetch_wasted = pf_wasted;
  return s;
}

TEST(IoStatsTest, ToStringGolden) {
  EXPECT_EQ(IoStats{}.ToString(),
            "io{reads=0, writes=0, crc_fail=0, retries=0, "
            "wal_app=0, wal_sync=0, pf_issued=0, pf_hit=0, pf_wasted=0}");
  EXPECT_EQ(MakeStats(12, 34, 1, 2, 78, 9, 8, 6, 2).ToString(),
            "io{reads=12, writes=34, crc_fail=1, retries=2, "
            "wal_app=78, wal_sync=9, pf_issued=8, pf_hit=6, pf_wasted=2}");
}

TEST(IoStatsTest, EqualityComparesEveryCounter) {
  const IoStats a = MakeStats(1, 2, 4, 5, 6, 7, 8, 9, 10);
  EXPECT_EQ(a, MakeStats(1, 2, 4, 5, 6, 7, 8, 9, 10));
  // Each field participates: perturbing any one breaks equality.
  EXPECT_FALSE(a == MakeStats(0, 2, 4, 5, 6, 7, 8, 9, 10));
  EXPECT_FALSE(a == MakeStats(1, 0, 4, 5, 6, 7, 8, 9, 10));
  EXPECT_FALSE(a == MakeStats(1, 2, 0, 5, 6, 7, 8, 9, 10));
  EXPECT_FALSE(a == MakeStats(1, 2, 4, 0, 6, 7, 8, 9, 10));
  EXPECT_FALSE(a == MakeStats(1, 2, 4, 5, 0, 7, 8, 9, 10));
  EXPECT_FALSE(a == MakeStats(1, 2, 4, 5, 6, 0, 8, 9, 10));
  EXPECT_FALSE(a == MakeStats(1, 2, 4, 5, 6, 7, 0, 9, 10));
  EXPECT_FALSE(a == MakeStats(1, 2, 4, 5, 6, 7, 8, 0, 10));
  EXPECT_FALSE(a == MakeStats(1, 2, 4, 5, 6, 7, 8, 9, 0));
}

TEST(IoStatsTest, DifferenceIsFieldwise) {
  const IoStats after = MakeStats(10, 20, 4, 5, 60, 7, 80, 9, 10);
  const IoStats before = MakeStats(1, 2, 4, 5, 6, 7, 8, 9, 10);
  const IoStats d = after - before;
  EXPECT_EQ(d, MakeStats(9, 18, 0, 0, 54, 0, 72, 0, 0));
}

TEST(IoStatsTest, AccumulationIsFieldwiseAndGolden) {
  // operator+= is how the sharded engine folds disjoint per-shard
  // accounts into the global one; every counter must participate, exactly
  // once.
  IoStats sum;
  sum += MakeStats(1, 2, 4, 5, 6, 7, 8, 9, 10);
  sum += MakeStats(10, 20, 40, 50, 60, 70, 80, 90, 100);
  EXPECT_EQ(sum, MakeStats(11, 22, 44, 55, 66, 77, 88, 99, 110));
  EXPECT_EQ(sum.ToString(),
            "io{reads=11, writes=22, crc_fail=44, retries=55, "
            "wal_app=66, wal_sync=77, pf_issued=88, pf_hit=99, "
            "pf_wasted=110}");
  // Adding zero is the identity; accumulation is associative with
  // operator- (the per-run delta idiom).
  sum += IoStats{};
  EXPECT_EQ(sum, MakeStats(11, 22, 44, 55, 66, 77, 88, 99, 110));
  const IoStats delta = sum - MakeStats(1, 2, 4, 5, 6, 7, 8, 9, 10);
  EXPECT_EQ(delta, MakeStats(10, 20, 40, 50, 60, 70, 80, 90, 100));
}

TEST(IoStatsTest, CopyAndResetRoundTrip) {
  IoStats a = MakeStats(1, 2, 4, 5, 6, 7);
  IoStats b = a;  // Copy snapshots every counter.
  EXPECT_EQ(a, b);
  a.Reset();
  EXPECT_EQ(a, IoStats{});
  EXPECT_EQ(b, MakeStats(1, 2, 4, 5, 6, 7));
}

// A copy taken while another thread counts must stay safe (no torn read
// of any counter, no crash); only the snapshot's bounds are asserted.
TEST(IoStatsTest, SnapshotUnderMutationStaysBounded) {
  IoStats live;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      live.physical_reads.fetch_add(1, std::memory_order_relaxed);
      live.physical_writes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  IoStats snapshot;
  for (int i = 0; i < 100; ++i) snapshot = live;
  stop = true;
  writer.join();
  const uint64_t final_reads = live.physical_reads;
  EXPECT_LE(snapshot.physical_reads, final_reads);
}

}  // namespace
}  // namespace dqmo
