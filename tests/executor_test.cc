// Concurrency tests for the multi-session query engine (server/executor.h)
// and the thread-safe storage layer underneath it. Differential design:
// every concurrent run is compared against a serial replay of the same
// seeded session specs — the sessions are deterministic, so any divergence
// is a concurrency bug. Run under ThreadSanitizer by tools/ci.sh (tsan
// stage) to catch the races that happen not to corrupt results.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "server/durability.h"
#include "server/executor.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "test_util.h"

namespace dqmo {
namespace {

using ::dqmo::testing::RandomSegments;
using ::dqmo::testing::ScanWalRecords;

struct Fixture {
  PageFile file;
  std::unique_ptr<RTree> tree;
  std::vector<MotionSegment> data;
};

void BuildFixture(Fixture* fx, uint64_t seed, int n) {
  auto tree = RTree::Create(&fx->file, RTree::Options());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  fx->tree = std::move(tree).value();
  Rng rng(seed);
  fx->data = RandomSegments(&rng, n, 2, 100, 100);
  for (const auto& m : fx->data) ASSERT_TRUE(fx->tree->Insert(m).ok());
  // Steady state for concurrent readers: all pages sealed + pre-verified.
  ASSERT_TRUE(fx->file.Publish().ok());
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 200);
    // Reuse after Wait: the pool must accept further work.
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // Destructor waits for the second batch.
  EXPECT_EQ(count.load(), 250);
}

TEST(CounterTest, IoStatsExactUnderFourThreadHammer) {
  IoStats stats;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&stats] {
      for (uint64_t j = 0; j < kPerThread; ++j) {
        stats.physical_reads.fetch_add(1, std::memory_order_relaxed);
        if (j % 2 == 0) {
          stats.physical_writes.fetch_add(1, std::memory_order_relaxed);
        }
        if (j % 5 == 0) {
          stats.retries.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stats.physical_reads.load(), kThreads * kPerThread);
  EXPECT_EQ(stats.physical_writes.load(), kThreads * kPerThread / 2);
  EXPECT_EQ(stats.retries.load(), kThreads * kPerThread / 5);
}

TEST(CounterTest, BufferPoolCountersExactUnderFourThreadHammer) {
  // Sharded pool hammered from 4 threads: hits + misses must equal the
  // exact number of reads issued, and every miss must be a physical read
  // on the file (no lost or double-counted accesses).
  Fixture fx;
  BuildFixture(&fx, 99, 600);
  fx.file.ResetStats();
  BufferPool pool(&fx.file, /*capacity_pages=*/32, /*num_shards=*/8);

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  const auto num_pages = static_cast<uint64_t>(fx.file.num_pages());
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&pool, num_pages, i] {
      Rng rng(1000 + static_cast<uint64_t>(i));
      for (uint64_t j = 0; j < kPerThread; ++j) {
        const PageId id = static_cast<PageId>(rng.UniformU64(num_pages));
        ASSERT_TRUE(pool.Read(id).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.hits() + pool.misses(), kThreads * kPerThread);
  EXPECT_EQ(fx.file.stats().physical_reads.load(), pool.misses());
  EXPECT_EQ(pool.hits(),
            kThreads * kPerThread - fx.file.stats().physical_reads.load());
  EXPECT_LE(pool.cached_pages(), pool.capacity());
}

/// Specs for a batch of read-only sessions. `include_knn` is off for the
/// concurrent-writer test: kNN has no spatial confinement, so its results
/// are only interleaving-independent on a static tree.
std::vector<SessionSpec> ReaderSpecs(int n, bool include_knn,
                                     double region_hi) {
  std::vector<SessionSpec> specs;
  for (int i = 0; i < n; ++i) {
    SessionSpec spec;
    switch (i % (include_knn ? 3 : 2)) {
      case 0:
        spec.kind = SessionKind::kSession;
        break;
      case 1:
        spec.kind = SessionKind::kNpdq;
        break;
      default:
        spec.kind = SessionKind::kKnn;
        break;
    }
    spec.seed = 100 + static_cast<uint64_t>(i);
    spec.frames = 40;
    spec.t0 = 2.0 + 0.5 * i;
    spec.region_hi = region_hi;
    specs.push_back(spec);
  }
  return specs;
}

void ExpectSameResults(const ExecutorReport& got,
                       const ExecutorReport& want) {
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ASSERT_EQ(got.sessions.size(), want.sessions.size());
  for (size_t i = 0; i < got.sessions.size(); ++i) {
    EXPECT_EQ(got.sessions[i].checksum, want.sessions[i].checksum)
        << "session " << i;
    EXPECT_EQ(got.sessions[i].objects_delivered,
              want.sessions[i].objects_delivered)
        << "session " << i;
    EXPECT_EQ(got.sessions[i].frames_completed,
              want.sessions[i].frames_completed)
        << "session " << i;
  }
}

TEST(ExecutorTest, ConcurrentSessionsMatchSerialReplay) {
  Fixture fx;
  BuildFixture(&fx, 7, 800);
  const std::vector<SessionSpec> specs =
      ReaderSpecs(8, /*include_knn=*/true, /*region_hi=*/94.0);

  BufferPool shared_pool(&fx.file, 128, /*num_shards=*/8);
  SessionScheduler::Options copt;
  copt.num_threads = 8;
  copt.reader = &shared_pool;
  copt.pool = &shared_pool;
  const ExecutorReport concurrent =
      SessionScheduler(fx.tree.get(), copt).Run(specs);
  // Every pool miss is one physical node read charged to some session;
  // every hit is charged to nobody. Exact-accounting cross-check.
  EXPECT_EQ(concurrent.pool_misses, concurrent.total_stats.node_reads);

  BufferPool serial_pool(&fx.file, 128, /*num_shards=*/8);
  SessionScheduler::Options sopt;
  sopt.num_threads = 1;
  sopt.reader = &serial_pool;
  const ExecutorReport serial =
      SessionScheduler(fx.tree.get(), sopt).Run(specs);

  ExpectSameResults(concurrent, serial);
  EXPECT_GT(concurrent.total_objects, 0u);
}

TEST(ExecutorTest, EightReadersOneWriterMatchSerialReplay) {
  // 8 reader sessions confined to [6, 70]^2 run concurrently with one
  // updater inserting motions confined to [90, 100]^2. The regions are
  // disjoint (reader windows reach at most 74), so every interleaving
  // must deliver the same results — compared against a serial replay on
  // the fully-updated tree.
  Fixture fx;
  BuildFixture(&fx, 11, 800);
  const std::vector<SessionSpec> specs =
      ReaderSpecs(8, /*include_knn=*/false, /*region_hi=*/70.0);

  BufferPool shared_pool(&fx.file, 128, /*num_shards=*/8);
  TreeGate gate(&fx.file, &shared_pool);

  std::atomic<bool> writer_failed{false};
  std::thread writer([&fx, &gate, &writer_failed] {
    Rng rng(4242);
    for (int i = 0; i < 64; ++i) {
      StSegment seg(Vec(rng.Uniform(90, 100), rng.Uniform(90, 100)),
                    Vec(rng.Uniform(90, 100), rng.Uniform(90, 100)),
                    Interval(rng.Uniform(0, 90), rng.Uniform(90, 100)));
      MotionSegment m(static_cast<ObjectId>(200000 + i), seg);
      {
        auto guard = gate.LockExclusive();
        if (!fx.tree->Insert(m).ok()) writer_failed.store(true);
      }
      std::this_thread::yield();
    }
  });

  SessionScheduler::Options copt;
  copt.num_threads = 8;
  copt.reader = &shared_pool;
  copt.gate = &gate;
  copt.pool = &shared_pool;
  const ExecutorReport concurrent =
      SessionScheduler(fx.tree.get(), copt).Run(specs);
  writer.join();
  EXPECT_FALSE(writer_failed.load());

  // Serial replay on the now-fully-updated tree: the inserted motions are
  // spatially invisible to every reader, so results must match exactly.
  BufferPool serial_pool(&fx.file, 128, /*num_shards=*/8);
  SessionScheduler::Options sopt;
  sopt.num_threads = 1;
  sopt.reader = &serial_pool;
  const ExecutorReport serial =
      SessionScheduler(fx.tree.get(), sopt).Run(specs);

  ExpectSameResults(concurrent, serial);
  EXPECT_GT(concurrent.total_objects, 0u);
}

TEST(ExecutorTest, DurableWritesUnderGateMatchSerialReplayAndSurviveInWal) {
  // Same readers-vs-writer interleaving as above, but the writes go through
  // a DurableIndex under a plain TreeGate: each Insert and its Sync run in
  // the write guard's scope, so the log is durable before readers resume.
  // Readers must still match the serial replay (the WAL work happens while
  // the writer holds the gate exclusively), every Sync must succeed, and
  // every insert must be on disk in LSN order when the writer finishes.
  Fixture fx;
  BuildFixture(&fx, 17, 800);
  const std::vector<SessionSpec> specs =
      ReaderSpecs(8, /*include_knn=*/false, /*region_hi=*/70.0);

  // The fixture's tree becomes the durable index's checkpoint image.
  const std::string base =
      std::string(::testing::TempDir()) + "/executor_durable";
  const std::string pgf_path = base + ".pgf";
  const std::string wal_path = base + ".wal";
  std::remove(pgf_path.c_str());
  std::remove(wal_path.c_str());
  ASSERT_TRUE(fx.tree->Flush().ok());
  ASSERT_TRUE(fx.file.SaveTo(pgf_path).ok());
  auto opened =
      DurableIndex::Open(pgf_path, wal_path, DurableIndex::Options());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableIndex* index = opened->get();
  ASSERT_TRUE(index->file()->Publish().ok());

  BufferPool shared_pool(index->file(), 128, /*num_shards=*/8);
  TreeGate gate(index->file(), &shared_pool);

  constexpr int kInserts = 64;
  std::atomic<bool> writer_failed{false};
  std::thread writer([index, &gate, &writer_failed] {
    Rng rng(1717);
    for (int i = 0; i < kInserts; ++i) {
      StSegment seg(Vec(rng.Uniform(90, 100), rng.Uniform(90, 100)),
                    Vec(rng.Uniform(90, 100), rng.Uniform(90, 100)),
                    Interval(rng.Uniform(0, 90), rng.Uniform(90, 100)));
      MotionSegment m(static_cast<ObjectId>(300000 + i), seg);
      {
        auto guard = gate.LockExclusive();
        Status st = index->Insert(m);
        if (st.ok()) st = index->Sync();  // The ack, still exclusive.
        if (!st.ok()) writer_failed.store(true);
      }
      std::this_thread::yield();
    }
  });

  SessionScheduler::Options copt;
  copt.num_threads = 8;
  copt.reader = &shared_pool;
  copt.gate = &gate;
  copt.pool = &shared_pool;
  const ExecutorReport concurrent =
      SessionScheduler(index->tree(), copt).Run(specs);
  writer.join();
  EXPECT_FALSE(writer_failed.load());

  // Every acknowledged insert is durable: the log holds exactly kInserts
  // records, LSN-contiguous, with nothing torn.
  auto scan = ScanWalRecords(wal_path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), static_cast<size_t>(kInserts));
  EXPECT_FALSE(scan->summary.torn_tail);
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, i + 1);
    EXPECT_EQ(scan->records[i].motion.oid,
              static_cast<ObjectId>(300000 + i));
  }
  EXPECT_EQ(index->tree()->applied_lsn(), static_cast<uint64_t>(kInserts));
  EXPECT_GE(index->file()->stats().wal_syncs.load(),
            static_cast<uint64_t>(kInserts));

  // Readers saw a consistent tree throughout: serial replay matches.
  BufferPool serial_pool(index->file(), 128, /*num_shards=*/8);
  SessionScheduler::Options sopt;
  sopt.num_threads = 1;
  sopt.reader = &serial_pool;
  const ExecutorReport serial =
      SessionScheduler(index->tree(), sopt).Run(specs);
  ExpectSameResults(concurrent, serial);
  opened->reset();
  std::remove(pgf_path.c_str());
  std::remove(wal_path.c_str());
}

TEST(ExecutorTest, WriteGuardInvalidatesDirtiedPagesInPool) {
  Fixture fx;
  BuildFixture(&fx, 13, 300);
  BufferPool pool(&fx.file, 256, /*num_shards=*/4);
  TreeGate gate(&fx.file, &pool);

  // Warm the pool over the whole file.
  for (PageId id = 0; id < fx.file.num_pages(); ++id) {
    ASSERT_TRUE(pool.Read(id).ok());
  }

  {
    auto guard = gate.LockExclusive();
    StSegment seg(Vec(50, 50), Vec(51, 51), Interval(0, 1));
    ASSERT_TRUE(fx.tree->Insert(MotionSegment(999999, seg)).ok());
  }  // Guard release: dirtied pages invalidated + sealed.

  // The dirty list was consumed by the guard...
  EXPECT_TRUE(fx.file.dirty_page_ids().empty());
  // ...and a reader sees the new motion through the pool (stale frames
  // would hide it or fail the checksum re-verification below).
  QueryStats stats;
  auto got = fx.tree->RangeSearch(
      StBox(Box::Centered(Vec(50.5, 50.5), 4.0), Interval(0, 1)), &stats,
      &pool);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  bool found = false;
  for (const auto& m : *got) found = found || m.oid == 999999;
  EXPECT_TRUE(found);
  // Every page is sealed: a full verify pass finds no corruption.
  std::vector<PageId> bad;
  EXPECT_EQ(fx.file.VerifyAllPages(&bad), 0u);
}

}  // namespace
}  // namespace dqmo
