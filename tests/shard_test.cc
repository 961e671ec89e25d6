// Cross-shard differential tests for the sharded engine (server/shard.h)
// and its query router (server/router.h).
//
// The load-bearing claim of the sharding tentpole is *exactness*: an
// N-shard engine answers every query family byte-identically to the
// single-tree engine — same delivered objects, same FNV-1a checksums —
// under every workload shape, with and without the NPDQ fan-out prune,
// with concurrent inserts through the router, and (degraded, but never
// silently wrong) with storage faults injected into exactly one shard.
// The sweeps here compare three independent implementations pairwise:
// the brute-force oracles (tests/oracle.h), the single-tree executor, and
// the sharded router.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "oracle.h"
#include "server/executor.h"
#include "server/health.h"
#include "server/router.h"
#include "server/scrubber.h"
#include "server/shard.h"
#include "storage/fault.h"
#include "test_util.h"
#include "workload/data_generator.h"

namespace dqmo {
namespace {

using ::dqmo::testing::NaiveOracle;
using ::dqmo::testing::RandomQueryBox;
using ::dqmo::testing::ShardedOracle;

constexpr int kSweepSeeds = 8;
const int kShardCounts[] = {1, 3, 16};
const WorkloadShape kShapes[] = {WorkloadShape::kUniform,
                                 WorkloadShape::kSkewed,
                                 WorkloadShape::kClusteredFastMovers};

std::vector<MotionSegment> ShapedData(WorkloadShape shape, uint64_t seed,
                                      int objects = 150,
                                      double horizon = 12.0) {
  DataGeneratorOptions opt;
  opt.num_objects = objects;
  opt.horizon = horizon;
  opt.seed = seed;
  opt.shape = shape;
  auto data = GenerateMotionData(opt);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.ok() ? std::move(data).value() : std::vector<MotionSegment>{};
}

std::unique_ptr<ShardedEngine> BuildEngine(
    int shards, const std::vector<MotionSegment>& data,
    size_t cache_nodes = 512) {
  ShardedEngineOptions opt;
  opt.num_shards = shards;
  opt.cache_nodes = cache_nodes;
  auto engine = ShardedEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return nullptr;
  EXPECT_TRUE((*engine)->InsertBatch(data).ok());
  return std::move(engine).value();
}

struct FlatFixture {
  PageFile file;
  std::unique_ptr<RTree> tree;
};

void BuildFlat(FlatFixture* fx, const std::vector<MotionSegment>& data) {
  auto tree = RTree::Create(&fx->file, RTree::Options());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  fx->tree = std::move(tree).value();
  for (const MotionSegment& m : data) {
    ASSERT_TRUE(fx->tree->Insert(m).ok());
  }
  ASSERT_TRUE(fx->file.Publish().ok());
}

/// The sweep's session specs: kSession exercises the PDQ/SPDQ handoff
/// machinery, kNpdq the snapshot deltas, kKnn the fence-cached search.
std::vector<SessionSpec> SweepSpecs(int seeds, int frames = 30,
                                    bool include_knn = true,
                                    double region_hi = 94.0) {
  const SessionKind kinds[] = {SessionKind::kSession, SessionKind::kNpdq,
                               SessionKind::kKnn};
  std::vector<SessionSpec> specs;
  for (int s = 0; s < seeds; ++s) {
    for (SessionKind kind : kinds) {
      if (kind == SessionKind::kKnn && !include_knn) continue;
      SessionSpec spec;
      spec.kind = kind;
      spec.seed = 100 + static_cast<uint64_t>(s);
      spec.frames = frames;
      spec.t0 = 1.0 + 0.25 * s;
      spec.region_hi = region_hi;
      specs.push_back(spec);
    }
  }
  return specs;
}

ExecutorReport FlatSerialRun(RTree* tree,
                             const std::vector<SessionSpec>& specs) {
  SessionScheduler::Options opt;  // Serial, reads the tree's file.
  return SessionScheduler(tree, opt).Run(specs);
}

void ExpectSameResults(const ExecutorReport& got, const ExecutorReport& want,
                       const std::string& label) {
  ASSERT_TRUE(got.status.ok()) << label << ": " << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << label << ": " << want.status.ToString();
  ASSERT_EQ(got.sessions.size(), want.sessions.size()) << label;
  for (size_t i = 0; i < got.sessions.size(); ++i) {
    EXPECT_EQ(got.sessions[i].checksum, want.sessions[i].checksum)
        << label << " session " << i;
    EXPECT_EQ(got.sessions[i].objects_delivered,
              want.sessions[i].objects_delivered)
        << label << " session " << i;
    EXPECT_EQ(got.sessions[i].frames_completed,
              want.sessions[i].frames_completed)
        << label << " session " << i;
  }
}

// ---------------------------------------------------------------------------
// ShardMap: the pure routing function.

TEST(ShardMapTest, RoutesEverySegmentInRangeAndPurely) {
  Rng rng(7);
  const std::vector<MotionSegment> data =
      ::dqmo::testing::RandomSegments(&rng, 500, 2, 100, 100);
  for (int n : {1, 2, 3, 5, 16, 64}) {
    for (bool split : {false, true}) {
      ShardMap map(n, 100.0, split, 1.5);
      ASSERT_EQ(map.num_shards(), n);
      EXPECT_EQ(map.fast_shards() + map.slow_shards(), n);
      for (const MotionSegment& m : data) {
        const int s = map.ShardOf(m);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, n);
        EXPECT_EQ(map.ShardOf(m), s);  // Pure: same answer every time.
      }
      EXPECT_FALSE(map.Describe().empty());
    }
  }
}

TEST(ShardMapTest, SpeedSplitSeparatesFastAndSlowClasses) {
  ShardMap map(16, 100.0, /*speed_split=*/true, /*threshold=*/1.5);
  ASSERT_GT(map.fast_shards(), 0);
  ASSERT_GT(map.slow_shards(), 0);
  // Speed 4 over one time unit: fast class (ids after the slow run).
  MotionSegment fast(1, StSegment(Vec(50, 50), Vec(54, 50), Interval(0, 1)));
  EXPECT_GE(map.ShardOf(fast), map.slow_shards());
  // Speed ~0.4: slow class.
  MotionSegment slow(2, StSegment(Vec(50, 50), Vec(50.4, 50),
                                  Interval(0, 1)));
  EXPECT_LT(map.ShardOf(slow), map.slow_shards());
  // Positions far outside the space clamp into boundary cells, not out of
  // range.
  MotionSegment wild(3, StSegment(Vec(-900, 900), Vec(-900, 900),
                                  Interval(0, 1)));
  const int s = map.ShardOf(wild);
  EXPECT_GE(s, 0);
  EXPECT_LT(s, 16);
}

// ---------------------------------------------------------------------------
// ShardedOracle: partition invariants, independent of the engine.

TEST(ShardedOracleTest, PartitionExactAndMergedAnswersMatchFlatOracle) {
  for (WorkloadShape shape : kShapes) {
    const std::vector<MotionSegment> data = ShapedData(shape, 11, 120, 10.0);
    for (int n : kShardCounts) {
      ShardedOracle oracle(ShardMap(n, 100.0, true, 1.5));
      for (const MotionSegment& m : data) oracle.Insert(m);
      ASSERT_TRUE(oracle.PartitionExact())
          << "shape " << static_cast<int>(shape) << " shards " << n;

      Rng rng(23);
      for (int q = 0; q < 25; ++q) {
        const StBox box = RandomQueryBox(&rng, 2, 100, 10.0);
        std::set<MotionSegment::Key> flat_keys;
        for (const MotionSegment& m : oracle.flat().Snapshot(box)) {
          flat_keys.insert(m.key());
        }
        EXPECT_EQ(oracle.MergedSnapshot(box), flat_keys);
      }
      for (int q = 0; q < 25; ++q) {
        const Vec p = ::dqmo::testing::RandomPoint(&rng, 2, 100);
        const double t = rng.Uniform(0.0, 10.0);
        const auto merged = oracle.MergedKnn(p, t, 8);
        const auto flat = oracle.flat().Knn(p, t, 8);
        ASSERT_EQ(merged.size(), flat.size());
        for (size_t i = 0; i < merged.size(); ++i) {
          EXPECT_EQ(merged[i].distance, flat[i].distance);
          EXPECT_EQ(merged[i].motion.key(), flat[i].motion.key());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// K-way merge properties.

MotionSegment Tagged(ObjectId oid, double t_lo, double marker) {
  // The marker rides in the geometry (not the key), so a test can tell
  // which duplicate survived the merge.
  return MotionSegment(
      oid, StSegment(Vec(marker, 0), Vec(marker, 1), Interval(t_lo, t_lo + 1)));
}

TEST(MergeStreamsTest, EmptyStreamsAndPassthrough) {
  std::vector<std::vector<MotionSegment>> empty(4);
  EXPECT_TRUE(MergeStreamsByEntryTime(&empty).empty());

  std::vector<std::vector<MotionSegment>> one(3);
  one[1] = {Tagged(1, 0.0, 1), Tagged(2, 0.5, 2), Tagged(3, 0.5, 3)};
  const auto merged = MergeStreamsByEntryTime(&one);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].oid, 1u);
  EXPECT_EQ(merged[1].oid, 2u);
  EXPECT_EQ(merged[2].oid, 3u);
}

TEST(MergeStreamsTest, DuplicateKeysKeepFirstStreamOccurrence) {
  // The same key in streams 2 and 0: the survivor must be stream 0's copy
  // (tie-stability by stream index), observable through the marker.
  std::vector<std::vector<MotionSegment>> streams(3);
  streams[2] = {Tagged(7, 1.0, /*marker=*/222)};
  streams[0] = {Tagged(7, 1.0, /*marker=*/0)};
  const auto merged = MergeStreamsByEntryTime(&streams);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].seg.p0[0], 0.0);
}

TEST(MergeStreamsTest, AdversarialTieFuzzMatchesReferenceMerge) {
  // Heavily tied keys (3 distinct entry times x 10 oids) scattered over a
  // random number of streams, including within-stream duplicates. The
  // merge must equal an independently computed reference: stable-sort all
  // (stream, pos) entries by (time.lo, key, stream, pos), then keep the
  // first occurrence of each key.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int num_streams = 1 + static_cast<int>(rng.UniformU64(6));
    std::vector<std::vector<MotionSegment>> streams(
        static_cast<size_t>(num_streams));
    std::vector<std::vector<MotionSegment>> copy(streams.size());
    for (size_t s = 0; s < streams.size(); ++s) {
      const int count = static_cast<int>(rng.UniformU64(30));
      for (int i = 0; i < count; ++i) {
        const ObjectId oid = static_cast<ObjectId>(rng.UniformU64(10));
        const double t_lo = 0.5 * static_cast<double>(rng.UniformU64(3));
        streams[s].push_back(
            Tagged(oid, t_lo, static_cast<double>(s) * 1000 + i));
      }
      std::stable_sort(streams[s].begin(), streams[s].end(),
                       [](const MotionSegment& a, const MotionSegment& b) {
                         if (a.seg.time.lo != b.seg.time.lo) {
                           return a.seg.time.lo < b.seg.time.lo;
                         }
                         return a.key() < b.key();
                       });
      copy[s] = streams[s];
    }

    struct Ref {
      MotionSegment m;
      size_t stream;
      size_t pos;
    };
    std::vector<Ref> all;
    for (size_t s = 0; s < copy.size(); ++s) {
      for (size_t i = 0; i < copy[s].size(); ++i) {
        all.push_back(Ref{copy[s][i], s, i});
      }
    }
    std::stable_sort(all.begin(), all.end(), [](const Ref& a, const Ref& b) {
      if (a.m.seg.time.lo != b.m.seg.time.lo) {
        return a.m.seg.time.lo < b.m.seg.time.lo;
      }
      if (a.m.key() < b.m.key()) return true;
      if (b.m.key() < a.m.key()) return false;
      if (a.stream != b.stream) return a.stream < b.stream;
      return a.pos < b.pos;
    });
    std::vector<MotionSegment> expected;
    std::set<MotionSegment::Key> seen;
    for (const Ref& r : all) {
      if (seen.insert(r.m.key()).second) expected.push_back(r.m);
    }

    const auto merged = MergeStreamsByEntryTime(&streams);
    ASSERT_EQ(merged.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].key(), expected[i].key()) << "seed " << seed;
      // The marker identifies the exact surviving duplicate.
      EXPECT_EQ(merged[i].seg.p0[0], expected[i].seg.p0[0])
          << "seed " << seed << " index " << i;
    }
  }
}

TEST(MergeNeighborsTest, SortsByDistanceThenKeyAndTruncates) {
  auto nb = [](ObjectId oid, double dist) {
    return Neighbor{
        MotionSegment(oid, StSegment(Vec(0, 0), Vec(1, 1), Interval(0, 1))),
        dist};
  };
  std::vector<std::vector<Neighbor>> streams = {
      {nb(5, 1.0), nb(1, 3.0)},
      {},
      {nb(2, 1.0), nb(9, 0.5), nb(3, 3.0)},
  };
  const auto merged = MergeNeighborsByDistance(streams, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].motion.oid, 9u);  // 0.5
  EXPECT_EQ(merged[1].motion.oid, 2u);  // 1.0, key tie-break: oid 2 < 5
  EXPECT_EQ(merged[2].motion.oid, 5u);  // 1.0
  EXPECT_EQ(merged[3].motion.oid, 1u);  // 3.0, truncates oid 3 away

  EXPECT_TRUE(MergeNeighborsByDistance({}, 8).empty());
}

// ---------------------------------------------------------------------------
// The differential sweep: every workload shape x shard count x query
// family, N-shard router vs single-tree engine, byte-identical checksums.

TEST(ShardDifferentialTest, AllShapesAndShardCountsMatchSingleTree) {
  for (WorkloadShape shape : kShapes) {
    const std::vector<MotionSegment> data = ShapedData(shape, 42);
    FlatFixture flat;
    BuildFlat(&flat, data);
    const std::vector<SessionSpec> specs = SweepSpecs(kSweepSeeds);
    const ExecutorReport want = FlatSerialRun(flat.tree.get(), specs);
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();

    for (int n : kShardCounts) {
      std::unique_ptr<ShardedEngine> engine = BuildEngine(n, data);
      ASSERT_NE(engine, nullptr);
      EXPECT_EQ(engine->num_segments(), data.size());
      ShardRouter router(engine.get());
      const ExecutorReport got = router.Run(specs);
      ExpectSameResults(got, want,
                        "shape " + std::to_string(static_cast<int>(shape)) +
                            " shards " + std::to_string(n));
      EXPECT_GT(got.total_objects, 0u);
      if (n != 1) continue;
      // The single tree is the one-shard case: the same nodes loaded and
      // the same distance work, with the root-bounds prune on or off.
      // kNN is checksum-only: the single tree's fenced search and the
      // router's stateless per-shard search differ in cost by design.
      ShardRouter::Options unpruned;
      unpruned.spatial_prune = false;
      for (const ExecutorReport& one :
           {got, ShardRouter(engine.get(), unpruned).Run(specs)}) {
        for (size_t i = 0; i < specs.size(); ++i) {
          if (specs[i].kind == SessionKind::kKnn) continue;
          const QueryStats& g = one.sessions[i].stats;
          const QueryStats& w = want.sessions[i].stats;
          EXPECT_EQ(g.node_reads + g.decoded_hits,
                    w.node_reads + w.decoded_hits)
              << "shape " << static_cast<int>(shape) << " session " << i;
          EXPECT_EQ(g.distance_computations.load(),
                    w.distance_computations.load())
              << "shape " << static_cast<int>(shape) << " session " << i;
        }
      }
    }
  }
}

TEST(ShardDifferentialTest, SpatialPruneOnAndOffAreByteIdentical) {
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kSkewed, 5);
  std::unique_ptr<ShardedEngine> engine = BuildEngine(16, data);
  ASSERT_NE(engine, nullptr);
  const std::vector<SessionSpec> specs = SweepSpecs(4);

  ShardRouter::Options on;
  on.spatial_prune = true;
  ShardRouter::Options off;
  off.spatial_prune = false;
  const ExecutorReport got_on = ShardRouter(engine.get(), on).Run(specs);
  const ExecutorReport got_off = ShardRouter(engine.get(), off).Run(specs);
  ExpectSameResults(got_on, got_off, "prune on vs off");

  // The prune must actually fire for a skewed workload on 16 shards: a
  // confined observer's snapshot misses most grid cells.
  SessionSpec npdq;
  npdq.kind = SessionKind::kNpdq;
  npdq.seed = 3;
  npdq.frames = 30;
  const ShardedSessionResult one = ShardRouter(engine.get(), on).RunOne(npdq);
  ASSERT_TRUE(one.result.status.ok());
  EXPECT_GT(one.shard_frames_pruned, 0u);
  ASSERT_EQ(one.shard_stats.size(), 16u);
  QueryStats sum;
  for (const QueryStats& s : one.shard_stats) sum += s;
  EXPECT_EQ(sum.objects_returned.load(),
            one.result.stats.objects_returned.load());
}

TEST(ShardDifferentialTest, BulkLoadMatchesInsertPath) {
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 9);
  std::unique_ptr<ShardedEngine> inserted = BuildEngine(3, data);
  ASSERT_NE(inserted, nullptr);

  ShardedEngineOptions opt;
  opt.num_shards = 3;
  auto bulk = ShardedEngine::Create(opt);
  ASSERT_TRUE(bulk.ok()) << bulk.status().ToString();
  ASSERT_TRUE((*bulk)->BulkLoad(data).ok());
  EXPECT_EQ((*bulk)->num_segments(), data.size());

  const std::vector<SessionSpec> specs = SweepSpecs(3);
  const ExecutorReport a = ShardRouter(inserted.get()).Run(specs);
  const ExecutorReport b = ShardRouter(bulk->get()).Run(specs);
  ExpectSameResults(a, b, "insert vs bulk-load");
}

// ---------------------------------------------------------------------------
// Concurrent inserts through the router.

TEST(ShardConcurrencyTest, ConcurrentInsertsThroughRouterMatchSerialReplay) {
  // 8 reader sessions confined to [6, 70]^2 run through the router with 8
  // threads while a writer inserts motions confined to [90, 100]^2 through
  // the engine's routing facade. Disjoint regions: every interleaving must
  // deliver the same results as a serial replay on the fully updated
  // engine — and as the single-tree engine over the same final data.
  for (int n : {1, 4}) {
    const std::vector<MotionSegment> data =
        ShapedData(WorkloadShape::kUniform, 21);
    std::unique_ptr<ShardedEngine> engine = BuildEngine(n, data);
    ASSERT_NE(engine, nullptr);
    const std::vector<SessionSpec> specs =
        SweepSpecs(4, 30, /*include_knn=*/false, /*region_hi=*/70.0);

    std::atomic<bool> writer_failed{false};
    std::vector<MotionSegment> extra;
    Rng rng(4242);
    for (int i = 0; i < 64; ++i) {
      StSegment seg(Vec(rng.Uniform(90, 100), rng.Uniform(90, 100)),
                    Vec(rng.Uniform(90, 100), rng.Uniform(90, 100)),
                    Interval(rng.Uniform(0, 9), rng.Uniform(9, 12)));
      extra.emplace_back(static_cast<ObjectId>(200000 + i), seg);
    }
    std::thread writer([&engine, &extra, &writer_failed] {
      for (const MotionSegment& m : extra) {
        if (!engine->Insert(m).ok()) writer_failed.store(true);
        std::this_thread::yield();
      }
    });

    ShardRouter::Options copt;
    copt.num_threads = 8;
    const ExecutorReport concurrent =
        ShardRouter(engine.get(), copt).Run(specs);
    writer.join();
    ASSERT_FALSE(writer_failed.load());
    EXPECT_EQ(engine->num_segments(), data.size() + extra.size());

    const ExecutorReport serial = ShardRouter(engine.get()).Run(specs);
    ExpectSameResults(concurrent, serial,
                      "concurrent vs serial, shards " + std::to_string(n));

    // Third implementation: the single-tree engine over the final data.
    FlatFixture flat;
    std::vector<MotionSegment> all = data;
    all.insert(all.end(), extra.begin(), extra.end());
    BuildFlat(&flat, all);
    const ExecutorReport want = FlatSerialRun(flat.tree.get(), specs);
    ExpectSameResults(concurrent, want,
                      "concurrent vs flat, shards " + std::to_string(n));
    EXPECT_GT(concurrent.total_objects, 0u);
  }
}

TEST(ShardConcurrencyTest, RouterHammerEightReadersPerShardWriters) {
  // TSan fodder: 8 sharded reader sessions against 4 writer threads that
  // route inserts through the engine concurrently. Every reader frame
  // locks all shard gates shared (ascending); every insert takes one
  // shard's gate exclusive — no deadlock, no race, and the results match
  // a serial replay afterwards.
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kClusteredFastMovers, 31);
  std::unique_ptr<ShardedEngine> engine = BuildEngine(8, data);
  ASSERT_NE(engine, nullptr);
  const std::vector<SessionSpec> specs =
      SweepSpecs(4, 25, /*include_knn=*/false, /*region_hi=*/70.0);

  std::atomic<bool> writer_failed{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&engine, &writer_failed, w] {
      Rng rng(9000 + static_cast<uint64_t>(w));
      for (int i = 0; i < 32; ++i) {
        // Mixed speeds so both shard classes take writes.
        const double speed = (i % 4 == 0) ? 5.0 : 0.5;
        const Vec p0(rng.Uniform(90, 100), rng.Uniform(90, 100));
        const Vec p1(std::min(100.0, p0[0] + speed), p0[1]);
        StSegment seg(p0, p1, Interval(rng.Uniform(0, 9),
                                       rng.Uniform(9, 12)));
        MotionSegment m(
            static_cast<ObjectId>(300000 + 1000 * w + i), seg);
        if (!engine->Insert(m).ok()) writer_failed.store(true);
        std::this_thread::yield();
      }
    });
  }

  ShardRouter::Options copt;
  copt.num_threads = 8;
  const ExecutorReport concurrent =
      ShardRouter(engine.get(), copt).Run(specs);
  for (std::thread& w : writers) w.join();
  ASSERT_FALSE(writer_failed.load());

  const ExecutorReport serial = ShardRouter(engine.get()).Run(specs);
  ExpectSameResults(concurrent, serial, "hammer");
}

TEST(ShardConcurrencyTest, AlwaysHedgedReadsUnderConcurrentBudgetedSessions) {
  // Every pool miss hedges (zero threshold) while four budgeted sessions
  // share four failure-domain shards. A hedged reader serves every session
  // at once, so it must hold no session's state — a frame budget parked
  // in it would be read from other sessions' threads after its owner is
  // gone. Tiny pools and no decoded-node cache keep the misses coming.
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 17);
  ShardedEngineOptions opt;
  opt.num_shards = 4;
  opt.failure_domains = true;
  opt.hedge.enabled = true;
  opt.hedge.latency_factor = 0.0;
  opt.hedge.min_latency_us = 0;
  opt.pool_pages = 4;
  opt.cache_nodes = 0;
  auto engine = ShardedEngine::Create(opt);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->InsertBatch(data).ok());
  std::vector<SessionSpec> specs = SweepSpecs(4, 20);
  for (SessionSpec& spec : specs) spec.frame_node_budget = 1 << 30;

  ShardRouter::Options copt;
  copt.num_threads = 4;
  const ExecutorReport concurrent = ShardRouter(engine->get(), copt).Run(specs);
  const ExecutorReport serial = ShardRouter(engine->get()).Run(specs);
  ExpectSameResults(concurrent, serial, "always-hedged");
  EXPECT_EQ(concurrent.total_frames_degraded, 0u);
  uint64_t hedges = 0;
  for (int s = 0; s < (*engine)->num_shards(); ++s) {
    hedges += (*engine)->shard(s).hedged->hedges();
  }
  EXPECT_GT(hedges, 0u);
}

// ---------------------------------------------------------------------------
// Fault containment: a fault in one shard degrades, never lies.

TEST(ShardFaultTest, FaultyShardDegradesToPartialWithSkipInItsSlot) {
  // Every page of shard 0's file fails permanently. The router must (a)
  // finish every session OK, (b) flag the affected frames kPartial with
  // the skips recorded in exactly shard 0's SkipReport slot, and (c)
  // deliver byte-identically to an engine that never held shard 0's
  // segments at all — degraded, but never silently wrong.
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 13);
  // No decoded-node cache: every node visit must reach the (faulty) pool.
  std::unique_ptr<ShardedEngine> engine = BuildEngine(4, data, 0);
  ASSERT_NE(engine, nullptr);
  const int faulty_shard = 0;

  FaultInjector::Options fopt;
  FaultInjector injector(fopt);
  ShardedEngine::Shard& bad = engine->shard(faulty_shard);
  for (PageId p = 0; p < bad.file->num_pages(); ++p) {
    injector.AddPermanentFault(p);
  }
  FaultyPageReader faulty(bad.file, &injector);
  bad.pool->set_source(&faulty);

  // Reference: the same engine shape with shard 0's segments dropped.
  std::vector<MotionSegment> filtered;
  for (const MotionSegment& m : data) {
    if (engine->map().ShardOf(m) != faulty_shard) filtered.push_back(m);
  }
  ASSERT_LT(filtered.size(), data.size());  // Shard 0 held something.
  std::unique_ptr<ShardedEngine> reference = BuildEngine(4, filtered, 0);
  ASSERT_NE(reference, nullptr);

  // Force evaluation of every shard every frame (no root-bounds prune) and
  // arm a never-stopping budget so traversals skip unreadable subtrees
  // instead of failing fast.
  ShardRouter::Options ropt;
  ropt.spatial_prune = false;
  ShardRouter faulty_router(engine.get(), ropt);
  ShardRouter reference_router(reference.get(), ropt);

  for (SessionKind kind :
       {SessionKind::kNpdq, SessionKind::kSession, SessionKind::kKnn}) {
    SessionSpec spec;
    spec.kind = kind;
    spec.seed = 77;
    spec.frames = 25;
    spec.frame_node_budget = 1000000000;  // Active but never stops.
    const ShardedSessionResult got = faulty_router.RunOne(spec);
    const ShardedSessionResult want = reference_router.RunOne(spec);

    ASSERT_TRUE(got.result.status.ok())
        << "kind " << static_cast<int>(kind) << ": "
        << got.result.status.ToString();
    EXPECT_EQ(got.result.checksum, want.result.checksum)
        << "kind " << static_cast<int>(kind);
    EXPECT_EQ(got.result.objects_delivered, want.result.objects_delivered);
    EXPECT_EQ(got.result.frames_completed, want.result.frames_completed);

    // Degradation is visible and attributed to the right shard.
    EXPECT_GT(got.frames_partial, 0u) << "kind " << static_cast<int>(kind);
    ASSERT_EQ(got.shard_skips.size(), 4u);
    EXPECT_GT(got.shard_skips[faulty_shard].pages_skipped(), 0u);
    for (int s = 1; s < 4; ++s) {
      EXPECT_EQ(got.shard_skips[s].pages_skipped(), 0u) << "shard " << s;
    }
    // The reference engine never skips anything.
    EXPECT_EQ(want.frames_partial, 0u);
  }
  bad.pool->set_source(bad.file);  // Restore before teardown.
}

TEST(ShardFaultTest, SlowReaderInOneShardKeepsResultsByteIdentical) {
  // Every other read of one shard is "slow" (served through a counting
  // sleeper — no wall-clock dependence). Latency in one shard must not
  // change any delivered byte.
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 17);
  const std::vector<SessionSpec> specs = SweepSpecs(3);

  std::unique_ptr<ShardedEngine> clean_engine = BuildEngine(4, data, 0);
  ASSERT_NE(clean_engine, nullptr);
  const ExecutorReport clean = ShardRouter(clean_engine.get()).Run(specs);

  // A second, identically built engine whose shard-1 pool is cold, so its
  // reads actually reach the wrapped (slow) source.
  std::unique_ptr<ShardedEngine> engine = BuildEngine(4, data, 0);
  ASSERT_NE(engine, nullptr);
  FaultInjector::Options fopt;
  fopt.slow_every_kth = 2;
  fopt.slow_read_delay_us = 500;
  FaultInjector injector(fopt);
  std::atomic<uint64_t> sleeps{0};
  ShardedEngine::Shard& slow = engine->shard(1);
  FaultyPageReader slow_reader(slow.file, &injector,
                               [&sleeps](uint64_t) { sleeps.fetch_add(1); });
  slow.pool->set_source(&slow_reader);

  const ExecutorReport delayed = ShardRouter(engine.get()).Run(specs);
  slow.pool->set_source(slow.file);
  ExpectSameResults(delayed, clean, "slow shard");
  EXPECT_GT(sleeps.load(), 0u);
}

// ---------------------------------------------------------------------------
// Aggregation + durable layout.

TEST(ShardedEngineTest, TotalIoStatsAggregatesWithoutDoubleCounting) {
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 3);
  std::unique_ptr<ShardedEngine> engine = BuildEngine(4, data);
  ASSERT_NE(engine, nullptr);
  const ExecutorReport report =
      ShardRouter(engine.get()).Run(SweepSpecs(2));
  ASSERT_TRUE(report.status.ok());

  const IoStats total = engine->TotalIoStats();
  uint64_t reads = 0, hits = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    reads += engine->shard(s).file->stats().physical_reads.load();
    hits += engine->shard(s).file->stats().cache_hits.load();
  }
  EXPECT_EQ(total.physical_reads.load(), reads);
  EXPECT_EQ(total.cache_hits.load(), hits);
  EXPECT_GT(reads + hits, 0u);
  // Pool-level accounting: every miss is one physical read on some shard.
  EXPECT_EQ(report.pool_misses, report.total_stats.node_reads.load());
}

TEST(ShardedEngineTest, DurableShardsRecoverAcrossReopen) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/dqmo_sharded_durable";
  std::filesystem::remove_all(dir);
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 29, 80, 8.0);
  const std::vector<SessionSpec> specs = SweepSpecs(2, 20);

  ShardedEngineOptions opt;
  opt.num_shards = 3;
  opt.durable_dir = dir;
  ExecutorReport before;
  {
    auto engine = ShardedEngine::Create(opt);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    // First half lands in the checkpoint image, second half stays in each
    // shard's WAL tail — reopen has to replay both layers.
    const size_t half = data.size() / 2;
    ASSERT_TRUE((*engine)
                    ->InsertBatch({data.begin(), data.begin() + half})
                    .ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
    ASSERT_TRUE(
        (*engine)->InsertBatch({data.begin() + half, data.end()}).ok());
    before = ShardRouter(engine->get()).Run(specs);
    ASSERT_TRUE(before.status.ok());
    // The layout on disk is the one dqmo_tool accepts.
    for (int s = 0; s < 3; ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "shard-%04d", s);
      EXPECT_TRUE(std::filesystem::exists(dir + "/" + std::string(name) +
                                          ".pgf"));
      EXPECT_TRUE(std::filesystem::exists(dir + "/" + std::string(name) +
                                          ".wal"));
    }
  }
  {
    // Reopen: every shard recovers its checkpoint + WAL tail; queries are
    // byte-identical to the pre-crash engine.
    auto engine = ShardedEngine::Create(opt);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->num_segments(), data.size());
    const ExecutorReport after = ShardRouter(engine->get()).Run(specs);
    ExpectSameResults(after, before, "durable reopen");
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, DurableShardsOnDiskBackendsByteIdenticalAndRecover) {
  // The disk wiring end-to-end: a durable sharded engine on
  // io_backend=kPread/kUring gives every shard its own DiskPageFile (live
  // file rebuilt from the checkpoint image) plus a Prefetcher the router's
  // sessions hint — and the whole stack must answer byte-identically to
  // the kMemory durable engine, survive a reopen with a WAL tail, and
  // keep the speculation ledger closed.
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 31, 100, 8.0);
  const std::vector<SessionSpec> specs = SweepSpecs(2, 20);

  ShardedEngineOptions base;
  base.num_shards = 3;

  // Memory-backend yardstick.
  const std::string mem_dir =
      std::string(::testing::TempDir()) + "/dqmo_sharded_disk_mem";
  std::filesystem::remove_all(mem_dir);
  ExecutorReport want;
  {
    ShardedEngineOptions mopt = base;
    mopt.durable_dir = mem_dir;
    auto engine = ShardedEngine::Create(mopt);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->InsertBatch(data).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
    want = ShardRouter(engine->get()).Run(specs);
    ASSERT_TRUE(want.status.ok());
  }
  std::filesystem::remove_all(mem_dir);

  for (IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    const std::string label =
        backend == IoBackend::kPread ? "pread" : "uring";
    const std::string dir = std::string(::testing::TempDir()) +
                            "/dqmo_sharded_disk_" + label;
    std::filesystem::remove_all(dir);
    ShardedEngineOptions dopt = base;
    dopt.durable_dir = dir;
    dopt.io_backend = backend;
    dopt.prefetch_depth = 8;

    ExecutorReport before;
    {
      auto engine = ShardedEngine::Create(dopt);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      // First half checkpointed into each shard's image, second half left
      // in the WAL tail so the reopen replays both layers through the
      // disk store.
      const size_t half = data.size() / 2;
      ASSERT_TRUE((*engine)
                      ->InsertBatch({data.begin(), data.begin() + half})
                      .ok());
      ASSERT_TRUE((*engine)->Checkpoint().ok());
      ASSERT_TRUE(
          (*engine)->InsertBatch({data.begin() + half, data.end()}).ok());
      for (int s = 0; s < 3; ++s) {
        ASSERT_NE((*engine)->shard(s).durable->disk_file(), nullptr)
            << label;
        ASSERT_NE((*engine)->shard(s).prefetcher, nullptr) << label;
      }
      before = ShardRouter(engine->get()).Run(specs);
      ExpectSameResults(before, want, label + " vs memory backend");
      // Speculation ran and its ledger closes: after Quiesce, every issue
      // is a hit, a wasted landing, or a failure.
      uint64_t issued = 0, hits = 0, wasted = 0, failed = 0;
      for (int s = 0; s < 3; ++s) {
        Prefetcher* pf = (*engine)->shard(s).prefetcher.get();
        pf->Quiesce();
        const IoStats& io = (*engine)->shard(s).file->stats();
        issued += io.prefetch_issued.load();
        hits += io.prefetch_hits.load();
        wasted += io.prefetch_wasted.load();
        failed += pf->failed();
      }
      EXPECT_GT(issued, 0u) << label;
      EXPECT_EQ(issued, hits + wasted + failed) << label;
    }
    {
      auto engine = ShardedEngine::Create(dopt);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ((*engine)->num_segments(), data.size()) << label;
      const ExecutorReport after = ShardRouter(engine->get()).Run(specs);
      ExpectSameResults(after, before, label + " durable reopen");
    }
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Failure domains: a predictive session hit mid-stream by its shard's
// circuit breaker.

TEST(ShardFaultTest, PdqSessionQuarantinedMidStreamResumesByteIdentical) {
  // A predictive (kSession) stream reads the tree only at prediction
  // renewals, so a shard that dies mid-run stays invisible until the next
  // renewal — at which point the frame must come back kPartial with the
  // skips attributed to exactly that shard, the session must hand off to
  // NPDQ, and the healthy shards must keep delivering byte-identically to
  // an untouched twin the whole way. After scrub + probation the engine
  // must serve fresh sweeps byte-identically again.
  constexpr int kFrames = 36;
  constexpr int kArmFrame = 10;
  constexpr int kHealFrame = 28;
  const std::vector<MotionSegment> data =
      ShapedData(WorkloadShape::kUniform, 23, 220);

  ShardedEngineOptions eopt;
  eopt.num_shards = 4;
  eopt.cache_nodes = 0;  // Every node visit reaches the gated pool.
  eopt.failure_domains = true;
  eopt.breaker.consecutive_failures = 1;
  eopt.breaker.cooldown_frames = 0;  // Promotion only through the scrubber.
  eopt.breaker.probe_rate = 1.0;
  eopt.breaker.probe_successes_to_close = 2;
  auto chaos = ShardedEngine::Create(eopt);
  auto twin = ShardedEngine::Create(eopt);
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  ASSERT_TRUE((*chaos)->InsertBatch(data).ok());
  ASSERT_TRUE((*twin)->InsertBatch(data).ok());
  const int sick = (*chaos)->map().ShardOf(data[0]);

  SessionSpec spec;
  spec.kind = SessionKind::kSession;
  spec.seed = 104;
  spec.frames = kFrames;
  // Stretch the frame step so a prediction renewal (default horizon 5.0)
  // lands inside the quarantine window instead of past the end of the run.
  spec.frame_dt = 0.4;
  spec.t0 = 1.0;

  ShardRouter::Options twin_opt;
  twin_opt.spatial_prune = false;
  twin_opt.record_frames = true;
  ShardRouter::Options ropt = twin_opt;
  ropt.frame_hook = [&](int frame) {
    if (frame == kArmFrame) {
      FaultInjector::Options f;
      f.fail_every_kth = 1;  // Shard-wide death: every read fails.
      (*chaos)->ArmShardFault(sick, f);
    } else if (frame == kHealFrame) {
      (*chaos)->ClearShardFault(sick);
      const ShardScrubber::PassReport rep =
          ShardScrubber(chaos->get(), ScrubOptions()).ScrubPass();
      EXPECT_EQ(rep.shards_scrubbed, 1) << rep.ToString();
      EXPECT_EQ(rep.shards_promoted, 1) << rep.ToString();
    }
  };

  const ShardedSessionResult got = ShardRouter(chaos->get(), ropt).RunOne(spec);
  const ShardedSessionResult want =
      ShardRouter(twin->get(), twin_opt).RunOne(spec);
  ASSERT_TRUE(got.result.status.ok()) << got.result.status.ToString();
  ASSERT_TRUE(want.result.status.ok()) << want.result.status.ToString();
  EXPECT_EQ(want.frames_partial, 0u);

  // The fault stayed dormant while the PDQ served from its prediction
  // buffer: the first partial frame is the renewal, strictly after the arm
  // frame and before the heal.
  ASSERT_GT(got.frames_partial, 0u);
  int first_partial = 0;
  for (const ShardedSessionResult::FrameRecord& rec : got.frames) {
    if (rec.partial) {
      first_partial = rec.frame;
      break;
    }
  }
  EXPECT_GT(first_partial, kArmFrame);
  EXPECT_LT(first_partial, kHealFrame);
  EXPECT_GT(got.frames_quarantined, 0u);

  // Attribution: skips land in the sick slot and nowhere else.
  ASSERT_EQ(got.shard_skips.size(), 4u);
  EXPECT_GT(got.shard_skips[sick].pages_skipped(), 0u);
  for (int s = 0; s < 4; ++s) {
    if (s != sick) {
      EXPECT_EQ(got.shard_skips[s].pages_skipped(), 0u) << "shard " << s;
    }
  }

  // Healthy shards delivered byte-identically to the twin on every frame,
  // fault window included, and were never blocked.
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (size_t f = 0; f < got.frames.size(); ++f) {
    for (int s = 0; s < 4; ++s) {
      if (s == sick) continue;
      EXPECT_EQ(got.frames[f].shard_checksums[s],
                want.frames[f].shard_checksums[s])
          << "frame " << got.frames[f].frame << " shard " << s;
      EXPECT_EQ(got.frames[f].shard_blocked[s], 0)
          << "frame " << got.frames[f].frame << " shard " << s;
    }
  }

  // Reinstated through half-open probation, and fresh sweeps across all
  // session kinds are byte-identical again.
  EXPECT_EQ((*chaos)->breaker(sick)->state(), BreakerState::kClosed);
  EXPECT_GE((*chaos)->breaker(sick)->open_events(), 1u);
  EXPECT_GT((*chaos)->breaker(sick)->probe_frames(), 0u);
  const std::vector<SessionSpec> sweep = SweepSpecs(2, 12);
  ExpectSameResults(ShardRouter(chaos->get()).Run(sweep),
                    ShardRouter(twin->get()).Run(sweep),
                    "post-reinstatement sweep");
}

}  // namespace
}  // namespace dqmo
