// Property tests for the zero-copy query hot path: SoA node decoding
// (rtree/node_soa.h), the decoded-node cache (rtree/node_cache.h), and the
// batch-prune kernels (query/kernels.h).
//
// The hot path's contract is *bit-identity* with the scalar per-entry
// predicates (QueryTrajectory::OverlapTimes, Discardable,
// StSegment::Intersects, Box::MinDistance, StSegment::DistanceAt), not
// approximate agreement: every kernel decision and every distance must
// equal the value the predicate computes for that entry, down to the last
// ULP, on both the scalar and the AVX2 dispatch tier. These tests enforce
// that property-style over seeded uniform and skewed random nodes, then at
// the whole-query level (PDQ/NPDQ/kNN answers and every QueryStats counter
// pinned), and finally through the decoded-node cache under interleaved
// inserts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/random.h"
#include "geom/trajectory.h"
#include "query/kernels.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "query/pdq.h"
#include "rtree/node.h"
#include "rtree/node_cache.h"
#include "rtree/node_soa.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace dqmo {
namespace {

using ::dqmo::testing::AccountOf;
using ::dqmo::testing::FoldAnswer;
using ::dqmo::testing::KeysOf;
using ::dqmo::testing::kFoldSeed;
using ::dqmo::testing::QueryAccount;
using ::dqmo::testing::RandomQueryBox;
using ::dqmo::testing::RandomSegment;
using ::dqmo::testing::RandomSegments;

// ---------------------------------------------------------------------------
// Node builders: random AoS nodes serialized to a page, then decoded through
// both paths. Comparing the two decodes (instead of the pre-serialization
// node) makes the tests independent of float32 outward rounding.

/// Clustered positions (mirrors oracle_test's SkewedSegments): exercises
/// columns with many near-equal values and degenerate extents.
MotionSegment SkewedSegment(Rng* rng, ObjectId oid) {
  const Vec c(rng->Uniform(20, 40), rng->Uniform(60, 80));
  auto clamp = [](double v) { return std::clamp(v, 0.0, 100.0); };
  const Vec a(clamp(c[0] + rng->Normal(0.0, 2.0)),
              clamp(c[1] + rng->Normal(0.0, 2.0)));
  const Vec b(clamp(a[0] + rng->Normal(0.0, 0.5)),
              clamp(a[1] + rng->Normal(0.0, 0.5)));
  const double t0 = rng->Uniform(0.0, 100.0);
  MotionSegment m(oid, StSegment(a, b, Interval(t0, t0 + rng->Uniform(0.01, 2.0))));
  m.seg = QuantizeStored(m.seg);
  return m;
}

Node MakeLeaf(Rng* rng, int count, bool skewed) {
  Node node;
  node.self = 7;
  node.level = 0;
  node.dims = 2;
  node.stamp = 42;
  for (int i = 0; i < count; ++i) {
    node.segments.push_back(
        skewed ? SkewedSegment(rng, static_cast<ObjectId>(i))
               : RandomSegment(rng, static_cast<ObjectId>(i), 2, 100, 100));
  }
  return node;
}

Node MakeInternal(Rng* rng, int count, bool skewed) {
  Node node;
  node.self = 9;
  node.level = 2;
  node.dims = 2;
  node.stamp = 43;
  for (int i = 0; i < count; ++i) {
    // Cover 1..3 segments so the start/end-time extents are non-degenerate
    // for most entries (the double-temporal-axes columns matter for NPDQ).
    const int span = 1 + static_cast<int>(rng->UniformU64(3));
    ChildEntry e;
    for (int j = 0; j < span; ++j) {
      const MotionSegment m =
          skewed ? SkewedSegment(rng, 0)
                 : RandomSegment(rng, 0, 2, 100, 100);
      const ChildEntry part = ChildEntry::ForBox(QuantizeOutward(m.Bounds()),
                                                 static_cast<PageId>(i + 10));
      if (j == 0) {
        e = part;
      } else {
        e.CoverWith(part);
      }
    }
    node.children.push_back(e);
  }
  return node;
}

/// Serializes `node` and decodes it through both paths.
struct Decoded {
  Node aos;
  SoaNode soa;
};

Decoded RoundTrip(const Node& node) {
  uint8_t page[kPageSize];
  Status s = node.SerializeTo(PageView(page, kPageSize));
  EXPECT_TRUE(s.ok()) << s.ToString();
  Decoded d;
  auto aos = Node::DeserializeFrom(page, node.self);
  EXPECT_TRUE(aos.ok()) << aos.status().ToString();
  d.aos = std::move(aos).value();
  Status ds = d.soa.DecodeFrom(page, node.self);
  EXPECT_TRUE(ds.ok()) << ds.ToString();
  return d;
}

QueryTrajectory WalkTrajectory(Rng* rng, double t0, double t1, int legs,
                               double side) {
  std::vector<KeySnapshot> keys;
  Vec pos(rng->Uniform(20, 80), rng->Uniform(20, 80));
  keys.emplace_back(t0, Box::Centered(pos, side));
  const double dt = (t1 - t0) / legs;
  for (int j = 1; j <= legs; ++j) {
    pos = Vec(std::clamp(pos[0] + rng->Uniform(-8, 8), 5.0, 95.0),
              std::clamp(pos[1] + rng->Uniform(-8, 8), 5.0, 95.0));
    keys.emplace_back(t0 + j * dt, Box::Centered(pos, side));
  }
  return QueryTrajectory::Make(std::move(keys)).value();
}

/// Pins the kernel dispatch level for one scope.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { ForceSimdLevel(level); }
  ~ScopedSimdLevel() { ForceSimdLevel(std::nullopt); }
};

bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// SoA decode == AoS decode, field for field.

TEST(SoaDecodeTest, LeafMatchesAosDecode) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 131 + (skewed ? 7 : 0));
      for (int count : {0, 1, 3, 4, 5, LeafCapacity(2)}) {
        const Decoded d = RoundTrip(MakeLeaf(&rng, count, skewed));
        ASSERT_EQ(d.soa.count, d.aos.count());
        EXPECT_TRUE(d.soa.is_leaf());
        EXPECT_EQ(d.soa.self, d.aos.self);
        EXPECT_EQ(d.soa.stamp, d.aos.stamp);
        EXPECT_EQ(d.soa.level, d.aos.level);
        EXPECT_EQ(d.soa.dims, d.aos.dims);
        for (int k = 0; k < d.soa.count; ++k) {
          const MotionSegment& a = d.aos.segments[static_cast<size_t>(k)];
          const MotionSegment b = d.soa.SegmentAt(k);
          EXPECT_EQ(a.oid, b.oid);
          EXPECT_EQ(a.seg.time, b.seg.time);
          EXPECT_EQ(a.seg.p0, b.seg.p0);
          EXPECT_EQ(a.seg.p1, b.seg.p1);
          const size_t i = static_cast<size_t>(k);
          EXPECT_EQ(d.soa.t_lo[i], a.seg.time.lo);
          EXPECT_EQ(d.soa.t_hi[i], a.seg.time.hi);
        }
      }
    }
  }
}

TEST(SoaDecodeTest, InternalMatchesAosDecode) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 137 + (skewed ? 3 : 0));
      for (int count : {0, 1, 4, 7, InternalCapacity(2)}) {
        const Decoded d = RoundTrip(MakeInternal(&rng, count, skewed));
        ASSERT_EQ(d.soa.count, d.aos.count());
        EXPECT_FALSE(d.soa.is_leaf());
        for (int k = 0; k < d.soa.count; ++k) {
          const ChildEntry& a = d.aos.children[static_cast<size_t>(k)];
          const ChildEntry b = d.soa.ChildEntryAt(k);
          EXPECT_EQ(a.child, b.child);
          EXPECT_EQ(a.start_times, b.start_times);
          EXPECT_EQ(a.end_times, b.end_times);
          EXPECT_EQ(a.bounds.time, b.bounds.time);
          for (int i = 0; i < d.soa.dims; ++i) {
            EXPECT_EQ(a.bounds.spatial.extent(i), b.bounds.spatial.extent(i));
          }
          // The combined-interval invariant survives the SoA decode.
          EXPECT_EQ(b.bounds.time.lo, b.start_times.lo);
          EXPECT_EQ(b.bounds.time.hi, b.end_times.hi);
          const StBox eb = d.soa.EntryBoundsAt(k);
          EXPECT_EQ(eb.time, a.bounds.time);
          for (int i = 0; i < d.soa.dims; ++i) {
            EXPECT_EQ(eb.spatial.extent(i), a.bounds.spatial.extent(i));
          }
        }
      }
    }
  }
}

/// Column reuse: decoding a smaller node into a previously-used SoaNode must
/// not leak stale entries.
TEST(SoaDecodeTest, DecodeReusesColumnsWithoutStaleEntries) {
  Rng rng(99);
  SoaNode soa;
  uint8_t page[kPageSize];
  const Node big = MakeLeaf(&rng, 64, false);
  ASSERT_TRUE(big.SerializeTo(PageView(page, kPageSize)).ok());
  ASSERT_TRUE(soa.DecodeFrom(page, big.self).ok());
  const Node small = MakeLeaf(&rng, 3, false);
  ASSERT_TRUE(small.SerializeTo(PageView(page, kPageSize)).ok());
  ASSERT_TRUE(soa.DecodeFrom(page, small.self).ok());
  ASSERT_EQ(soa.count, 3);
  const Decoded d = RoundTrip(small);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(soa.SegmentAt(k).key(), d.aos.segments[static_cast<size_t>(k)].key());
  }
}

// ---------------------------------------------------------------------------
// Kernel equivalence, scalar tier: each batch kernel against the scalar
// per-entry predicate it batches.

TEST(KernelEquivalenceTest, PdqBoxBatchMatchesTrajectoryOverlapTimes) {
  ScopedSimdLevel force(SimdLevel::kScalar);
  std::vector<TimeSet> batch;  // Reused across nodes: exercises Clear().
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 211 + (skewed ? 5 : 0));
      const QueryTrajectory traj = WalkTrajectory(&rng, 10, 60, 6, 12.0);
      const TrajectoryCoeffs coeffs = TrajectoryCoeffs::Build(traj);
      for (int count : {1, 4, 5, InternalCapacity(2)}) {
        const Decoded d = RoundTrip(MakeInternal(&rng, count, skewed));
        PdqOverlapBoxBatch(coeffs, d.soa, &batch);
        ASSERT_GE(batch.size(), static_cast<size_t>(count));
        for (int k = 0; k < count; ++k) {
          const TimeSet expected =
              traj.OverlapTimes(d.aos.children[static_cast<size_t>(k)].bounds);
          EXPECT_EQ(batch[static_cast<size_t>(k)], expected)
              << "seed " << seed << " entry " << k;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, PdqSegmentsBatchMatchesTrajectoryOverlapTimes) {
  std::vector<TimeSet> batch;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 223 + (skewed ? 11 : 0));
      const QueryTrajectory traj = WalkTrajectory(&rng, 0, 100, 6, 14.0);
      const TrajectoryCoeffs coeffs = TrajectoryCoeffs::Build(traj);
      for (int count : {1, 3, LeafCapacity(2)}) {
        const Decoded d = RoundTrip(MakeLeaf(&rng, count, skewed));
        PdqOverlapSegmentsBatch(coeffs, d.soa, &batch);
        ASSERT_GE(batch.size(), static_cast<size_t>(count));
        for (int k = 0; k < count; ++k) {
          const TimeSet expected =
              traj.OverlapTimes(d.aos.segments[static_cast<size_t>(k)].seg);
          EXPECT_EQ(batch[static_cast<size_t>(k)], expected)
              << "seed " << seed << " entry " << k;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, NpdqClassifyBatchMatchesDiscardable) {
  std::vector<uint8_t> cls;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 227 + (skewed ? 13 : 0));
      const Decoded d = RoundTrip(MakeInternal(&rng, InternalCapacity(2), skewed));
      for (int rep = 0; rep < 10; ++rep) {
        // Overlapping consecutive snapshots, as NPDQ produces them.
        const StBox p = RandomQueryBox(&rng, 2, 100, 100);
        StBox q = p;
        q.time = Interval(p.time.lo + 0.1, p.time.hi + 0.3);
        for (int i = 0; i < 2; ++i) {
          q.spatial.extent(i).lo += rng.Uniform(-3, 3);
          q.spatial.extent(i).hi += rng.Uniform(-3, 3);
          if (q.spatial.extent(i).empty()) {
            q.spatial.extent(i) = p.spatial.extent(i);
          }
        }
        for (SpatialPruning pruning : {SpatialPruning::kIntersectionContained,
                                       SpatialPruning::kNodeContained}) {
          const bool lemma1 =
              pruning == SpatialPruning::kIntersectionContained;
          for (const StBox* prev : {&p, static_cast<const StBox*>(nullptr)}) {
            NpdqClassifyBatch(prev, q, lemma1, d.soa, &cls);
            ASSERT_EQ(cls.size(), static_cast<size_t>(d.soa.count));
            for (int k = 0; k < d.soa.count; ++k) {
              const ChildEntry& e = d.aos.children[static_cast<size_t>(k)];
              uint8_t expected = kNpdqVisit;
              if (!e.bounds.Overlaps(q)) {
                expected = kNpdqSkip;
              } else if (prev != nullptr && Discardable(*prev, q, e, pruning)) {
                expected = kNpdqDiscard;
              }
              EXPECT_EQ(cls[static_cast<size_t>(k)], expected)
                  << "seed " << seed << " entry " << k << " lemma1 " << lemma1
                  << " prev " << (prev != nullptr);
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, NpdqLeafMatchBatchMatchesLegacyLeafTest) {
  // The scalar leaf predicate — including its QuantizeOutward step, which
  // the kernel elides as the identity on float-widened columns — on both
  // semantics, with and without a usable previous snapshot, on every
  // dispatch tier the CPU offers.
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (CpuHasAvx2()) levels.push_back(SimdLevel::kAvx2);
  std::vector<uint8_t> match;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 239 + (skewed ? 23 : 0));
      for (int count : {1, 3, 4, 5, 8, LeafCapacity(2)}) {
        const Decoded d = RoundTrip(MakeLeaf(&rng, count, skewed));
        for (int rep = 0; rep < 6; ++rep) {
          const StBox p = RandomQueryBox(&rng, 2, 100, 100);
          StBox q = p;
          q.time = Interval(p.time.lo + 0.1, p.time.hi + 0.3);
          for (int i = 0; i < 2; ++i) {
            q.spatial.extent(i).lo += rng.Uniform(-3, 3);
            q.spatial.extent(i).hi += rng.Uniform(-3, 3);
            if (q.spatial.extent(i).empty()) {
              q.spatial.extent(i) = p.spatial.extent(i);
            }
          }
          for (bool exact : {false, true}) {
            for (const StBox* prev :
                 {&p, static_cast<const StBox*>(nullptr)}) {
              for (SimdLevel level : levels) {
                ScopedSimdLevel force(level);
                NpdqLeafMatchBatch(prev, q, exact, d.soa, &match);
                ASSERT_EQ(match.size(), static_cast<size_t>(count));
                for (int k = 0; k < count; ++k) {
                  const MotionSegment& m =
                      d.aos.segments[static_cast<size_t>(k)];
                  const bool in_q =
                      exact ? m.seg.Intersects(q)
                            : QuantizeOutward(m.Bounds()).Overlaps(q);
                  const bool in_p =
                      prev != nullptr &&
                      (exact ? m.seg.Intersects(*prev)
                             : QuantizeOutward(m.Bounds()).Overlaps(*prev));
                  EXPECT_EQ(match[static_cast<size_t>(k)] != 0,
                            in_q && !in_p)
                      << "seed " << seed << " entry " << k << " exact "
                      << exact << " prev " << (prev != nullptr) << " level "
                      << SimdLevelName(level);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, KnnBatchesMatchLegacyDistances) {
  ScopedSimdLevel force(SimdLevel::kScalar);
  std::vector<double> dist;
  std::vector<uint8_t> alive;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 229 + (skewed ? 17 : 0));
      const Decoded leaf = RoundTrip(MakeLeaf(&rng, LeafCapacity(2), skewed));
      const Decoded inner =
          RoundTrip(MakeInternal(&rng, InternalCapacity(2), skewed));
      for (int rep = 0; rep < 8; ++rep) {
        const Vec point(rng.Uniform(0, 100), rng.Uniform(0, 100));
        // Half the probes sit exactly on a stored time bound (the Contains
        // boundary the alive mask must reproduce).
        const double t =
            (rep % 2 == 0)
                ? rng.Uniform(0, 100)
                : leaf.soa.t_lo[rng.UniformU64(
                      static_cast<uint64_t>(leaf.soa.count))];
        KnnLeafDistanceBatch(leaf.soa, t, point, &dist, &alive);
        ASSERT_EQ(dist.size(), static_cast<size_t>(leaf.soa.count));
        for (int k = 0; k < leaf.soa.count; ++k) {
          const StSegment& s = leaf.aos.segments[static_cast<size_t>(k)].seg;
          EXPECT_EQ(alive[static_cast<size_t>(k)] != 0, s.time.Contains(t));
          if (alive[static_cast<size_t>(k)] != 0) {
            EXPECT_EQ(dist[static_cast<size_t>(k)], s.DistanceAt(t, point))
                << "seed " << seed << " leaf entry " << k;
          }
        }
        KnnEntryDistanceBatch(inner.soa, t, point, &dist, &alive);
        ASSERT_EQ(dist.size(), static_cast<size_t>(inner.soa.count));
        for (int k = 0; k < inner.soa.count; ++k) {
          const StBox& b = inner.aos.children[static_cast<size_t>(k)].bounds;
          EXPECT_EQ(alive[static_cast<size_t>(k)] != 0, b.time.Contains(t));
          if (alive[static_cast<size_t>(k)] != 0) {
            EXPECT_EQ(dist[static_cast<size_t>(k)],
                      b.spatial.MinDistance(point))
                << "seed " << seed << " entry " << k;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 tier: bit-identical to the scalar tier on every dispatching kernel.

TEST(SimdDispatchTest, ForcedLevelsRoundTrip) {
  ForceSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ForceSimdLevel(std::nullopt);
  const SimdLevel detected = ActiveSimdLevel();
  if (!CpuHasAvx2()) {
    EXPECT_EQ(detected, SimdLevel::kScalar);
  }
  EXPECT_STRNE(SimdLevelName(detected), "");
}

TEST(SimdDispatchTest, Avx2MatchesScalarBitExactly) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  std::vector<TimeSet> box_scalar, box_avx2;
  std::vector<double> dist_scalar, dist_avx2;
  std::vector<uint8_t> alive_scalar, alive_avx2;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (bool skewed : {false, true}) {
      Rng rng(seed * 233 + (skewed ? 19 : 0));
      const QueryTrajectory traj = WalkTrajectory(&rng, 10, 60, 6, 12.0);
      const TrajectoryCoeffs coeffs = TrajectoryCoeffs::Build(traj);
      // Counts around the 4-lane width exercise every tail length.
      for (int count : {1, 3, 4, 5, 8, 11, InternalCapacity(2)}) {
        const Decoded inner = RoundTrip(MakeInternal(&rng, count, skewed));
        const Decoded leaf = RoundTrip(MakeLeaf(&rng, count, skewed));
        const Vec point(rng.Uniform(0, 100), rng.Uniform(0, 100));
        const double t = rng.Uniform(0, 100);
        {
          ScopedSimdLevel force(SimdLevel::kScalar);
          PdqOverlapBoxBatch(coeffs, inner.soa, &box_scalar);
          KnnEntryDistanceBatch(inner.soa, t, point, &dist_scalar,
                                &alive_scalar);
        }
        std::vector<double> entry_dist_scalar = dist_scalar;
        std::vector<uint8_t> entry_alive_scalar = alive_scalar;
        {
          ScopedSimdLevel force(SimdLevel::kAvx2);
          PdqOverlapBoxBatch(coeffs, inner.soa, &box_avx2);
          KnnEntryDistanceBatch(inner.soa, t, point, &dist_avx2, &alive_avx2);
        }
        for (int k = 0; k < count; ++k) {
          const size_t i = static_cast<size_t>(k);
          EXPECT_EQ(box_scalar[i], box_avx2[i]) << "box entry " << k;
          EXPECT_EQ(entry_alive_scalar[i], alive_avx2[i]);
          if (entry_alive_scalar[i] != 0) {
            // Bit-exact, not approximately equal.
            EXPECT_EQ(entry_dist_scalar[i], dist_avx2[i]);
          }
        }
        {
          ScopedSimdLevel force(SimdLevel::kScalar);
          KnnLeafDistanceBatch(leaf.soa, t, point, &dist_scalar,
                               &alive_scalar);
        }
        {
          ScopedSimdLevel force(SimdLevel::kAvx2);
          KnnLeafDistanceBatch(leaf.soa, t, point, &dist_avx2, &alive_avx2);
        }
        for (int k = 0; k < count; ++k) {
          const size_t i = static_cast<size_t>(k);
          EXPECT_EQ(alive_scalar[i], alive_avx2[i]);
          if (alive_scalar[i] != 0) {
            EXPECT_EQ(dist_scalar[i], dist_avx2[i]);
          }
        }
      }
    }
  }
}

/// Signed zeros and boundary instants: the cases where vminpd/vmaxpd would
/// diverge from std::min/std::max. The AVX2 kernels must not use them.
TEST(SimdDispatchTest, Avx2MatchesScalarOnSignedZerosAndBoundaries) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  Node node;
  node.self = 3;
  node.level = 0;
  node.dims = 2;
  for (int i = 0; i < 6; ++i) {
    const double z = (i % 2 == 0) ? 0.0 : -0.0;
    StSegment s(Vec(z, -0.0), Vec(0.0, z), Interval(1.0, 1.0 + i));
    node.segments.push_back(
        MotionSegment(static_cast<ObjectId>(i), QuantizeStored(s)));
  }
  const Decoded d = RoundTrip(node);
  std::vector<double> ds, da;
  std::vector<uint8_t> as, aa;
  for (double t : {1.0, 2.0, 6.0, 0.5}) {
    for (const Vec& point : {Vec(0.0, 0.0), Vec(-0.0, -0.0), Vec(1.0, -1.0)}) {
      {
        ScopedSimdLevel force(SimdLevel::kScalar);
        KnnLeafDistanceBatch(d.soa, t, point, &ds, &as);
      }
      {
        ScopedSimdLevel force(SimdLevel::kAvx2);
        KnnLeafDistanceBatch(d.soa, t, point, &da, &aa);
      }
      ASSERT_EQ(as, aa);
      for (size_t k = 0; k < ds.size(); ++k) {
        if (as[k] != 0) {
          EXPECT_EQ(ds[k], da[k]) << "t " << t << " entry " << k;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DecodedNodeCache unit behavior.

std::shared_ptr<const SoaNode> MakeCachedNode(PageId id) {
  auto node = std::make_shared<SoaNode>();
  node->self = id;
  node->level = 0;
  return node;
}

TEST(DecodedNodeCacheTest, LookupInsertCountsHitsAndMisses) {
  DecodedNodeCache cache(4, 1);
  EXPECT_EQ(cache.Lookup(5), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  auto node = MakeCachedNode(5);
  cache.Insert(5, node);
  EXPECT_EQ(cache.Lookup(5).get(), node.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.cached_nodes(), 1u);
}

TEST(DecodedNodeCacheTest, EvictsLeastRecentlyUsed) {
  DecodedNodeCache cache(2, 1);  // One shard: deterministic LRU order.
  cache.Insert(1, MakeCachedNode(1));
  cache.Insert(2, MakeCachedNode(2));
  ASSERT_NE(cache.Lookup(1), nullptr);  // 1 becomes most recent.
  cache.Insert(3, MakeCachedNode(3));   // Evicts 2.
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.cached_nodes(), 2u);
}

TEST(DecodedNodeCacheTest, InvalidateAndClearDropEntries) {
  DecodedNodeCache cache(8, 2);
  for (PageId id = 1; id <= 6; ++id) cache.Insert(id, MakeCachedNode(id));
  cache.Invalidate(3);
  EXPECT_EQ(cache.Lookup(3), nullptr);
  EXPECT_NE(cache.Lookup(4), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.cached_nodes(), 0u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(DecodedNodeCacheTest, HeldPointerSurvivesEviction) {
  DecodedNodeCache cache(1, 1);
  auto pinned = MakeCachedNode(11);
  cache.Insert(11, pinned);
  std::shared_ptr<const SoaNode> held = cache.Lookup(11);
  cache.Insert(12, MakeCachedNode(12));  // Evicts 11.
  EXPECT_EQ(cache.Lookup(11), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->self, 11u);  // Refcount pinning: still readable.
}

// ---------------------------------------------------------------------------
// Whole-query accounting: PDQ, NPDQ and kNN over one fixed tree, with every
// counter of the query's cost account and a checksum of its answers pinned.
// The pins are the values a per-entry AoS loop produced on these fixtures
// (one distance computation per entry of every loaded node), with the same
// answers, so they hold the batch kernels to the paper's account.

class QueryAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tree = RTree::Create(&file_, RTree::Options());
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
    Rng rng(4242);
    for (const auto& m : RandomSegments(&rng, 500, 2, 100, 100)) {
      ASSERT_TRUE(tree_->Insert(m).ok());
    }
  }

  PageFile file_;
  std::unique_ptr<RTree> tree_;
};

TEST_F(QueryAccountingTest, PdqFramesAndStatsMatchPinnedCounts) {
  Rng rng(7);
  const QueryTrajectory traj = WalkTrajectory(&rng, 10, 50, 8, 10.0);
  auto pdq = PredictiveDynamicQuery::Make(tree_.get(), traj);
  ASSERT_TRUE(pdq.ok());
  uint64_t checksum = kFoldSeed;
  double prev = 10;
  for (int i = 1; i <= 40; ++i) {
    const double t = 10 + i * 1.0;
    auto frame = (*pdq)->Frame(prev, t);
    ASSERT_TRUE(frame.ok());
    FoldAnswer(&checksum, static_cast<uint64_t>(frame->size()));
    for (const PdqResult& r : *frame) {
      FoldAnswer(&checksum, static_cast<uint64_t>(r.motion.oid));
      FoldAnswer(&checksum, r.motion.seg.time.lo);
      for (const Interval& iv : r.visible_times.intervals()) {
        FoldAnswer(&checksum, iv.lo);
        FoldAnswer(&checksum, iv.hi);
      }
    }
    prev = t;
  }
  EXPECT_EQ(AccountOf((*pdq)->stats(), checksum),
            (QueryAccount{4, 3, 308, 16, 0, 20, 20, 0,
                          0xec9afd9cbf92514ULL}));
}

TEST_F(QueryAccountingTest, NpdqSequencesAndStatsMatchPinnedCounts) {
  // {pruning, leaf semantics} -> account, in loop order.
  const QueryAccount pinned[] = {
      {62, 32, 3976, 54, 0, 0, 0, 0, 0x29eaa2f43ed89847ULL},
      {62, 32, 3976, 33, 0, 0, 0, 0, 0x97e6e234e03f498fULL},
      {62, 32, 3976, 54, 0, 0, 0, 0, 0x29eaa2f43ed89847ULL},
      {62, 32, 3976, 33, 0, 0, 0, 0, 0x97e6e234e03f498fULL},
  };
  int row = 0;
  for (SpatialPruning pruning : {SpatialPruning::kIntersectionContained,
                                 SpatialPruning::kNodeContained}) {
    for (LeafSemantics leaf : {LeafSemantics::kBoundingBox,
                               LeafSemantics::kExact}) {
      NpdqOptions options;
      options.spatial_pruning = pruning;
      options.leaf_semantics = leaf;
      NonPredictiveDynamicQuery npdq(tree_.get(), options);
      uint64_t checksum = kFoldSeed;
      Rng rng(11);
      Vec pos(50, 50);
      for (int i = 1; i <= 30; ++i) {
        pos = Vec(std::clamp(pos[0] + rng.Uniform(-5, 5), 10.0, 90.0),
                  std::clamp(pos[1] + rng.Uniform(-5, 5), 10.0, 90.0));
        const StBox q(Box::Centered(pos, 12.0),
                      Interval(10 + i * 0.8, 10 + (i + 1) * 0.8));
        auto fresh = npdq.Execute(q);
        ASSERT_TRUE(fresh.ok());
        const std::set<MotionSegment::Key> keys = KeysOf(*fresh);
        FoldAnswer(&checksum, static_cast<uint64_t>(keys.size()));
        for (const MotionSegment::Key& key : keys) {
          FoldAnswer(&checksum, static_cast<uint64_t>(key.oid));
          FoldAnswer(&checksum, key.t_start);
        }
      }
      EXPECT_EQ(AccountOf(npdq.stats(), checksum), pinned[row])
          << "pruning " << static_cast<int>(pruning) << ", leaf "
          << static_cast<int>(leaf);
      ++row;
    }
  }
}

TEST_F(QueryAccountingTest, KnnNeighborsAndStatsMatchPinnedCounts) {
  Rng rng(13);
  QueryStats stats;
  uint64_t checksum = kFoldSeed;
  for (int i = 0; i < 25; ++i) {
    const Vec point(rng.Uniform(0, 100), rng.Uniform(0, 100));
    const double t = rng.Uniform(0, 100);
    const int k = 1 + static_cast<int>(rng.UniformU64(12));
    auto neighbors = KnnAt(*tree_, point, t, k, &stats);
    ASSERT_TRUE(neighbors.ok());
    FoldAnswer(&checksum, static_cast<uint64_t>(neighbors->size()));
    for (const Neighbor& n : *neighbors) {
      FoldAnswer(&checksum, static_cast<uint64_t>(n.motion.oid));
      FoldAnswer(&checksum, n.motion.seg.time.lo);
      FoldAnswer(&checksum, n.distance);  // Bits, not approximately.
    }
  }
  EXPECT_EQ(AccountOf(stats, checksum),
            (QueryAccount{50, 25, 2161, 89, 0, 0, 0, 0,
                          0xf43c57d02033c2aeULL}));
}

// ---------------------------------------------------------------------------
// Decoded-node cache end-to-end: queries through the cache stay exact while
// inserts invalidate entries between rounds.

TEST(NodeCacheIntegrationTest, CachedQueriesStayExactUnderInserts) {
  PageFile file;
  auto tree_or = RTree::Create(&file, RTree::Options());
  ASSERT_TRUE(tree_or.ok());
  std::unique_ptr<RTree> tree = std::move(tree_or).value();
  DecodedNodeCache cache(256);
  tree->AttachNodeCache(&cache);

  Rng rng(31337);
  std::vector<MotionSegment> data = RandomSegments(&rng, 400, 2, 100, 100);
  for (const auto& m : data) ASSERT_TRUE(tree->Insert(m).ok());

  int next_oid = 100000;
  for (int round = 0; round < 12; ++round) {
    // A fresh NPDQ instance per round: every query is an independent
    // snapshot, answered through whatever the cache currently holds.
    NonPredictiveDynamicQuery npdq(tree.get());
    const StBox q = RandomQueryBox(&rng, 2, 100, 100);
    auto got = npdq.Execute(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(KeysOf(*got), KeysOf(dqmo::testing::BruteForceRangeBb(data, q)))
        << "round " << round;
    // Mutate: the inserts dirty pages, which must drop their cached
    // decodes (RTree::StoreNode invalidation) before the next round reads.
    for (int j = 0; j < 5; ++j) {
      const MotionSegment m =
          RandomSegment(&rng, static_cast<ObjectId>(next_oid++), 2, 100, 100);
      ASSERT_TRUE(tree->Insert(m).ok());
      data.push_back(m);
    }
  }
  // The cache actually served the traversals (and was populated at all).
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_GT(cache.cached_nodes(), 0u);
}

/// With a cache attached, repeated traversals hit instead of re-reading
/// pages; QueryStats counts those as decoded_hits, not node_reads.
TEST(NodeCacheIntegrationTest, RepeatQueriesHitTheCache) {
  PageFile file;
  auto tree_or = RTree::Create(&file, RTree::Options());
  ASSERT_TRUE(tree_or.ok());
  std::unique_ptr<RTree> tree = std::move(tree_or).value();
  Rng rng(555);
  for (const auto& m : RandomSegments(&rng, 300, 2, 100, 100)) {
    ASSERT_TRUE(tree->Insert(m).ok());
  }
  DecodedNodeCache cache(512);
  tree->AttachNodeCache(&cache);

  const StBox q = RandomQueryBox(&rng, 2, 100, 100);
  NonPredictiveDynamicQuery cold(tree.get());
  ASSERT_TRUE(cold.Execute(q).ok());
  const uint64_t cold_reads = cold.stats().node_reads.load();
  EXPECT_EQ(cold.stats().decoded_hits.load(), 0u);

  NonPredictiveDynamicQuery warm(tree.get());
  ASSERT_TRUE(warm.Execute(q).ok());
  EXPECT_EQ(warm.stats().node_reads.load(), 0u);
  EXPECT_EQ(warm.stats().decoded_hits.load(), cold_reads);
}

}  // namespace
}  // namespace dqmo
