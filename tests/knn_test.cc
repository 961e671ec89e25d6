// Tests for the kNN extension (future-work item (i)): snapshot best-first
// kNN against brute force, and the moving-query-point incremental variant.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "query/knn.h"
#include "test_util.h"
#include "workload/data_generator.h"

namespace dqmo {
namespace {

using ::dqmo::testing::RandomPoint;
using ::dqmo::testing::RandomSegments;

struct KnnFixture {
  PageFile file;
  std::unique_ptr<RTree> tree;
  std::vector<MotionSegment> data;
};

void BuildFixture(KnnFixture* fx, uint64_t seed, int n = 4000) {
  auto tree = RTree::Create(&fx->file, RTree::Options());
  ASSERT_TRUE(tree.ok());
  fx->tree = std::move(tree).value();
  Rng rng(seed);
  fx->data = RandomSegments(&rng, n, 2, 100, 100, /*max_duration=*/5.0);
  for (const auto& m : fx->data) ASSERT_TRUE(fx->tree->Insert(m).ok());
}

std::vector<Neighbor> BruteForceKnn(const std::vector<MotionSegment>& data,
                                    const Vec& point, double t, int k) {
  std::vector<Neighbor> all;
  for (const auto& m : data) {
    if (!m.seg.time.Contains(t)) continue;
    all.push_back(Neighbor{m, m.seg.DistanceAt(t, point)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  });
  if (static_cast<int>(all.size()) > k) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

TEST(KnnTest, RejectsBadArguments) {
  KnnFixture fx;
  BuildFixture(&fx, 1, 200);
  QueryStats stats;
  EXPECT_TRUE(KnnAt(*fx.tree, Vec(1.0, 1.0), 5.0, 0, &stats)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(KnnAt(*fx.tree, Vec(1.0, 1.0, 1.0), 5.0, 3, &stats)
                  .status()
                  .IsInvalidArgument());
}

class KnnEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KnnEquivalence, MatchesBruteForce) {
  const int k = GetParam();
  KnnFixture fx;
  BuildFixture(&fx, static_cast<uint64_t>(k) * 13);
  Rng rng(static_cast<uint64_t>(k) + 100);
  for (int trial = 0; trial < 30; ++trial) {
    const Vec point = RandomPoint(&rng, 2, 100);
    const double t = rng.Uniform(0.0, 100.0);
    QueryStats stats;
    auto result = KnnAt(*fx.tree, point, t, k, &stats);
    ASSERT_TRUE(result.ok());
    const auto expected = BruteForceKnn(fx.data, point, t, k);
    ASSERT_EQ(result->size(), expected.size());
    for (size_t i = 0; i < result->size(); ++i) {
      // Distances must agree exactly (ties may reorder equal-distance
      // neighbors, so compare the distance sequence).
      EXPECT_DOUBLE_EQ((*result)[i].distance, expected[i].distance);
    }
    // Result is sorted ascending.
    for (size_t i = 1; i < result->size(); ++i) {
      EXPECT_LE((*result)[i - 1].distance, (*result)[i].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnEquivalence, ::testing::Values(1, 5, 20));

TEST(KnnTest, FewerThanKAliveReturnsAll) {
  KnnFixture fx;
  BuildFixture(&fx, 7, 30);
  QueryStats stats;
  const double t = 50.0;
  auto result = KnnAt(*fx.tree, Vec(50, 50), t, 1000, &stats);
  ASSERT_TRUE(result.ok());
  size_t alive = 0;
  for (const auto& m : fx.data) {
    if (m.seg.time.Contains(t)) ++alive;
  }
  EXPECT_EQ(result->size(), alive);
}

TEST(KnnTest, PruneBoundLimitsResults) {
  KnnFixture fx;
  BuildFixture(&fx, 8);
  QueryStats stats;
  const Vec point(50, 50);
  const double t = 42.0;
  KnnOptions options;
  options.prune_bound = 5.0;
  auto bounded = KnnAt(*fx.tree, point, t, 100, &stats, options);
  ASSERT_TRUE(bounded.ok());
  for (const auto& n : *bounded) EXPECT_LE(n.distance, 5.0);
}

// Fixture over *continuous* trajectories (all objects alive over the whole
// horizon, consecutive segments joining) — the documented soundness domain
// of the moving-kNN fence.
struct ContinuousKnnFixture {
  PageFile file;
  std::unique_ptr<RTree> tree;
  std::vector<MotionSegment> data;
};

void BuildContinuousFixture(ContinuousKnnFixture* fx, uint64_t seed,
                            int objects = 300) {
  auto tree = RTree::Create(&fx->file, RTree::Options());
  ASSERT_TRUE(tree.ok());
  fx->tree = std::move(tree).value();
  DataGeneratorOptions options;
  options.num_objects = objects;
  options.horizon = 50.0;
  options.seed = seed;
  auto data = GenerateMotionData(options);
  ASSERT_TRUE(data.ok());
  fx->data = std::move(*data);
  for (auto& m : fx->data) {
    m.seg = QuantizeStored(m.seg);  // Match the stored form exactly.
    ASSERT_TRUE(fx->tree->Insert(m).ok());
  }
}

// Float32 quantization can open tiny gaps between consecutive segments of
// one object; give the fence that much slack.
constexpr double kQuantizationMargin = 1e-3;

TEST(MovingKnnTest, MatchesSnapshotKnnAtEachStep) {
  ContinuousKnnFixture fx;
  BuildContinuousFixture(&fx, 9);
  MovingKnnQuery::Options options;
  options.discontinuity_margin = kQuantizationMargin;
  MovingKnnQuery moving(fx.tree.get(), 10, options);
  Rng rng(91);
  Vec point(20, 20);
  // Fine steps: cached candidates survive between instants often enough to
  // exercise the cache path (segment turnover invalidates it otherwise).
  for (double t = 10.0; t < 14.0; t += 0.05) {
    point[0] += rng.Uniform(0.0, 0.1);
    point[1] += rng.Uniform(0.0, 0.1);
    auto incremental = moving.At(t, point);
    ASSERT_TRUE(incremental.ok());
    const auto expected = BruteForceKnn(fx.data, point, t, 10);
    ASSERT_EQ(incremental->size(), expected.size()) << "t=" << t;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ((*incremental)[i].distance, expected[i].distance)
          << "t=" << t << " i=" << i;
    }
  }
  // The cache must actually have been exercised for this check to mean
  // anything.
  EXPECT_GT(moving.cache_answers(), 0u);
  EXPECT_GT(moving.full_searches(), 0u);
}

TEST(MovingKnnTest, RejectsTimeGoingBackwards) {
  KnnFixture fx;
  BuildFixture(&fx, 10, 500);
  MovingKnnQuery moving(fx.tree.get(), 3);
  ASSERT_TRUE(moving.At(5.0, Vec(10, 10)).ok());
  EXPECT_TRUE(moving.At(4.0, Vec(10, 10)).status().IsInvalidArgument());
}

TEST(MovingKnnTest, FenceAnswersFromCacheForSmoothMotion) {
  ContinuousKnnFixture fx;
  BuildContinuousFixture(&fx, 11, 800);
  const int k = 5;
  MovingKnnQuery::Options options;
  options.discontinuity_margin = kQuantizationMargin;
  MovingKnnQuery moving(fx.tree.get(), k, options);
  // Slow query (0.04 u/t in a space where objects move ~1 u/t): most steps
  // must be answered from the cache, with zero disk accesses.
  for (double t = 10.0; t <= 20.0; t += 0.01) {
    ASSERT_TRUE(moving.At(t, Vec(30.0 + 4 * (t - 10.0) * 0.01, 50.0)).ok());
  }
  EXPECT_GT(moving.cache_answers(), moving.full_searches());
  const uint64_t incremental_reads = moving.stats().node_reads;
  // Fresh searches at the same instants cost far more I/O.
  QueryStats fresh;
  for (double t = 10.0; t <= 20.0; t += 0.01) {
    ASSERT_TRUE(KnnAt(*fx.tree, Vec(30.0 + 4 * (t - 10.0) * 0.01, 50.0), t,
                      k, &fresh)
                    .ok());
  }
  EXPECT_LT(incremental_reads, fresh.node_reads / 4);
}

TEST(MovingKnnTest, InsertionInvalidatesCache) {
  ContinuousKnnFixture fx;
  BuildContinuousFixture(&fx, 12, 200);
  MovingKnnQuery::Options options;
  options.discontinuity_margin = kQuantizationMargin;
  MovingKnnQuery moving(fx.tree.get(), 5, options);
  ASSERT_TRUE(moving.At(10.0, Vec(50, 50)).ok());
  ASSERT_TRUE(moving.At(10.01, Vec(50, 50)).ok());
  const uint64_t cache_hits_before = moving.cache_answers();
  EXPECT_GT(cache_hits_before, 0u);
  // Insert a brand-new object right at the query point: the stamp guard
  // must force a full search that finds it.
  MotionSegment intruder(
      999999, StSegment(Vec(50, 50), Vec(50, 50), Interval(10.0, 12.0)));
  ASSERT_TRUE(fx.tree->Insert(intruder).ok());
  auto result = moving.At(10.02, Vec(50, 50));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(moving.cache_answers(), cache_hits_before);  // No stale answer.
  ASSERT_FALSE(result->empty());
  EXPECT_EQ(result->front().motion.oid, 999999u);
  EXPECT_NEAR(result->front().distance, 0.0, 1e-9);
}

}  // namespace
}  // namespace dqmo
