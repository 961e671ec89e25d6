// Degraded-result semantics under injected storage faults: every query
// path (RangeSearch, PDQ, NPDQ, kNN, the session controller) either fails
// fast with the typed error or completes over the readable subtree with the
// documented subset/integrity contract (rtree/fault_policy.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "query/pdq.h"
#include "query/session.h"
#include "rtree/rtree.h"
#include "storage/fault.h"
#include "test_util.h"

namespace dqmo {
namespace {

using ::dqmo::testing::KeysOf;
using ::dqmo::testing::RandomSegments;

struct Fixture {
  PageFile file;
  std::unique_ptr<RTree> tree;
  std::vector<MotionSegment> data;
};

void BuildFixture(Fixture* fx, uint64_t seed, int n = 3000) {
  auto tree = RTree::Create(&fx->file, RTree::Options());
  ASSERT_TRUE(tree.ok());
  fx->tree = std::move(tree).value();
  Rng rng(seed);
  fx->data = RandomSegments(&rng, n, 2, 100, 100, /*max_duration=*/5.0);
  for (const auto& m : fx->data) ASSERT_TRUE(fx->tree->Insert(m).ok());
}

bool IsSubset(const std::set<MotionSegment::Key>& a,
              const std::set<MotionSegment::Key>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

StBox CenteredQuery(double x, double y, double side, double t0, double t1) {
  return StBox(Box::Centered(Vec(x, y), side), Interval(t0, t1));
}

/// Faults every traversal must survive: a seeded transient stream absorbed
/// by zero retries, i.e. each injected fault becomes a skip.
FaultInjector::Options TransientFaults(uint64_t seed, double rate) {
  FaultInjector::Options options;
  options.seed = seed;
  options.transient_fault_rate = rate;
  return options;
}

class DegradedQueryTest : public ::testing::TestWithParam<uint64_t> {};

// --------------------------------------------------------------------------
// Snapshot (RangeSearch).

TEST_P(DegradedQueryTest, RangeSearchSkipSubtreeIsSubsetAndFlagged) {
  Fixture fx;
  BuildFixture(&fx, GetParam());
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    const StBox q =
        testing::RandomQueryBox(&rng, 2, 100, 100, /*max_side=*/40.0);
    QueryStats clean_stats;
    auto clean = fx.tree->RangeSearch(q, &clean_stats);
    ASSERT_TRUE(clean.ok());

    FaultInjector injector(TransientFaults(GetParam() + trial, 0.05));
    FaultyPageReader faulty(&fx.file, &injector);
    RTree::SearchOptions opts;
    opts.reader = &faulty;
    opts.fault_policy = FaultPolicy::kSkipSubtree;
    SkipReport report;
    opts.skip_report = &report;
    QueryStats stats;
    auto degraded = fx.tree->RangeSearch(q, &stats, opts);
    ASSERT_TRUE(degraded.ok());

    // Subset of the fault-free answer; kPartial exactly when skips happened.
    EXPECT_TRUE(IsSubset(KeysOf(*degraded), KeysOf(*clean)));
    EXPECT_EQ(report.integrity() == ResultIntegrity::kPartial,
              report.pages_skipped() > 0);
    EXPECT_EQ(stats.pages_skipped, report.pages_skipped());
    if (report.pages_skipped() == 0) {
      EXPECT_EQ(KeysOf(*degraded), KeysOf(*clean));
    }
  }
}

TEST_P(DegradedQueryTest, RangeSearchFailFastSurfacesTypedError) {
  Fixture fx;
  BuildFixture(&fx, GetParam(), 500);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(fx.tree->root());
  FaultyPageReader faulty(&fx.file, &injector);
  RTree::SearchOptions opts;
  opts.reader = &faulty;  // fault_policy defaults to kFailFast.
  QueryStats stats;
  const Status s = fx.tree->RangeSearch(CenteredQuery(50, 50, 40, 0, 100),
                                        &stats, opts)
                       .status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(stats.pages_skipped, 0u);
}

TEST_P(DegradedQueryTest, RangeSearchDeadRootSkipsToEmptyPartialResult) {
  Fixture fx;
  BuildFixture(&fx, GetParam(), 500);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(fx.tree->root());
  FaultyPageReader faulty(&fx.file, &injector);
  RTree::SearchOptions opts;
  opts.reader = &faulty;
  opts.fault_policy = FaultPolicy::kSkipSubtree;
  SkipReport report;
  opts.skip_report = &report;
  QueryStats stats;
  auto result =
      fx.tree->RangeSearch(CenteredQuery(50, 50, 40, 0, 100), &stats, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(report.pages_skipped(), 1u);
  EXPECT_EQ(report.integrity(), ResultIntegrity::kPartial);
  EXPECT_TRUE(report.last_cause().IsIOError());
}

// --------------------------------------------------------------------------
// PDQ.

TEST_P(DegradedQueryTest, PdqSkipSubtreeDeliversSubset) {
  Fixture fx;
  BuildFixture(&fx, GetParam());
  std::vector<KeySnapshot> keys;
  keys.emplace_back(0.0, Box::Centered(Vec(20, 20), 25.0));
  keys.emplace_back(100.0, Box::Centered(Vec(80, 80), 25.0));
  auto trajectory = QueryTrajectory::Make(std::move(keys));
  ASSERT_TRUE(trajectory.ok());

  // Fault-free run.
  auto clean_pdq = PredictiveDynamicQuery::Make(fx.tree.get(), *trajectory);
  ASSERT_TRUE(clean_pdq.ok());
  std::set<MotionSegment::Key> clean_keys;
  for (double t = 0.0; t < 100.0; t += 5.0) {
    auto frame = (*clean_pdq)->Frame(t, t + 5.0);
    ASSERT_TRUE(frame.ok());
    for (const PdqResult& r : *frame) clean_keys.insert(r.motion.key());
  }

  // Degraded run over the same trajectory.
  FaultInjector injector(TransientFaults(GetParam() + 5, 0.05));
  FaultyPageReader faulty(&fx.file, &injector);
  PredictiveDynamicQuery::Options options;
  options.reader = &faulty;
  options.fault_policy = FaultPolicy::kSkipSubtree;
  auto pdq =
      PredictiveDynamicQuery::Make(fx.tree.get(), *trajectory, options);
  ASSERT_TRUE(pdq.ok());
  std::set<MotionSegment::Key> degraded_keys;
  for (double t = 0.0; t < 100.0; t += 5.0) {
    auto frame = (*pdq)->Frame(t, t + 5.0);
    ASSERT_TRUE(frame.ok());
    for (const PdqResult& r : *frame) degraded_keys.insert(r.motion.key());
  }
  EXPECT_TRUE(IsSubset(degraded_keys, clean_keys));
  EXPECT_EQ((*pdq)->integrity() == ResultIntegrity::kPartial,
            (*pdq)->skip_report().pages_skipped() > 0);
  if ((*pdq)->skip_report().pages_skipped() == 0) {
    EXPECT_EQ(degraded_keys, clean_keys);
  }
}

TEST_P(DegradedQueryTest, PdqFailFastSurfacesTypedError) {
  Fixture fx;
  BuildFixture(&fx, GetParam(), 500);
  std::vector<KeySnapshot> keys;
  keys.emplace_back(0.0, Box::Centered(Vec(50, 50), 30.0));
  keys.emplace_back(100.0, Box::Centered(Vec(50, 50), 30.0));
  auto trajectory = QueryTrajectory::Make(std::move(keys));
  ASSERT_TRUE(trajectory.ok());
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(fx.tree->root());
  FaultyPageReader faulty(&fx.file, &injector);
  PredictiveDynamicQuery::Options options;
  options.reader = &faulty;
  auto pdq =
      PredictiveDynamicQuery::Make(fx.tree.get(), *trajectory, options);
  ASSERT_TRUE(pdq.ok());
  const Status s = (*pdq)->Frame(0.0, 10.0).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// --------------------------------------------------------------------------
// NPDQ.

TEST_P(DegradedQueryTest, NpdqSkipSubtreeDeliversSubsetPerSequence) {
  Fixture fx;
  BuildFixture(&fx, GetParam());

  // The same drifting snapshot sequence, fault-free and degraded.
  auto run = [&fx](PageReader* reader, FaultPolicy policy,
                   uint64_t* skipped) {
    NpdqOptions options;
    options.reader = reader;
    options.fault_policy = policy;
    NonPredictiveDynamicQuery npdq(fx.tree.get(), options);
    std::set<MotionSegment::Key> delivered;
    *skipped = 0;
    for (int i = 0; i < 20; ++i) {
      const double t = 5.0 * i;
      auto out = npdq.Execute(
          CenteredQuery(20.0 + 3.0 * i, 20.0 + 3.0 * i, 25.0, t, t + 5.0));
      EXPECT_TRUE(out.ok());
      if (!out.ok()) break;
      for (const auto& m : *out) delivered.insert(m.key());
      *skipped += npdq.skip_report().pages_skipped();
      EXPECT_EQ(npdq.integrity() == ResultIntegrity::kPartial,
                npdq.skip_report().pages_skipped() > 0);
    }
    return delivered;
  };

  uint64_t clean_skipped = 0;
  const auto clean =
      run(nullptr, FaultPolicy::kFailFast, &clean_skipped);
  ASSERT_EQ(clean_skipped, 0u);

  FaultInjector injector(TransientFaults(GetParam() + 11, 0.05));
  FaultyPageReader faulty(&fx.file, &injector);
  uint64_t skipped = 0;
  const auto degraded =
      run(&faulty, FaultPolicy::kSkipSubtree, &skipped);
  EXPECT_TRUE(IsSubset(degraded, clean));
  if (skipped == 0) {
    EXPECT_EQ(degraded, clean);
  }
}

TEST_P(DegradedQueryTest, NpdqFailFastSurfacesTypedError) {
  Fixture fx;
  BuildFixture(&fx, GetParam(), 500);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(fx.tree->root());
  FaultyPageReader faulty(&fx.file, &injector);
  NpdqOptions options;
  options.reader = &faulty;
  NonPredictiveDynamicQuery npdq(fx.tree.get(), options);
  const Status s =
      npdq.Execute(CenteredQuery(50, 50, 30, 0, 10)).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// --------------------------------------------------------------------------
// kNN.

TEST_P(DegradedQueryTest, KnnSkipSubtreeKeepsDistancesCorrectAndSorted) {
  Fixture fx;
  BuildFixture(&fx, GetParam());
  Rng rng(GetParam() * 17 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const Vec point = testing::RandomPoint(&rng, 2, 100);
    const double t = rng.Uniform(0.0, 100.0);

    FaultInjector injector(TransientFaults(GetParam() + trial + 23, 0.05));
    FaultyPageReader faulty(&fx.file, &injector);
    KnnOptions options;
    options.reader = &faulty;
    options.fault_policy = FaultPolicy::kSkipSubtree;
    SkipReport report;
    options.skip_report = &report;
    QueryStats stats;
    auto result = KnnAt(*fx.tree, point, t, 10, &stats, options);
    ASSERT_TRUE(result.ok());

    // Every returned distance is genuinely that object's distance at t,
    // and the list is sorted — degraded or not.
    double prev = -1.0;
    for (const Neighbor& n : *result) {
      EXPECT_DOUBLE_EQ(n.distance, n.motion.seg.DistanceAt(t, point));
      EXPECT_TRUE(n.motion.seg.time.Contains(t));
      EXPECT_GE(n.distance, prev);
      prev = n.distance;
    }
    EXPECT_EQ(stats.pages_skipped, report.pages_skipped());
  }
}

TEST_P(DegradedQueryTest, KnnFailFastSurfacesTypedError) {
  Fixture fx;
  BuildFixture(&fx, GetParam(), 500);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(fx.tree->root());
  FaultyPageReader faulty(&fx.file, &injector);
  KnnOptions options;
  options.reader = &faulty;
  QueryStats stats;
  const Status s =
      KnnAt(*fx.tree, Vec(50.0, 50.0), 5.0, 5, &stats, options).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST_P(DegradedQueryTest, MovingKnnDoesNotCacheDegradedFences) {
  Fixture fx;
  BuildFixture(&fx, GetParam());
  // Every read fails: each full search skips the root, yielding an empty
  // partial answer — and must NOT install a fence cache, so the next frame
  // searches again instead of serving from a fence built on nothing.
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(fx.tree->root());
  FaultyPageReader faulty(&fx.file, &injector);
  MovingKnnQuery::Options options;
  options.reader = &faulty;
  options.fault_policy = FaultPolicy::kSkipSubtree;
  MovingKnnQuery query(fx.tree.get(), 5, options);
  for (int i = 0; i < 3; ++i) {
    auto result = query.At(1.0 + i, Vec(50.0, 50.0));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty());
    EXPECT_EQ(query.integrity(), ResultIntegrity::kPartial);
  }
  EXPECT_EQ(query.full_searches(), 3u);
  EXPECT_EQ(query.cache_answers(), 0u);
}

// --------------------------------------------------------------------------
// Session controller.

TEST_P(DegradedQueryTest, SessionFallsBackToNpdqOnDegradedPredictiveFrame) {
  Fixture fx;
  BuildFixture(&fx, GetParam());

  FaultInjector injector(TransientFaults(GetParam() + 77, 0.02));
  FaultyPageReader faulty(&fx.file, &injector);
  DynamicQuerySession::Options options;
  options.window = 16.0;
  options.deviation_bound = 2.0;
  options.prediction_horizon = 20.0;
  options.stable_frames_to_predict = 2;
  options.reader = &faulty;
  options.fault_policy = FaultPolicy::kSkipSubtree;
  DynamicQuerySession session(fx.tree.get(), options);

  // A perfectly constant-velocity observer: without faults the session
  // settles predictive; every degradation bounces it to NPDQ, then it
  // re-stabilizes.
  const Vec velocity(0.8, 0.8);
  uint64_t partial_frames = 0;
  bool saw_degraded_predictive_handoff = false;
  for (int i = 1; i <= 60; ++i) {
    const double t = 1.5 * i;
    const Vec position(10.0 + 0.8 * t, 10.0 + 0.8 * t);
    auto frame = session.OnFrame(t, position, velocity);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->integrity == ResultIntegrity::kPartial) {
      ++partial_frames;
      if (frame->mode == DynamicQuerySession::Mode::kPredictive) {
        // A degraded predictive frame must trigger the NPDQ fallback.
        EXPECT_TRUE(frame->handoff);
        EXPECT_EQ(session.mode(),
                  DynamicQuerySession::Mode::kNonPredictive);
        saw_degraded_predictive_handoff = true;
      }
    }
  }
  const auto& stats = session.session_stats();
  EXPECT_EQ(stats.degraded_frames, partial_frames);
  EXPECT_EQ(partial_frames > 0,
            session.skip_report().pages_skipped() > 0);
  // With a 2% fault rate over 60 frames of real traversal the run is
  // deterministic per seed; every seed in the suite does degrade.
  EXPECT_GT(partial_frames, 0u);
  EXPECT_EQ(saw_degraded_predictive_handoff, stats.degraded_fallbacks > 0);
  EXPECT_LE(stats.degraded_fallbacks, stats.handoffs_to_npdq);
}

TEST_P(DegradedQueryTest, SessionFailFastSurfacesTypedError) {
  Fixture fx;
  BuildFixture(&fx, GetParam(), 500);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(fx.tree->root());
  FaultyPageReader faulty(&fx.file, &injector);
  // One reader serves both engines: the first frame runs in NPDQ mode and
  // must read the root through `faulty`, not the tree's own file.
  DynamicQuerySession::Options options;
  options.reader = &faulty;
  DynamicQuerySession session(fx.tree.get(), options);
  const Status s =
      session.OnFrame(1.0, Vec(50.0, 50.0), Vec(1.0, 0.0)).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// Retry absorption end-to-end: transient faults behind a RetryingPageReader
// never reach the traversal, so the degraded machinery reports kComplete
// and results match the fault-free answer exactly.
TEST_P(DegradedQueryTest, RetryingReaderMakesTransientFaultsInvisible) {
  Fixture fx;
  BuildFixture(&fx, GetParam());
  Rng rng(GetParam() * 13 + 1);
  FaultInjector injector(TransientFaults(GetParam() + 41, 0.05));
  FaultyPageReader faulty(&fx.file, &injector);
  RetryingPageReader::RetryPolicy policy;
  policy.max_attempts = 8;  // (1 - 0.05^8): failure odds are negligible.
  RetryingPageReader retrying(&faulty, policy, fx.file.mutable_stats());

  for (int trial = 0; trial < 5; ++trial) {
    const StBox q = testing::RandomQueryBox(&rng, 2, 100, 100, 40.0);
    QueryStats clean_stats;
    auto clean = fx.tree->RangeSearch(q, &clean_stats);
    ASSERT_TRUE(clean.ok());
    RTree::SearchOptions opts;
    opts.reader = &retrying;
    opts.fault_policy = FaultPolicy::kSkipSubtree;
    SkipReport report;
    opts.skip_report = &report;
    QueryStats stats;
    auto result = fx.tree->RangeSearch(q, &stats, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(KeysOf(*result), KeysOf(*clean));
    EXPECT_EQ(report.pages_skipped(), 0u);
    EXPECT_EQ(report.integrity(), ResultIntegrity::kComplete);
  }
  // Every injected fault must have been paid for with a retry (some seeds
  // inject none across these five queries — then no retries either).
  EXPECT_EQ(fx.file.stats().retries > 0, injector.faults_injected() > 0);
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, DegradedQueryTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace dqmo
