// Tests for Non-Predictive Dynamic Queries (Sect. 4.2): the discardability
// lemma under double temporal axes, frame-by-frame correctness against
// brute force, both sound (leaf-semantics, pruning) pairings, the pinned
// account of runs that discard, and timestamp-based update management.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "query/npdq.h"
#include "test_util.h"
#include "workload/query_generator.h"

namespace dqmo {
namespace {

using ::dqmo::testing::AccountOf;
using ::dqmo::testing::BruteForceRange;
using ::dqmo::testing::BruteForceRangeBb;
using ::dqmo::testing::FoldAnswer;
using ::dqmo::testing::kFoldSeed;
using ::dqmo::testing::KeysOf;
using ::dqmo::testing::QueryAccount;
using ::dqmo::testing::RandomSegments;

struct NpdqFixture {
  PageFile file;
  std::unique_ptr<RTree> tree;
  std::vector<MotionSegment> data;
};

void BuildFixture(NpdqFixture* fx, uint64_t seed, int n = 4000) {
  auto tree = RTree::Create(&fx->file, RTree::Options());
  ASSERT_TRUE(tree.ok());
  fx->tree = std::move(tree).value();
  Rng rng(seed);
  fx->data = RandomSegments(&rng, n, 2, 100, 100);
  for (const auto& m : fx->data) ASSERT_TRUE(fx->tree->Insert(m).ok());
}

StBox MakeQuery(double x0, double x1, double y0, double y1, double t0,
                double t1) {
  return StBox(Box(Interval(x0, x1), Interval(y0, y1)), Interval(t0, t1));
}

// ---- Discardable() unit tests (Lemma 1, double temporal axes) ----

ChildEntry MakeEntry(StBox bounds, Interval start_times,
                     Interval end_times) {
  ChildEntry e;
  e.bounds = std::move(bounds);
  e.start_times = start_times;
  e.end_times = end_times;
  e.child = 1;
  return e;
}

TEST(DiscardableTest, FullyCoveredOldSubtreeIsDiscardable) {
  // P = [0,1] on space [0,10]^2; Q = [1,2] on the same space. A subtree
  // whose motions all started before P ended and end after P began, and
  // whose spatial extent lies within P's window, was fully retrieved by P.
  const StBox p = MakeQuery(0, 10, 0, 10, 0.0, 1.0);
  const StBox q = MakeQuery(0, 10, 0, 10, 1.0, 2.0);
  const ChildEntry r =
      MakeEntry(MakeQuery(2, 8, 2, 8, 0.2, 5.0),
                /*start_times=*/Interval(0.2, 0.9),
                /*end_times=*/Interval(1.5, 5.0));
  EXPECT_TRUE(Discardable(p, q, r, SpatialPruning::kIntersectionContained));
  EXPECT_TRUE(Discardable(p, q, r, SpatialPruning::kNodeContained));
}

TEST(DiscardableTest, LateStarterBlocksDiscard) {
  // One motion in the subtree starts after P ended: P cannot have seen it.
  const StBox p = MakeQuery(0, 10, 0, 10, 0.0, 1.0);
  const StBox q = MakeQuery(0, 10, 0, 10, 1.0, 2.0);
  const ChildEntry r =
      MakeEntry(MakeQuery(2, 8, 2, 8, 0.2, 5.0), Interval(0.2, 1.4),
                Interval(1.5, 5.0));
  EXPECT_FALSE(Discardable(p, q, r, SpatialPruning::kIntersectionContained));
}

TEST(DiscardableTest, LateStarterBeyondQIsIrrelevant) {
  // Starts after Q's end too — not Q-relevant, so it cannot block.
  const StBox p = MakeQuery(0, 10, 0, 10, 0.0, 1.0);
  const StBox q = MakeQuery(0, 10, 0, 10, 1.0, 2.0);
  const ChildEntry r =
      MakeEntry(MakeQuery(2, 8, 2, 8, 0.2, 9.0), Interval(0.2, 7.0),
                Interval(1.5, 9.0));
  // i_ts = [0.2, min(7, 2)] = [0.2, 2] -> max start 2 > P.hi 1: not
  // discardable (starters in (1, 2] are Q-relevant and unseen by P).
  EXPECT_FALSE(Discardable(p, q, r, SpatialPruning::kIntersectionContained));
  // But if all starters after P.hi also start after Q.hi, they are
  // irrelevant:
  const ChildEntry r2 =
      MakeEntry(MakeQuery(2, 8, 2, 8, 0.2, 9.0), Interval(0.9, 7.0),
                Interval(2.5, 9.0));
  // i_ts = [0.9, 2]; still > 1 -> not discardable. Construct the truly
  // irrelevant case: starts are either <= 1 or > 2 is not representable by
  // one interval, so the conservative answer (visit) is correct.
  EXPECT_FALSE(
      Discardable(p, q, r2, SpatialPruning::kIntersectionContained));
}

TEST(DiscardableTest, SubtreeWithNoQRelevantMotionIsDiscardable) {
  const StBox p = MakeQuery(0, 10, 0, 10, 0.0, 1.0);
  const StBox q = MakeQuery(0, 10, 0, 10, 1.0, 2.0);
  // Every motion ends before Q begins.
  const ChildEntry r =
      MakeEntry(MakeQuery(2, 8, 2, 8, 0.0, 0.9), Interval(0.0, 0.5),
                Interval(0.3, 0.9));
  EXPECT_TRUE(Discardable(p, q, r, SpatialPruning::kIntersectionContained));
}

TEST(DiscardableTest, SpatialEscapeBlocksDiscard) {
  // The subtree sticks out of P's window inside Q's range.
  const StBox p = MakeQuery(0, 5, 0, 10, 0.0, 1.0);
  const StBox q = MakeQuery(0, 10, 0, 10, 1.0, 2.0);
  const ChildEntry r =
      MakeEntry(MakeQuery(4, 8, 2, 8, 0.2, 5.0), Interval(0.2, 0.9),
                Interval(1.5, 5.0));
  EXPECT_FALSE(Discardable(p, q, r, SpatialPruning::kIntersectionContained));
}

TEST(DiscardableTest, IntersectionContainedPrunesMoreThanNodeContained) {
  // Subtree extends beyond Q (and P) spatially, but its Q-overlap lies in
  // P: Lemma 1 discards, the stricter rule does not.
  const StBox p = MakeQuery(0, 6, 0, 10, 0.0, 1.0);
  const StBox q = MakeQuery(0, 5, 0, 10, 1.0, 2.0);
  const ChildEntry r =
      MakeEntry(MakeQuery(4, 9, 2, 8, 0.2, 5.0), Interval(0.2, 0.9),
                Interval(1.5, 5.0));
  EXPECT_TRUE(Discardable(p, q, r, SpatialPruning::kIntersectionContained));
  EXPECT_FALSE(Discardable(p, q, r, SpatialPruning::kNodeContained));
}

TEST(DiscardableTest, OverlappingQueryTimesStillPrune) {
  // P and Q overlap temporally ([2,3] vs [2.5,3.5]); old starters that end
  // within the shared range were all retrieved by P.
  const StBox p = MakeQuery(0, 10, 0, 10, 2.0, 3.0);
  const StBox q = MakeQuery(0, 10, 0, 10, 2.5, 3.5);
  const ChildEntry old_enders =
      MakeEntry(MakeQuery(2, 8, 2, 8, 0.0, 3.0), Interval(0.0, 1.9),
                Interval(1.0, 3.0));
  // i_te = [max(1.0, 2.5), 3.0] = [2.5, 3]: all Q-relevant enders end after
  // P.lo 2.0; starts all <= 1.9 <= P.hi 3 -> discardable (spatial holds).
  EXPECT_TRUE(Discardable(p, q, old_enders,
                          SpatialPruning::kIntersectionContained));
}

// ---- End-to-end NPDQ behaviour ----

TEST(NpdqTest, FirstQueryBehavesAsSnapshot) {
  NpdqFixture fx;
  BuildFixture(&fx, 11);
  NonPredictiveDynamicQuery npdq(fx.tree.get());
  const StBox q = MakeQuery(20, 35, 20, 35, 10.0, 10.5);
  auto result = npdq.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(KeysOf(*result), KeysOf(BruteForceRangeBb(fx.data, q)));
}

TEST(NpdqTest, ExecuteValidatesArguments) {
  NpdqFixture fx;
  BuildFixture(&fx, 12, 500);
  NonPredictiveDynamicQuery npdq(fx.tree.get());
  StBox wrong_dims(Box(Interval(0, 1), Interval(0, 1), Interval(0, 1)),
                   Interval(0, 1));
  EXPECT_TRUE(npdq.Execute(wrong_dims).status().IsInvalidArgument());
  StBox empty(Box(Interval(1, 0), Interval(0, 1)), Interval(0, 1));
  EXPECT_TRUE(npdq.Execute(empty).status().IsInvalidArgument());
  ASSERT_TRUE(npdq.Execute(MakeQuery(0, 10, 0, 10, 5.0, 5.5)).ok());
  EXPECT_TRUE(npdq.Execute(MakeQuery(0, 10, 0, 10, 3.0, 3.5))
                  .status()
                  .IsInvalidArgument());  // Time moved backwards.
}

// Frame-by-frame correctness for the paper's configuration
// (kBoundingBox + Lemma 1): frame i returns exactly
// BB-hits(Q_i) \ BB-hits(Q_{i-1}).
class NpdqCorrectness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NpdqCorrectness, PaperConfigurationMatchesBruteForce) {
  NpdqFixture fx;
  BuildFixture(&fx, GetParam());
  Rng rng(GetParam() + 7);
  QueryWorkloadOptions qopt;
  qopt.overlap = 0.85;
  qopt.num_snapshots = 25;
  for (int trial = 0; trial < 4; ++trial) {
    auto workload = GenerateDynamicQuery(qopt, &rng);
    ASSERT_TRUE(workload.ok());
    NonPredictiveDynamicQuery npdq(fx.tree.get());
    std::set<MotionSegment::Key> prev_hits;
    for (int i = 0; i < workload->num_frames(); ++i) {
      const StBox q = workload->Frame(i);
      auto result = npdq.Execute(q);
      ASSERT_TRUE(result.ok());
      const auto hits = KeysOf(BruteForceRangeBb(fx.data, q));
      std::set<MotionSegment::Key> expected;
      for (const auto& k : hits) {
        if (!prev_hits.contains(k)) expected.insert(k);
      }
      EXPECT_EQ(KeysOf(*result), expected) << "frame " << i;
      prev_hits = hits;
    }
  }
}

TEST_P(NpdqCorrectness, ExactSemanticsWithNodeContainedPruning) {
  NpdqFixture fx;
  BuildFixture(&fx, GetParam() + 1000);
  Rng rng(GetParam() + 8);
  QueryWorkloadOptions qopt;
  qopt.overlap = 0.85;
  qopt.num_snapshots = 25;
  NpdqOptions options;
  options.leaf_semantics = LeafSemantics::kExact;
  options.spatial_pruning = SpatialPruning::kNodeContained;
  for (int trial = 0; trial < 4; ++trial) {
    auto workload = GenerateDynamicQuery(qopt, &rng);
    ASSERT_TRUE(workload.ok());
    NonPredictiveDynamicQuery npdq(fx.tree.get(), options);
    std::set<MotionSegment::Key> prev_hits;
    for (int i = 0; i < workload->num_frames(); ++i) {
      const StBox q = workload->Frame(i);
      auto result = npdq.Execute(q);
      ASSERT_TRUE(result.ok());
      const auto hits = KeysOf(BruteForceRange(fx.data, q));
      std::set<MotionSegment::Key> expected;
      for (const auto& k : hits) {
        if (!prev_hits.contains(k)) expected.insert(k);
      }
      EXPECT_EQ(KeysOf(*result), expected) << "frame " << i;
      prev_hits = hits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NpdqCorrectness,
                         ::testing::Values(21, 22, 23));

/// Discardability prunes a subtree only when every Q-relevant motion below
/// it already started before the previous snapshot ended. This tree has
/// that structure: long-lived motions that all started in the past, which
/// HighOverlapQuery's slowly moving window queries while they are alive.
void BuildHighOverlapTree(PageFile* file, std::unique_ptr<RTree>* tree) {
  auto tree_or = RTree::Create(file, RTree::Options());
  ASSERT_TRUE(tree_or.ok());
  *tree = std::move(tree_or).value();
  Rng rng(32);
  for (int i = 0; i < 20000; ++i) {
    const double ts = rng.Uniform(0.0, 50.0);
    const double te = ts + rng.Uniform(30.0, 50.0);
    const Vec p0 = dqmo::testing::RandomPoint(&rng, 2, 100);
    Vec p1 = p0;
    p1[0] = std::min(100.0, p0[0] + rng.Uniform(0.0, 2.0));
    MotionSegment m(static_cast<ObjectId>(i),
                    StSegment(p0, p1, Interval(ts, te)));
    ASSERT_TRUE((*tree)->Insert(m).ok());
  }
}

/// Frame `i` of 20: a 20 x 20 window drifting slowly, so consecutive
/// frames overlap heavily.
StBox HighOverlapQuery(int i) {
  const double t = 60.0 + i * 0.1;
  const double x = 40.0 + i * 0.2;
  return MakeQuery(x, x + 20.0, 40.0, 60.0, t, t + 0.1);
}

TEST(NpdqTest, DiscardabilityReducesIoAtHighOverlap) {
  PageFile file;
  std::unique_ptr<RTree> tree;
  BuildHighOverlapTree(&file, &tree);
  ASSERT_NE(tree, nullptr);

  // With discardability.
  NonPredictiveDynamicQuery with(tree.get());
  // Without (always evaluate from scratch).
  NpdqOptions no_prev;
  no_prev.use_previous = false;
  NonPredictiveDynamicQuery without(tree.get(), no_prev);

  for (int i = 0; i < 20; ++i) {
    const StBox q = HighOverlapQuery(i);
    auto a = with.Execute(q);
    auto b = without.Execute(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // The baseline returns full snapshots; the incremental result is a
    // subset of it by construction.
    EXPECT_LE(a->size(), b->size());
  }
  EXPECT_LT(with.stats().node_reads, without.stats().node_reads);
  EXPECT_GT(with.stats().nodes_discarded, 0u);
}

TEST(NpdqTest, DiscardAccountingMatchesPinnedCounts) {
  // The whole-query account of the runs that discard subtrees, in all four
  // {pruning, leaf semantics} pairings: a discard charged twice, or a skip
  // charged as a discard, moves nodes_discarded (and the reads with it).
  PageFile file;
  std::unique_ptr<RTree> tree;
  BuildHighOverlapTree(&file, &tree);
  ASSERT_NE(tree, nullptr);
  // {pruning, leaf semantics} -> account, in loop order.
  // Node containment (the last two rows) discards nothing here.
  const QueryAccount pinned[] = {
      {315, 255, 25798, 600, 204, 0, 0, 0, 0x4e2fe109c3d90eefULL},
      {315, 255, 25798, 572, 204, 0, 0, 0, 0x91cc36f58d95bf49ULL},
      {519, 459, 46275, 600, 0, 0, 0, 0, 0x4e2fe109c3d90eefULL},
      {519, 459, 46275, 572, 0, 0, 0, 0, 0x91cc36f58d95bf49ULL},
  };
  int row = 0;
  for (SpatialPruning pruning : {SpatialPruning::kIntersectionContained,
                                 SpatialPruning::kNodeContained}) {
    for (LeafSemantics leaf :
         {LeafSemantics::kBoundingBox, LeafSemantics::kExact}) {
      NpdqOptions options;
      options.spatial_pruning = pruning;
      options.leaf_semantics = leaf;
      NonPredictiveDynamicQuery npdq(tree.get(), options);
      uint64_t checksum = kFoldSeed;
      for (int i = 0; i < 20; ++i) {
        auto fresh = npdq.Execute(HighOverlapQuery(i));
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

TEST(NpdqTest, ResetHistoryActsAsFreshQuery) {
  NpdqFixture fx;
  BuildFixture(&fx, 41);
  NonPredictiveDynamicQuery npdq(fx.tree.get());
  const StBox q1 = MakeQuery(20, 35, 20, 35, 10.0, 10.5);
  const StBox q2 = MakeQuery(21, 36, 20, 35, 10.5, 11.0);
  ASSERT_TRUE(npdq.Execute(q1).ok());
  auto incremental = npdq.Execute(q2);
  ASSERT_TRUE(incremental.ok());
  npdq.ResetHistory();
  // After reset, repeating q2 must return the *full* snapshot result.
  auto full = npdq.Execute(q2);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(KeysOf(*full), KeysOf(BruteForceRangeBb(fx.data, q2)));
  EXPECT_GE(full->size(), incremental->size());
}

// ---- Update management (Sect. 4.2) ----

TEST(NpdqTest, InsertsBetweenFramesAreNotLost) {
  NpdqFixture fx;
  BuildFixture(&fx, 51, 3000);
  NonPredictiveDynamicQuery npdq(fx.tree.get());
  Rng rng(52);

  std::set<MotionSegment::Key> delivered;
  std::vector<MotionSegment> inserted;
  std::vector<MotionSegment> all_data = fx.data;
  double t = 10.0;
  const double dt = 0.5;
  std::set<MotionSegment::Key> prev_hits;
  for (int i = 0; i < 12; ++i, t += dt) {
    const StBox q = MakeQuery(30.0 + i * 0.4, 44.0 + i * 0.4, 30, 44, t,
                              t + dt);
    if (i > 0) {
      // Insert objects inside the *current* query window (and, spatially,
      // inside the previous one) after the previous frame ran: the
      // timestamp mechanism must prevent them from being discarded.
      for (int j = 0; j < 8; ++j) {
        const Vec where(rng.Uniform(31.0 + i * 0.4, 43.0 + i * 0.4),
                        rng.Uniform(31, 43));
        MotionSegment m(
            static_cast<ObjectId>(500000 + i * 100 + j),
            StSegment(where, where, Interval(t + 0.1, t + 0.4)));
        m.seg = QuantizeStored(m.seg);
        inserted.push_back(m);
        all_data.push_back(m);
        ASSERT_TRUE(fx.tree->Insert(m).ok());
      }
    }
    auto result = npdq.Execute(q);
    ASSERT_TRUE(result.ok());
    for (const auto& m : *result) delivered.insert(m.key());
    // Completeness invariant: everything Q hits is delivered now or was
    // hit by the previous query (and delivered earlier or known).
    const auto hits = KeysOf(BruteForceRangeBb(all_data, q));
    for (const auto& k : hits) {
      EXPECT_TRUE(delivered.contains(k) || prev_hits.contains(k))
          << "object satisfying Q neither delivered nor in previous result";
    }
    prev_hits = hits;
  }
  // Every inserted object lay inside its frame's query window: delivered.
  for (const auto& m : inserted) {
    EXPECT_TRUE(delivered.contains(m.key()))
        << "concurrently inserted object lost (oid " << m.oid << ")";
  }
}

TEST(NpdqTest, HeavyInsertsKeepFramesComplete) {
  // Many inserts force splits near the query path; frames must stay
  // complete (supersets never checked — exact expected sets).
  NpdqFixture fx;
  BuildFixture(&fx, 61, 2000);
  NonPredictiveDynamicQuery npdq(fx.tree.get());
  Rng rng(62);
  std::vector<MotionSegment> all_data = fx.data;
  std::set<MotionSegment::Key> delivered;
  std::set<MotionSegment::Key> prev_hits;
  double t = 20.0;
  for (int i = 0; i < 10; ++i, t += 0.5) {
    for (int j = 0; j < 100; ++j) {
      MotionSegment m = dqmo::testing::RandomSegment(
          &rng, static_cast<ObjectId>(600000 + i * 1000 + j), 2, 100, 100);
      all_data.push_back(m);
      ASSERT_TRUE(fx.tree->Insert(m).ok());
    }
    const StBox q = MakeQuery(40.0 + i, 60.0 + i, 40, 60, t, t + 0.5);
    auto result = npdq.Execute(q);
    ASSERT_TRUE(result.ok());
    for (const auto& m : *result) delivered.insert(m.key());
    const auto hits = KeysOf(BruteForceRangeBb(all_data, q));
    for (const auto& k : hits) {
      EXPECT_TRUE(delivered.contains(k) || prev_hits.contains(k));
    }
    prev_hits = hits;
  }
}

}  // namespace
}  // namespace dqmo
