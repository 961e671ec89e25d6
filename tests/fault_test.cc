// Failure-injection tests: storage errors must surface as Status through
// every query path — never as crashes, hangs, or silently truncated
// results.
#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "query/join.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "query/pdq.h"
#include "rtree/rtree.h"
#include "storage/fault.h"
#include "test_util.h"

namespace dqmo {
namespace {

using ::dqmo::testing::RandomSegments;

/// PageReader that fails every read after the first `budget` calls.
class FlakyReader : public PageReader {
 public:
  FlakyReader(PageFile* file, int budget) : file_(file), budget_(budget) {}

  Result<ReadResult> Read(PageId id) override {
    if (budget_-- <= 0) {
      return Status::IOError("injected read failure");
    }
    return file_->Read(id);
  }

 private:
  PageFile* file_;
  int budget_;
};

/// PageReader that XORs `mask` into payload byte `offset` of one page on
/// every delivery (at-rest corruption: the stored page is untouched, but
/// all reads see the damage).
class CorruptingReader : public PageReader {
 public:
  CorruptingReader(PageFile* file, PageId victim, size_t offset,
                   uint8_t mask)
      : file_(file), victim_(victim), offset_(offset), mask_(mask) {}

  Result<ReadResult> Read(PageId id) override {
    DQMO_ASSIGN_OR_RETURN(ReadResult r, file_->Read(id));
    if (id == victim_) {
      std::memcpy(garbled_, r.data, kPageSize);
      garbled_[offset_] ^= mask_;
      return ReadResult{garbled_, r.physical};
    }
    return r;
  }

 private:
  PageFile* file_;
  PageId victim_;
  size_t offset_;
  uint8_t mask_;
  uint8_t garbled_[kPageSize];
};

class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tree = RTree::Create(&file_, RTree::Options());
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
    Rng rng(99);
    data_ = RandomSegments(&rng, 2000, 2, 100, 100);
    for (const auto& m : data_) ASSERT_TRUE(tree_->Insert(m).ok());
  }

  StBox BigQuery() const {
    return StBox(Box(Interval(10, 60), Interval(10, 60)),
                 Interval(10, 60));
  }

  PageFile file_;
  std::unique_ptr<RTree> tree_;
  std::vector<MotionSegment> data_;
};

TEST_F(FaultFixture, RangeSearchPropagatesReadFailure) {
  FlakyReader reader(&file_, 3);
  QueryStats stats;
  auto result = tree_->RangeSearch(BigQuery(), &stats, &reader);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(FaultFixture, RangeSearchSurvivesWithEnoughBudget) {
  FlakyReader reader(&file_, 1 << 20);
  QueryStats stats;
  EXPECT_TRUE(tree_->RangeSearch(BigQuery(), &stats, &reader).ok());
}

TEST_F(FaultFixture, PdqPropagatesReadFailure) {
  std::vector<KeySnapshot> keys;
  keys.emplace_back(10.0, Box::Centered(Vec(30, 30), 20.0));
  keys.emplace_back(40.0, Box::Centered(Vec(70, 70), 20.0));
  FlakyReader reader(&file_, 2);
  PredictiveDynamicQuery::Options options;
  options.reader = &reader;
  auto pdq = PredictiveDynamicQuery::Make(
      tree_.get(), QueryTrajectory::Make(std::move(keys)).value(), options);
  ASSERT_TRUE(pdq.ok());
  auto frame = (*pdq)->Frame(10.0, 40.0);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsIOError());
}

TEST_F(FaultFixture, NpdqPropagatesReadFailure) {
  FlakyReader reader(&file_, 2);
  NpdqOptions options;
  options.reader = &reader;
  NonPredictiveDynamicQuery npdq(tree_.get(), options);
  auto result = npdq.Execute(BigQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(FaultFixture, KnnPropagatesReadFailure) {
  // Budget of one read (the root) and a large k: the search must descend
  // and hit the injected failure.
  FlakyReader reader(&file_, 1);
  QueryStats stats;
  KnnOptions options;
  options.reader = &reader;
  auto result = KnnAt(*tree_, Vec(50, 50), 30.0, 50, &stats, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(FaultFixture, JoinPropagatesReadFailure) {
  FlakyReader reader(&file_, 4);
  DistanceJoinOptions options;
  options.delta = 1.0;
  options.left_reader = &reader;
  options.right_reader = &reader;
  QueryStats stats;
  auto result = SelfDistanceJoin(*tree_, options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(FaultFixture, CorruptPageSurfacesAsCorruption) {
  // Smash the root's header dims byte: every search must fail with
  // Corruption (deserializer sanity check or checksum), not crash.
  CorruptingReader reader(&file_, tree_->root(), /*offset=*/4,
                          /*mask=*/0x77);
  QueryStats stats;
  auto result = tree_->RangeSearch(BigQuery(), &stats, &reader);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(FaultFixture, ChecksumLayerCatchesSubtleEntryCorruption) {
  // Flip one bit deep inside the root's entry array — geometry the node
  // deserializer cannot sanity-check (the damaged box still parses). The
  // retrying reader's checksum verification must catch it: the corruption
  // persists across every retry, so the read exhausts the policy and
  // surfaces as Corruption naming the page.
  CorruptingReader corrupting(&file_, tree_->root(), /*offset=*/512,
                              /*mask=*/0x04);
  RetryingPageReader reader(&corrupting, RetryingPageReader::RetryPolicy{},
                            file_.mutable_stats());
  QueryStats stats;
  auto result = tree_->RangeSearch(BigQuery(), &stats, &reader);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status().message();
  EXPECT_GT(file_.stats().checksum_failures, 0u);
  EXPECT_GT(file_.stats().retries, 0u);
}

TEST_F(FaultFixture, LoadNodeRejectsUnknownPage) {
  QueryStats stats;
  auto result = tree_->LoadNode(static_cast<PageId>(1 << 30), &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange());
}

TEST_F(FaultFixture, QueryAfterFailureStillWorks) {
  // A failed query must not poison the processor's reusable state.
  FlakyReader reader(&file_, 2);
  NpdqOptions options;
  options.reader = &reader;
  NonPredictiveDynamicQuery npdq(tree_.get(), options);
  ASSERT_FALSE(npdq.Execute(BigQuery()).ok());
  // Same processor, healthy reader path: use a fresh processor reading the
  // file directly.
  NonPredictiveDynamicQuery healthy(tree_.get());
  auto result = healthy.Execute(BigQuery());
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace dqmo
