// Overload resilience: QueryBudget semantics in every engine, the bounded
// priority thread pool, admission control, the overload governor, and the
// scheduler integration (query/budget.h, server/overload.h).
//
// The satellite no-permanent-loss sweeps live here too: a session driven
// through faults, budget squeezes, and concurrent writers must — once the
// fault window closes — still have delivered every object visible in its
// final frame (the ResetHistory-on-degraded-snapshot contract).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "query/budget.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "query/pdq.h"
#include "query/session.h"
#include "rtree/rtree.h"
#include "server/executor.h"
#include "server/overload.h"
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
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  fx->tree = std::move(tree).value();
  Rng rng(seed);
  fx->data = RandomSegments(&rng, n, 2, 100, 100, /*max_duration=*/5.0);
  for (const auto& m : fx->data) ASSERT_TRUE(fx->tree->Insert(m).ok());
  ASSERT_TRUE(fx->file.Publish().ok());
}

bool IsSubset(const std::set<MotionSegment::Key>& a,
              const std::set<MotionSegment::Key>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

StBox CenteredQuery(double x, double y, double side, double t0, double t1) {
  return StBox(Box::Centered(Vec(x, y), side), Interval(t0, t1));
}

// ---------------------------------------------------------------------------
// QueryBudget unit semantics.

TEST(QueryBudgetTest, UnarmedBudgetAlwaysGrantsAndChargesNothing) {
  QueryBudget budget;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(budget.TryChargeNode());
  EXPECT_FALSE(budget.armed());
  EXPECT_FALSE(budget.stopped());
  EXPECT_EQ(budget.nodes_charged(), 0u);
  EXPECT_TRUE(budget.StopStatus().ok());
}

TEST(QueryBudgetTest, NodeBudgetLatchesAfterExactlyNCharges) {
  QueryBudget budget;
  budget.ArmFrame({/*frame_deadline_ns=*/0, /*node_budget=*/5});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(budget.TryChargeNode()) << i;
  EXPECT_FALSE(budget.TryChargeNode());
  EXPECT_EQ(budget.stop(), BudgetStop::kNodes);
  // Latched: further charges refuse without advancing the count.
  EXPECT_FALSE(budget.TryChargeNode());
  EXPECT_EQ(budget.nodes_charged(), 6u);
  EXPECT_TRUE(budget.StopStatus().IsResourceExhausted());
  // Re-arming opens the next frame.
  budget.ArmFrame({0, 5});
  EXPECT_FALSE(budget.stopped());
  EXPECT_TRUE(budget.TryChargeNode());
}

TEST(QueryBudgetTest, DeadlineLatchesViaInjectedClock) {
  uint64_t now = 1000;
  QueryBudget budget([&now] { return now; });
  budget.ArmFrame({/*frame_deadline_ns=*/500, /*node_budget=*/0});
  EXPECT_TRUE(budget.TryChargeNode());
  now = 1499;  // One ns short of the absolute deadline (1000 + 500).
  EXPECT_TRUE(budget.TryChargeNode());
  now = 1500;
  EXPECT_FALSE(budget.TryChargeNode());
  EXPECT_EQ(budget.stop(), BudgetStop::kDeadline);
  EXPECT_TRUE(budget.StopStatus().IsResourceExhausted());
}

TEST(QueryBudgetTest, CancellationIsStickyAcrossArmFrames) {
  QueryBudget budget;
  budget.ArmFrame({0, 1000});
  EXPECT_TRUE(budget.TryChargeNode());
  budget.RequestCancel();
  EXPECT_FALSE(budget.TryChargeNode());
  EXPECT_EQ(budget.stop(), BudgetStop::kCancelled);
  // Re-arming a frame does NOT clear a pending cancellation...
  budget.ArmFrame({0, 1000});
  EXPECT_FALSE(budget.TryChargeNode());
  EXPECT_EQ(budget.stop(), BudgetStop::kCancelled);
  // ...and it even fires on an unarmed budget (the session kill switch).
  QueryBudget unarmed;
  unarmed.RequestCancel();
  EXPECT_FALSE(unarmed.TryChargeNode());
  // Only Disarm returns the budget to the clean state.
  budget.Disarm();
  EXPECT_FALSE(budget.cancel_requested());
  EXPECT_TRUE(budget.TryChargeNode());
}

// ---------------------------------------------------------------------------
// Budgeted traversals: each engine delivers a flagged partial subset.

TEST(BudgetedQueryTest, NpdqNodeBudgetYieldsPartialSubsetThenFullAfterRearm) {
  Fixture fx;
  BuildFixture(&fx, 11);
  const StBox q = CenteredQuery(50, 50, 40, 10, 20);

  NpdqOptions clean_options;
  NonPredictiveDynamicQuery clean(fx.tree.get(), clean_options);
  auto clean_out = clean.Execute(q);
  ASSERT_TRUE(clean_out.ok());
  const auto clean_keys = KeysOf(*clean_out);
  ASSERT_GT(clean_keys.size(), 0u);

  QueryBudget budget;
  NpdqOptions options;
  options.budget = &budget;
  NonPredictiveDynamicQuery npdq(fx.tree.get(), options);
  budget.ArmFrame({0, /*node_budget=*/3});
  auto degraded = npdq.Execute(q);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(IsSubset(KeysOf(*degraded), clean_keys));
  EXPECT_LT(KeysOf(*degraded).size(), clean_keys.size());
  EXPECT_EQ(npdq.integrity(), ResultIntegrity::kPartial);
  EXPECT_GT(npdq.skip_report().pages_skipped(), 0u);
  EXPECT_TRUE(npdq.skip_report().last_cause().IsResourceExhausted());

  // Budget relieved + history forgotten: the next snapshot recovers
  // everything the squeezed one missed.
  budget.Disarm();
  npdq.ResetHistory();
  auto recovered = npdq.Execute(q);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(KeysOf(*recovered), clean_keys);
  EXPECT_EQ(npdq.integrity(), ResultIntegrity::kComplete);
}

TEST(BudgetedQueryTest, NpdqBudgetDegradesAtItsNodeCap) {
  Fixture fx;
  BuildFixture(&fx, 12);
  const StBox q = CenteredQuery(50, 50, 40, 10, 20);
  QueryBudget budget;
  NpdqOptions options;
  options.budget = &budget;
  NonPredictiveDynamicQuery npdq(fx.tree.get(), options);
  budget.ArmFrame({0, 4});
  auto out = npdq.Execute(q);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(npdq.integrity(), ResultIntegrity::kPartial);
  EXPECT_GT(npdq.skip_report().pages_skipped(), 0u);
  // The budget saw exactly its cap (+1 refused charge).
  EXPECT_EQ(budget.nodes_charged(), 5u);
}

TEST(BudgetedQueryTest, PdqBudgetRequeuesAndDeliversAcrossLaterFrames) {
  Fixture fx;
  BuildFixture(&fx, 13);
  auto make_trajectory = [] {
    std::vector<KeySnapshot> keys;
    keys.emplace_back(0.0, Box::Centered(Vec(30, 30), 30.0));
    keys.emplace_back(100.0, Box::Centered(Vec(70, 70), 30.0));
    return QueryTrajectory::Make(std::move(keys));
  };
  auto clean_trajectory = make_trajectory();
  ASSERT_TRUE(clean_trajectory.ok());
  auto clean_pdq =
      PredictiveDynamicQuery::Make(fx.tree.get(), *clean_trajectory);
  ASSERT_TRUE(clean_pdq.ok());
  std::set<MotionSegment::Key> clean_keys;
  for (double t = 0.0; t < 100.0; t += 5.0) {
    auto frame = (*clean_pdq)->Frame(t, t + 5.0);
    ASSERT_TRUE(frame.ok());
    for (const PdqResult& r : *frame) clean_keys.insert(r.motion.key());
  }
  ASSERT_GT(clean_keys.size(), 0u);

  // Budgeted run: two node pops per frame — low enough that busy frames
  // stop, high enough that quiet frames finish and drain their due object
  // events. A stopped frame requeues the unexplored node, so later
  // (re-armed) frames keep making progress on the carried-over frontier.
  auto trajectory = make_trajectory();
  ASSERT_TRUE(trajectory.ok());
  QueryBudget budget;
  PredictiveDynamicQuery::Options options;
  options.budget = &budget;
  auto pdq = PredictiveDynamicQuery::Make(fx.tree.get(), *trajectory, options);
  ASSERT_TRUE(pdq.ok());
  std::set<MotionSegment::Key> degraded_keys;
  uint64_t degraded_frames = 0;
  for (double t = 0.0; t < 100.0; t += 5.0) {
    budget.ArmFrame({0, /*node_budget=*/2});
    auto frame = (*pdq)->Frame(t, t + 5.0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    for (const PdqResult& r : *frame) degraded_keys.insert(r.motion.key());
    if (budget.stopped()) ++degraded_frames;
  }
  EXPECT_TRUE(IsSubset(degraded_keys, clean_keys));
  EXPECT_GT(degraded_frames, 0u);
  EXPECT_GT((*pdq)->skip_report().pages_skipped(), 0u);
  EXPECT_TRUE((*pdq)->skip_report().last_cause().IsResourceExhausted());
  // Progress across frames: stopped frames still leave a frontier the next
  // frame resumes, so deliveries accumulate despite per-frame stops.
  EXPECT_GT(degraded_keys.size(), 0u);
}

TEST(BudgetedQueryTest, PdqGenerousBudgetIsBitIdenticalToUnbudgeted) {
  Fixture fx;
  BuildFixture(&fx, 14);
  auto make_trajectory = [] {
    std::vector<KeySnapshot> keys;
    keys.emplace_back(0.0, Box::Centered(Vec(40, 40), 25.0));
    keys.emplace_back(100.0, Box::Centered(Vec(60, 60), 25.0));
    return QueryTrajectory::Make(std::move(keys));
  };
  auto run = [&fx, &make_trajectory](QueryBudget* budget) {
    auto trajectory = make_trajectory();
    EXPECT_TRUE(trajectory.ok());
    PredictiveDynamicQuery::Options options;
    options.budget = budget;
    auto pdq =
        PredictiveDynamicQuery::Make(fx.tree.get(), *trajectory, options);
    EXPECT_TRUE(pdq.ok());
    std::vector<MotionSegment::Key> delivered;
    for (double t = 0.0; t < 100.0; t += 5.0) {
      if (budget != nullptr) budget->ArmFrame({0, 1u << 30});
      auto frame = (*pdq)->Frame(t, t + 5.0);
      EXPECT_TRUE(frame.ok());
      for (const PdqResult& r : *frame) delivered.push_back(r.motion.key());
    }
    EXPECT_EQ((*pdq)->skip_report().pages_skipped(), 0u);
    return delivered;
  };
  QueryBudget budget;
  // Same keys in the same order: a never-exhausted budget is invisible.
  EXPECT_EQ(run(nullptr), run(&budget));
}

TEST(BudgetedQueryTest, KnnBudgetKeepsDistancesCorrectAndSkipsTheFence) {
  Fixture fx;
  BuildFixture(&fx, 15);
  QueryBudget budget;
  KnnOptions options;
  options.budget = &budget;
  SkipReport report;
  options.skip_report = &report;
  QueryStats stats;
  budget.ArmFrame({0, /*node_budget=*/2});
  const Vec point(50.0, 50.0);
  auto result = KnnAt(*fx.tree, point, 10.0, 10, &stats, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(report.pages_skipped(), 0u);
  EXPECT_TRUE(report.last_cause().IsResourceExhausted());
  double prev = -1.0;
  for (const Neighbor& n : *result) {
    EXPECT_DOUBLE_EQ(n.distance, n.motion.seg.DistanceAt(10.0, point));
    EXPECT_GE(n.distance, prev);
    prev = n.distance;
  }

  // MovingKnn: a budget-stopped search is degraded, so it must not install
  // a fence cache — every frame re-searches.
  QueryBudget moving_budget;
  MovingKnnQuery::Options moving_options;
  moving_options.budget = &moving_budget;
  MovingKnnQuery query(fx.tree.get(), 5, moving_options);
  for (int i = 0; i < 3; ++i) {
    moving_budget.ArmFrame({0, 1});
    auto r = query.At(1.0 + i, point);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(query.integrity(), ResultIntegrity::kPartial);
  }
  EXPECT_EQ(query.full_searches(), 3u);
  EXPECT_EQ(query.cache_answers(), 0u);
}

// ---------------------------------------------------------------------------
// ThreadPool: priorities and bounds.

TEST(ThreadPoolTest, HigherPriorityClassesDrainFirst) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  {
    ThreadPool pool(ThreadPool::Options{/*num_threads=*/1, /*max_queue=*/0});
    // Block the single worker so the queued tasks pile up, then enqueue one
    // task per class in "wrong" order.
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    auto record = [&order, &mu](int tag) {
      return [&order, &mu, tag] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(tag);
      };
    };
    pool.Submit(record(2), SessionPriority::kBatch);
    pool.Submit(record(1), SessionPriority::kNormal);
    pool.Submit(record(0), SessionPriority::kInteractive);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    pool.Wait();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPoolTest, BoundedSubmitBackpressuresInsteadOfGrowing) {
  // A bounded pool accepts a burst far deeper than its queue: Submit blocks
  // the producer until space frees, and every task still runs exactly once.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(ThreadPool::Options{/*num_threads=*/2, /*max_queue=*/4});
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
      EXPECT_LE(pool.queue_depth(), 4u);
    }
    pool.Wait();
  }
  EXPECT_EQ(ran.load(), 100);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionControllerTest, PriorityHeadroomShedsBatchFirst) {
  AdmissionOptions options;
  options.max_queue_depth = 10;
  AdmissionController admission(options);
  // Depth 5: batch is past its 1/2 headroom, normal (4/5) and interactive
  // still fit.
  EXPECT_EQ(admission.TryAdmit(1, SessionPriority::kBatch, 5),
            AdmissionOutcome::kRejectedQueueFull);
  EXPECT_EQ(admission.TryAdmit(1, SessionPriority::kNormal, 5),
            AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.TryAdmit(1, SessionPriority::kInteractive, 5),
            AdmissionOutcome::kAdmitted);
  // Depth 8: normal is out too; interactive holds until the queue is full.
  EXPECT_EQ(admission.TryAdmit(1, SessionPriority::kNormal, 8),
            AdmissionOutcome::kRejectedQueueFull);
  EXPECT_EQ(admission.TryAdmit(1, SessionPriority::kInteractive, 8),
            AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.TryAdmit(1, SessionPriority::kInteractive, 10),
            AdmissionOutcome::kRejectedQueueFull);
  EXPECT_EQ(admission.admitted(), 3u);
  EXPECT_EQ(admission.rejected(), 3u);
}

TEST(AdmissionControllerTest, PerClientQuotaReleasesOnSessionDone) {
  AdmissionOptions options;
  options.per_client_quota = 2;
  AdmissionController admission(options);
  EXPECT_EQ(admission.TryAdmit(7, SessionPriority::kNormal, 0),
            AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.TryAdmit(7, SessionPriority::kNormal, 0),
            AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.TryAdmit(7, SessionPriority::kNormal, 0),
            AdmissionOutcome::kRejectedQuota);
  // A different client has its own quota.
  EXPECT_EQ(admission.TryAdmit(8, SessionPriority::kNormal, 0),
            AdmissionOutcome::kAdmitted);
  // Finishing one of client 7's sessions frees a slot.
  admission.OnSessionDone(7);
  EXPECT_EQ(admission.TryAdmit(7, SessionPriority::kNormal, 0),
            AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(AdmissionStatus(AdmissionOutcome::kRejectedQuota)
                  .IsResourceExhausted());
  EXPECT_TRUE(AdmissionStatus(AdmissionOutcome::kAdmitted).ok());
}

// ---------------------------------------------------------------------------
// Overload governor.

TEST(OverloadGovernorTest, EscalatesOnSlowWindowsAndRecoversWithHysteresis) {
  OverloadGovernor::Options options;
  options.window = 8;
  options.recovery_windows = 2;
  options.overload_latency_ns = 1'000'000;  // 1 ms.
  OverloadGovernor governor(options);
  EXPECT_EQ(governor.level(), 0);

  // One window of all-slow frames: level 1.
  for (int i = 0; i < 8; ++i) governor.OnFrame(5'000'000);
  EXPECT_EQ(governor.level(), 1);
  // Two more slow windows: level 3 (the cap).
  for (int i = 0; i < 16; ++i) governor.OnFrame(5'000'000);
  EXPECT_EQ(governor.level(), 3);
  for (int i = 0; i < 8; ++i) governor.OnFrame(5'000'000);
  EXPECT_EQ(governor.level(), 3);

  // Healthy windows: one is not enough (hysteresis), the second steps down.
  for (int i = 0; i < 8; ++i) governor.OnFrame(1000);
  EXPECT_EQ(governor.level(), 3);
  for (int i = 0; i < 8; ++i) governor.OnFrame(1000);
  EXPECT_EQ(governor.level(), 2);
  // Recovery continues one level per recovery_windows-long healthy streak.
  for (int i = 0; i < 32; ++i) governor.OnFrame(1000);
  EXPECT_EQ(governor.level(), 0);
}

TEST(OverloadGovernorTest, QueueDepthAloneTriggersEscalation) {
  OverloadGovernor::Options options;
  options.window = 4;
  options.queue_high_watermark = 10;
  OverloadGovernor governor(options);
  size_t depth = 50;
  governor.AttachQueueProbe([&depth] { return depth; });
  for (int i = 0; i < 4; ++i) governor.OnFrame(0);  // Fast frames...
  EXPECT_EQ(governor.level(), 1);  // ...but the queue is deep: escalate.
  depth = 0;
  for (int i = 0; i < 16; ++i) governor.OnFrame(0);
  EXPECT_EQ(governor.level(), 0);
}

TEST(OverloadGovernorTest, DirectivesScaleLimitsAndShedByPriority) {
  OverloadGovernor::Options options;
  options.window = 1;
  options.recovery_windows = 1000;  // Stay put once escalated.
  options.overload_latency_ns = 1;
  OverloadGovernor governor(options);

  // Level 0: transparent.
  auto d = governor.FrameDirective(SessionPriority::kNormal, 1000, 100);
  EXPECT_FALSE(d.shed_frame);
  EXPECT_EQ(d.frame_deadline_ns, 1000u);
  EXPECT_EQ(d.node_budget, 100u);
  EXPECT_DOUBLE_EQ(d.horizon_scale, 1.0);

  governor.OnFrame(10);  // -> level 1.
  d = governor.FrameDirective(SessionPriority::kNormal, 1000, 100);
  EXPECT_FALSE(d.shed_frame);
  EXPECT_EQ(d.frame_deadline_ns, 500u);
  EXPECT_EQ(d.node_budget, 50u);
  EXPECT_DOUBLE_EQ(d.horizon_scale, 0.5);
  // A session that declared no deadline gets the governor's default, scaled.
  d = governor.FrameDirective(SessionPriority::kNormal, 0, 0);
  EXPECT_EQ(d.frame_deadline_ns,
            OverloadGovernor::kDefaultFrameDeadlineNs / 2);
  EXPECT_EQ(d.node_budget, 0u);  // Node cap only arrives at level 2.

  governor.OnFrame(10);  // -> level 2: batch shed, others quartered.
  EXPECT_TRUE(
      governor.FrameDirective(SessionPriority::kBatch, 1000, 0).shed_frame);
  d = governor.FrameDirective(SessionPriority::kNormal, 1000, 0);
  EXPECT_FALSE(d.shed_frame);
  EXPECT_EQ(d.frame_deadline_ns, 250u);
  EXPECT_EQ(d.node_budget, OverloadGovernor::kNodeBudgetCap);

  governor.OnFrame(10);  // -> level 3: normal shed too, interactive served.
  EXPECT_TRUE(
      governor.FrameDirective(SessionPriority::kNormal, 1000, 0).shed_frame);
  d = governor.FrameDirective(SessionPriority::kInteractive, 1000, 800);
  EXPECT_FALSE(d.shed_frame);
  EXPECT_EQ(d.frame_deadline_ns, 125u);
  EXPECT_EQ(d.node_budget, 100u);
}

// ---------------------------------------------------------------------------
// Scheduler integration.

std::vector<SessionSpec> MakeSpecs(int n, int frames = 30) {
  std::vector<SessionSpec> specs;
  for (int i = 0; i < n; ++i) {
    SessionSpec spec;
    spec.kind = static_cast<SessionKind>(i % 3);
    spec.seed = 100 + static_cast<uint64_t>(i);
    spec.frames = frames;
    spec.client_id = static_cast<uint64_t>(i % 2);
    specs.push_back(spec);
  }
  return specs;
}

TEST(SchedulerOverloadTest, QuotaRejectionsAreReportedNotPoisoned) {
  Fixture fx;
  BuildFixture(&fx, 21, 1500);
  AdmissionOptions admission_options;
  admission_options.per_client_quota = 1;
  AdmissionController admission(admission_options);
  SessionScheduler::Options options;
  options.num_threads = 1;  // Serial: in-flight quota is 1 at a time...
  options.admission = &admission;
  SessionScheduler scheduler(fx.tree.get(), options);
  // ...so with OnSessionDone wired through, every spec is admitted in turn.
  ExecutorReport report = scheduler.Run(MakeSpecs(6));
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.sessions_rejected, 0u);

  // Without the release (fresh controller, quota saturated up front by
  // never-finishing sessions), rejections surface per session and leave
  // the aggregate status OK.
  AdmissionController saturated(admission_options);
  ASSERT_EQ(saturated.TryAdmit(0, SessionPriority::kNormal, 0),
            AdmissionOutcome::kAdmitted);
  ASSERT_EQ(saturated.TryAdmit(1, SessionPriority::kNormal, 0),
            AdmissionOutcome::kAdmitted);
  options.admission = &saturated;
  SessionScheduler rejecting(fx.tree.get(), options);
  report = rejecting.Run(MakeSpecs(4));
  EXPECT_EQ(report.sessions_rejected, 4u);
  EXPECT_TRUE(report.status.ok());
  for (const SessionResult& s : report.sessions) {
    EXPECT_EQ(s.outcome, SessionResult::Outcome::kRejected);
    EXPECT_TRUE(s.status.IsResourceExhausted()) << s.status.ToString();
    EXPECT_EQ(s.frames_completed, 0u);
  }
}

TEST(SchedulerOverloadTest, NodeBudgetDegradesFramesButSessionsComplete) {
  Fixture fx;
  BuildFixture(&fx, 22, 2000);
  std::vector<SessionSpec> specs = MakeSpecs(3);
  ExecutorReport clean = SessionScheduler(fx.tree.get(), {}).Run(specs);
  ASSERT_TRUE(clean.status.ok());

  // One node pop per frame: every frame visits at least the root plus one
  // child, so every evaluated frame finishes degraded.
  for (SessionSpec& spec : specs) spec.frame_node_budget = 1;
  ExecutorReport squeezed = SessionScheduler(fx.tree.get(), {}).Run(specs);
  EXPECT_TRUE(squeezed.status.ok()) << squeezed.status.ToString();
  EXPECT_GT(squeezed.total_frames_degraded, 0u);
  for (size_t i = 0; i < specs.size(); ++i) {
    const SessionResult& s = squeezed.sessions[i];
    EXPECT_EQ(s.outcome, SessionResult::Outcome::kCompleted);
    EXPECT_EQ(s.frames_completed, clean.sessions[i].frames_completed);
    EXPECT_LE(s.objects_delivered, clean.sessions[i].objects_delivered);
  }
}

TEST(SchedulerOverloadTest, GenerousBudgetKeepsChecksumsBitIdentical) {
  Fixture fx;
  BuildFixture(&fx, 23, 2000);
  std::vector<SessionSpec> specs = MakeSpecs(3);
  ExecutorReport clean = SessionScheduler(fx.tree.get(), {}).Run(specs);
  for (SessionSpec& spec : specs) spec.frame_node_budget = 1u << 30;
  ExecutorReport budgeted = SessionScheduler(fx.tree.get(), {}).Run(specs);
  ASSERT_TRUE(clean.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(budgeted.total_frames_degraded, 0u);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(budgeted.sessions[i].checksum, clean.sessions[i].checksum)
        << "spec " << i;
  }
}

TEST(SchedulerOverloadTest, PreCancelledSessionsEndImmediately) {
  Fixture fx;
  BuildFixture(&fx, 24, 1000);
  QueryBudget budget;
  budget.RequestCancel();
  std::vector<SessionSpec> specs = MakeSpecs(3);
  for (SessionSpec& spec : specs) spec.budget = &budget;
  ExecutorReport report = SessionScheduler(fx.tree.get(), {}).Run(specs);
  EXPECT_TRUE(report.status.ok());
  EXPECT_EQ(report.sessions_cancelled, 3u);
  for (const SessionResult& s : report.sessions) {
    EXPECT_EQ(s.outcome, SessionResult::Outcome::kCancelled);
    EXPECT_EQ(s.frames_completed, 0u);
  }
}

TEST(SchedulerOverloadTest, ConcurrentCancellationHammer) {
  // Cooperative cancellation raced against a threaded run (the TSan stage
  // hammers this): every session must end either completed or cancelled,
  // and the run must terminate promptly either way.
  Fixture fx;
  BuildFixture(&fx, 25, 2000);
  std::vector<SessionSpec> specs = MakeSpecs(8, /*frames=*/200);
  std::vector<std::unique_ptr<QueryBudget>> budgets;
  for (SessionSpec& spec : specs) {
    budgets.push_back(std::make_unique<QueryBudget>());
    spec.budget = budgets.back().get();
  }
  SessionScheduler::Options options;
  options.num_threads = 4;
  SessionScheduler scheduler(fx.tree.get(), options);
  std::thread canceller([&budgets] {
    for (auto& b : budgets) {
      b->RequestCancel();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  ExecutorReport report = scheduler.Run(specs);
  canceller.join();
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  uint64_t cancelled = 0;
  for (const SessionResult& s : report.sessions) {
    EXPECT_NE(s.outcome, SessionResult::Outcome::kRejected);
    if (s.outcome == SessionResult::Outcome::kCancelled) ++cancelled;
  }
  EXPECT_EQ(report.sessions_cancelled, cancelled);
}

TEST(SchedulerOverloadTest, EscalatedGovernorShedsLowPriorityFrames) {
  Fixture fx;
  BuildFixture(&fx, 26, 1500);
  // Every frame is an evaluation window and every frame counts as slow, so
  // the governor pins itself at the deepest level; the huge recovery
  // requirement keeps it there for the whole run.
  OverloadGovernor::Options esc;
  esc.window = 1;
  esc.overload_latency_ns = 1;
  esc.recovery_windows = 1 << 20;
  OverloadGovernor hot(esc);
  for (int i = 0; i < 3; ++i) hot.OnFrame(10);
  ASSERT_EQ(hot.level(), 3);

  std::vector<SessionSpec> specs = MakeSpecs(4, /*frames=*/40);
  specs[0].priority = SessionPriority::kInteractive;
  specs[1].priority = SessionPriority::kNormal;
  specs[2].priority = SessionPriority::kBatch;
  specs[3].priority = SessionPriority::kBatch;
  SessionScheduler::Options options;
  options.governor = &hot;
  SessionScheduler scheduler(fx.tree.get(), options);
  ExecutorReport report = scheduler.Run(specs);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  // Interactive is served (possibly degraded); normal and batch are shed.
  EXPECT_GT(report.sessions[0].frames_completed, 0u);
  for (size_t i = 1; i < specs.size(); ++i) {
    EXPECT_EQ(report.sessions[i].frames_shed,
              static_cast<uint64_t>(specs[i].frames))
        << "spec " << i;
    EXPECT_EQ(report.sessions[i].objects_delivered, 0u);
  }
  EXPECT_GT(report.total_frames_shed, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: no permanent loss once faults clear (session + writer sweep).

MotionSegment PathSegment(uint64_t j, double t) {
  // A static object parked on the observer's path (10 + 0.8t diagonal),
  // alive for a long window around its insertion time.
  const double x = 10.0 + 0.8 * t;
  MotionSegment m(static_cast<ObjectId>(1000000 + j),
                  StSegment(Vec(x, x), Vec(x, x),
                            Interval(std::max(0.0, t - 5.0), 100.0)));
  m.seg = QuantizeStored(m.seg);
  return m;
}

void NoLossSweep(bool constant_velocity, uint64_t seed, uint64_t stop_after) {
  Fixture fx;
  BuildFixture(&fx, seed);
  TreeGate gate(&fx.file);

  // Faults: seeded transient stream whose window closes after read
  // #stop_after. The caller picks stop_after well under the reads the first
  // 60 frames issue, so the second half of the run is provably clean.
  FaultInjector::Options fault_options;
  fault_options.seed = seed * 7 + 1;
  fault_options.transient_fault_rate = 0.25;
  fault_options.stop_after = stop_after;
  FaultInjector injector(fault_options);
  FaultyPageReader faulty(&fx.file, &injector);

  QueryBudget budget;
  DynamicQuerySession::Options options;
  options.window = 16.0;
  options.deviation_bound = 2.0;
  options.prediction_horizon = 20.0;
  // Constant velocity: the session stabilizes predictive and every
  // degraded predictive frame exercises the PDQ->NPDQ hand-off. Otherwise:
  // the session stays non-predictive, isolating the NPDQ
  // ResetHistory-on-degraded contract across the fault-clear boundary.
  options.stable_frames_to_predict = constant_velocity ? 2 : (1 << 20);
  options.reader = &faulty;
  options.fault_policy = FaultPolicy::kSkipSubtree;
  options.budget = &budget;
  DynamicQuerySession session(fx.tree.get(), options);

  // Writer: inserts objects onto the observer's future path while the
  // session runs (first 60 frames), under the exclusive gate.
  std::atomic<bool> writer_stop{false};
  std::thread writer([&fx, &gate, &writer_stop] {
    // Capped at 100 inserts so the parked objects stay inside the data
    // horizon (t <= 55 < 100) whatever the frame loop's real-time pace.
    for (uint64_t j = 0; j < 100 && !writer_stop.load(); ++j) {
      {
        auto guard = gate.LockExclusive();
        ASSERT_TRUE(
            fx.tree->Insert(PathSegment(j, 5.0 + 0.5 * static_cast<double>(j)))
                .ok());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  auto position_at = [constant_velocity](double t) {
    const double base = 10.0 + 0.8 * t;
    // The wobble keeps a non-constant-velocity observer unpredictable.
    const double wobble = constant_velocity ? 0.0 : 3.0 * std::sin(t);
    return Vec(base + wobble, base - wobble);
  };

  std::set<MotionSegment::Key> delivered;
  uint64_t degraded_frames = 0;
  double last_t = 0.0;
  Vec last_pos(2);
  auto run_frames = [&](int from, int to) {
    for (int i = from; i <= to; ++i) {
      const double t = 0.6 * i;
      const Vec pos = position_at(t);
      const Vec vel(0.8, 0.8);
      // Budget squeeze on a band of early frames: budget-degraded frames
      // must heal exactly like fault-degraded ones.
      if (i >= 20 && i < 30) {
        budget.ArmFrame({0, /*node_budget=*/5});
      } else {
        budget.Disarm();
      }
      auto lock = gate.LockShared();
      auto frame = session.OnFrame(t, pos, vel);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      for (const MotionSegment& m : frame->fresh) delivered.insert(m.key());
      if (frame->integrity == ResultIntegrity::kPartial) ++degraded_frames;
      last_t = t;
      last_pos = pos;
    }
  };

  run_frames(1, 60);
  writer_stop.store(true);
  writer.join();
  {  // One empty exclusive section publishes the writer's last batch.
    auto guard = gate.LockExclusive();
  }
  const uint64_t reads_at_recovery = injector.reads_seen();
  run_frames(61, 120);

  // Preconditions: the run really did degrade, and the fault window really
  // did close before the recovery half of the run began — every read in
  // frames 61..120 passed clean.
  ASSERT_GT(degraded_frames, 0u);
  ASSERT_GT(injector.faults_injected(), 0u);
  ASSERT_GE(reads_at_recovery, fault_options.stop_after);
  ASSERT_GT(injector.reads_seen(), reads_at_recovery);

  // Oracle: a fresh NPDQ snapshot on the final tree retrieves everything
  // visible in the final frame's query box. Every one of those objects
  // must have been delivered at some frame — nothing a degraded snapshot
  // masked may stay lost once the faults cleared. Exact leaf semantics:
  // the default bounding-box test would also count fast movers whose rect
  // overlaps the box but whose trajectory never enters the window — objects
  // no entry-event (PDQ) service is required to deliver.
  NpdqOptions oracle_options;
  oracle_options.leaf_semantics = LeafSemantics::kExact;
  oracle_options.spatial_pruning = SpatialPruning::kNodeContained;
  NonPredictiveDynamicQuery oracle(fx.tree.get(), oracle_options);
  const StBox final_box(Box::Centered(last_pos, options.window),
                        Interval(last_t - 0.6, last_t));
  auto visible = oracle.Execute(final_box);
  ASSERT_TRUE(visible.ok());
  ASSERT_GT(visible->size(), 0u);
  std::vector<MotionSegment::Key> missing;
  for (const MotionSegment& m : *visible) {
    if (delivered.count(m.key()) == 0) missing.push_back(m.key());
  }
  EXPECT_TRUE(missing.empty())
      << missing.size() << " of " << visible->size()
      << " visible objects were never delivered";
}

TEST(NoPermanentLossTest, HandoffSessionRecoversEverythingOnceFaultsClear) {
  NoLossSweep(/*constant_velocity=*/true, 31, /*stop_after=*/30);
  NoLossSweep(/*constant_velocity=*/true, 32, /*stop_after=*/30);
}

TEST(NoPermanentLossTest, NpdqSessionRecoversEverythingOnceFaultsClear) {
  NoLossSweep(/*constant_velocity=*/false, 33, /*stop_after=*/150);
  NoLossSweep(/*constant_velocity=*/false, 34, /*stop_after=*/150);
}

}  // namespace
}  // namespace dqmo
