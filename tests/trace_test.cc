// Causal-tracing tests (common/trace.h) against the sharded engine.
//
// The tentpole claim: when a frame on an N-shard disk-backed engine is
// slow, the tracer captures ONE merged span tree for that client frame —
// per-shard subtrees from the frame thread plus worker-thread spans
// (prefetch completions) attributed causally via the frame's remote sink — and arming the tracer never changes query
// results. The tests here prove shard/worker attribution on a 16-shard
// pread engine, byte-identical checksums armed vs unarmed, that shed
// frames never leave a half-captured tree, that sticky cancellation on an
// armed frame cannot deadlock the frame teardown, and (under TSan via
// tools/ci.sh) that remote attribution races cleanly with frame close.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "server/executor.h"
#include "server/overload.h"
#include "server/router.h"
#include "server/shard.h"
#include "workload/data_generator.h"

namespace dqmo {
namespace {

std::vector<MotionSegment> ShapedData(uint64_t seed, int objects = 300,
                                      double horizon = 12.0) {
  DataGeneratorOptions opt;
  opt.num_objects = objects;
  opt.horizon = horizon;
  opt.seed = seed;
  opt.shape = WorkloadShape::kUniform;
  auto data = GenerateMotionData(opt);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.ok() ? std::move(data).value() : std::vector<MotionSegment>{};
}

/// Restores the tracer's configuration and clears its captures on exit so
/// tests cannot leak arming into each other (gtest runs them in one
/// process).
class TracerGuard {
 public:
  TracerGuard() : saved_(Tracer::Global().options()) {}
  ~TracerGuard() {
    Tracer::Global().Configure(saved_);
    Tracer::Global().ClearSlowFrames();
    Tracer::Global().ResetSlowestFrame();
  }
  TracerGuard(const TracerGuard&) = delete;
  TracerGuard& operator=(const TracerGuard&) = delete;

 private:
  Tracer::Options saved_;
};

std::string ScratchDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// A durable pread engine whose read path exercises the worker-thread
/// span source: no decoded-node cache (every node visit reaches the
/// pool), a pool too small to absorb the working set (misses flow down
/// the failure-domain chain), and speculative prefetch (of image pages:
/// MakeEngine checkpoints the load).
ShardedEngineOptions DiskEngineOptions(const std::string& dir,
                                       int shards = 16) {
  ShardedEngineOptions opt;
  opt.num_shards = shards;
  opt.cache_nodes = 0;
  opt.pool_pages = 64;
  opt.durable_dir = dir;
  opt.io_backend = IoBackend::kPread;
  opt.prefetch_depth = 8;
  opt.failure_domains = true;
  return opt;
}

std::unique_ptr<ShardedEngine> MakeEngine(
    const ShardedEngineOptions& opt, const std::vector<MotionSegment>& data) {
  auto engine = ShardedEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return nullptr;
  EXPECT_TRUE((*engine)->InsertBatch(data).ok());
  EXPECT_TRUE((*engine)->Checkpoint().ok());
  return std::move(engine).value();
}

SessionSpec RoutedSpec(SessionKind kind, uint64_t seed, int frames = 16) {
  SessionSpec spec;
  spec.kind = kind;
  spec.seed = 100 + seed;
  spec.frames = frames;
  spec.t0 = 1.0;
  spec.region_hi = 94.0;
  return spec;
}

/// Frame-thread spans must form a preorder tree: depths start at 0 and
/// never jump by more than one (a child is exactly one deeper than its
/// parent). A violated sequence means a frame closed with dangling spans.
void ExpectWellFormedTree(const FrameTrace& trace, const std::string& label) {
  uint16_t prev_depth = 0;
  bool first = true;
  for (const SpanRecord& span : trace.spans) {
    if (span.origin != SpanOrigin::kFrameThread) continue;
    if (first) {
      EXPECT_EQ(span.depth, 0u) << label << ": first span not a root";
      first = false;
    } else {
      EXPECT_LE(span.depth, prev_depth + 1)
          << label << ": depth jumps over a level";
    }
    EXPECT_LE(span.start_ns + span.duration_ns,
              trace.duration_ns + trace.duration_ns / 4 + 1000000)
        << label << ": span extends far past its frame";
    prev_depth = span.depth;
  }
}

TEST(TracerBasicsTest, UnarmedFrameIsInert) {
  TracerGuard guard;
  Tracer::Options off;  // No sampling, no deadline, no slowest-tracking.
  Tracer::Global().Configure(off);
  EXPECT_FALSE(Tracer::FrameArmed());
  {
    Tracer::FrameScope frame(1, 1);
    EXPECT_FALSE(Tracer::FrameArmed());
    EXPECT_EQ(Tracer::ActiveFrame(), nullptr);
    EXPECT_EQ(Tracer::CurrentContext().trace_id, 0u);
    Tracer::SpanScope span(SpanKind::kNodeFetch, 7);  // Must be a no-op.
  }
  EXPECT_FALSE(Tracer::FrameArmed());
  EXPECT_EQ(Tracer::Global().SlowestFrame().duration_ns, 0u);
}

TEST(TracerBasicsTest, ArmedFrameMintsContextAndCapturesTree) {
  TracerGuard guard;
  Tracer::Options opt;
  opt.track_slowest = true;
  Tracer::Global().Configure(opt);
  Tracer::Global().ResetSlowestFrame();
  {
    Tracer::FrameScope frame(42, 7);
    ASSERT_TRUE(Tracer::FrameArmed());
    const TraceContext ctx = Tracer::CurrentContext();
    EXPECT_NE(ctx.trace_id, 0u);
    EXPECT_EQ(ctx.frame_seq, 7u);
    EXPECT_EQ(ctx.shard_id, -1);
    {
      Tracer::ShardScope shard(3);
      EXPECT_EQ(Tracer::CurrentContext().shard_id, 3);
      Tracer::SpanScope inner(SpanKind::kNodeFetch, 11);
    }
    EXPECT_EQ(Tracer::CurrentContext().shard_id, -1);
  }
  EXPECT_FALSE(Tracer::FrameArmed());
  const FrameTrace slowest = Tracer::Global().SlowestFrame();
  ASSERT_GT(slowest.duration_ns, 0u);
  EXPECT_EQ(slowest.session_id, 42u);
  EXPECT_EQ(slowest.frame_index, 7u);
  ASSERT_EQ(slowest.spans.size(), 2u);
  EXPECT_EQ(slowest.spans[0].kind, SpanKind::kShardEval);
  EXPECT_EQ(slowest.spans[0].shard, 3);
  EXPECT_EQ(slowest.spans[1].kind, SpanKind::kNodeFetch);
  EXPECT_EQ(slowest.spans[1].shard, 3);
  EXPECT_EQ(slowest.spans[1].depth, 1u);
  const std::string rendered = slowest.ToString();
  EXPECT_NE(rendered.find("[shard 3]"), std::string::npos) << rendered;
}

TEST(TracerBasicsTest, LateWorkerSpanCountsAsOrphan) {
  TracerGuard guard;
  Tracer::Options opt;
  opt.track_slowest = true;
  Tracer::Global().Configure(opt);
  Counter* orphans = MetricsRegistry::Global().GetCounter(
      "dqmo_trace_orphan_spans_total");
  Tracer::FrameHandle handle;
  {
    Tracer::FrameScope frame(1, 1);
    handle = Tracer::ActiveFrame();
    ASSERT_NE(handle, nullptr);
    // In-flight attribution lands while the frame is open.
    const uint64_t before = orphans->value();
    Tracer::RecordRemote(handle, SpanKind::kPrefetchRead,
                         SpanOrigin::kPrefetchWorker, 2, NowNs(), 10, 1);
    EXPECT_EQ(orphans->value(), before);
  }
  // The frame closed: the same handle now attributes nowhere, and the
  // span must be counted, not silently dropped.
  const uint64_t before = orphans->value();
  Tracer::RecordRemote(handle, SpanKind::kPrefetchRead,
                       SpanOrigin::kPrefetchWorker, 2, NowNs(), 10, 1);
  EXPECT_EQ(orphans->value(), before + 1);
  // As must a span whose submit-time capture found no armed frame.
  Tracer::RecordRemote(nullptr, SpanKind::kPrefetchRead,
                       SpanOrigin::kPrefetchWorker, 0, NowNs(), 10, 1);
  EXPECT_EQ(orphans->value(), before + 2);
  const FrameTrace slowest = Tracer::Global().SlowestFrame();
  EXPECT_EQ(slowest.remote_spans, 1u);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: a 16-shard pread engine under deadline arming
// produces merged trees with full shard attribution and worker-thread
// spans, and the armed run's results are byte-identical to an unarmed
// twin's.

TEST(TracerShardedTest, MergedTreeAttributesAllShardsAndWorkers) {
  const std::vector<MotionSegment> data = ShapedData(7, 400);
  const std::string dir_armed = ScratchDir("dqmo_trace_armed");
  const std::string dir_plain = ScratchDir("dqmo_trace_plain");
  std::unique_ptr<ShardedEngine> armed_engine =
      MakeEngine(DiskEngineOptions(dir_armed), data);
  std::unique_ptr<ShardedEngine> plain_engine =
      MakeEngine(DiskEngineOptions(dir_plain), data);
  ASSERT_NE(armed_engine, nullptr);
  ASSERT_NE(plain_engine, nullptr);

  ShardRouter::Options ropt;
  ropt.spatial_prune = false;  // Every shard evaluated every frame.
  const SessionSpec spec = RoutedSpec(SessionKind::kSession, 7);

  ShardedSessionResult with_trace;
  uint64_t captured = 0;
  std::vector<FrameTrace> frames;
  {
    TracerGuard guard;
    Tracer::Options topt;
    topt.slow_frame_ns = 1;  // Every completed frame overruns: all captured.
    topt.track_slowest = true;
    topt.slow_log_capacity = 64;
    Tracer::Global().Configure(topt);
    Tracer::Global().ClearSlowFrames();
    Tracer::Global().ResetSlowestFrame();
    with_trace = ShardRouter(armed_engine.get(), ropt).RunOne(spec);
    EXPECT_FALSE(Tracer::FrameArmed());
    captured = Tracer::Global().slow_frames_captured();
    frames = Tracer::Global().SlowFrames();
  }
  ASSERT_TRUE(with_trace.result.status.ok())
      << with_trace.result.status.ToString();
  EXPECT_EQ(captured, with_trace.result.frames_completed);
  ASSERT_EQ(frames.size(), static_cast<size_t>(spec.frames));

  bool merged_cross_shard_tree = false;
  bool any_prefetch_worker = false;
  for (const FrameTrace& trace : frames) {
    ExpectWellFormedTree(trace, "frame " + std::to_string(trace.frame_index));
    EXPECT_NE(trace.trace_id, 0u);
    std::set<int> shards;
    uint64_t workers = 0;
    for (const SpanRecord& span : trace.spans) {
      if (span.kind == SpanKind::kShardEval &&
          span.origin == SpanOrigin::kFrameThread) {
        shards.insert(span.shard);
      }
      if (span.origin == SpanOrigin::kPrefetchWorker &&
          (span.kind == SpanKind::kPrefetchRead ||
           span.kind == SpanKind::kPrefetchWaste)) {
        any_prefetch_worker = true;
        EXPECT_GE(span.shard, 0) << "prefetch span without shard attribution";
      }
      if (span.origin != SpanOrigin::kFrameThread) ++workers;
    }
    EXPECT_EQ(trace.remote_spans, workers);
    // One merged tree for the client frame: all 16 shards' subtrees plus
    // at least one worker-thread span in the same capture.
    if (shards.size() == 16 && workers > 0) merged_cross_shard_tree = true;
  }
  EXPECT_TRUE(merged_cross_shard_tree)
      << "no captured frame merged all 16 shard subtrees with worker spans";
  EXPECT_TRUE(any_prefetch_worker) << "no prefetch-worker span captured";

  // The rendering carries the attribution a human debugs with.
  const FrameTrace slowest = [&] {
    FrameTrace best;
    for (const FrameTrace& t : frames) {
      if (t.duration_ns > best.duration_ns && t.remote_spans > 0) best = t;
    }
    return best;
  }();
  if (slowest.duration_ns > 0) {
    const std::string rendered = slowest.ToString();
    EXPECT_NE(rendered.find("[shard "), std::string::npos) << rendered;
    EXPECT_NE(rendered.find('~'), std::string::npos) << rendered;
  }

  // Byte-identical results: the unarmed twin answers exactly the same.
  const ShardedSessionResult without_trace =
      ShardRouter(plain_engine.get(), ropt).RunOne(spec);
  ASSERT_TRUE(without_trace.result.status.ok());
  EXPECT_EQ(with_trace.result.checksum, without_trace.result.checksum);
  EXPECT_EQ(with_trace.result.objects_delivered,
            without_trace.result.objects_delivered);

  armed_engine.reset();
  plain_engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_armed, ec);
  std::filesystem::remove_all(dir_plain, ec);
}

// ---------------------------------------------------------------------------
// Shed frames never leave a half-captured tree: a frame the governor
// sheds is skipped before its FrameScope opens, so the capture count is
// exactly the completed-frame count and no captured tree is empty.

TEST(TracerShedTest, ShedFramesLeaveNoHalfCapturedTree) {
  PageFile file;
  auto tree = RTree::Create(&file, RTree::Options());
  ASSERT_TRUE(tree.ok());
  const std::vector<MotionSegment> data = ShapedData(3, 200);
  for (const MotionSegment& m : data) ASSERT_TRUE((*tree)->Insert(m).ok());
  ASSERT_TRUE(file.Publish().ok());

  // Pin the governor at its deepest level for the whole run: batch and
  // normal frames shed, interactive served.
  OverloadGovernor::Options esc;
  esc.window = 1;
  esc.overload_latency_ns = 1;
  esc.recovery_windows = 1 << 20;
  OverloadGovernor hot(esc);
  for (int i = 0; i < 3; ++i) hot.OnFrame(10);
  ASSERT_EQ(hot.level(), 3);

  TracerGuard guard;
  Tracer::Options topt;
  topt.slow_frame_ns = 1;  // Every completed frame is captured.
  Tracer::Global().Configure(topt);
  Tracer::Global().ClearSlowFrames();

  std::vector<SessionSpec> specs;
  specs.push_back(RoutedSpec(SessionKind::kSession, 1, 12));
  specs[0].priority = SessionPriority::kInteractive;
  specs.push_back(RoutedSpec(SessionKind::kNpdq, 2, 12));
  specs[1].priority = SessionPriority::kBatch;  // Every frame shed.
  SessionScheduler::Options sopt;
  sopt.governor = &hot;
  ExecutorReport report = SessionScheduler(tree->get(), sopt).Run(specs);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_FALSE(Tracer::FrameArmed());

  // The batch session shed all 12 frames; none may appear in the log.
  EXPECT_EQ(report.sessions[1].frames_shed, 12u);
  EXPECT_GT(report.sessions[0].frames_completed, 0u);
  EXPECT_EQ(Tracer::Global().slow_frames_captured(),
            report.sessions[0].frames_completed +
                report.sessions[1].frames_completed);
  for (const FrameTrace& trace : Tracer::Global().SlowFrames()) {
    EXPECT_GT(trace.duration_ns, 0u);
    EXPECT_NE(trace.trace_id, 0u);
    ExpectWellFormedTree(trace, "shed-run frame");
  }
}

// ---------------------------------------------------------------------------
// Sticky cancellation on an armed frame: the cancel lands mid-run, the
// session winds down through FrameScope teardown (sink sealing takes the
// sink mutex) without deadlock, and the engine stays usable.

TEST(TracerCancelTest, StickyCancellationOnArmedFrameNoDeadlock) {
  const std::vector<MotionSegment> data = ShapedData(5, 250);
  const std::string dir = ScratchDir("dqmo_trace_cancel");
  std::unique_ptr<ShardedEngine> engine =
      MakeEngine(DiskEngineOptions(dir, /*shards=*/4), data);
  ASSERT_NE(engine, nullptr);

  TracerGuard guard;
  Tracer::Options topt;
  topt.track_slowest = true;
  topt.slow_frame_ns = 1;
  Tracer::Global().Configure(topt);
  Tracer::Global().ClearSlowFrames();

  QueryBudget budget;
  SessionSpec spec = RoutedSpec(SessionKind::kSession, 5, 40);
  spec.budget = &budget;
  ShardRouter::Options ropt;
  ropt.spatial_prune = false;
  ropt.frame_hook = [&budget](int frame) {
    if (frame == 4) budget.RequestCancel();  // Mid-run, frames armed.
  };
  const ShardedSessionResult res = ShardRouter(engine.get(), ropt).RunOne(spec);
  ASSERT_TRUE(res.result.status.ok()) << res.result.status.ToString();
  EXPECT_EQ(res.result.outcome, SessionResult::Outcome::kCancelled);
  EXPECT_LT(res.result.frames_completed, 40u);
  EXPECT_FALSE(Tracer::FrameArmed());
  for (const FrameTrace& trace : Tracer::Global().SlowFrames()) {
    ExpectWellFormedTree(trace, "cancelled-run frame");
  }

  // The engine survived teardown mid-capture: a fresh unbudgeted run works.
  SessionSpec again = RoutedSpec(SessionKind::kKnn, 6, 4);
  const ShardedSessionResult ok = ShardRouter(engine.get(), ropt).RunOne(again);
  EXPECT_TRUE(ok.result.status.ok()) << ok.result.status.ToString();

  engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (run under TSan by tools/ci.sh): concurrent armed
// sessions on one disk engine — prefetch completions attribute spans to
// racing frames while another thread cancels budgets.
// Late completions after a frame closes must count as orphans, never
// tear a sink.

TEST(TraceConcurrencyTest, RemoteAttributionRacesFrameClose) {
  const std::vector<MotionSegment> data = ShapedData(11, 250);
  const std::string dir = ScratchDir("dqmo_trace_hammer");
  std::unique_ptr<ShardedEngine> engine =
      MakeEngine(DiskEngineOptions(dir, /*shards=*/4), data);
  ASSERT_NE(engine, nullptr);

  TracerGuard guard;
  Tracer::Options topt;
  topt.sample_every = 2;
  topt.slow_frame_ns = 1;
  topt.track_slowest = true;
  Tracer::Global().Configure(topt);
  Tracer::Global().ClearSlowFrames();

  constexpr int kThreads = 3;
  constexpr int kRuns = 2;
  std::atomic<bool> failed{false};
  std::vector<QueryBudget> budgets(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRuns; ++r) {
        SessionSpec spec = RoutedSpec(
            t % 2 == 0 ? SessionKind::kSession : SessionKind::kKnn,
            static_cast<uint64_t>(10 * t + r), /*frames=*/8);
        if (r == kRuns - 1) spec.budget = &budgets[static_cast<size_t>(t)];
        ShardRouter::Options ropt;
        ropt.spatial_prune = false;
        const ShardedSessionResult res =
            ShardRouter(engine.get(), ropt).RunOne(spec);
        if (!res.result.status.ok()) failed.store(true);
        if (Tracer::FrameArmed()) failed.store(true);  // Leaked arming.
      }
    });
  }
  threads.emplace_back([&] {
    // Cancel storms against whichever budgeted runs are in flight.
    for (int i = 0; i < 50; ++i) {
      budgets[static_cast<size_t>(i % kThreads)].RequestCancel();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  for (const FrameTrace& trace : Tracer::Global().SlowFrames()) {
    ExpectWellFormedTree(trace, "hammer frame");
  }

  engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace dqmo
