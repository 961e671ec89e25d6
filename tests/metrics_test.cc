// Tests for the metrics/tracing layer: log-bucket placement (property
// test), snapshot merge algebra, multi-thread hammering (the TSan stage
// runs this binary), registry exposition formats, the enabled/disabled
// gating contract, and the slow-frame span-tree capture.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "rtree/stats.h"
#include "server/health.h"
#include "server/scrubber.h"
#include "server/shard.h"
#include "workload/data_generator.h"

namespace dqmo {
namespace {

// Every test forces metrics on (the binary may run under DQMO_METRICS=off)
// and starts from zeroed values. Compile-time-disabled builds skip: the
// record paths are folded out, so there is nothing to test.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    if (!MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
    MetricsRegistry::Global().ResetAll();
  }
};

// ---------------------------------------------------------------------------
// Bucket placement.

TEST_F(MetricsTest, BucketIndexKnownValues) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(10), 512u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
}

// Property: every value lands in a bucket whose [lower, upper] range
// contains it, across the whole 64-bit range (uniform bit widths, so high
// buckets are exercised as hard as low ones).
TEST_F(MetricsTest, BucketIndexProperty) {
  std::mt19937_64 rng(20260806);
  for (int i = 0; i < 20000; ++i) {
    const int width = static_cast<int>(rng() % 65);  // 0..64 significant bits.
    const uint64_t v =
        width == 0 ? 0 : (rng() >> (64 - width)) | (uint64_t{1} << (width - 1));
    const int b = Histogram::BucketIndex(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kNumBuckets);
    ASSERT_LE(Histogram::BucketLowerBound(b), v)
        << "v=" << v << " bucket=" << b;
    ASSERT_GE(Histogram::BucketUpperBound(b), v)
        << "v=" << v << " bucket=" << b;
    // Buckets tile the domain: the next bucket starts right after this one.
    if (b < 64) {
      ASSERT_EQ(Histogram::BucketLowerBound(b + 1),
                Histogram::BucketUpperBound(b) + 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Recording and quantiles.

TEST_F(MetricsTest, RecordAndSnapshot) {
  Histogram h;
  for (uint64_t v : {0ull, 1ull, 5ull, 1000ull}) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1006u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.buckets[0], 1u);  // 0
  EXPECT_EQ(snap.buckets[1], 1u);  // 1
  EXPECT_EQ(snap.buckets[3], 1u);  // 5 in [4, 7]
  EXPECT_EQ(snap.buckets[10], 1u);  // 1000 in [512, 1023]
  EXPECT_DOUBLE_EQ(snap.mean(), 1006.0 / 4.0);
}

TEST_F(MetricsTest, PercentileUpperBoundAndClamp) {
  Histogram h;
  for (int i = 0; i < 9; ++i) h.Record(1);
  h.Record(1000);
  const HistogramSnapshot snap = h.Snapshot();
  // p50 is in the bucket of 1 (exact upper bound 1); p95+ falls into the
  // bucket of 1000, whose upper bound (1023) clamps to the observed max.
  EXPECT_EQ(snap.Percentile(50), 1u);
  EXPECT_EQ(snap.Percentile(95), 1000u);
  EXPECT_EQ(snap.Percentile(99), 1000u);
  EXPECT_EQ(snap.Percentile(100), 1000u);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(99), 0u);  // Empty: no samples.
}

// ---------------------------------------------------------------------------
// Merge algebra: commutative and associative, so per-thread / per-shard
// snapshots can be combined in any order.

HistogramSnapshot RandomSnapshot(uint64_t seed, int samples) {
  std::mt19937_64 rng(seed);
  Histogram h;
  for (int i = 0; i < samples; ++i) h.Record(rng() >> (rng() % 64));
  return h.Snapshot();
}

void ExpectEqualSnapshots(const HistogramSnapshot& a,
                          const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  for (int i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
    ASSERT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

TEST_F(MetricsTest, MergeCommutative) {
  const HistogramSnapshot a = RandomSnapshot(1, 500);
  const HistogramSnapshot b = RandomSnapshot(2, 300);
  HistogramSnapshot ab = a;
  ab.Merge(b);
  HistogramSnapshot ba = b;
  ba.Merge(a);
  ExpectEqualSnapshots(ab, ba);
  EXPECT_EQ(ab.count, a.count + b.count);
  EXPECT_EQ(ab.sum, a.sum + b.sum);
}

TEST_F(MetricsTest, MergeAssociative) {
  const HistogramSnapshot a = RandomSnapshot(3, 400);
  const HistogramSnapshot b = RandomSnapshot(4, 200);
  const HistogramSnapshot c = RandomSnapshot(5, 100);
  HistogramSnapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  ExpectEqualSnapshots(ab_c, a_bc);
}

// ---------------------------------------------------------------------------
// Concurrency: the histogram's lock-free recording must neither race (TSan
// runs this binary in ci.sh) nor lose counts.

TEST_F(MetricsTest, ConcurrentHistogramHammer) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  Histogram h;
  Counter c;
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<uint64_t>(t * kPerThread + i) % 4096;
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * kPerThread + i) % 4096);
        c.Add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.max, 4095u);
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry and exposition.

TEST_F(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c1 = reg.GetCounter("dqmo_test_stable_total", "help once");
  Counter* c2 = reg.GetCounter("dqmo_test_stable_total");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = reg.GetHistogram("dqmo_test_stable_ns");
  Histogram* h2 = reg.GetHistogram("dqmo_test_stable_ns");
  EXPECT_EQ(h1, h2);
}

TEST_F(MetricsTest, PrometheusTextFormat) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("dqmo_test_events_total", "Test events")->Add(3);
  Histogram* h = reg.GetHistogram("dqmo_test_wait_ns", "Test waits");
  h->Record(1);
  h->Record(1);
  h->Record(700);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# HELP dqmo_test_events_total Test events"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dqmo_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dqmo_test_events_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dqmo_test_wait_ns histogram"),
            std::string::npos);
  // Cumulative le-series: the bucket of 1 holds 2 samples, and by the
  // bucket of 700 ([512, 1023]) all 3 are covered.
  EXPECT_NE(text.find("dqmo_test_wait_ns_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dqmo_test_wait_ns_bucket{le=\"1023\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("dqmo_test_wait_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("dqmo_test_wait_ns_sum 702"), std::string::npos);
  EXPECT_NE(text.find("dqmo_test_wait_ns_count 3"), std::string::npos);
}

TEST_F(MetricsTest, JsonTextFormat) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("dqmo_test_json_total")->Add(7);
  reg.GetGauge("dqmo_test_json_depth")->Set(-2);
  reg.GetHistogram("dqmo_test_json_ns")->Record(42);
  const std::string json = reg.JsonText();
  EXPECT_NE(json.find("\"dqmo_test_json_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"dqmo_test_json_depth\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"dqmo_test_json_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST_F(MetricsTest, RowsSortedByName) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("dqmo_test_zz_total")->Add(1);
  reg.GetCounter("dqmo_test_aa_total")->Add(1);
  const std::vector<MetricsRegistry::Row> rows = reg.Rows();
  ASSERT_GE(rows.size(), 2u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].name, rows[i].name);
  }
}

// ---------------------------------------------------------------------------
// Gating: with metrics off, record paths are inert and the timing helpers
// never touch the clock (TickNs() == 0 and RecordSince(0) is a no-op).

TEST_F(MetricsTest, DisabledRecordingIsInert) {
  Counter c;
  Gauge g;
  Histogram h;
  SetMetricsEnabled(false);
  EXPECT_EQ(TickNs(), 0u);
  c.Add(5);
  g.Set(9);
  h.Record(123);
  h.RecordSince(0);
  { ScopedLatencyTimer timer(&h); }
  SetMetricsEnabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

// ---------------------------------------------------------------------------
// Tracer: slow-frame capture reproduces the span tree.

class TracerTest : public MetricsTest {
 protected:
  void SetUp() override {
    MetricsTest::SetUp();
    if (IsSkipped()) return;
    saved_ = Tracer::Global().options();
    Tracer::Global().ClearSlowFrames();
  }
  void TearDown() override {
    if (!IsSkipped()) {
      Tracer::Global().Configure(saved_);
      Tracer::Global().ClearSlowFrames();
    }
    MetricsTest::TearDown();
  }
  Tracer::Options saved_;
};

TEST_F(TracerTest, SlowFrameCapturesSpanTree) {
  Tracer::Options options;
  options.slow_frame_ns = 1000;  // 1us: the sleeping frame must overrun it.
  Tracer::Global().Configure(options);
  {
    Tracer::FrameScope frame(/*session_id=*/7, /*frame_index=*/42);
    ASSERT_TRUE(Tracer::FrameArmed());
    Tracer::SpanScope fetch(SpanKind::kNodeFetch, /*detail=*/19);
    {
      Tracer::SpanScope decode(SpanKind::kSoaDecode);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_FALSE(Tracer::FrameArmed());
  ASSERT_EQ(Tracer::Global().slow_frames_captured(), 1u);
  const std::vector<FrameTrace> frames = Tracer::Global().SlowFrames();
  ASSERT_EQ(frames.size(), 1u);
  const FrameTrace& trace = frames[0];
  EXPECT_EQ(trace.session_id, 7u);
  EXPECT_EQ(trace.frame_index, 42u);
  EXPECT_EQ(trace.deadline_ns, 1000u);
  EXPECT_GT(trace.duration_ns, 1000u);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].kind, SpanKind::kNodeFetch);
  EXPECT_EQ(trace.spans[0].depth, 0);
  EXPECT_EQ(trace.spans[0].detail, 19u);
  EXPECT_EQ(trace.spans[1].kind, SpanKind::kSoaDecode);
  EXPECT_EQ(trace.spans[1].depth, 1);
  // Both spans cover the 2ms sleep; the child cannot outlast the parent.
  EXPECT_GE(trace.spans[1].duration_ns, 2000000u);
  EXPECT_GE(trace.spans[0].duration_ns, trace.spans[1].duration_ns);
  const std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("session=7"), std::string::npos);
  EXPECT_NE(rendered.find("index=42"), std::string::npos);
  EXPECT_NE(rendered.find("node_fetch"), std::string::npos);
  EXPECT_NE(rendered.find("soa_decode"), std::string::npos);
  // The child renders one indent level deeper than its parent.
  EXPECT_NE(rendered.find("\n  node_fetch"), std::string::npos);
  EXPECT_NE(rendered.find("\n    soa_decode"), std::string::npos);
}

TEST_F(TracerTest, FastFrameIsNotLogged) {
  Tracer::Options options;
  options.slow_frame_ns = uint64_t{60} * 1000 * 1000 * 1000;  // 60s.
  Tracer::Global().Configure(options);
  {
    Tracer::FrameScope frame(1, 1);
    Tracer::SpanScope span(SpanKind::kKernelPrune);
  }
  EXPECT_EQ(Tracer::Global().slow_frames_captured(), 0u);
}

TEST_F(TracerTest, SlowLogRingEvictsOldest) {
  Tracer::Options options;
  options.slow_frame_ns = 1;
  options.slow_log_capacity = 4;
  Tracer::Global().Configure(options);
  for (uint64_t i = 0; i < 10; ++i) {
    Tracer::FrameScope frame(/*session_id=*/1, /*frame_index=*/i);
  }
  EXPECT_EQ(Tracer::Global().slow_frames_captured(), 10u);
  const std::vector<FrameTrace> frames = Tracer::Global().SlowFrames();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames.front().frame_index, 6u);  // Oldest surviving.
  EXPECT_EQ(frames.back().frame_index, 9u);
}

TEST_F(TracerTest, SampledFrameFeedsSpanHistograms) {
  Tracer::Options options;
  options.sample_every = 1;  // Every frame.
  Tracer::Global().Configure(options);
  Histogram* spans = MetricsRegistry::Global().GetHistogram(
      "dqmo_span_kernel_prune_ns");
  Histogram* frames =
      MetricsRegistry::Global().GetHistogram("dqmo_query_frame_ns");
  const uint64_t spans_before = spans->count();
  const uint64_t frames_before = frames->count();
  {
    Tracer::FrameScope frame(3, 0);
    ASSERT_TRUE(Tracer::FrameArmed());
    Tracer::SpanScope span(SpanKind::kKernelPrune, 64);
  }
  EXPECT_EQ(spans->count(), spans_before + 1);
  EXPECT_EQ(frames->count(), frames_before + 1);
}

TEST_F(TracerTest, UnarmedFrameRecordsNoSpans) {
  Tracer::Global().Configure(Tracer::Options{});  // Both features off.
  {
    Tracer::FrameScope frame(2, 0);
    EXPECT_FALSE(Tracer::FrameArmed());
    Tracer::SpanScope span(SpanKind::kHeapOp);
  }
  EXPECT_EQ(Tracer::Global().slow_frames_captured(), 0u);
}

// ---------------------------------------------------------------------------
// Node accounting (the PR4 exact-accounting invariant's one assertion
// point). The registry-backed counters start from zero here, so the sum
// rule holds trivially; the arithmetic helpers are what need coverage —
// the end-to-end check runs in `dqmo_tool stats` over a live workload.

TEST_F(MetricsTest, NodeAccountingArithmetic) {
  const NodeAccounting a{/*loads=*/10, /*decoded_hits=*/6,
                         /*physical_reads=*/3, /*pooled_reads=*/1};
  EXPECT_TRUE(a.Consistent());
  NodeAccounting leak = a;
  leak.loads = 11;  // One load never charged to a source.
  EXPECT_FALSE(leak.Consistent());
  const NodeAccounting b{4, 2, 1, 1};
  const NodeAccounting d = a - b;
  EXPECT_EQ(d.loads, 6u);
  EXPECT_EQ(d.decoded_hits, 4u);
  EXPECT_EQ(d.physical_reads, 2u);
  EXPECT_EQ(d.pooled_reads, 0u);
  EXPECT_TRUE(d.Consistent());
  EXPECT_NE(a.ToString().find("loads=10"), std::string::npos);
}

TEST_F(MetricsTest, ReadNodeAccountingMatchesRegistry) {
  MetricsRegistry::Global()
      .GetCounter("dqmo_rtree_node_loads_total")
      ->Add(5);
  MetricsRegistry::Global()
      .GetCounter("dqmo_rtree_decoded_hits_total")
      ->Add(3);
  MetricsRegistry::Global()
      .GetCounter("dqmo_rtree_reads_physical_total")
      ->Add(1);
  MetricsRegistry::Global()
      .GetCounter("dqmo_rtree_reads_pooled_total")
      ->Add(1);
  const NodeAccounting a = CheckNodeAccounting();  // Must not abort.
  EXPECT_EQ(a.loads, 5u);
  EXPECT_EQ(a.decoded_hits, 3u);
  EXPECT_EQ(a.physical_reads, 1u);
  EXPECT_EQ(a.pooled_reads, 1u);
}

// ---------------------------------------------------------------------------
// Failure-domain metric families (server/health.h). Golden exposition:
// every family the ops surface documents must exist under its exact name
// with the right type, and the breaker / redo-queue lifecycles must move
// the right series.

void ExpectContains(const std::string& text, const std::string& needle) {
  EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
}

TEST_F(MetricsTest, HealthMetricFamiliesExposedWithTypes) {
  HealthMetrics::Get();  // Registers every family on first touch.
  const std::string text = MetricsRegistry::Global().PrometheusText();
  ExpectContains(text, "# TYPE dqmo_breaker_state gauge");
  ExpectContains(text, "# TYPE dqmo_breaker_transitions_total counter");
  ExpectContains(text, "# TYPE dqmo_quarantine_events_total counter");
  ExpectContains(text, "# TYPE dqmo_quarantined_frames_total counter");
  ExpectContains(text, "# TYPE dqmo_scrub_pages_total counter");
  ExpectContains(text, "# TYPE dqmo_scrub_pages_rebuilt_total counter");
  ExpectContains(text, "# TYPE dqmo_redo_queue_depth gauge");
  ExpectContains(text, "# TYPE dqmo_redo_parked_total counter");
  ExpectContains(text, "# TYPE dqmo_redo_drained_total counter");
  ExpectContains(text,
                 "# HELP dqmo_breaker_state Shards currently quarantined "
                 "or probing (not closed)");
}

TEST_F(MetricsTest, BreakerLifecycleMovesHealthSeries) {
  BreakerOptions opt;
  opt.consecutive_failures = 4;
  opt.probe_rate = 1.0;
  opt.probe_successes_to_close = 2;
  CircuitBreaker breaker(/*shard=*/0, opt);
  for (int i = 0; i < 4; ++i) breaker.OnReadOutcome(false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  std::string text = MetricsRegistry::Global().PrometheusText();
  ExpectContains(text, "dqmo_breaker_state 1\n");
  ExpectContains(text, "dqmo_breaker_transitions_total 1\n");
  ExpectContains(text, "dqmo_quarantine_events_total 1\n");

  breaker.OnRepairComplete();  // open -> half-open: still not closed.
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.OnFrameStart();  // probe_rate 1.0: every frame probes.
  breaker.OnProbeOutcome(true);
  breaker.OnFrameStart();
  breaker.OnProbeOutcome(true);
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  text = MetricsRegistry::Global().PrometheusText();
  ExpectContains(text, "dqmo_breaker_state 0\n");
  ExpectContains(text, "dqmo_breaker_transitions_total 3\n");
  ExpectContains(text, "dqmo_quarantine_events_total 1\n");  // Unchanged.
}

TEST_F(MetricsTest, RedoQueueAndScrubSeriesTrackEngineLifecycle) {
  DataGeneratorOptions gen;
  gen.num_objects = 40;
  gen.horizon = 6.0;
  gen.seed = 11;
  auto data = GenerateMotionData(gen);
  ASSERT_TRUE(data.ok());

  ShardedEngineOptions eopt;
  eopt.num_shards = 2;
  eopt.cache_nodes = 0;
  eopt.failure_domains = true;
  auto engine = ShardedEngine::Create(eopt);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->InsertBatch(*data).ok());

  const MotionSegment extra(
      9005, StSegment(Vec(40, 40), Vec(41, 41), Interval(2.0, 3.0)));
  const int sick = (*engine)->map().ShardOf(extra);
  (*engine)->breaker(sick)->ForceOpen("test");
  ASSERT_TRUE((*engine)->Insert(extra).ok());
  std::string text = MetricsRegistry::Global().PrometheusText();
  ExpectContains(text, "dqmo_redo_queue_depth 1\n");
  ExpectContains(text, "dqmo_redo_parked_total 1\n");
  ExpectContains(text, "dqmo_redo_drained_total 0\n");

  // Scrub: scans the quarantined shard (clean pages in memory), drains the
  // parked write, and promotes to half-open.
  const ShardScrubber::PassReport rep =
      ShardScrubber(engine->get(), ScrubOptions()).ScrubPass();
  EXPECT_EQ(rep.shards_promoted, 1) << rep.ToString();
  text = MetricsRegistry::Global().PrometheusText();
  ExpectContains(text, "dqmo_redo_queue_depth 0\n");
  ExpectContains(text, "dqmo_redo_drained_total 1\n");
  const uint64_t scanned = HealthMetrics::Get().scrub_pages->value();
  EXPECT_GE(scanned, (*engine)->shard(sick).file->num_pages());
}

}  // namespace
}  // namespace dqmo
