// Ablation A16 — overload resilience: frame deadlines, admission control,
// and the overload governor under a 4x session burst with injected slow
// reads (a saturated disk), versus the unbounded pre-admission engine.
//
// Three configurations over the same paper-scale index:
//   pre        resilient stack at 1x load — the goodput yardstick; the
//              governor must stay at level 0 (no sheds, no rejections).
//   baseline   4x burst, budget disabled, unbounded queue — the fall-over
//              mode: queue depth and submit-to-start waits grow with the
//              whole burst.
//   resilient  4x burst through the bounded queue + admission controller +
//              governor + per-frame deadlines — sheds and rejects the
//              excess explicitly, keeps waits bounded and goodput within
//              2x of pre.
//
// DQMO_CHECK_OVERLOAD=1 turns the story into hard assertions (tools/ci.sh
// does); otherwise the rows are informational.
#include <thread>

#include "bench_common.h"
#include "common/random.h"
#include "server/executor.h"
#include "server/overload.h"
#include "storage/buffer_pool.h"
#include "storage/fault.h"

namespace {

using namespace dqmo;
using namespace dqmo::bench;

/// Element-wise difference of two cumulative snapshots of one histogram:
/// the distribution of exactly the samples recorded between them. (max is
/// not differentiable; the later cumulative max is kept as an upper bound.)
HistogramSnapshot Delta(const HistogramSnapshot& before,
                        const HistogramSnapshot& after) {
  HistogramSnapshot d;
  for (int b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
    d.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;
  return d;
}

struct Config {
  const char* name;
  int sessions;
  bool resilient;  // Deadlines + bounded queue + admission + governor.
};

struct Outcome {
  ExecutorReport report;
  uint64_t frames_completed = 0;
  double goodput_fps = 0.0;  // Completed (served) frames per wall second.
  /// Served frames of the protected classes (interactive + normal) per
  /// wall second. The resilience contract is about *this* number: batch
  /// frames are what the governor deliberately sheds under overload, so
  /// total goodput measures the sacrifice, protected goodput the service
  /// the sacrifice buys.
  double protected_fps = 0.0;
  HistogramSnapshot session_ns;
  HistogramSnapshot queue_wait_ns;
  HistogramSnapshot frame_ns;
  uint64_t slow_reads = 0;
  int governor_level_end = 0;
};

Outcome RunConfig(Workbench* bench, const Config& cfg, int threads) {
  // Slow-read chaos: every 3rd page read — wherever it lands in whatever
  // interleaving — is served only after 200us. Deterministic count-based
  // schedule, shared by all workers (FaultInjector is thread-safe).
  FaultInjector::Options fopt;
  fopt.seed = 4242;
  fopt.slow_every_kth = 3;
  fopt.slow_read_delay_us = 200;
  FaultInjector injector(fopt);

  BufferPool pool(bench->file(), 256, /*num_shards=*/16);
  FaultyPageReader slow_reader(&pool, &injector);

  // Burst shape: long bulk sessions lead (admitted while the queue is
  // still shallow), the interactive flood lands behind them. That is the
  // shape that exercises both levers: the flood's tail is refused at
  // admission, and the governor — once the queue deepens — sheds the
  // still-running bulk sessions' frames mid-flight.
  std::vector<SessionSpec> specs;
  const int third = cfg.sessions / 3;
  for (int i = 0; i < cfg.sessions; ++i) {
    SessionSpec spec;
    spec.kind = static_cast<SessionKind>(i % 3);
    spec.seed = 4200 + static_cast<uint64_t>(i);
    spec.frames = 50;
    spec.t0 = 2.0 + 0.3 * (i % 16);
    spec.client_id = static_cast<uint64_t>(i % 4);
    if (i < third) {
      spec.priority = SessionPriority::kBatch;
      spec.frames = 150;
    } else if (i < 2 * third) {
      spec.priority = SessionPriority::kNormal;
    } else {
      spec.priority = SessionPriority::kInteractive;
    }
    if (cfg.resilient) {
      spec.frame_deadline_us =
          GetEnvInt("DQMO_FRAME_DEADLINE_US", 8000);
    }
    specs.push_back(spec);
  }

  const size_t bound = static_cast<size_t>(2 * threads);
  AdmissionOptions aopt;
  aopt.max_queue_depth = bound;
  aopt.per_client_quota = static_cast<uint64_t>(2 * threads);
  AdmissionController admission(aopt);

  OverloadGovernor::Options gopt;
  gopt.window = 32;
  gopt.overload_latency_ns = 5'000'000;  // 5 ms.
  gopt.queue_high_watermark = static_cast<size_t>(threads);
  gopt.queue_low_watermark = 1;
  gopt.recovery_windows = 2;
  OverloadGovernor governor(gopt);

  SessionScheduler::Options opt;
  opt.num_threads = threads;
  opt.reader = &slow_reader;
  opt.pool = &pool;
  if (cfg.resilient) {
    opt.max_queue = bound;
    opt.admission = &admission;
    opt.governor = &governor;
  }

  MetricsRegistry& r = MetricsRegistry::Global();
  Histogram* session_h = r.GetHistogram(
      "dqmo_exec_session_ns", "Wall time of one complete query session");
  Histogram* wait_h = r.GetHistogram(
      "dqmo_exec_queue_wait_ns",
      "Submit-to-start wait in the session thread pool");
  Histogram* frame_h = r.GetHistogram(
      "dqmo_query_frame_ns", "Wall time of one dynamic-query frame");
  const HistogramSnapshot session_before = session_h->Snapshot();
  const HistogramSnapshot wait_before = wait_h->Snapshot();
  const HistogramSnapshot frame_before = frame_h->Snapshot();

  Outcome out;
  out.report = SessionScheduler(bench->tree(), opt).Run(specs);
  DQMO_CHECK(out.report.status.ok());

  out.session_ns = Delta(session_before, session_h->Snapshot());
  out.queue_wait_ns = Delta(wait_before, wait_h->Snapshot());
  out.frame_ns = Delta(frame_before, frame_h->Snapshot());
  uint64_t protected_frames = 0;
  for (size_t i = 0; i < out.report.sessions.size(); ++i) {
    const SessionResult& s = out.report.sessions[i];
    out.frames_completed += s.frames_completed;
    if (specs[i].priority != SessionPriority::kBatch) {
      protected_frames += s.frames_completed;
    }
  }
  const double wall = out.report.wall_seconds;
  out.goodput_fps =
      wall > 0.0 ? static_cast<double>(out.frames_completed) / wall : 0.0;
  out.protected_fps =
      wall > 0.0 ? static_cast<double>(protected_frames) / wall : 0.0;
  out.slow_reads = injector.slow_reads();
  out.governor_level_end = governor.level();
  return out;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  dqmo::bench::InitJsonMode(argc, argv);
  auto bench = PrepareBench();
  DQMO_CHECK(bench->file()->Publish().ok());
  const int threads = static_cast<int>(GetEnvInt("DQMO_THREADS", 4));

  std::printf("==============================================================\n");
  std::printf("Ablation A16 — overload resilience: 4x session burst + slow "
              "reads\n");
  std::printf("(%d executor threads; every 3rd read delayed 200us; "
              "resilient = deadline + bounded queue + admission + "
              "governor)\n", threads);
  std::printf("==============================================================\n");

  const Config configs[] = {
      {"pre", threads, /*resilient=*/true},
      {"baseline", 4 * threads, /*resilient=*/false},
      {"resilient", 4 * threads, /*resilient=*/true},
  };

  BenchJsonWriter json("abl_overload");
  Table table({"config", "sessions", "wall (s)", "goodput (fps)",
               "p99 wait (ms)", "p99 session (ms)", "shed", "rejected",
               "degraded", "max queue"});

  Outcome outcomes[3];
  for (int c = 0; c < 3; ++c) {
    const Config& cfg = configs[c];
    outcomes[c] = RunConfig(bench.get(), cfg, threads);
    const Outcome& o = outcomes[c];
    const ExecutorReport& rep = o.report;
    table.AddRow({cfg.name, Fmt(cfg.sessions, 0),
                  Fmt(rep.wall_seconds, 3), Fmt(o.goodput_fps, 0),
                  Fmt(Ms(o.queue_wait_ns.Percentile(99)), 1),
                  Fmt(Ms(o.session_ns.Percentile(99)), 1),
                  Fmt(static_cast<double>(rep.total_frames_shed), 0),
                  Fmt(static_cast<double>(rep.sessions_rejected), 0),
                  Fmt(static_cast<double>(rep.total_frames_degraded), 0),
                  Fmt(static_cast<double>(rep.max_queue_depth), 0)});
    json.AddRow()
        .Str("config", cfg.name)
        .Int("sessions", static_cast<uint64_t>(cfg.sessions))
        .Int("threads", static_cast<uint64_t>(threads))
        .Num("wall_seconds", rep.wall_seconds)
        .Int("frames_completed", o.frames_completed)
        .Num("goodput_fps", o.goodput_fps)
        .Num("protected_goodput_fps", o.protected_fps)
        .Num("session_p50_ms", Ms(o.session_ns.Percentile(50)))
        .Num("session_p99_ms", Ms(o.session_ns.Percentile(99)))
        .Num("queue_wait_p99_ms", Ms(o.queue_wait_ns.Percentile(99)))
        .Num("frame_p99_ms", Ms(o.frame_ns.Percentile(99)))
        .Int("max_queue_depth", rep.max_queue_depth)
        .Int("sessions_rejected", rep.sessions_rejected)
        .Int("sessions_cancelled", rep.sessions_cancelled)
        .Int("frames_shed", rep.total_frames_shed)
        .Int("frames_degraded", rep.total_frames_degraded)
        .Int("slow_reads", o.slow_reads)
        .Int("governor_level_end",
             static_cast<uint64_t>(o.governor_level_end));
  }
  table.Print();

  const Outcome& pre = outcomes[0];
  const Outcome& base = outcomes[1];
  const Outcome& res = outcomes[2];
  const double goodput_ratio =
      pre.goodput_fps > 0.0 ? res.goodput_fps / pre.goodput_fps : 0.0;
  const double protected_ratio =
      pre.protected_fps > 0.0 ? res.protected_fps / pre.protected_fps : 0.0;
  std::printf("\ngoodput under 4x overload: %s of pre-overload total, %s "
              "protected (shed %llu batch frames, rejected %llu "
              "sessions)\n",
              (Fmt(100.0 * goodput_ratio, 0) + "%").c_str(),
              (Fmt(100.0 * protected_ratio, 0) + "%").c_str(),
              static_cast<unsigned long long>(
                  res.report.total_frames_shed),
              static_cast<unsigned long long>(
                  res.report.sessions_rejected));
  std::printf("p99 submit-to-start wait: baseline %sms vs resilient %sms; "
              "max queue depth %zu vs %zu\n",
              Fmt(Ms(base.queue_wait_ns.Percentile(99)), 1).c_str(),
              Fmt(Ms(res.queue_wait_ns.Percentile(99)), 1).c_str(),
              base.report.max_queue_depth, res.report.max_queue_depth);

  if (GetEnvInt("DQMO_CHECK_OVERLOAD", 0) != 0) {
    // Shed-before-fall-over, as hard assertions.
    DQMO_CHECK(pre.report.total_frames_shed == 0);
    DQMO_CHECK(pre.report.sessions_rejected == 0);
    DQMO_CHECK(res.report.max_queue_depth <=
               static_cast<size_t>(2 * threads));
    DQMO_CHECK(base.report.max_queue_depth > res.report.max_queue_depth);
    DQMO_CHECK(res.report.total_frames_shed > 0);
    DQMO_CHECK(res.report.sessions_rejected > 0);
    DQMO_CHECK(res.queue_wait_ns.Percentile(99) <
               base.queue_wait_ns.Percentile(99));
    DQMO_CHECK(protected_ratio >= 0.5);
    std::printf("DQMO_CHECK_OVERLOAD: all overload invariants hold\n");
  }
  PrintMetricsSummary();
  return 0;
}
