// The one frame loop behind every query session, and the scheduling loop
// that fans session specs over a ThreadPool. Implementation details of
// src/server — the namespace name says so.
//
// The paper (Sect. 4) serves dynamic queries from the server: each
// client's observer drives one PDQ, NPDQ or kNN evaluation per frame. The
// work around that evaluation is the same for every query kind and every
// target count, so RunFrames owns it once; each query kind is a small
// per-frame evaluator (session_runner.cc). RunSession / SessionScheduler
// hand the loop one target, ShardRouter the engine's shards.
#ifndef DQMO_SERVER_SESSION_RUNNER_H_
#define DQMO_SERVER_SESSION_RUNNER_H_

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "server/executor.h"
#include "server/overload.h"
#include "server/router.h"

namespace dqmo::server_internal {

/// Gate + scheduler metrics (process-wide; the ExecutorReport remains the
/// exact per-run account).
struct ExecMetrics {
  Histogram* reader_wait_ns;
  Histogram* writer_wait_ns;
  Histogram* handover_ns;
  Histogram* queue_wait_ns;
  Histogram* session_ns;
  Histogram* frame_ns;
  Counter* sessions;
  Counter* session_objects;
  Counter* frames_shed;
  Counter* sessions_cancelled;
  Gauge* queue_depth;
  Gauge* queue_depth_peak;

  static ExecMetrics& Get() {
    static ExecMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ExecMetrics{
          r.GetHistogram("dqmo_gate_reader_wait_ns",
                         "TreeGate shared-side acquisition wait"),
          r.GetHistogram("dqmo_gate_writer_wait_ns",
                         "TreeGate exclusive-side acquisition wait"),
          r.GetHistogram("dqmo_gate_handover_ns",
                         "WriteGuard release: invalidate + seal + WAL sync"),
          r.GetHistogram("dqmo_exec_queue_wait_ns",
                         "Submit-to-start wait in the session thread pool"),
          r.GetHistogram("dqmo_exec_session_ns",
                         "Wall time of one complete query session"),
          r.GetHistogram("dqmo_exec_frame_ns",
                         "Wall time of one governed session frame"),
          r.GetCounter("dqmo_exec_sessions_total",
                       "Query sessions run to completion (or first error)"),
          r.GetCounter("dqmo_exec_session_objects_total",
                       "Objects delivered across all sessions"),
          r.GetCounter("dqmo_frames_shed_total",
                       "Frames dropped whole by the overload governor"),
          r.GetCounter("dqmo_exec_sessions_cancelled_total",
                       "Sessions ended by cooperative cancellation"),
          r.GetGauge("dqmo_exec_queue_depth",
                     "Session thread-pool tasks queued, awaiting a worker"),
          r.GetGauge("dqmo_exec_queue_depth_peak",
                     "Deepest session thread-pool queue observed"),
      };
    }();
    return m;
  }
};

/// One tree a session evaluates each frame, and the storage stack its
/// reads flow through. Nothing is owned; every pointer but `tree` may be
/// null (read the tree's file / no concurrent writer / no speculation /
/// no failure domain).
struct FrameTarget {
  RTree* tree = nullptr;
  PageReader* reader = nullptr;
  TreeGate* gate = nullptr;
  Prefetcher* prefetcher = nullptr;
  CircuitBreaker* breaker = nullptr;
};

/// Runs one session over `targets` on the calling thread. `engine` is the
/// router's engine, whose shard i is targets[i]; null for the single tree,
/// which then gets no shard span tags or dqmo_shard_* metrics and keeps
/// the fence-cached MovingKnnQuery instead of a stateless KnnAt per shard.
/// Of `options` only governor, frame_hook, spatial_prune and record_frames
/// are read.
ShardedSessionResult RunFrames(const SessionSpec& spec,
                               const std::vector<FrameTarget>& targets,
                               const ShardRouter::Options& options,
                               ShardedEngine* engine);

// ---------------------------------------------------------------------------
// Scheduling loop shared by SessionScheduler (single tree) and ShardRouter
// (sharded engine): admission, pool fan-out or inline serial execution,
// and report aggregation, including the hit/miss deltas of `pools` (null
// entries are skipped). `options` is either adapter's Options; only
// num_threads, max_queue, admission and governor are read. `run` maps one
// admitted spec to its result.

template <typename Options, typename RunFn>
ExecutorReport RunScheduledSessions(const std::vector<SessionSpec>& specs,
                                    const Options& options,
                                    const std::vector<BufferPool*>& pools,
                                    const RunFn& run) {
  ExecutorReport report;
  report.sessions.resize(specs.size());
  auto pool_counts = [&pools] {  // (hits, misses) summed over `pools`.
    std::pair<uint64_t, uint64_t> counts{0, 0};
    for (const BufferPool* pool : pools) {
      if (pool == nullptr) continue;
      counts.first += pool->hits();
      counts.second += pool->misses();
    }
    return counts;
  };
  const auto counts0 = pool_counts();
  const auto start = std::chrono::steady_clock::now();

  // Admission decision for one spec; fills the slot on refusal.
  auto admit = [&options](const SessionSpec& spec, size_t queue_depth,
                          SessionResult* slot) {
    if (options.admission == nullptr) return true;
    const AdmissionOutcome outcome = options.admission->TryAdmit(
        spec.client_id, spec.priority, queue_depth);
    if (outcome == AdmissionOutcome::kAdmitted) return true;
    slot->status = AdmissionStatus(outcome);
    slot->outcome = SessionResult::Outcome::kRejected;
    return false;
  };

  if (options.num_threads <= 1) {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (!admit(specs[i], 0, &report.sessions[i])) continue;
      report.sessions[i] = run(specs[i]);
      if (options.admission != nullptr) {
        options.admission->OnSessionDone(specs[i].client_id);
      }
    }
  } else {
    ThreadPool pool(
        ThreadPool::Options{options.num_threads, options.max_queue});
    if (options.governor != nullptr) {
      options.governor->AttachQueueProbe(
          [&pool] { return pool.queue_depth(); });
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      SessionResult* slot = &report.sessions[i];
      const SessionSpec* spec = &specs[i];
      const size_t depth = pool.queue_depth();
      report.max_queue_depth = std::max(report.max_queue_depth, depth);
      if (!admit(*spec, depth, slot)) continue;
      const uint64_t submit_tick = TickNs();
      pool.Submit(
          [&options, &run, slot, spec, submit_tick] {
            ExecMetrics::Get().queue_wait_ns->RecordSince(submit_tick);
            *slot = run(*spec);
            if (options.admission != nullptr) {
              options.admission->OnSessionDone(spec->client_id);
            }
          },
          spec->priority);
    }
    pool.Wait();
    if (options.governor != nullptr) {
      // The pool dies with this scope; the probe must not outlive it.
      options.governor->AttachQueueProbe(nullptr);
    }
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto counts1 = pool_counts();
  report.pool_hits = counts1.first - counts0.first;
  report.pool_misses = counts1.second - counts0.second;
  for (const SessionResult& s : report.sessions) {
    report.total_stats += s.stats;
    report.total_objects += s.objects_delivered;
    report.total_frames_shed += s.frames_shed;
    report.total_frames_degraded += s.frames_degraded;
    switch (s.outcome) {
      case SessionResult::Outcome::kRejected:
        ++report.sessions_rejected;
        break;
      case SessionResult::Outcome::kCancelled:
        ++report.sessions_cancelled;
        break;
      case SessionResult::Outcome::kCompleted:
        // Only completed sessions' failures poison the aggregate; a
        // rejection is a policy outcome, not an engine error.
        if (report.status.ok() && !s.status.ok()) report.status = s.status;
        break;
    }
  }
  return report;
}

}  // namespace dqmo::server_internal

#endif  // DQMO_SERVER_SESSION_RUNNER_H_
