#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <deque>
#include <mutex>

#include "common/env.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

// ---------------------------------------------------------------------------
// Thread-local frame capture state. One frame at a time per thread; the
// record vector is reused across frames so steady-state capture allocates
// nothing.

struct FrameState {
  bool open = false;
  bool armed = false;      // Spans are being recorded.
  bool sampled = false;    // Feed per-kind histograms at frame close.
  bool track_slowest = false;  // Feed the slowest-frame slot at close.
  uint64_t start_ns = 0;
  uint64_t trace_id = 0;
  uint64_t session_id = 0;
  uint64_t frame_index = 0;
  uint64_t deadline_ns = 0;
  uint16_t depth = 0;
  uint64_t frame_counter = 0;  // Per-thread, drives sampling.
  std::vector<SpanRecord> spans;
  Tracer::FrameHandle sink;  // Remote-span sink; set only while armed.
};

FrameState& Tls() {
  thread_local FrameState state;
  return state;
}

Histogram* FrameHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "dqmo_query_frame_ns", "Wall time of one dynamic-query frame");
  return h;
}

Counter* SlowFrameCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "dqmo_query_slow_frames_total",
      "Frames that overran the DQMO_SLOW_FRAME_US deadline");
  return c;
}

Histogram* SpanHistogram(SpanKind kind) {
  // Frames close concurrently, so the lazy slot must publish with a
  // release store: a relaxed pointer hand-off would let another thread
  // use the Histogram before its construction is visible. GetHistogram
  // is idempotent per name, so a lost race just re-looks-up the same
  // registered instance.
  static std::atomic<Histogram*> histograms[kNumSpanKinds] = {};
  const int i = static_cast<int>(kind);
  Histogram* h = histograms[i].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = MetricsRegistry::Global().GetHistogram(
        std::string("dqmo_span_") + SpanKindName(kind) + "_ns",
        std::string("Sampled duration of ") + SpanKindName(kind) + " spans");
    histograms[i].store(h, std::memory_order_release);
  }
  return h;
}

// Trace-propagation health. Registered on the first armed frame so the
// families appear in exposition whenever tracing is in use.
struct TraceMetrics {
  Counter* frames_armed;
  Counter* remote_spans;
  Counter* orphan_spans;
  static TraceMetrics& Get() {
    static TraceMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return TraceMetrics{
          r.GetCounter("dqmo_trace_frames_armed_total",
                       "Frames opened with span recording armed"),
          r.GetCounter("dqmo_trace_remote_spans_total",
                       "Worker-thread spans attributed to an owning frame"),
          r.GetCounter(
              "dqmo_trace_orphan_spans_total",
              "Worker-thread spans whose owning frame had already closed"),
      };
    }();
    return m;
  }
};

// Process-unique armed-frame ids; id 0 is reserved for "no trace".
std::atomic<uint64_t>& TraceIdCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFrame:
      return "frame";
    case SpanKind::kGateWait:
      return "gate_wait";
    case SpanKind::kNodeFetch:
      return "node_fetch";
    case SpanKind::kSoaDecode:
      return "soa_decode";
    case SpanKind::kKernelPrune:
      return "kernel_prune";
    case SpanKind::kHeapOp:
      return "heap_op";
    case SpanKind::kWalSync:
      return "wal_sync";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kShardEval:
      return "shard_eval";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kRedoDrain:
      return "redo_drain";
    case SpanKind::kPrefetchRead:
      return "prefetch_read";
    case SpanKind::kPrefetchWaste:
      return "prefetch_waste";
    case SpanKind::kOther:
      break;
  }
  return "other";
}

const char* SpanOriginName(SpanOrigin origin) {
  switch (origin) {
    case SpanOrigin::kFrameThread:
      return "frame";
    case SpanOrigin::kPrefetchWorker:
      return "prefetch";
    case SpanOrigin::kBackground:
      break;
  }
  return "background";
}

std::string FrameTrace::ToString() const {
  std::string out = StrFormat(
      "frame trace=%" PRIu64 " session=%" PRIu64 " index=%" PRIu64 " %" PRIu64
      "us (deadline %" PRIu64 "us)\n",
      trace_id, session_id, frame_index, duration_ns / 1000,
      deadline_ns / 1000);

  // Split the merged record list back into the frame thread's tree and the
  // worker spans, then attach each worker span under the shard-eval span
  // whose window contains its start (falling back to an unattributed tail).
  std::vector<size_t> main_order;
  std::vector<size_t> remote_order;
  for (size_t i = 0; i < spans.size(); ++i) {
    (spans[i].origin == SpanOrigin::kFrameThread ? main_order : remote_order)
        .push_back(i);
  }
  std::sort(remote_order.begin(), remote_order.end(),
            [&](size_t a, size_t b) { return spans[a].start_ns < spans[b].start_ns; });

  std::vector<std::vector<size_t>> children(main_order.size());
  std::vector<size_t> unattributed;
  for (size_t r : remote_order) {
    const SpanRecord& span = spans[r];
    size_t owner = SIZE_MAX;
    for (size_t m = 0; m < main_order.size(); ++m) {
      const SpanRecord& host = spans[main_order[m]];
      if (host.kind != SpanKind::kShardEval) continue;
      if (span.shard >= 0 && host.shard != span.shard) continue;
      if (span.start_ns >= host.start_ns &&
          span.start_ns <= host.start_ns + host.duration_ns) {
        owner = m;  // Last matching window wins (latest shard pass).
      }
    }
    if (owner == SIZE_MAX) {
      unattributed.push_back(r);
    } else {
      children[owner].push_back(r);
    }
  }

  auto append_span = [&](const SpanRecord& span, size_t indent) {
    out.append(2 * (indent + 1), ' ');
    if (span.origin != SpanOrigin::kFrameThread) {
      out += StrFormat("~%s ", SpanOriginName(span.origin));
    }
    out += StrFormat("%s %" PRIu64 "us", SpanKindName(span.kind),
                     span.duration_ns / 1000);
    if (span.shard >= 0) {
      out += StrFormat(" [shard %d]", static_cast<int>(span.shard));
    }
    if (span.detail != 0) {
      out += StrFormat(" [%" PRIu64 "]", span.detail);
    }
    out += "\n";
  };

  for (size_t m = 0; m < main_order.size(); ++m) {
    const SpanRecord& span = spans[main_order[m]];
    append_span(span, span.depth);
    for (size_t r : children[m]) {
      append_span(spans[r], static_cast<size_t>(span.depth) + 1);
    }
  }
  for (size_t r : unattributed) {
    append_span(spans[r], 0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer.

struct Tracer::Impl {
  mutable std::mutex mu;
  Options options;
  std::deque<FrameTrace> slow_frames;  // Guarded by mu.
  uint64_t slow_frames_captured = 0;   // Guarded by mu.
  FrameTrace slowest;                  // Guarded by mu; duration 0 = none.

  Impl() {
    // Both knobs come from outside: values <= 0 mean off, and large ones
    // saturate instead of overflowing.
    options.slow_frame_ns = 1000 * static_cast<uint64_t>(std::clamp<int64_t>(
        GetEnvInt("DQMO_SLOW_FRAME_US", 0), 0, INT64_MAX / 1000));
    options.sample_every = static_cast<uint32_t>(std::clamp<int64_t>(
        GetEnvInt("DQMO_TRACE_SAMPLE", 0), 0, UINT32_MAX));
  }
};

Tracer::Impl& Tracer::impl() const {
  static Impl* impl = new Impl();  // Leaked: tracer outlives everything.
  return *impl;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(impl().mu);
  impl().options = options;
}

Tracer::Options Tracer::options() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  return impl().options;
}

std::vector<FrameTrace> Tracer::SlowFrames() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  return std::vector<FrameTrace>(impl().slow_frames.begin(),
                                 impl().slow_frames.end());
}

uint64_t Tracer::slow_frames_captured() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  return impl().slow_frames_captured;
}

void Tracer::ClearSlowFrames() {
  std::lock_guard<std::mutex> lock(impl().mu);
  impl().slow_frames.clear();
  impl().slow_frames_captured = 0;
}

FrameTrace Tracer::SlowestFrame() const {
  std::lock_guard<std::mutex> lock(impl().mu);
  return impl().slowest;
}

void Tracer::ResetSlowestFrame() {
  std::lock_guard<std::mutex> lock(impl().mu);
  impl().slowest = FrameTrace();
}

bool Tracer::FrameArmed() {
  const FrameState& state = Tls();
  return state.open && state.armed;
}

TraceContext Tracer::CurrentContext() {
  const FrameState& state = Tls();
  TraceContext ctx;
  if (state.open && state.armed) {
    ctx.trace_id = state.trace_id;
    ctx.frame_seq = static_cast<uint32_t>(state.frame_index);
  }
  ctx.shard_id = internal::ThreadCurrentShard();
  return ctx;
}

Tracer::FrameHandle Tracer::ActiveFrame() {
  const FrameState& state = Tls();
  if (!state.open || !state.armed) return nullptr;
  return state.sink;
}

void Tracer::RecordRemote(const FrameHandle& frame, SpanKind kind,
                          SpanOrigin origin, int shard, uint64_t start_ns,
                          uint64_t duration_ns, uint64_t detail) {
  if (frame == nullptr) {
    TraceMetrics::Get().orphan_spans->Add();
    return;
  }
  SpanRecord record;
  record.kind = kind;
  record.origin = origin;
  record.shard = static_cast<int16_t>(shard);
  record.duration_ns = duration_ns;
  record.detail = detail;
  {
    std::lock_guard<std::mutex> lock(frame->mu);
    if (!frame->open) {
      // The owning frame closed before this span landed (e.g. a prefetch
      // consumed by a later frame, or a completion after shed). Count it:
      // silent loss here is exactly what PR 5's model allowed.
      TraceMetrics::Get().orphan_spans->Add();
      return;
    }
    record.start_ns = start_ns > frame->frame_start_ns
                          ? start_ns - frame->frame_start_ns
                          : 0;
    frame->spans.push_back(record);
  }
  TraceMetrics::Get().remote_spans->Add();
}

Tracer::FrameScope::FrameScope(uint64_t session_id, uint64_t frame_index)
    : tick_(TickNs()) {
  if (tick_ == 0) return;  // Metrics off: frames cost one branch.
  FrameState& state = Tls();
  if (state.open) return;  // Nested frames: outer frame keeps ownership.
  const Options options = Tracer::Global().options();
  ++state.frame_counter;
  const bool sampled = options.sample_every != 0 &&
                       state.frame_counter % options.sample_every == 0;
  state.open = true;
  state.sampled = sampled;
  state.track_slowest = options.track_slowest;
  state.armed =
      sampled || options.slow_frame_ns != 0 || options.track_slowest;
  state.start_ns = tick_;
  state.session_id = session_id;
  state.frame_index = frame_index;
  state.deadline_ns = options.slow_frame_ns;
  state.depth = 0;
  state.spans.clear();
  internal::tls_frame_armed = state.armed;
  if (state.armed) {
    TraceMetrics::Get().frames_armed->Add();
    state.trace_id =
        TraceIdCounter().fetch_add(1, std::memory_order_relaxed) + 1;
    internal::tls_active_trace_id = state.trace_id;
    state.sink = std::make_shared<RemoteSink>();
    state.sink->frame_start_ns = tick_;
  }
  opened_ = true;
}

Tracer::FrameScope::~FrameScope() {
  if (tick_ == 0) return;
  const uint64_t duration = NowNs() - tick_;
  FrameHistogram()->Record(duration);
  if (!opened_) return;
  FrameState& state = Tls();
  state.open = false;
  // Seal the remote sink and merge worker spans into the frame's record
  // list. Workers still holding the handle will count as orphans from here.
  uint64_t remote_spans = 0;
  if (state.sink != nullptr) {
    std::lock_guard<std::mutex> lock(state.sink->mu);
    state.sink->open = false;
    remote_spans = state.sink->spans.size();
    state.spans.insert(state.spans.end(), state.sink->spans.begin(),
                       state.sink->spans.end());
  }
  if (state.sampled) {
    for (const SpanRecord& span : state.spans) {
      SpanHistogram(span.kind)->Record(span.duration_ns);
    }
  }
  const bool over_deadline =
      state.deadline_ns != 0 && duration > state.deadline_ns;
  bool slow_captured = false;
  if (over_deadline || state.track_slowest) {
    FrameTrace trace;
    trace.trace_id = state.trace_id;
    trace.session_id = state.session_id;
    trace.frame_index = state.frame_index;
    trace.duration_ns = duration;
    trace.deadline_ns = state.deadline_ns;
    trace.remote_spans = remote_spans;
    trace.spans = state.spans;  // Copy: tls buffer is reused.
    Impl& impl = Tracer::Global().impl();
    std::lock_guard<std::mutex> lock(impl.mu);
    if (over_deadline) {
      SlowFrameCounter()->Add();
      ++impl.slow_frames_captured;
      impl.slow_frames.push_back(trace);
      while (impl.slow_frames.size() > impl.options.slow_log_capacity) {
        impl.slow_frames.pop_front();
      }
      slow_captured = true;
    }
    if (state.track_slowest && duration > impl.slowest.duration_ns) {
      impl.slowest = std::move(trace);
    }
  }
  if (slow_captured) {
    // Outside the ring mutex: the recorder takes its own locks to dump.
    FlightRecorder::Record(FlightEventKind::kFrameSlow, -1, duration / 1000);
    FlightRecorder::Global().MaybeAutoDump(
        StrFormat("slow frame: session=%" PRIu64 " index=%" PRIu64
                  " %" PRIu64 "us",
                  state.session_id, state.frame_index, duration / 1000));
  }
  state.armed = false;
  state.sampled = false;
  state.track_slowest = false;
  state.trace_id = 0;
  state.sink = nullptr;
  internal::tls_frame_armed = false;
  internal::tls_active_trace_id = 0;
}

void Tracer::SpanScope::Open(SpanKind kind, uint64_t detail) {
  FrameState& state = Tls();
  if (!state.open || !state.armed) return;
  start_ = NowNs();
  index_ = state.spans.size();
  SpanRecord record;
  record.kind = kind;
  record.shard = internal::ThreadCurrentShard();
  record.depth = state.depth;
  record.start_ns = start_ - state.start_ns;
  record.detail = detail;
  state.spans.push_back(record);
  ++state.depth;
}

void Tracer::SpanScope::Close() {
  FrameState& state = Tls();
  // The frame that owned this span may have closed already (a span held
  // across the frame boundary is a bug, but must not corrupt memory).
  if (index_ >= state.spans.size()) return;
  state.spans[index_].duration_ns = NowNs() - start_;
  if (state.depth > 0) --state.depth;
}

}  // namespace dqmo
