// Low-overhead causal tracer for per-query / per-frame spans, plus the
// slow-frame log.
//
// A dynamic query is served frame by frame; when one frame is slow the
// interesting question is *where inside that frame* the time went — node
// fetches, SoA decodes, kernel prunes, heap maintenance, WAL syncs, or
// waiting on the TreeGate. Since the engine sharded (PR 7) and storage
// went async (PR 9), one client frame also fans out across N per-shard
// sessions and speculative prefetch completions on worker threads — so a
// frame's causal story spans threads. This module records spans into a
// thread-local buffer while a frame is open, merges in worker-thread spans
// attributed via a shared per-frame sink, and:
//
//  * feeds per-kind latency histograms in the MetricsRegistry for sampled
//    frames (every Nth frame per thread, DQMO_TRACE_SAMPLE; 0 disables),
//  * captures the frame's full merged span tree into a global ring buffer
//    — the slow-frame log — whenever the frame overruns the configured
//    deadline (DQMO_SLOW_FRAME_US; 0 disables), so "which session/frame
//    was slow and why" is answerable after the fact,
//  * optionally tracks the single slowest frame seen (track_slowest) so
//    benches can emit their own diagnosis into BENCH_*.json.
//
// Causality: an armed frame mints a TraceContext (process-unique trace id
// + frame sequence + current shard) and publishes a refcounted remote-span
// sink. Worker threads (the prefetcher's) capture the sink handle at
// submit time on the frame's own thread and later attribute their spans to
// it from any thread; spans arriving after the frame closed are counted
// in dqmo_trace_orphan_spans_total instead of being silently dropped.
// Frame-thread spans carry the shard id set by the innermost ShardTag, so
// the captured tree splits into per-shard subtrees.
//
// Cost model (unchanged from PR 5): a frame is *armed* only when sampling
// or the slow-frame deadline is active (and metrics are enabled). Unarmed,
// FrameScope costs two thread-local writes and SpanScope a single inline
// thread-local load; neither touches the clock, and no sink is allocated.
// Armed, each span is two clock reads and one push into a reused vector;
// remote attribution adds one shared_ptr copy per speculative submit and a
// short mutex hold per worker span. The slow path (logging a slow frame)
// takes a mutex — it is, by definition, rare.
#ifndef DQMO_COMMON_TRACE_H_
#define DQMO_COMMON_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dqmo {

namespace internal {
/// Mirror of the calling thread's frame-armed state, hoisted out of the
/// (larger) frame struct so SpanScope's fast path is a single inline
/// thread-local load — span sites sit inside per-node loops, where an
/// out-of-line call per span is measurable on the A15 gate. An inline
/// variable (not extern + out-of-line definition): with the
/// constant-initialized definition visible in every TU, no TLS wrapper
/// function is emitted — the access stays a direct TLS load, and GCC's
/// UBSan does not trip its spurious null-pointer check on the wrapper
/// (fatal under -fno-sanitize-recover in the sanitize CI pass). Defined
/// unconditionally so writers compile in DQMO_METRICS_DISABLED builds; the
/// gated accessors below fold reads to constants there.
inline thread_local bool tls_frame_armed = false;
/// Shard the calling thread is currently evaluating (-1: none). Written
/// by ShardTag/ShardScope, stamped into every span the thread records.
inline thread_local int16_t tls_current_shard = -1;
inline bool ThreadFrameArmed() {
#ifdef DQMO_METRICS_DISABLED
  return false;
#else
  return tls_frame_armed;
#endif
}
inline int16_t ThreadCurrentShard() {
#ifdef DQMO_METRICS_DISABLED
  return -1;
#else
  return tls_current_shard;
#endif
}
}  // namespace internal

/// What a span measures. Kinds are fixed (an enum, not strings) so that
/// recording is allocation-free and per-kind histograms are cheap.
enum class SpanKind : uint8_t {
  kFrame = 0,     // One whole query frame (implicit root span).
  kGateWait,      // Waiting to acquire the TreeGate (reader side).
  kNodeFetch,     // One R-tree node load (page read included).
  kSoaDecode,     // SoA decode of freshly read page bytes.
  kKernelPrune,   // One batch-prune kernel invocation.
  kHeapOp,        // PDQ priority-queue maintenance for one pop cycle.
  kWalSync,       // WalWriter::Sync (group commit + fsync).
  kQueueWait,     // Scheduler queue wait before the session ran.
  kShardEval,     // One shard's lockstep evaluation inside a routed frame.
  kMerge,         // Union of the targets' answers into the frame's.
  kRedoDrain,     // Draining parked redo writes before a frame.
  kPrefetchRead,  // Speculative read: submit->consume (worker thread).
  kPrefetchWaste, // Speculative read discarded unconsumed (worker thread).
  kOther,
};
constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kOther) + 1;

const char* SpanKindName(SpanKind kind);

/// Which thread produced a span, relative to the owning frame.
enum class SpanOrigin : uint8_t {
  kFrameThread = 0,  // The thread that opened the frame.
  kPrefetchWorker,   // Async-I/O / prefetch completion.
  kBackground,       // Any other background thread.
};

const char* SpanOriginName(SpanOrigin origin);

/// Causal identity of the frame a thread is serving: a process-unique
/// trace id minted when an armed frame opens, the client frame sequence,
/// and the shard currently under evaluation (-1 outside any shard).
/// trace_id == 0 means "no armed frame" — the zero context is inert and
/// safe to propagate anywhere.
struct TraceContext {
  uint64_t trace_id = 0;
  uint32_t frame_seq = 0;
  int32_t shard_id = -1;
};

/// One recorded span. `depth` restores the tree shape for frame-thread
/// spans: a span is the child of the nearest preceding record with smaller
/// depth. Worker-thread spans (origin != kFrameThread) are merged in by
/// start time under the shard subtree they belong to.
struct SpanRecord {
  SpanKind kind = SpanKind::kOther;
  SpanOrigin origin = SpanOrigin::kFrameThread;
  int16_t shard = -1;        // Shard attribution (-1: not shard-specific).
  uint16_t depth = 0;
  uint64_t start_ns = 0;     // Relative to the frame start.
  uint64_t duration_ns = 0;
  uint64_t detail = 0;       // Kind-specific (page id, batch size, ...).
};

/// A captured slow frame: identity, total duration, and the merged
/// cross-shard / cross-thread span tree.
struct FrameTrace {
  uint64_t trace_id = 0;
  uint64_t session_id = 0;
  uint64_t frame_index = 0;
  uint64_t duration_ns = 0;
  uint64_t deadline_ns = 0;
  uint64_t remote_spans = 0;  // Spans contributed by worker threads.
  std::vector<SpanRecord> spans;

  /// Indented multi-line rendering of the merged span tree, e.g.
  ///   frame trace=17 session=7 index=42 2143us (deadline 1000us)
  ///     shard_eval 812us [shard 3]
  ///       node_fetch 512us [19]
  ///       ~prefetch prefetch_read 97us [21]
  /// Worker spans (prefixed `~origin`) are nested under the shard-eval
  /// span whose window contains their start.
  std::string ToString() const;
};

/// Process-wide tracer. All configuration is loaded from the environment on
/// first use and may be overridden programmatically (tests, tools).
class Tracer {
 public:
  struct Options {
    /// Capture the span tree of any frame slower than this (0: off).
    /// Env: DQMO_SLOW_FRAME_US (microseconds; <= 0: off).
    uint64_t slow_frame_ns = 0;
    /// Record spans for every Nth frame per thread and feed the per-kind
    /// span histograms (0: off, 1: every frame). Env: DQMO_TRACE_SAMPLE
    /// (<= 0: off).
    uint32_t sample_every = 0;
    /// Slow-frame ring capacity; oldest entries are dropped.
    size_t slow_log_capacity = 64;
    /// Arm every frame and keep the single slowest FrameTrace seen (bench
    /// JSON diagnosis). Independent of the slow-frame deadline.
    bool track_slowest = false;
  };

  /// Shared per-frame sink for worker-thread spans. Created only when an
  /// armed frame opens; workers hold it via shared_ptr so attribution
  /// stays safe after the frame closes (the sink is then marked closed and
  /// late spans count as orphans).
  struct RemoteSink {
    std::mutex mu;
    bool open = true;            // Guarded by mu.
    uint64_t frame_start_ns = 0; // Immutable after publication.
    std::vector<SpanRecord> spans;  // Guarded by mu.
  };
  using FrameHandle = std::shared_ptr<RemoteSink>;

  static Tracer& Global();

  /// Replaces the configuration. Takes the slow-log mutex; call while no
  /// frame is being captured.
  void Configure(const Options& options);
  Options options() const;

  /// Opens a frame on the calling thread for the scope's lifetime. Always
  /// measures the frame's wall time into dqmo_query_frame_ns (when metrics
  /// are on); arms span recording when sampled or deadline-armed. Armed
  /// frames mint a TraceContext and publish a RemoteSink.
  class FrameScope {
   public:
    FrameScope(uint64_t session_id, uint64_t frame_index);
    ~FrameScope();
    FrameScope(const FrameScope&) = delete;
    FrameScope& operator=(const FrameScope&) = delete;

   private:
    uint64_t tick_;
    bool opened_ = false;
  };

  /// Records one span inside the thread's current armed frame; inert (one
  /// thread-local read) otherwise.
  class SpanScope {
   public:
    explicit SpanScope(SpanKind kind, uint64_t detail = 0) {
      if (internal::ThreadFrameArmed()) Open(kind, detail);
    }
    ~SpanScope() {
      if (index_ != SIZE_MAX) Close();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

   private:
    // Out-of-line slow paths, entered only inside an armed frame.
    void Open(SpanKind kind, uint64_t detail);
    void Close();

    size_t index_ = SIZE_MAX;  // SIZE_MAX: not recording.
    uint64_t start_ = 0;
  };

  /// Tags every span the calling thread records for the scope's lifetime
  /// with a shard id. Pure thread-local write; safe unarmed.
  class ShardTag {
   public:
    explicit ShardTag(int shard) : prev_(internal::tls_current_shard) {
      internal::tls_current_shard = static_cast<int16_t>(shard);
    }
    ~ShardTag() { internal::tls_current_shard = prev_; }
    ShardTag(const ShardTag&) = delete;
    ShardTag& operator=(const ShardTag&) = delete;

   private:
    int16_t prev_;
  };

  /// ShardTag + a span of the given kind (default kShardEval): the routed
  /// frame wraps each shard's evaluation in one of these so the captured
  /// tree has per-shard subtree roots. Member order matters: the tag is
  /// constructed first (so the span itself carries the shard) and
  /// destroyed last (after the span closed).
  class ShardScope {
   public:
    explicit ShardScope(int shard, SpanKind kind = SpanKind::kShardEval,
                        uint64_t detail = 0)
        : tag_(shard), span_(kind, detail) {}

   private:
    ShardTag tag_;
    SpanScope span_;
  };

  /// Causal identity of the calling thread's current armed frame (zero
  /// context when none). Cheap but out-of-line; capture once per submit,
  /// not per loop iteration.
  static TraceContext CurrentContext();

  /// Handle to the calling thread's current armed frame's remote sink, or
  /// null when no armed frame is open. Workers capture this on the frame
  /// thread at submit time and attribute spans to it later.
  static FrameHandle ActiveFrame();

  /// Attributes a worker-thread span to a frame via its sink handle.
  /// `start_ns` is absolute (NowNs-based); it is rebased onto the frame
  /// clock internally. A null handle or an already-closed frame counts the
  /// span in dqmo_trace_orphan_spans_total instead. Thread-safe.
  static void RecordRemote(const FrameHandle& frame, SpanKind kind,
                           SpanOrigin origin, int shard, uint64_t start_ns,
                           uint64_t duration_ns, uint64_t detail);

  /// True when the calling thread has an armed frame open (spans would be
  /// recorded). For tests.
  static bool FrameArmed();

  /// Copy of the slow-frame ring, oldest first.
  std::vector<FrameTrace> SlowFrames() const;
  /// Total slow frames ever captured (monotonic; the ring may have evicted
  /// older ones).
  uint64_t slow_frames_captured() const;
  void ClearSlowFrames();

  /// Slowest frame seen while options().track_slowest was set (empty
  /// duration when none). Reset clears it.
  FrameTrace SlowestFrame() const;
  void ResetSlowestFrame();

 private:
  Tracer() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace dqmo

#endif  // DQMO_COMMON_TRACE_H_
