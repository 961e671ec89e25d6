// Process-wide metrics: named counters, gauges, and log-bucketed latency
// histograms behind one registry, with Prometheus-style text and JSON
// exposition.
//
// The paper's evaluation is an exercise in counting where time and I/O go
// (leaf vs non-leaf accesses, Figs. 6-13); a production moving-object
// service is operated through the same numbers, continuously. This module
// is the one place those numbers live: storage, WAL, gate, cache, and
// query layers all publish here, `dqmo_tool stats` and the bench JSON
// expose the result, and tests assert cross-layer invariants (e.g. the
// exact node-accounting rule from the zero-copy hot path) against it.
//
// Cost model (the hot-path contract, enforced by tools/ci.sh):
//  * Counters/gauges are single relaxed atomics; recording is one enabled
//    check plus one fetch_add.
//  * Histograms are arrays of relaxed atomic buckets — lock-free, safe to
//    hammer from any number of threads, mergeable by element-wise addition.
//  * Everything is gated on MetricsEnabled(): with DQMO_METRICS=off the
//    record paths reduce to one predictable branch and the timing helpers
//    never touch the clock.
//  * Compile-time kill switch: building with -DDQMO_METRICS_DISABLED (the
//    CMake option DQMO_METRICS=OFF) folds the enabled check to constant
//    false, compiling every record site out entirely.
#ifndef DQMO_COMMON_METRICS_H_
#define DQMO_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dqmo {

// ---------------------------------------------------------------------------
// Enablement.

#ifdef DQMO_METRICS_DISABLED
constexpr bool MetricsEnabled() { return false; }
inline void SetMetricsEnabled(bool) {}
#else
namespace internal {
std::atomic<bool>& MetricsEnabledFlag();
}  // namespace internal

/// True unless the process was started with DQMO_METRICS=off/0/false/no or
/// SetMetricsEnabled(false) was called. Checked (relaxed) on every record.
inline bool MetricsEnabled() {
  return internal::MetricsEnabledFlag().load(std::memory_order_relaxed);
}

/// Overrides the DQMO_METRICS environment toggle (tests, A/B overhead
/// measurements). Not synchronized with in-flight recorders beyond the
/// atomic flag itself; flip while instrumented code is quiescent when a
/// cross-counter-consistent cutover matters.
inline void SetMetricsEnabled(bool enabled) {
  internal::MetricsEnabledFlag().store(enabled, std::memory_order_relaxed);
}
#endif  // DQMO_METRICS_DISABLED

namespace internal {
/// Trace id of the calling thread's current armed frame (0: none). Owned
/// here rather than in trace.h so histogram exemplars and flight-recorder
/// events can stamp the id without a layering cycle; the tracer writes it
/// when an armed frame opens/closes. Inline thread_local for the same
/// no-TLS-wrapper reason as tls_frame_armed (see trace.h); defined
/// unconditionally so writers compile when metrics are compiled out.
inline thread_local uint64_t tls_active_trace_id = 0;
}  // namespace internal

/// Trace id of the calling thread's current armed frame, 0 when none (or
/// when metrics are compiled out). Set by the tracer; read by histogram
/// exemplars and the flight recorder.
inline uint64_t ActiveTraceId() {
#ifdef DQMO_METRICS_DISABLED
  return 0;
#else
  return internal::tls_active_trace_id;
#endif
}

/// Monotonic nanoseconds (steady_clock). Not gated — call through TickNs()
/// on record paths so disabled builds never touch the clock.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Start-of-interval tick: the current time when metrics are on, 0 when
/// off. Pair with Histogram::RecordSince(tick).
inline uint64_t TickNs() { return MetricsEnabled() ? NowNs() : 0; }

// ---------------------------------------------------------------------------
// Metric kinds.

/// Monotonically increasing event count. Relaxed atomic: a statistic,
/// never a synchronization mechanism (the IoStats rule).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (MetricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(int64_t v) {
    if (MetricsEnabled()) value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    if (MetricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Monotone high-watermark update: keeps the largest value ever set
  /// (peak queue depth, deepest recursion). Lock-free CAS loop.
  void SetMax(int64_t v) {
    if (!MetricsEnabled()) return;
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Snapshot of a Histogram: plain integers, mergeable, with quantile
/// estimates. Taking a snapshot while recorders run yields a slightly torn
/// but monotone-safe view (each bucket is read atomically); quiesce when an
/// exact cross-bucket view matters, as with IoStats.
struct HistogramSnapshot {
  /// Bucket b holds values v with BucketIndex(v) == b: bucket 0 is {0},
  /// bucket b >= 1 covers [2^(b-1), 2^b - 1].
  static constexpr int kNumBuckets = 65;

  uint64_t buckets[kNumBuckets] = {};
  /// Exemplar per bucket: the trace id of the most recent sample recorded
  /// into that bucket from inside an armed frame (0: none). Joins a p99
  /// bucket back to the captured trace that landed there.
  uint64_t exemplars[kNumBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  /// Merge is commutative and associative: element-wise sums, max of maxes;
  /// a non-zero exemplar from `other` wins (it is the more recent view).
  HistogramSnapshot& Merge(const HistogramSnapshot& other);

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper-bound quantile estimate: the smallest bucket upper bound whose
  /// cumulative count reaches p% of all samples (clamped to max). The
  /// estimate never undershoots the true quantile's bucket. p in [0, 100].
  uint64_t Percentile(double p) const;

  /// Trace-id exemplar nearest the p-th percentile bucket: that bucket's
  /// exemplar if set, else the nearest non-empty-exemplar bucket above it,
  /// else below. 0 when no exemplar was ever recorded.
  uint64_t ExemplarNear(double p) const;
};

/// Log-bucketed distribution (latencies in ns, depths, sizes). Lock-free:
/// one relaxed fetch_add on the bucket, sum, and a CAS-free running max.
class Histogram {
 public:
  static constexpr int kNumBuckets = HistogramSnapshot::kNumBuckets;

  /// Bucket index of `v`: 0 for 0, else bit_width(v) (1..64).
  static int BucketIndex(uint64_t v);
  /// Smallest value mapping to bucket `b` (0, then 2^(b-1)).
  static uint64_t BucketLowerBound(int b);
  /// Largest value mapping to bucket `b` (0, then 2^b - 1; b = 64 saturates
  /// at UINT64_MAX).
  static uint64_t BucketUpperBound(int b);

  void Record(uint64_t v);

  /// Records NowNs() - tick when `tick` came from TickNs() while metrics
  /// were on; no-op (and no clock read) for tick == 0.
  void RecordSince(uint64_t tick) {
    if (tick != 0) Record(NowNs() - tick);
  }

  HistogramSnapshot Snapshot() const;
  uint64_t count() const;
  void ResetForTest();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  // Last trace id to land in each bucket (0: none). Plain relaxed store on
  // record — an exemplar is a hint, not an invariant.
  std::atomic<uint64_t> exemplars_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Times one scope into a histogram. Skips the clock entirely when metrics
/// are off.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* h) : h_(h), tick_(TickNs()) {}
  ~ScopedLatencyTimer() { h_->RecordSince(tick_); }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* h_;
  uint64_t tick_;
};

// ---------------------------------------------------------------------------
// Registry.

/// Process-wide directory of metrics, keyed by Prometheus-style names
/// (`dqmo_<layer>_<what>[_total|_ns]`; DESIGN.md "Observability" documents
/// the scheme). Get* registers on first use and returns a stable pointer —
/// instrumented sites cache it in a function-local static, so the mutex is
/// paid once per site, not per record. Metrics are never unregistered.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Create-or-fetch. A metric name must keep one kind for the process
  /// lifetime (checked; kind mismatch aborts — it is a programming error).
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Prometheus text exposition: HELP/TYPE comments, `_total` counters,
  /// cumulative `_bucket{le="..."}` rows plus `_sum`/`_count` for
  /// histograms. Bucket rows stop at the highest non-empty bucket (a legal
  /// subset of the le-series) to keep the output proportionate.
  std::string PrometheusText() const;

  /// JSON dump: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, mean, max, p50, p95, p99}}}. Consumed by the
  /// BENCH_*.json MetricsSnapshot block and `dqmo_tool stats --json`.
  std::string JsonText() const;

  /// One row per metric for the end-of-run summary table (sorted by name).
  struct Row {
    std::string name;
    std::string kind;  // "counter" | "gauge" | "histogram"
    uint64_t count = 0;      // counter/gauge value; histogram sample count.
    HistogramSnapshot hist;  // Meaningful for histograms only.
  };
  std::vector<Row> Rows() const;

  /// Number of registered metrics.
  size_t size() const;

  /// Zeroes every registered metric (names stay registered). Requires
  /// quiescence, like every cross-metric snapshot: tests between cases,
  /// benches between preparing their index and the measured run.
  void ResetAll();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace dqmo

#endif  // DQMO_COMMON_METRICS_H_
