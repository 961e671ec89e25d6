#include "server/health.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* BreakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

BreakerOptions BreakerOptions::FromEnv() {
  BreakerOptions o;
  o.open_error_rate =
      GetEnvDouble("DQMO_BREAKER_ERROR_RATE", o.open_error_rate);
  o.min_samples = static_cast<uint64_t>(
      GetEnvInt("DQMO_BREAKER_MIN_SAMPLES",
                static_cast<int64_t>(o.min_samples)));
  o.consecutive_failures = static_cast<uint64_t>(
      GetEnvInt("DQMO_BREAKER_CONSECUTIVE",
                static_cast<int64_t>(o.consecutive_failures)));
  o.cooldown_frames = static_cast<uint64_t>(
      GetEnvInt("DQMO_BREAKER_COOLDOWN_FRAMES",
                static_cast<int64_t>(o.cooldown_frames)));
  o.probe_rate = GetEnvDouble("DQMO_BREAKER_PROBE_RATE", o.probe_rate);
  o.probe_successes_to_close = static_cast<uint64_t>(
      GetEnvInt("DQMO_BREAKER_PROBE_CLOSES",
                static_cast<int64_t>(o.probe_successes_to_close)));
  return o;
}

HealthMetrics& HealthMetrics::Get() {
  static HealthMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return HealthMetrics{
        r.GetGauge("dqmo_breaker_state",
                   "Shards currently quarantined or probing (not closed)"),
        r.GetCounter("dqmo_breaker_transitions_total",
                     "Circuit-breaker state transitions"),
        r.GetCounter("dqmo_quarantine_events_total",
                     "Times a shard breaker opened (trip or failed probe)"),
        r.GetCounter("dqmo_quarantined_frames_total",
                     "Per-shard frames served around a quarantined shard"),
        r.GetCounter("dqmo_hedged_reads_total",
                     "Reads that launched a second (hedge) probe"),
        r.GetCounter("dqmo_hedged_reads_won_total",
                     "Hedged reads where the second probe won"),
        r.GetCounter("dqmo_hedged_reads_lost_total",
                     "Hedged reads where the primary finished first"),
        r.GetCounter("dqmo_scrub_pages_total",
                     "Pages scanned by the shard scrubber"),
        r.GetCounter("dqmo_scrub_pages_rebuilt_total",
                     "Damaged pages rebuilt by online repair"),
        r.GetGauge("dqmo_redo_queue_depth",
                   "Writes currently parked for quarantined shards"),
        r.GetCounter("dqmo_redo_parked_total",
                     "Writes parked in a quarantined shard's redo queue"),
        r.GetCounter("dqmo_redo_drained_total",
                     "Parked writes drained back into a reinstated shard"),
    };
  }();
  return m;
}

CircuitBreaker::CircuitBreaker(int shard, const BreakerOptions& options)
    : shard_(shard), options_(options), probe_rng_(options.probe_seed) {
  DQMO_CHECK(options.error_alpha > 0.0 && options.error_alpha <= 1.0);
  DQMO_CHECK(options.latency_alpha > 0.0 && options.latency_alpha <= 1.0);
  DQMO_CHECK(options.probe_rate >= 0.0 && options.probe_rate <= 1.0);
  DQMO_CHECK(options.probe_successes_to_close >= 1);
}

void CircuitBreaker::SetStateLocked(BreakerState next) {
  const BreakerState cur = state();
  if (cur == next) return;
  HealthMetrics& m = HealthMetrics::Get();
  m.breaker_transitions->Add(1);
  if (cur == BreakerState::kClosed) m.breaker_state->Add(1);
  if (next == BreakerState::kClosed) m.breaker_state->Add(-1);
  state_.store(static_cast<uint8_t>(next), std::memory_order_relaxed);
  // Every transition is a flight-recorder event: the blackbox's whole job
  // is answering "what did this breaker do, and when" after the fact.
  const FlightEventKind ev =
      next == BreakerState::kOpen     ? FlightEventKind::kBreakerOpen
      : next == BreakerState::kHalfOpen ? FlightEventKind::kBreakerHalfOpen
                                        : FlightEventKind::kBreakerClose;
  FlightRecorder::Record(ev, shard_, static_cast<uint64_t>(cur));
}

void CircuitBreaker::OpenLocked(const std::string& cause) {
  if (state() == BreakerState::kOpen) return;
  SetStateLocked(BreakerState::kOpen);
  frames_open_ = 0;
  probe_streak_ = 0;
  last_open_cause_ = cause;
  ++open_events_;
  probe_frame_.store(false, std::memory_order_relaxed);
  HealthMetrics::Get().quarantine_events->Add(1);
  FlightRecorder::Record(FlightEventKind::kQuarantine, shard_, open_events_);
  // A breaker trip is an anomaly worth a blackbox snapshot: the ring still
  // holds the reads/WAL events that caused it.
  FlightRecorder::Global().MaybeAutoDump("breaker open");
}

void CircuitBreaker::OnReadOutcome(bool ok, uint64_t latency_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  ++samples_;
  error_ewma_ = options_.error_alpha * (ok ? 0.0 : 1.0) +
                (1.0 - options_.error_alpha) * error_ewma_;
  if (ok) {
    consecutive_errors_ = 0;
    // Failed reads carry no latency signal (a fast failure is not a fast
    // shard); seed the EWMA with the first observation instead of decaying
    // up from zero.
    latency_ewma_ns_d_ =
        latency_ewma_ns_d_ == 0.0
            ? static_cast<double>(latency_ns)
            : options_.latency_alpha * static_cast<double>(latency_ns) +
                  (1.0 - options_.latency_alpha) * latency_ewma_ns_d_;
    latency_ewma_ns_.store(static_cast<uint64_t>(latency_ewma_ns_d_),
                           std::memory_order_relaxed);
    return;
  }
  ++consecutive_errors_;
  // Only a closed breaker trips on read errors: while half-open, the probe
  // verdict (a whole frame's worth of evidence) governs, and while open the
  // gate blocks reads anyway.
  if (state() != BreakerState::kClosed) return;
  if (consecutive_errors_ >= options_.consecutive_failures) {
    OpenLocked(StrFormat("%llu consecutive exhausted reads",
                         static_cast<unsigned long long>(
                             consecutive_errors_)));
  } else if (samples_ >= options_.min_samples &&
             error_ewma_ >= options_.open_error_rate) {
    OpenLocked(StrFormat("error-rate EWMA %.2f", error_ewma_));
  }
}

void CircuitBreaker::OnWalOutcome(bool ok) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (state() == BreakerState::kClosed) OpenLocked("wal append/sync failed");
}

CircuitBreaker::FrameDecision CircuitBreaker::OnFrameStart() {
  std::lock_guard<std::mutex> lock(mu_);
  FrameDecision d;
  BreakerState s = state();
  if (s == BreakerState::kOpen) {
    ++frames_open_;
    if (options_.cooldown_frames > 0 &&
        frames_open_ >= options_.cooldown_frames) {
      // Cooldown elapsed: maybe the fault was transient. Probe our way
      // back. (cooldown_frames == 0 pins the shard open until the scrubber
      // repairs it.)
      SetStateLocked(BreakerState::kHalfOpen);
      probe_streak_ = 0;
      s = BreakerState::kHalfOpen;
    } else {
      probe_frame_.store(false, std::memory_order_relaxed);
      d.blocked = true;
      return d;
    }
  }
  if (s == BreakerState::kHalfOpen) {
    const bool probe = probe_rng_.Bernoulli(options_.probe_rate);
    probe_frame_.store(probe, std::memory_order_relaxed);
    d.probe = probe;
    d.blocked = !probe;
    if (probe) ++probe_frames_;
    return d;
  }
  probe_frame_.store(false, std::memory_order_relaxed);
  return d;
}

void CircuitBreaker::OnProbeOutcome(bool healthy) {
  std::lock_guard<std::mutex> lock(mu_);
  probe_frame_.store(false, std::memory_order_relaxed);
  if (state() != BreakerState::kHalfOpen) return;
  if (!healthy) {
    OpenLocked("failed probe frame");
    return;
  }
  if (++probe_streak_ >= options_.probe_successes_to_close) {
    SetStateLocked(BreakerState::kClosed);
    // A closed breaker starts with a clean bill of health; stale error
    // history from before the repair must not re-trip it.
    error_ewma_ = 0.0;
    samples_ = 0;
    consecutive_errors_ = 0;
    frames_open_ = 0;
    probe_streak_ = 0;
  }
}

void CircuitBreaker::ForceOpen(const std::string& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  OpenLocked(cause);
}

void CircuitBreaker::OnRepairComplete() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state() != BreakerState::kOpen) return;
  SetStateLocked(BreakerState::kHalfOpen);
  probe_streak_ = 0;
}

double CircuitBreaker::error_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_ewma_;
}

uint64_t CircuitBreaker::latency_ewma_ns() const {
  return latency_ewma_ns_.load(std::memory_order_relaxed);
}

uint64_t CircuitBreaker::open_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_events_;
}

uint64_t CircuitBreaker::probe_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probe_frames_;
}

std::string CircuitBreaker::last_open_cause() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_open_cause_;
}

BreakerGateReader::BreakerGateReader(PageReader* base, CircuitBreaker* breaker,
                                     uint64_t (*clock_ns)())
    : base_(base),
      breaker_(breaker),
      clock_ns_(clock_ns != nullptr ? clock_ns : &SteadyNowNs) {
  DQMO_CHECK(base != nullptr && breaker != nullptr);
}

Result<PageReader::ReadResult> BreakerGateReader::Read(PageId id) {
  if (breaker_->ReadsBlocked()) {
    blocked_reads_.fetch_add(1, std::memory_order_relaxed);
    // IOError, not a bespoke code: the kSkipSubtree machinery treats it
    // like any other unreadable subtree, which is the whole design — a
    // quarantined shard degrades to attributed kPartial frames through the
    // exact code path PR 1 built.
    return Status::IOError(StrFormat("shard %d quarantined (breaker %s)",
                                     breaker_->shard(),
                                     BreakerStateName(breaker_->state())));
  }
  std::lock_guard<std::mutex> fetch_lock(fetch_mu_);
  const uint64_t t0 = clock_ns_();
  Result<ReadResult> r = base_->Read(id);
  breaker_->OnReadOutcome(r.ok(), clock_ns_() - t0);
  return r;
}

HedgeOptions HedgeOptions::FromEnv() {
  HedgeOptions o;
  o.enabled = GetEnvBool("DQMO_HEDGE", o.enabled);
  o.latency_factor = GetEnvDouble("DQMO_HEDGE_FACTOR", o.latency_factor);
  o.min_latency_us = static_cast<uint64_t>(
      GetEnvInt("DQMO_HEDGE_MIN_US", static_cast<int64_t>(o.min_latency_us)));
  return o;
}

HedgedPageReader::HedgedPageReader(PageReader* primary, PageReader* secondary,
                                   CircuitBreaker* health,
                                   const HedgeOptions& options,
                                   uint64_t (*clock_ns)())
    : primary_(primary),
      secondary_(secondary),
      health_(health),
      options_(options),
      clock_ns_(clock_ns != nullptr ? clock_ns : &SteadyNowNs) {
  DQMO_CHECK(primary != nullptr);
  DQMO_CHECK(!options.enabled || secondary != nullptr);
}

HedgedPageReader::~HedgedPageReader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (worker_started_) worker_.join();
}

void HedgedPageReader::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || job_.pending; });
    if (stop_) return;
    const PageId id = job_.id;
    const Tracer::FrameHandle trace = job_.trace;
    const int16_t shard = job_.shard;
    const uint64_t submit_ns = job_.submit_ns;
    lock.unlock();
    Result<ReadResult> r = primary_->Read(id);
    if (trace != nullptr) {
      // Report the primary leg back to the frame that submitted it —
      // whether it won or was abandoned to the hedge. This is exactly the
      // span that used to vanish: the worker has no armed TLS frame.
      const uint64_t now = NowNs();
      Tracer::RecordRemote(trace, SpanKind::kHedgeProbe,
                           SpanOrigin::kHedgeWorker, shard, submit_ns,
                           now - submit_ns, id);
    }
    lock.lock();
    job_.pending = false;
    job_.done = true;
    if (r.ok()) {
      job_.status = Status::OK();
      job_.result = *r;
    } else {
      job_.status = r.status();
      job_.result = ReadResult{};
    }
    done_cv_.notify_all();
  }
}

void HedgedPageReader::DrainWorker(std::unique_lock<std::mutex>& lock) {
  done_cv_.wait(lock, [&] { return !job_.pending; });
  job_.done = false;  // Discard any abandoned (hedge-won) result.
}

PageReader::ReadResult HedgedPageReader::Localize(const ReadResult& r) {
  if (r.data == nullptr) return r;
  std::vector<uint8_t>& buf = caller_pages_[std::this_thread::get_id()];
  buf.assign(r.data, r.data + kPageSize);
  return ReadResult{buf.data(), r.physical};
}

void HedgedPageReader::Quiesce() {
  std::unique_lock<std::mutex> lock(mu_);
  DrainWorker(lock);
}

Result<PageReader::ReadResult> HedgedPageReader::Read(PageId id) {
  if (!options_.enabled) return primary_->Read(id);
  // Captured on the frame thread, before any blocking: thread-locals are
  // meaningless once the job crosses to the worker.
  Tracer::FrameHandle frame_trace;
  int16_t frame_shard = -1;
  if (internal::ThreadFrameArmed()) {
    frame_trace = Tracer::ActiveFrame();
    frame_shard = internal::ThreadCurrentShard();
  }
  const uint64_t ewma = health_ != nullptr ? health_->latency_ewma_ns() : 0;
  const uint64_t threshold_ns =
      std::max(options_.min_latency_us * 1000,
               static_cast<uint64_t>(options_.latency_factor *
                                     static_cast<double>(ewma)));

  std::unique_lock<std::mutex> lock(mu_);
  if (!worker_started_) {
    worker_ = std::thread([this] { WorkerLoop(); });
    worker_started_ = true;
  }
  // A previous hedge-won read may have left the worker mid-read; its result
  // buffer (the primary chain's) must not be recycled while the previous
  // caller could still hold a pointer into the *secondary* chain — which it
  // cannot by now, since this call is the "next read". Join it and discard.
  DrainWorker(lock);
  job_ = Job{};
  job_.id = id;
  job_.pending = true;
  job_.trace = std::move(frame_trace);
  job_.shard = frame_shard;
  if (job_.trace != nullptr) job_.submit_ns = NowNs();
  work_cv_.notify_one();

  if (done_cv_.wait_for(lock, std::chrono::nanoseconds(threshold_ns),
                        [&] { return job_.done; })) {
    job_.done = false;
    if (job_.status.ok()) return Localize(job_.result);
    return job_.status;
  }

  // Primary is dawdling: fire the hedge on this thread against the
  // independent secondary chain. First result wins.
  ++hedges_;
  HealthMetrics::Get().hedged_reads->Add(1);
  lock.unlock();
  // The hedge leg runs on the frame thread itself, so a plain span suffices.
  Result<ReadResult> second = [&] {
    Tracer::SpanScope hedge_span(SpanKind::kHedgeProbe, id);
    return secondary_->Read(id);
  }();
  lock.lock();
  if (job_.done) {
    // Primary finished while the hedge ran: by arrival order it won.
    job_.done = false;
    ++hedges_lost_;
    HealthMetrics::Get().hedged_reads_lost->Add(1);
    if (job_.status.ok()) return Localize(job_.result);
    if (second.ok()) return *second;  // Hedge masked a primary failure.
    return job_.status;
  }
  if (second.ok()) {
    ++hedges_won_;
    HealthMetrics::Get().hedged_reads_won->Add(1);
    // Leave the primary in flight; the next Read joins it.
    return *second;
  }
  // The hedge itself failed and the primary is still out: correctness over
  // latency — wait for the primary rather than fail a read that may yet
  // succeed.
  done_cv_.wait(lock, [&] { return job_.done; });
  job_.done = false;
  ++hedges_lost_;
  HealthMetrics::Get().hedged_reads_lost->Add(1);
  if (job_.status.ok()) return Localize(job_.result);
  return job_.status;
}

void RedoQueue::Park(uint64_t lsn, const MotionSegment& stored) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(Entry{lsn, stored});
  ++total_parked_;
  HealthMetrics& m = HealthMetrics::Get();
  m.redo_parked->Add(1);
  m.redo_queue_depth->Add(1);
}

std::vector<RedoQueue::Entry> RedoQueue::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.swap(entries_);
  if (!out.empty()) {
    HealthMetrics::Get().redo_queue_depth->Add(
        -static_cast<int64_t>(out.size()));
  }
  return out;
}

void RedoQueue::Restore(std::vector<Entry> entries) {
  if (entries.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  HealthMetrics::Get().redo_queue_depth->Add(
      static_cast<int64_t>(entries.size()));
  entries.insert(entries.end(), std::make_move_iterator(entries_.begin()),
                 std::make_move_iterator(entries_.end()));
  entries_ = std::move(entries);
}

size_t RedoQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t RedoQueue::total_parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_parked_;
}

}  // namespace dqmo
