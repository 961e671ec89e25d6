#include "server/health.h"

#include <iterator>

#include "common/check.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

// The EWMA trip of BreakerOptions: smoothing factor of the per-read error
// indicator, the rate that opens, and the reads needed before it may.
constexpr double kErrorAlpha = 0.25;
constexpr double kOpenErrorRate = 0.5;
constexpr uint64_t kMinSamples = 8;

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
    : shard_(shard),
      options_(options),
      probe_rng_(1 + static_cast<uint64_t>(shard)) {
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

void CircuitBreaker::OnReadOutcome(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  ++samples_;
  error_ewma_ =
      kErrorAlpha * (ok ? 0.0 : 1.0) + (1.0 - kErrorAlpha) * error_ewma_;
  if (ok) {
    consecutive_errors_ = 0;
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
  } else if (samples_ >= kMinSamples && error_ewma_ >= kOpenErrorRate) {
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

BreakerGateReader::BreakerGateReader(PageReader* base, CircuitBreaker* breaker)
    : base_(base), breaker_(breaker) {
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
  Result<ReadResult> r = base_->Read(id);
  breaker_->OnReadOutcome(r.ok());
  return r;
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
