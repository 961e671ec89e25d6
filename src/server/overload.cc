#include "server/overload.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

struct OverloadMetrics {
  Counter* admission_rejected;
  Counter* admission_admitted;
  Gauge* governor_state;
  Counter* governor_escalations;

  static OverloadMetrics& Get() {
    static OverloadMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return OverloadMetrics{
          r.GetCounter("dqmo_admission_rejected_total",
                       "Sessions refused at admission (queue full or quota)"),
          r.GetCounter("dqmo_admission_admitted_total",
                       "Sessions admitted into the scheduler"),
          r.GetGauge("dqmo_governor_state",
                     "Overload-governor degradation level (0 = transparent)"),
          r.GetCounter("dqmo_governor_escalations_total",
                       "Overload-governor level increases"),
      };
    }();
    return m;
  }
};

}  // namespace

const char* SessionPriorityName(SessionPriority priority) {
  switch (priority) {
    case SessionPriority::kInteractive:
      return "interactive";
    case SessionPriority::kNormal:
      return "normal";
    case SessionPriority::kBatch:
      return "batch";
  }
  return "unknown";
}

Status AdmissionStatus(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return Status::OK();
    case AdmissionOutcome::kRejectedQueueFull:
      return Status::ResourceExhausted("admission rejected: queue full");
    case AdmissionOutcome::kRejectedQuota:
      return Status::ResourceExhausted(
          "admission rejected: per-client quota exceeded");
  }
  return Status::Internal("unknown admission outcome");
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {}

AdmissionOutcome AdmissionController::TryAdmit(uint64_t client_id,
                                               SessionPriority priority,
                                               size_t queue_depth) {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  if (options_.max_queue_depth > 0) {
    // Priority headroom: batch loses queue space first, interactive last.
    size_t allowed = options_.max_queue_depth;
    if (priority == SessionPriority::kBatch) {
      allowed = options_.max_queue_depth / 2;
    } else if (priority == SessionPriority::kNormal) {
      allowed = options_.max_queue_depth * 4 / 5;
    }
    allowed = std::max<size_t>(allowed, 1);
    if (queue_depth >= allowed) outcome = AdmissionOutcome::kRejectedQueueFull;
  }
  if (outcome == AdmissionOutcome::kAdmitted &&
      options_.per_client_quota > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& in_flight = in_flight_[client_id];
    if (in_flight >= options_.per_client_quota) {
      outcome = AdmissionOutcome::kRejectedQuota;
    } else {
      ++in_flight;
    }
  }
  if (outcome == AdmissionOutcome::kAdmitted) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    OverloadMetrics::Get().admission_admitted->Add();
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    OverloadMetrics::Get().admission_rejected->Add();
    FlightRecorder::Record(FlightEventKind::kAdmissionReject, -1,
                           static_cast<uint64_t>(priority));
  }
  return outcome;
}

void AdmissionController::OnSessionDone(uint64_t client_id) {
  if (options_.per_client_quota == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = in_flight_.find(client_id);
  if (it != in_flight_.end() && it->second > 0) --it->second;
}

OverloadGovernor::OverloadGovernor() : OverloadGovernor(Options()) {}

OverloadGovernor::OverloadGovernor(const Options& options)
    : options_(options) {
  OverloadMetrics::Get().governor_state->Set(0);
}

void OverloadGovernor::AttachQueueProbe(std::function<size_t()> probe) {
  std::lock_guard<std::mutex> lock(mu_);
  probe_ = std::move(probe);
}

void OverloadGovernor::OnFrame(uint64_t frame_ns) {
  if (frame_ns >= options_.overload_latency_ns) {
    window_slow_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t n = window_frames_.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % options_.window == 0) Evaluate();
}

void OverloadGovernor::Evaluate() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t frames = window_frames_.exchange(0);
  const uint64_t slow = window_slow_.exchange(0);
  if (frames == 0) return;  // Another worker evaluated this window.
  const double slow_frac =
      static_cast<double>(slow) / static_cast<double>(frames);
  const size_t depth = probe_ ? probe_() : 0;

  const bool overloaded =
      slow_frac > 0.5 || depth >= options_.queue_high_watermark;
  const bool healthy =
      slow_frac < 0.25 && depth <= options_.queue_low_watermark;

  int level = level_.load(std::memory_order_relaxed);
  if (overloaded) {
    healthy_streak_ = 0;
    if (level < kMaxLevel) {
      level_.store(level + 1, std::memory_order_relaxed);
      OverloadMetrics::Get().governor_escalations->Add();
      FlightRecorder::Record(FlightEventKind::kGovernorLevel, -1,
                             static_cast<uint64_t>(level + 1));
      // Deep degradation (L2+) means real client impact — snapshot the
      // rings while the events that drove the escalation are still there.
      if (level + 1 >= 2) {
        FlightRecorder::Global().MaybeAutoDump("governor escalation");
      }
    }
  } else if (healthy && level > 0) {
    // Hysteresis: one healthy window is not recovery — overload relieved
    // by shedding looks healthy while the pressure persists.
    if (++healthy_streak_ >= options_.recovery_windows) {
      healthy_streak_ = 0;
      level_.store(level - 1, std::memory_order_relaxed);
      FlightRecorder::Record(FlightEventKind::kGovernorLevel, -1,
                             static_cast<uint64_t>(level - 1));
    }
  } else {
    healthy_streak_ = 0;
  }
  OverloadMetrics::Get().governor_state->Set(
      level_.load(std::memory_order_relaxed));
}

OverloadGovernor::Directive OverloadGovernor::FrameDirective(
    SessionPriority priority, uint64_t base_deadline_ns,
    uint64_t base_node_budget) const {
  Directive d;
  d.frame_deadline_ns = base_deadline_ns;
  d.node_budget = base_node_budget;
  const int level = level_.load(std::memory_order_relaxed);
  if (level <= 0) return d;

  // Shedding: the deepest levels drop whole frames for the lower classes;
  // interactive sessions are always served (degraded).
  if ((level >= 2 && priority == SessionPriority::kBatch) ||
      (level >= 3 && priority == SessionPriority::kNormal)) {
    d.shed_frame = true;
    return d;
  }

  const double scale = 1.0 / static_cast<double>(uint64_t{1} << level);
  const uint64_t base = base_deadline_ns != 0
                            ? base_deadline_ns
                            : kDefaultFrameDeadlineNs;
  d.frame_deadline_ns = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(base) * scale));
  if (base_node_budget != 0) {
    d.node_budget = std::max<uint64_t>(
        1,
        static_cast<uint64_t>(static_cast<double>(base_node_budget) * scale));
  } else if (level >= 2) {
    d.node_budget = kNodeBudgetCap;
  }
  d.horizon_scale = scale;
  return d;
}

}  // namespace dqmo
