// Admission control and the overload governor (DESIGN.md "Overload &
// admission control").
//
// The paper frames dynamic queries as a server-side service (Sect. 4);
// ROADMAP item 3 requires that server to "shed to kSkipSubtree degraded
// results before falling over". Two cooperating pieces implement that
// policy above the SessionScheduler:
//
//  * AdmissionController — decides, at submit time, whether a session may
//    enter the bounded pool queue at all. Refusal is cheap and explicit
//    (a ResourceExhausted SessionResult), never a silent unbounded queue.
//    Lower priorities lose their queue headroom first.
//  * OverloadGovernor — watches completed-frame latency and queue depth in
//    fixed windows and escalates a small degradation level with hysteresis:
//    tighter frame deadlines, smaller SPDQ horizons, node-budget caps, and
//    finally frame shedding for the lower priority classes. Recovery takes
//    several consecutive healthy windows, so the level does not flap at the
//    boundary.
//
// Both are thread-safe: admission from any submitting thread, OnFrame from
// every pool worker.
#ifndef DQMO_SERVER_OVERLOAD_H_
#define DQMO_SERVER_OVERLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common/status.h"

namespace dqmo {

/// Service class of a session; lower loses first under overload.
enum class SessionPriority : uint8_t {
  kInteractive = 0,  // Never shed; admitted while any queue slot remains.
  kNormal = 1,       // Shed at the deepest degradation level.
  kBatch = 2,        // First to be rejected and shed.
};

const char* SessionPriorityName(SessionPriority priority);

/// Admission policy knobs. Defaults admit everything (no bound, no quota).
struct AdmissionOptions {
  /// Reject when the pool queue is this deep (headroom-scaled by
  /// priority); 0 = unbounded.
  size_t max_queue_depth = 0;
  /// Maximum in-flight (admitted, not yet finished) sessions per client;
  /// 0 = unlimited.
  uint64_t per_client_quota = 0;
};

enum class AdmissionOutcome : uint8_t {
  kAdmitted,
  kRejectedQueueFull,
  kRejectedQuota,
};

/// Converts a rejection into the Status surfaced on the SessionResult
/// (kAdmitted yields OK).
Status AdmissionStatus(AdmissionOutcome outcome);

/// Decides whether a session may enter the scheduler. Priority headroom:
/// kBatch is refused once the queue passes 1/2 of max_queue_depth, kNormal
/// past 4/5, kInteractive only when full — so interactive clients retain
/// capacity while bulk work is pushed back first.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Decides for one session; an admitted session must be paired with
  /// OnSessionDone (quota bookkeeping). `queue_depth` is the pool queue
  /// depth observed at submit time.
  AdmissionOutcome TryAdmit(uint64_t client_id, SessionPriority priority,
                            size_t queue_depth);
  void OnSessionDone(uint64_t client_id);

  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  AdmissionOptions options_;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> in_flight_;  // Guarded by mu_.
};

/// Progressive-degradation controller. Level 0 is transparent; each level
/// halves the effective frame deadline and node budget, and the deepest
/// levels shed whole frames for the lower priority classes:
///
///   L0: serve everything at the session's own limits.
///   L1: limits halved.
///   L2: limits quartered, node-budget cap imposed, kBatch frames shed.
///   L3: limits eighthed, kNormal frames also shed (kInteractive always
///       served, degraded).
class OverloadGovernor {
 public:
  /// Deepest degradation level (L3 above).
  static constexpr int kMaxLevel = 3;
  /// Deadline imposed (scaled) on sessions that declared none, once the
  /// level is above 0 — an unbounded session must not stay unbounded
  /// under overload.
  static constexpr uint64_t kDefaultFrameDeadlineNs = 20'000'000;
  /// Node-budget cap imposed from level 2 on sessions that declared no
  /// node budget.
  static constexpr uint64_t kNodeBudgetCap = 4096;

  struct Options {
    /// A completed frame slower than this is "slow" (overload evidence).
    uint64_t overload_latency_ns = 20'000'000;  // 20 ms.
    /// Queue depths beyond/below these are overload/health evidence.
    size_t queue_high_watermark = 16;
    size_t queue_low_watermark = 4;
    /// Completed frames per evaluation window.
    uint64_t window = 64;
    /// Consecutive healthy windows required to step one level down.
    int recovery_windows = 3;
  };

  /// What one frame of one session should do right now.
  struct Directive {
    bool shed_frame = false;
    uint64_t frame_deadline_ns = 0;  // 0 = unbounded.
    uint64_t node_budget = 0;        // 0 = unbounded.
    double horizon_scale = 1.0;      // SPDQ prediction-horizon multiplier.
  };

  OverloadGovernor();
  explicit OverloadGovernor(const Options& options);

  /// Wires the pool-queue-depth probe (SessionScheduler::Run attaches its
  /// pool for the duration of the run; pass nullptr to detach).
  void AttachQueueProbe(std::function<size_t()> probe);

  /// Feeds one completed frame's wall time; evaluates the level on window
  /// rollover. Thread-safe, called from every pool worker.
  void OnFrame(uint64_t frame_ns);

  int level() const { return level_.load(std::memory_order_relaxed); }

  /// Scales a session's declared per-frame limits by the current level.
  Directive FrameDirective(SessionPriority priority,
                           uint64_t base_deadline_ns,
                           uint64_t base_node_budget) const;

 private:
  void Evaluate();

  Options options_;
  std::atomic<int> level_{0};
  std::atomic<uint64_t> window_frames_{0};
  std::atomic<uint64_t> window_slow_{0};
  std::mutex mu_;  // Guards Evaluate state + probe_.
  std::function<size_t()> probe_;  // Guarded by mu_.
  int healthy_streak_ = 0;         // Guarded by mu_.
};

}  // namespace dqmo

#endif  // DQMO_SERVER_OVERLOAD_H_
