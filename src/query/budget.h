// QueryBudget: per-frame work budget + cooperative cancellation for the
// query engines (DESIGN.md "Overload & admission control").
//
// A server frame must not run arbitrarily long: a session crossing a dense
// region (or an adversarial spec) can otherwise hold its pool thread while
// every other client's latency climbs. The budget bounds one frame's work
// along two axes — a wall-clock deadline and a node-read cap — and carries
// a sticky cancellation flag another thread may raise at any time. The
// traversal loops (PDQ / NPDQ / kNN, both hot paths) charge one unit per
// node pop; the first failed charge makes the traversal finish the frame
// degraded through the existing kSkipSubtree machinery: the unexplored
// subtree is recorded in the SkipReport, the frame's integrity flips to
// kPartial, and the caller gets everything found so far.
//
// Determinism contract: a null budget pointer (or a never-armed budget) is
// never consulted, so unbudgeted runs stay bit-identical to the pre-budget
// engine. The clock is injectable for deterministic deadline tests.
#ifndef DQMO_QUERY_BUDGET_H_
#define DQMO_QUERY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/status.h"

namespace dqmo {

/// Why a budgeted traversal stopped early (kNone: it did not).
enum class BudgetStop : uint8_t {
  kNone = 0,
  kDeadline,   // The frame's wall-clock deadline expired.
  kNodes,      // The frame's node-read budget was spent.
  kCancelled,  // Another thread requested cancellation.
};

/// Stable human-readable name ("deadline", "nodes", "cancelled", "none").
const char* BudgetStopName(BudgetStop stop);

/// One frame's work allowance. Armed per frame by the session runner,
/// charged per node pop by the traversal loops.
///
/// Threading: ArmFrame/Disarm/TryChargeNode/stop belong to the traversal
/// thread; RequestCancel (and cancel_requested) may be called from any
/// thread — that is the cooperative-cancellation channel.
class QueryBudget {
 public:
  /// Monotonic nanosecond clock; injectable so deadline behaviour is
  /// testable without sleeping (same pattern as RetryingPageReader::Clock).
  using Clock = std::function<uint64_t()>;

  struct Limits {
    uint64_t frame_deadline_ns = 0;  // 0: no wall-clock bound.
    uint64_t node_budget = 0;        // 0: no node-read bound.
  };

  QueryBudget();
  explicit QueryBudget(Clock clock);

  /// Starts a new frame: clears any previous stop, resets the node count,
  /// and fixes the absolute deadline. A pending cancellation request is
  /// *not* cleared — cancellation is sticky until Disarm.
  void ArmFrame(const Limits& limits);

  /// Returns the budget to the never-consulted state (clears limits, stop,
  /// and the cancellation flag).
  void Disarm();

  bool armed() const { return armed_; }

  /// Raises the sticky cancellation flag; the owning traversal observes it
  /// at its next node charge. Safe from any thread.
  void RequestCancel() { cancel_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Charges one node read against the frame. True: proceed. False: the
  /// frame is out of budget (or cancelled) — record the subtree as skipped
  /// and finish degraded. Unarmed budgets always grant. The first refusal
  /// latches stop() and bumps dqmo_budget_exhausted_total; later calls
  /// refuse cheaply without re-reading the clock.
  bool TryChargeNode();

  /// Asks whether one speculative read may be issued. True: issue it.
  /// False: the frame stopped or cancellation is pending — skip the
  /// speculation (never degrades the frame: prefetch is an optimization,
  /// not work the query owes). Unarmed budgets always grant; refusal
  /// latches nothing.
  bool TryChargePrefetch();

  BudgetStop stop() const { return stop_; }
  bool stopped() const { return stop_ != BudgetStop::kNone; }

  /// ResourceExhausted status naming the stop cause, for SkipReport
  /// entries (kNone yields OK).
  Status StopStatus() const;

  /// Nodes charged since the last ArmFrame.
  uint64_t nodes_charged() const { return nodes_charged_; }

 private:
  void LatchStop(BudgetStop stop);

  Clock clock_;
  bool armed_ = false;
  uint64_t deadline_ns_ = 0;  // Absolute; 0 = none.
  uint64_t node_budget_ = 0;
  uint64_t nodes_charged_ = 0;
  BudgetStop stop_ = BudgetStop::kNone;
  std::atomic<bool> cancel_{false};
};

}  // namespace dqmo

#endif  // DQMO_QUERY_BUDGET_H_
