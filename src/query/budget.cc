#include "query/budget.h"

#include "common/metrics.h"
#include "common/string_util.h"

namespace dqmo {
namespace {

struct BudgetMetrics {
  Counter* exhausted;

  static BudgetMetrics& Get() {
    static BudgetMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return BudgetMetrics{
          r.GetCounter("dqmo_budget_exhausted_total",
                       "Frames stopped early by deadline, node budget, or "
                       "cancellation"),
      };
    }();
    return m;
  }
};

}  // namespace

const char* BudgetStopName(BudgetStop stop) {
  switch (stop) {
    case BudgetStop::kNone:
      return "none";
    case BudgetStop::kDeadline:
      return "deadline";
    case BudgetStop::kNodes:
      return "nodes";
    case BudgetStop::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

QueryBudget::QueryBudget() : QueryBudget(Clock()) {}

QueryBudget::QueryBudget(Clock clock) : clock_(std::move(clock)) {
  if (!clock_) clock_ = [] { return NowNs(); };
}

void QueryBudget::ArmFrame(const Limits& limits) {
  armed_ = true;
  node_budget_ = limits.node_budget;
  deadline_ns_ =
      limits.frame_deadline_ns == 0 ? 0 : clock_() + limits.frame_deadline_ns;
  nodes_charged_ = 0;
  stop_ = BudgetStop::kNone;
}

void QueryBudget::Disarm() {
  armed_ = false;
  node_budget_ = 0;
  deadline_ns_ = 0;
  nodes_charged_ = 0;
  stop_ = BudgetStop::kNone;
  cancel_.store(false, std::memory_order_release);
}

void QueryBudget::LatchStop(BudgetStop stop) {
  stop_ = stop;
  BudgetMetrics::Get().exhausted->Add();
}

bool QueryBudget::TryChargeNode() {
  // Cancellation outranks everything and works even unarmed — it is the
  // executor's kill switch for a whole session, not a per-frame limit.
  if (cancel_.load(std::memory_order_acquire)) {
    if (stop_ != BudgetStop::kCancelled) LatchStop(BudgetStop::kCancelled);
    return false;
  }
  if (!armed_) return true;
  if (stop_ != BudgetStop::kNone) return false;  // Already out this frame.
  ++nodes_charged_;
  if (node_budget_ != 0 && nodes_charged_ > node_budget_) {
    LatchStop(BudgetStop::kNodes);
    return false;
  }
  if (deadline_ns_ != 0 && clock_() >= deadline_ns_) {
    LatchStop(BudgetStop::kDeadline);
    return false;
  }
  return true;
}

bool QueryBudget::TryChargePrefetch() {
  // Speculation is pure optimization: a refusal here skips the prefetch
  // and nothing else, so no stop is latched and no metric fires — the
  // traversal's own accounting is untouched.
  if (cancel_.load(std::memory_order_acquire)) return false;
  return !armed_ || stop_ == BudgetStop::kNone;
}

Status QueryBudget::StopStatus() const {
  if (stop_ == BudgetStop::kNone) return Status::OK();
  return Status::ResourceExhausted(
      StrFormat("query budget exhausted (%s)", BudgetStopName(stop_)));
}

}  // namespace dqmo
