#include "server/executor.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "server/session_runner.h"

namespace dqmo {

using server_internal::ExecMetrics;
using server_internal::FrameTarget;

// ---------------------------------------------------------------------------
// ThreadPool.

ThreadPool::ThreadPool(int num_threads)
    : ThreadPool(Options{num_threads, 0}) {}

ThreadPool::ThreadPool(const Options& options) : options_(options) {
  DQMO_CHECK(options.num_threads >= 1);
  workers_.reserve(static_cast<size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

size_t ThreadPool::QueueDepthLocked() const {
  size_t depth = 0;
  for (const auto& q : queues_) depth += q.size();
  return depth;
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return QueueDepthLocked();
}

void ThreadPool::Submit(std::function<void()> task,
                        SessionPriority priority) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (options_.max_queue > 0) {
      // Backpressure: a full bounded queue slows the producer down instead
      // of growing without limit.
      space_cv_.wait(lock, [this] {
        return QueueDepthLocked() < options_.max_queue;
      });
    }
    queues_[static_cast<size_t>(priority)].push_back(std::move(task));
    const size_t depth = QueueDepthLocked();
    ExecMetrics::Get().queue_depth->Set(static_cast<int64_t>(depth));
    ExecMetrics::Get().queue_depth_peak->SetMax(static_cast<int64_t>(depth));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return QueueDepthLocked() == 0 && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || QueueDepthLocked() > 0; });
    std::deque<std::function<void()>>* queue = nullptr;
    for (auto& q : queues_) {  // Highest priority class first.
      if (!q.empty()) {
        queue = &q;
        break;
      }
    }
    if (queue == nullptr) return;  // stop_ and drained.
    std::function<void()> task = std::move(queue->front());
    queue->pop_front();
    ExecMetrics::Get().queue_depth->Set(
        static_cast<int64_t>(QueueDepthLocked()));
    ++active_;
    lock.unlock();
    space_cv_.notify_one();
    task();
    lock.lock();
    --active_;
    if (QueueDepthLocked() == 0 && active_ == 0) idle_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// TreeGate.

std::shared_lock<std::shared_mutex> TreeGate::LockShared() {
  const uint64_t tick = TickNs();
  Tracer::SpanScope span(SpanKind::kGateWait);
  std::shared_lock<std::shared_mutex> lock(mu_);
  ExecMetrics::Get().reader_wait_ns->RecordSince(tick);
  return lock;
}

TreeGate::WriteGuard::WriteGuard(TreeGate* gate) : gate_(gate) {
  const uint64_t tick = TickNs();
  lock_ = std::unique_lock<std::shared_mutex>(gate->mu_);
  ExecMetrics::Get().writer_wait_ns->RecordSince(tick);
}

TreeGate::WriteGuard::~WriteGuard() {
  ScopedLatencyTimer handover_timer(ExecMetrics::Get().handover_ns);
  // Still exclusive here: hand the dirtied pages over to the readers.
  // Stale cached copies are dropped first, then every dirty page is
  // sealed, so the next shared section reads fresh, checksummed bytes
  // without mutating anything but atomic counters.
  if (gate_->file_ != nullptr) {
    if (gate_->pool_ != nullptr) {
      for (PageId id : gate_->file_->dirty_page_ids()) {
        gate_->pool_->Invalidate(id);
      }
    }
    gate_->file_->SealAllDirty();
  }
}

// ---------------------------------------------------------------------------
// Single-tree sessions: the one-target case of the router's frame loop.

SessionResult RunSession(RTree* tree, const SessionSpec& spec,
                         PageReader* reader, TreeGate* gate,
                         OverloadGovernor* governor) {
  ShardRouter::Options options;
  options.governor = governor;
  // No root-bounds prune: a single-tree NPDQ frame whose window misses
  // every object still reads the root, which the node counts the tests
  // and benches compare against include.
  options.spatial_prune = false;
  return server_internal::RunFrames(spec, {FrameTarget{tree, reader, gate}},
                                    options, /*engine=*/nullptr)
      .result;
}

// ---------------------------------------------------------------------------
// SessionScheduler.

ExecutorReport SessionScheduler::Run(const std::vector<SessionSpec>& specs) {
  return server_internal::RunScheduledSessions(
      specs, options_, {options_.pool}, [this](const SessionSpec& spec) {
        return RunSession(tree_, spec, options_.reader, options_.gate,
                          options_.governor);
      });
}

}  // namespace dqmo
