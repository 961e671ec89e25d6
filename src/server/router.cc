#include "server/router.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "server/session_runner.h"

namespace dqmo {

// ---------------------------------------------------------------------------
// Merges.

std::vector<MotionSegment> MergeStreamsByKey(
    std::vector<std::vector<MotionSegment>>* streams) {
  std::vector<MotionSegment> out;
  if (streams->empty()) return out;
  // The first stream moves in: one shard's union costs only its sort.
  out = std::move(streams->front());
  for (size_t s = 1; s < streams->size(); ++s) {
    std::vector<MotionSegment>& stream = (*streams)[s];
    out.insert(out.end(), std::make_move_iterator(stream.begin()),
               std::make_move_iterator(stream.end()));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const MotionSegment& a, const MotionSegment& b) {
                     return a.key() < b.key();
                   });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const MotionSegment& a, const MotionSegment& b) {
                          return a.key() == b.key();
                        }),
            out.end());
  return out;
}

void MergeNeighborsByDistance(std::vector<Neighbor>* top,
                              const std::vector<Neighbor>& more, size_t k) {
  top->insert(top->end(), more.begin(), more.end());
  std::sort(top->begin(), top->end(), NeighborBefore);
  if (top->size() > k) top->resize(k);
}

// ---------------------------------------------------------------------------
// ShardRouter.

ShardedSessionResult ShardRouter::RunOne(const SessionSpec& spec) const {
  std::vector<server_internal::FrameTarget> targets;
  targets.reserve(static_cast<size_t>(engine_->num_shards()));
  for (int s = 0; s < engine_->num_shards(); ++s) {
    ShardedEngine::Shard& shard = engine_->shard(s);
    targets.push_back({shard.tree, shard.reader(), shard.gate.get(),
                       shard.prefetcher.get(), shard.breaker.get()});
  }
  return server_internal::RunFrames(spec, targets, options_, engine_);
}

ExecutorReport ShardRouter::Run(const std::vector<SessionSpec>& specs) const {
  std::vector<BufferPool*> pools;
  for (int s = 0; s < engine_->num_shards(); ++s) {
    pools.push_back(engine_->shard(s).pool.get());
  }
  return server_internal::RunScheduledSessions(
      specs, options_, pools,
      [this](const SessionSpec& spec) { return RunOne(spec).result; });
}

}  // namespace dqmo
