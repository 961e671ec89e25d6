#include "server/router.h"

#include <algorithm>
#include <queue>
#include <unordered_set>
#include <utility>

#include "server/session_runner.h"

namespace dqmo {

// ---------------------------------------------------------------------------
// Merges.

std::vector<MotionSegment> MergeStreamsByEntryTime(
    std::vector<std::vector<MotionSegment>>* streams) {
  struct Cursor {
    size_t stream;
    size_t pos;
  };
  // Min-heap by (entry time, key, stream index); position order within one
  // stream is automatic (a stream's cursor advances monotonically).
  auto after = [streams](const Cursor& a, const Cursor& b) {
    const MotionSegment& ma = (*streams)[a.stream][a.pos];
    const MotionSegment& mb = (*streams)[b.stream][b.pos];
    if (ma.seg.time.lo != mb.seg.time.lo) {
      return ma.seg.time.lo > mb.seg.time.lo;
    }
    const MotionSegment::Key ka = ma.key();
    const MotionSegment::Key kb = mb.key();
    if (ka < kb) return false;
    if (kb < ka) return true;
    return a.stream > b.stream;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(
      after);
  size_t total = 0;
  for (size_t s = 0; s < streams->size(); ++s) {
    total += (*streams)[s].size();
    if (!(*streams)[s].empty()) heap.push(Cursor{s, 0});
  }
  std::vector<MotionSegment> out;
  out.reserve(total);
  std::unordered_set<MotionSegment::Key, MotionKeyHash> seen;
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    MotionSegment& m = (*streams)[c.stream][c.pos];
    if (seen.insert(m.key()).second) out.push_back(std::move(m));
    if (++c.pos < (*streams)[c.stream].size()) heap.push(c);
  }
  return out;
}

std::vector<Neighbor> MergeNeighborsByDistance(
    const std::vector<std::vector<Neighbor>>& streams, size_t k) {
  std::vector<Neighbor> all;
  for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Neighbor& a, const Neighbor& b) {
                     if (a.distance != b.distance) {
                       return a.distance < b.distance;
                     }
                     return a.motion.key() < b.motion.key();
                   });
  if (all.size() > k) all.resize(k);
  return all;
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
