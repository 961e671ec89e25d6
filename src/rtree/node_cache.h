// Sharded cache of decoded SoA nodes.
//
// The buffer pool (storage/buffer_pool.h) caches raw page *bytes*; every
// hit still pays a full Node::DeserializeFrom — header parse, per-entry
// float widening, and two vector allocations. The decoded-node cache sits
// one level up: it caches the already-decoded SoaNode, so a hit costs one
// hash probe and zero parsing or allocation. Entries are handed out as
// shared_ptr<const SoaNode>; a traversal holding one is immune to
// concurrent eviction (refcount pinning), exactly like a pinned pool frame.
//
// Invalidation protocol:
//  * RTree::StoreNode / RTree::FreePage invalidate the attached cache
//    directly on every page write/free. They are the only writes to node
//    pages, so this one path covers single-threaded use and the concurrent
//    engine alike.
//  * A bulk rewrite of the page store (DurableIndex::ReloadFromDisk under
//    the scrubber) bypasses the tree; its caller clears the cache.
// Readers never observe a stale decode: invalidation happens while writers
// hold the tree exclusively, before any reader can run.
#ifndef DQMO_RTREE_NODE_CACHE_H_
#define DQMO_RTREE_NODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/types.h"
#include "rtree/node_soa.h"

namespace dqmo {

/// Fixed-capacity sharded LRU over decoded nodes, keyed by PageId.
///
/// Thread safety: same scheme as BufferPool — PageId hashes to a shard,
/// each shard has its own mutex + LRU list + index; hit/miss counters are
/// atomic. Returned shared_ptrs stay valid across eviction.
class DecodedNodeCache {
 public:
  /// `capacity_nodes` must be >= 1. `num_shards` must be >= 1 and is
  /// clamped to `capacity_nodes`.
  explicit DecodedNodeCache(size_t capacity_nodes, int num_shards = 8);

  /// Returns the cached decode of `id`, or nullptr on miss. Bumps the
  /// hit/miss counters.
  std::shared_ptr<const SoaNode> Lookup(PageId id);

  /// Caches a freshly decoded node, evicting the shard's LRU entry if the
  /// shard is full. Replaces any existing entry for the same id.
  void Insert(PageId id, std::shared_ptr<const SoaNode> node);

  /// Drops the cached decode of one page (after a page write or free).
  void Invalidate(PageId id);

  /// Drops every cached node.
  void Clear();

  size_t capacity() const { return capacity_; }
  int num_shards() const { return num_shards_; }
  size_t cached_nodes() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    PageId id;
    std::shared_ptr<const SoaNode> node;
  };

  struct Shard {
    mutable std::mutex mu;
    // LRU order: front = most recent. map points into the list.
    std::list<Entry> entries;
    std::unordered_map<PageId, std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(PageId id) {
    // Fibonacci multiplicative hash, as in BufferPool::ShardFor.
    const uint64_t h = static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL;
    return shards_[(h >> 32) % static_cast<uint64_t>(num_shards_)];
  }

  size_t capacity_;
  size_t shard_capacity_;
  int num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace dqmo

#endif  // DQMO_RTREE_NODE_CACHE_H_
