// Structure-of-arrays view of a decoded R-tree node — the zero-copy query
// hot path.
//
// Node::DeserializeFrom materializes an AoS Node (vector<ChildEntry> /
// vector<MotionSegment>) on every load, for loops that walk those structs
// one entry at a time. SoaNode decodes the same page bytes once into
// contiguous per-column arrays (spatial lo/hi per dimension, start/end-time
// extents, child ids — and, for leaves, the segment endpoints), so
// batch-prune kernels (query/kernels.h) can sweep a whole node with
// stride-1 loads and the decoded form can be cached across visits
// (rtree/node_cache.h) without re-parsing the page.
//
// Bit-compatibility contract: DecodeFrom reads exactly the bytes
// Node::DeserializeFrom reads, widening the same float32 values to double,
// and the materializers (ChildEntryAt / EntryBoundsAt / SegmentAt)
// reconstruct values identical to the AoS decode — including the combined
// time interval bounds.time = [ts_lo, te_hi]. Every query engine reads
// nodes in this form; the AoS Node remains the write path's and the naive
// snapshot search's (RTree::RangeSearch) representation.
#ifndef DQMO_RTREE_NODE_SOA_H_
#define DQMO_RTREE_NODE_SOA_H_

#include <array>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "motion/motion_segment.h"
#include "rtree/node.h"

namespace dqmo {

/// One decoded node in structure-of-arrays form. Internal nodes populate
/// the entry columns; leaves populate the segment columns. All float32 page
/// values are widened to double exactly once, at decode time.
struct SoaNode {
  PageId self = kInvalidPageId;
  uint16_t level = 0;
  int dims = 2;
  UpdateStamp stamp = 0;
  int count = 0;

  // Internal-node columns (size == count when !is_leaf()).
  std::vector<double> start_lo, start_hi;  // start_times extent.
  std::vector<double> end_lo, end_hi;      // end_times extent.
  std::array<std::vector<double>, kMaxSpatialDims> sp_lo, sp_hi;
  std::vector<PageId> child;

  // Leaf columns (size == count when is_leaf()).
  std::vector<double> t_lo, t_hi;  // Segment valid time.
  std::array<std::vector<double>, kMaxSpatialDims> p0, p1;
  std::vector<ObjectId> oid;

  bool is_leaf() const { return level == 0; }

  /// Decodes a node page, replacing this node's contents. Reuses existing
  /// column capacity. Performs the same corruption checks (dims range,
  /// count vs capacity) as Node::DeserializeFrom.
  Status DecodeFrom(const uint8_t* data, PageId self_id);

  /// Materializes internal entry k, identical to the AoS decode's
  /// children[k] (bounds.time == [start_lo, end_hi]).
  ChildEntry ChildEntryAt(int k) const;

  /// The space-time box of internal entry k (== ChildEntryAt(k).bounds).
  StBox EntryBoundsAt(int k) const;

  /// Materializes leaf entry k, identical to the AoS decode's segments[k].
  MotionSegment SegmentAt(int k) const;
};

}  // namespace dqmo

#endif  // DQMO_RTREE_NODE_SOA_H_
