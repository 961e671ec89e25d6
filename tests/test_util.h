// Shared helpers for the DQMO test suite: random geometry generators and
// brute-force reference implementations that the indexed/incremental
// algorithms are checked against.
#ifndef DQMO_TESTS_TEST_UTIL_H_
#define DQMO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "geom/box.h"
#include "geom/segment.h"
#include "geom/trajectory.h"
#include "motion/motion_segment.h"
#include "rtree/layout.h"
#include "rtree/stats.h"
#include "storage/wal.h"

namespace dqmo::testing {

/// A scanned log: ScanWal's summary plus every record it delivered.
struct ScannedWal {
  WalScan summary;
  std::vector<WalRecord> records;
};

/// Scans `path` with the one WAL scanner, collecting each record it
/// delivers — the record-level view the WAL tests assert on.
inline Result<ScannedWal> ScanWalRecords(const std::string& path) {
  ScannedWal out;
  auto scan = ScanWal(path, [&out](const WalRecord& r) {
    out.records.push_back(r);
    return Status::OK();
  });
  if (!scan.ok()) return scan.status();
  out.summary = *scan;
  return out;
}

/// Uniform random point in [0, size]^dims.
inline Vec RandomPoint(Rng* rng, int dims, double size) {
  Vec p(dims);
  for (int i = 0; i < dims; ++i) p[i] = rng->Uniform(0.0, size);
  return p;
}

/// Random motion segment within [0, size]^dims and time in [0, horizon],
/// pre-quantized to the stored (float32) form so that expectations match
/// what the index returns bit-for-bit.
inline MotionSegment RandomSegment(Rng* rng, ObjectId oid, int dims,
                                   double size, double horizon,
                                   double max_duration = 2.0) {
  const double t0 = rng->Uniform(0.0, horizon);
  const double dt = rng->Uniform(0.01, max_duration);
  StSegment seg(RandomPoint(rng, dims, size), RandomPoint(rng, dims, size),
                Interval(t0, std::min(horizon, t0 + dt)));
  MotionSegment m(oid, seg);
  m.seg = QuantizeStored(m.seg);
  return m;
}

/// A batch of random segments with object ids 0..n-1.
inline std::vector<MotionSegment> RandomSegments(Rng* rng, int n, int dims,
                                                 double size, double horizon,
                                                 double max_duration = 2.0) {
  std::vector<MotionSegment> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(RandomSegment(rng, static_cast<ObjectId>(i), dims, size,
                                horizon, max_duration));
  }
  return out;
}

/// Random space-time query box.
inline StBox RandomQueryBox(Rng* rng, int dims, double size, double horizon,
                            double max_side = 30.0, double max_dt = 5.0) {
  Box spatial(dims);
  for (int i = 0; i < dims; ++i) {
    const double lo = rng->Uniform(0.0, size);
    spatial.extent(i) = Interval(lo, lo + rng->Uniform(0.1, max_side));
  }
  const double t0 = rng->Uniform(0.0, horizon);
  return StBox(spatial, Interval(t0, t0 + rng->Uniform(0.0, max_dt)));
}

/// Brute-force exact range query (reference for RTree::RangeSearch).
inline std::vector<MotionSegment> BruteForceRange(
    const std::vector<MotionSegment>& data, const StBox& q) {
  std::vector<MotionSegment> out;
  for (const MotionSegment& m : data) {
    if (m.seg.Intersects(q)) out.push_back(m);
  }
  return out;
}

/// Brute-force bounding-box range query.
inline std::vector<MotionSegment> BruteForceRangeBb(
    const std::vector<MotionSegment>& data, const StBox& q) {
  std::vector<MotionSegment> out;
  for (const MotionSegment& m : data) {
    if (QuantizeOutward(m.Bounds()).Overlaps(q)) out.push_back(m);
  }
  return out;
}

/// Canonical key set of a result list (for set comparisons).
inline std::set<MotionSegment::Key> KeysOf(
    const std::vector<MotionSegment>& segments) {
  std::set<MotionSegment::Key> keys;
  for (const MotionSegment& m : segments) keys.insert(m.key());
  return keys;
}

/// One query's cost account as the paper charges it (Sect. 5: node reads,
/// leaf reads, one distance computation per entry of every loaded node),
/// its queue and discard bookkeeping, and a checksum of its answers: one
/// pinned row of an accounting test.
struct QueryAccount {
  uint64_t node_reads = 0;
  uint64_t leaf_reads = 0;
  uint64_t distance_computations = 0;
  uint64_t objects_returned = 0;
  uint64_t nodes_discarded = 0;
  uint64_t queue_pushes = 0;
  uint64_t queue_pops = 0;
  uint64_t duplicates_skipped = 0;
  uint64_t checksum = 0;

  bool operator==(const QueryAccount&) const = default;
};

inline QueryAccount AccountOf(const QueryStats& s, uint64_t checksum) {
  return QueryAccount{s.node_reads,
                      s.leaf_reads,
                      s.distance_computations,
                      s.objects_returned,
                      s.nodes_discarded,
                      s.queue_pushes,
                      s.queue_pops,
                      s.duplicates_skipped,
                      checksum};
}

/// Prints an account as the brace initializer that pins it.
inline void PrintTo(const QueryAccount& a, std::ostream* os) {
  *os << "{" << a.node_reads << ", " << a.leaf_reads << ", "
      << a.distance_computations << ", " << a.objects_returned << ", "
      << a.nodes_discarded << ", " << a.queue_pushes << ", " << a.queue_pops
      << ", " << a.duplicates_skipped << ", 0x" << std::hex << a.checksum
      << std::dec << "ULL}";
}

/// FNV-1a answer checksums: start at kFoldSeed, fold each answer field
/// byte by byte.
constexpr uint64_t kFoldSeed = 1469598103934665603ULL;

inline void FoldAnswer(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFF;
    *h *= 1099511628211ULL;
  }
}

inline void FoldAnswer(uint64_t* h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  FoldAnswer(h, bits);
}

}  // namespace dqmo::testing

#endif  // DQMO_TESTS_TEST_UTIL_H_
