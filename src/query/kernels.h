// Batch-prune kernels over SoA-decoded nodes — the compute half of the
// zero-copy query hot path (rtree/node_soa.h is the data half).
//
// Each kernel evaluates one node-wide prune decision for *all* entries of a
// decoded node at once, reading the node's column arrays with stride-1
// loads: PDQ trajectory-overlap candidacy, NPDQ discardability under double
// temporal axes, and kNN minimum-distance lower bounds. The query drivers
// (pdq.cc / npdq.cc / knn.cc) call these and then act on the per-entry
// results, instead of re-deriving geometry entry by entry through AoS
// structs.
//
// Bit-identity contract: every kernel reproduces the scalar per-entry
// predicate it batches (QueryTrajectory::OverlapTimes, npdq.cc's
// Discardable, StSegment::Intersects, Box::MinDistance /
// StSegment::DistanceAt) operation-for-operation — same IEEE ops in the
// same order, division kept as division, no FMA contraction — so batch
// results are bit-identical to that predicate applied entry by entry. The
// AVX2 variants emulate std::min/std::max with compare+blend (NOT
// vminpd/vmaxpd, which differ on signed zeros) and are therefore also
// bit-identical; tests/kernels_test.cc enforces all of this property-style.
//
// Dispatch: ActiveSimdLevel() picks AVX2 when the CPU supports it, unless
// the DQMO_DISABLE_SIMD environment variable is set (CI exercises the
// fallback) or a test pinned a level via ForceSimdLevel().
#ifndef DQMO_QUERY_KERNELS_H_
#define DQMO_QUERY_KERNELS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/box.h"
#include "geom/timeset.h"
#include "geom/trajectory.h"
#include "geom/vec.h"
#include "rtree/node_soa.h"

namespace dqmo {

/// Instruction-set tier a kernel runs at.
enum class SimdLevel {
  kScalar,  // Portable C++ (auto-vectorization friendly).
  kAvx2,    // 4-wide double lanes via AVX2 intrinsics.
};

const char* SimdLevelName(SimdLevel level);

/// The level kernels currently dispatch to: a forced level if one is set,
/// else the detected one (AVX2 iff the CPU supports it and the
/// DQMO_DISABLE_SIMD environment variable is unset/"0"). Thread-safe.
SimdLevel ActiveSimdLevel();

/// Pins the dispatch level (tests / ablations); nullopt returns to
/// auto-detection. Forcing kAvx2 on a CPU without AVX2 is the caller's
/// crash to keep.
void ForceSimdLevel(std::optional<SimdLevel> level);

/// Per-segment linear border coefficients of a query trajectory, hoisted
/// out of the per-entry loops: for segment j and dimension i the window's
/// upper/lower borders are U(t) = a + b*t exactly as trapezoid.cc's
/// file-local Linear::Through computes them. Build once per trajectory.
struct TrajectoryCoeffs {
  struct Border {
    double a = 0.0;
    double b = 0.0;
  };
  struct Seg {
    Interval time;
    std::array<Border, kMaxSpatialDims> upper{};
    std::array<Border, kMaxSpatialDims> lower{};
  };

  int dims = 2;
  std::vector<Seg> segs;

  static TrajectoryCoeffs Build(const QueryTrajectory& trajectory);
};

/// PDQ internal-node candidacy: (*out)[k] becomes
/// trajectory.OverlapTimes(entry k's bounds) for every entry of the
/// internal node. `out` is grown to node.count if needed and the first
/// node.count TimeSets are Clear()ed and refilled in place (capacity
/// reuse). Dispatches scalar/AVX2.
void PdqOverlapBoxBatch(const TrajectoryCoeffs& coeffs, const SoaNode& node,
                        std::vector<TimeSet>* out);

/// PDQ leaf candidacy: (*out)[k] becomes
/// trajectory.OverlapTimes(segment k) for every motion segment of the
/// leaf. Scalar only: the linear-solve branch structure depends on
/// per-entry velocity signs, which defeats lane-uniform vectorization.
void PdqOverlapSegmentsBatch(const TrajectoryCoeffs& coeffs,
                             const SoaNode& node, std::vector<TimeSet>* out);

/// NPDQ per-entry decision for an internal node.
enum : uint8_t {
  kNpdqSkip = 0,     // !entry.bounds.Overlaps(q): prune silently.
  kNpdqDiscard = 1,  // Overlaps but Discardable(p, q, entry): count+prune.
  kNpdqVisit = 2,    // Recurse into the child.
};

/// Classifies every entry of an internal node for NPDQ snapshot `q` with
/// usable previous snapshot `p` (nullptr when no previous is usable:
/// entries then never classify as kNpdqDiscard). `intersection_contained`
/// selects the Lemma-1 spatial rule (true) vs whole-node containment.
/// `out` is resized to node.count.
void NpdqClassifyBatch(const StBox* p, const StBox& q,
                       bool intersection_contained, const SoaNode& node,
                       std::vector<uint8_t>* out);

/// NPDQ leaf emission: (*out)[k] = 1 iff leaf segment k satisfies snapshot
/// `q` and was *not* already retrieved by usable previous snapshot `p`
/// (nullptr when no previous is usable — segments then only need to
/// satisfy `q`). `exact` selects LeafSemantics::kExact (space-time line
/// intersection; scalar only, the solve branches on per-entry velocity
/// signs) vs bounding-box semantics (dispatches scalar/AVX2). `out` is
/// resized to node.count.
///
/// Bounding-box bit-identity note: the scalar test is
/// QuantizeOutward(m.Bounds()).Overlaps(box), but leaf columns hold
/// float32 page values widened to double, and outward float quantization
/// is the identity on float-representable doubles (the cast is exact, so
/// neither bound moves). The kernel therefore tests Bounds() overlap
/// directly from the columns; tests/kernels_test.cc verifies the
/// equivalence against the quantizing scalar test property-style.
void NpdqLeafMatchBatch(const StBox* p, const StBox& q, bool exact,
                        const SoaNode& node, std::vector<uint8_t>* out);

/// kNN internal-node lower bounds: for every entry,
/// (*alive)[k] = entry.bounds.time.Contains(t) and
/// (*dist)[k] = entry.bounds.spatial.MinDistance(point). Distances of
/// non-alive entries are unspecified. Both outputs are resized to
/// node.count. Dispatches scalar/AVX2.
void KnnEntryDistanceBatch(const SoaNode& node, double t, const Vec& point,
                           std::vector<double>* dist,
                           std::vector<uint8_t>* alive);

/// kNN leaf distances: for every motion segment,
/// (*alive)[k] = segment.time.Contains(t) and
/// (*dist)[k] = segment.DistanceAt(t, point). Distances of non-alive
/// segments are unspecified. Dispatches scalar/AVX2.
void KnnLeafDistanceBatch(const SoaNode& node, double t, const Vec& point,
                          std::vector<double>* dist,
                          std::vector<uint8_t>* alive);

}  // namespace dqmo

#endif  // DQMO_QUERY_KERNELS_H_
