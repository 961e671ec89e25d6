#include "query/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DQMO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dqmo {
namespace {

// 0 = auto-detect, 1 = forced scalar, 2 = forced AVX2. Relaxed atomics:
// tests set this before launching query threads; it is never a
// synchronization point.
std::atomic<int> g_forced_level{0};

SimdLevel DetectSimdLevel() {
#if DQMO_SIMD_X86
  const char* env = std::getenv("DQMO_DISABLE_SIMD");
  const bool disabled = env != nullptr && env[0] != '\0' && env[0] != '0';
  if (!disabled && __builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

// ---------------------------------------------------------------------------
// Scalar building blocks. These fold Interval::Intersect with the
// SolveLinearGe/Le results (interval.cc) into in-place [lo, hi] updates:
//   Ge: b>0 -> lo = max(lo, -a/b); b<0 -> hi = min(hi, -a/b);
//       b==0 -> a>=0 keeps sol (∩ All), else sol becomes empty.
//   Le mirrors. Intersecting with the canonical empty interval sets
//   lo=+inf / hi=-inf, which max/min then keep forever (empty is
//   absorbing: lo only grows, hi only shrinks) — this is why dropping the
//   scalar OverlapTimes's early exit cannot change which intervals end up
//   non-empty, and TimeSet::Add ignores the empty ones.

inline void IntersectGe(double a, double b, double* lo, double* hi) {
  if (b > 0.0) {
    *lo = std::max(*lo, -a / b);
  } else if (b < 0.0) {
    *hi = std::min(*hi, -a / b);
  } else if (!(a >= 0.0)) {
    *lo = kInf;
    *hi = -kInf;
  }
}

inline void IntersectLe(double a, double b, double* lo, double* hi) {
  if (b > 0.0) {
    *hi = std::min(*hi, -a / b);
  } else if (b < 0.0) {
    *lo = std::max(*lo, -a / b);
  } else if (!(a <= 0.0)) {
    *lo = kInf;
    *hi = -kInf;
  }
}

/// Entry k's box is empty (time extent or any spatial extent inverted) —
/// the StBox::empty() guard at the top of Trajectory::OverlapTimes.
inline bool InternalEntryEmpty(const SoaNode& node, int dims, int k) {
  if (node.start_lo[k] > node.end_hi[k]) return true;
  for (int i = 0; i < dims; ++i) {
    if (node.sp_lo[i][k] > node.sp_hi[i][k]) return true;
  }
  return false;
}

/// trajectory.OverlapTimes(entry k's bounds) into `times`, scalar.
void OverlapBoxOne(const TrajectoryCoeffs& tc, const SoaNode& node, int k,
                   TimeSet* times) {
  times->Clear();
  if (InternalEntryEmpty(node, tc.dims, k)) return;
  const double rt_lo = node.start_lo[k];
  const double rt_hi = node.end_hi[k];
  for (const TrajectoryCoeffs::Seg& s : tc.segs) {
    // sol = s.time ∩ r.time (a temporally disjoint segment yields an empty
    // sol here, so the scalar OverlapTimes's Overlaps pre-check needs no
    // replica).
    double lo = std::max(s.time.lo, rt_lo);
    double hi = std::min(s.time.hi, rt_hi);
    for (int i = 0; i < tc.dims; ++i) {
      // U_i(t) >= r.lo_i  and  L_i(t) <= r.hi_i (trapezoid.cc).
      IntersectGe(s.upper[i].a - node.sp_lo[i][k], s.upper[i].b, &lo, &hi);
      IntersectLe(s.lower[i].a - node.sp_hi[i][k], s.lower[i].b, &lo, &hi);
    }
    times->Add(Interval(lo, hi));
  }
}

/// QuantizeOutward(segment k's Bounds()).Overlaps(b) for a leaf segment,
/// sans the quantize step (the identity on float-widened leaf columns; see
/// the header note on NpdqLeafMatchBatch).
inline bool LeafBoundsOverlap(const SoaNode& node, int k, const StBox& b) {
  const double t_lo = node.t_lo[k];
  const double t_hi = node.t_hi[k];
  bool overlaps = !(t_lo > t_hi) && !b.time.empty() && t_lo <= b.time.hi &&
                  b.time.lo <= t_hi;
  for (int i = 0; i < node.dims && overlaps; ++i) {
    const Interval& bi = b.spatial.extent(i);
    // Box::FromCorners: the extent is [min(p0, p1), max(p0, p1)].
    const double s_lo = std::min(node.p0[i][k], node.p1[i][k]);
    const double s_hi = std::max(node.p0[i][k], node.p1[i][k]);
    overlaps = !(s_lo > s_hi) && !bi.empty() && s_lo <= bi.hi &&
               bi.lo <= s_hi;
  }
  return overlaps;
}

/// !segment k's OverlapTime(b).empty() (segment.cc), with the segment's
/// velocity `v` and border base `xa` (x_i(t) = xa_i + v_i * t) hoisted by
/// the caller so the q and p tests share them.
inline bool LeafExactIntersects(const SoaNode& node, int k, const StBox& b,
                                const double* v, const double* xa) {
  double lo = std::max(node.t_lo[k], b.time.lo);
  double hi = std::min(node.t_hi[k], b.time.hi);
  for (int i = 0; i < node.dims; ++i) {
    // x_i(t) >= b.lo_i  and  x_i(t) <= b.hi_i.
    IntersectGe(xa[i] - b.spatial.extent(i).lo, v[i], &lo, &hi);
    IntersectLe(xa[i] - b.spatial.extent(i).hi, v[i], &lo, &hi);
  }
  return !(lo > hi);
}

void NpdqLeafMatchBatchExact(const StBox* p, const StBox& q,
                             const SoaNode& node,
                             std::vector<uint8_t>* out) {
  for (int k = 0; k < node.count; ++k) {
    const double m_lo = node.t_lo[k];
    const double m_hi = node.t_hi[k];
    // StSegment::Velocity(): zero when the valid time is degenerate.
    const double seg_dt = m_lo > m_hi ? 0.0 : m_hi - m_lo;
    double v[kMaxSpatialDims];
    double xa[kMaxSpatialDims];
    for (int i = 0; i < node.dims; ++i) {
      v[i] = seg_dt <= 0.0
                 ? 0.0
                 : (node.p1[i][k] - node.p0[i][k]) / seg_dt;
      xa[i] = node.p0[i][k] - v[i] * m_lo;
    }
    bool emit = LeafExactIntersects(node, k, q, v, xa);
    if (emit && p != nullptr) {
      emit = !LeafExactIntersects(node, k, *p, v, xa);
    }
    (*out)[static_cast<size_t>(k)] = static_cast<uint8_t>(emit);
  }
}

void NpdqLeafMatchBatchBoxScalar(const StBox* p, const StBox& q,
                                 const SoaNode& node,
                                 std::vector<uint8_t>* out) {
  for (int k = 0; k < node.count; ++k) {
    const bool emit = LeafBoundsOverlap(node, k, q) &&
                      (p == nullptr || !LeafBoundsOverlap(node, k, *p));
    (*out)[static_cast<size_t>(k)] = static_cast<uint8_t>(emit);
  }
}

void PdqOverlapBoxBatchScalar(const TrajectoryCoeffs& tc,
                              const SoaNode& node,
                              std::vector<TimeSet>* out) {
  for (int k = 0; k < node.count; ++k) {
    OverlapBoxOne(tc, node, k, &(*out)[static_cast<size_t>(k)]);
  }
}

#if DQMO_SIMD_X86

// std::max(a, b) is (a < b) ? b : a and std::min(a, b) is (b < a) ? b : a.
// _mm256_max_pd/_mm256_min_pd implement neither (they differ on signed
// zeros), so emulate with an ordered-quiet compare + blend, which matches
// the std:: semantics lane-exactly (including NaN passthrough of the first
// operand).
__attribute__((target("avx2"))) inline __m256d VecMax(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
}

__attribute__((target("avx2"))) inline __m256d VecMin(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
}

__attribute__((target("avx2"))) inline __m256d VecNeg(__m256d a) {
  return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
}

__attribute__((target("avx2"))) void PdqOverlapBoxBatchAvx2(
    const TrajectoryCoeffs& tc, const SoaNode& node,
    std::vector<TimeSet>* out) {
  const int n = node.count;
  int k0 = 0;
  for (; k0 + 4 <= n; k0 += 4) {
    bool entry_empty[4];
    for (int l = 0; l < 4; ++l) {
      entry_empty[l] = InternalEntryEmpty(node, tc.dims, k0 + l);
      (*out)[static_cast<size_t>(k0 + l)].Clear();
    }
    const __m256d rt_lo = _mm256_loadu_pd(&node.start_lo[k0]);
    const __m256d rt_hi = _mm256_loadu_pd(&node.end_hi[k0]);
    for (const TrajectoryCoeffs::Seg& s : tc.segs) {
      __m256d lo = VecMax(_mm256_set1_pd(s.time.lo), rt_lo);
      __m256d hi = VecMin(_mm256_set1_pd(s.time.hi), rt_hi);
      for (int i = 0; i < tc.dims; ++i) {
        // The border slope b is lane-uniform (one trajectory segment across
        // four entries), so each SolveLinear branch resolves once per
        // segment instead of per entry.
        {
          const double b = s.upper[i].b;
          const __m256d a =
              _mm256_sub_pd(_mm256_set1_pd(s.upper[i].a),
                            _mm256_loadu_pd(&node.sp_lo[i][k0]));
          if (b > 0.0) {
            lo = VecMax(lo, _mm256_div_pd(VecNeg(a), _mm256_set1_pd(b)));
          } else if (b < 0.0) {
            hi = VecMin(hi, _mm256_div_pd(VecNeg(a), _mm256_set1_pd(b)));
          } else {
            const __m256d keep =
                _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_GE_OQ);
            lo = _mm256_blendv_pd(_mm256_set1_pd(kInf), lo, keep);
            hi = _mm256_blendv_pd(_mm256_set1_pd(-kInf), hi, keep);
          }
        }
        {
          const double b = s.lower[i].b;
          const __m256d a =
              _mm256_sub_pd(_mm256_set1_pd(s.lower[i].a),
                            _mm256_loadu_pd(&node.sp_hi[i][k0]));
          if (b > 0.0) {
            hi = VecMin(hi, _mm256_div_pd(VecNeg(a), _mm256_set1_pd(b)));
          } else if (b < 0.0) {
            lo = VecMax(lo, _mm256_div_pd(VecNeg(a), _mm256_set1_pd(b)));
          } else {
            const __m256d keep =
                _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_LE_OQ);
            lo = _mm256_blendv_pd(_mm256_set1_pd(kInf), lo, keep);
            hi = _mm256_blendv_pd(_mm256_set1_pd(-kInf), hi, keep);
          }
        }
      }
      double buf_lo[4], buf_hi[4];
      _mm256_storeu_pd(buf_lo, lo);
      _mm256_storeu_pd(buf_hi, hi);
      for (int l = 0; l < 4; ++l) {
        if (entry_empty[l]) continue;
        (*out)[static_cast<size_t>(k0 + l)].Add(
            Interval(buf_lo[l], buf_hi[l]));
      }
    }
  }
  for (; k0 < n; ++k0) {
    OverlapBoxOne(tc, node, k0, &(*out)[static_cast<size_t>(k0)]);
  }
}

/// An empty time or spatial extent makes Overlaps false for every segment
/// (Interval::Overlaps rejects empty operands); hoisted out of the lanes.
inline bool SnapshotDegenerate(const StBox& b, int dims) {
  if (b.time.empty()) return true;
  for (int i = 0; i < dims; ++i) {
    if (b.spatial.extent(i).empty()) return true;
  }
  return false;
}

/// Four-lane LeafBoundsOverlap against box `b` for lanes [k0, k0+4).
__attribute__((target("avx2"))) inline __m256d LeafBoundsOverlapVec(
    const SoaNode& node, int k0, const StBox& b, __m256d t_lo, __m256d t_hi,
    __m256d t_valid) {
  __m256d in = _mm256_and_pd(
      t_valid,
      _mm256_and_pd(
          _mm256_cmp_pd(t_lo, _mm256_set1_pd(b.time.hi), _CMP_LE_OQ),
          _mm256_cmp_pd(_mm256_set1_pd(b.time.lo), t_hi, _CMP_LE_OQ)));
  for (int i = 0; i < node.dims; ++i) {
    const __m256d c0 = _mm256_loadu_pd(&node.p0[i][k0]);
    const __m256d c1 = _mm256_loadu_pd(&node.p1[i][k0]);
    const __m256d s_lo = VecMin(c0, c1);
    const __m256d s_hi = VecMax(c0, c1);
    const Interval& bi = b.spatial.extent(i);
    in = _mm256_and_pd(
        in,
        _mm256_and_pd(
            _mm256_cmp_pd(s_lo, _mm256_set1_pd(bi.hi), _CMP_LE_OQ),
            _mm256_cmp_pd(_mm256_set1_pd(bi.lo), s_hi, _CMP_LE_OQ)));
  }
  return in;
}

__attribute__((target("avx2"))) void NpdqLeafMatchBatchBoxAvx2(
    const StBox* p, const StBox& q, const SoaNode& node,
    std::vector<uint8_t>* out) {
  const int n = node.count;
  if (SnapshotDegenerate(q, node.dims)) {
    std::fill(out->begin(), out->end(), uint8_t{0});
    return;
  }
  // A degenerate previous snapshot overlaps nothing, so it never suppresses
  // an emission — same as no previous at all.
  if (p != nullptr && SnapshotDegenerate(*p, node.dims)) p = nullptr;
  int k0 = 0;
  for (; k0 + 4 <= n; k0 += 4) {
    const __m256d t_lo = _mm256_loadu_pd(&node.t_lo[k0]);
    const __m256d t_hi = _mm256_loadu_pd(&node.t_hi[k0]);
    const __m256d t_valid = _mm256_cmp_pd(t_lo, t_hi, _CMP_LE_OQ);
    __m256d emit = LeafBoundsOverlapVec(node, k0, q, t_lo, t_hi, t_valid);
    if (p != nullptr) {
      emit = _mm256_andnot_pd(
          LeafBoundsOverlapVec(node, k0, *p, t_lo, t_hi, t_valid), emit);
    }
    const int mask = _mm256_movemask_pd(emit);
    for (int l = 0; l < 4; ++l) {
      (*out)[static_cast<size_t>(k0 + l)] =
          static_cast<uint8_t>((mask >> l) & 1);
    }
  }
  for (; k0 < n; ++k0) {
    const bool emit = LeafBoundsOverlap(node, k0, q) &&
                      (p == nullptr || !LeafBoundsOverlap(node, k0, *p));
    (*out)[static_cast<size_t>(k0)] = static_cast<uint8_t>(emit);
  }
}

__attribute__((target("avx2"))) void KnnEntryDistanceBatchAvx2(
    const SoaNode& node, double t, const Vec& point,
    std::vector<double>* dist, std::vector<uint8_t>* alive) {
  const int n = node.count;
  const __m256d tv = _mm256_set1_pd(t);
  const __m256d zero = _mm256_setzero_pd();
  int k0 = 0;
  for (; k0 + 4 <= n; k0 += 4) {
    const __m256d t_lo = _mm256_loadu_pd(&node.start_lo[k0]);
    const __m256d t_hi = _mm256_loadu_pd(&node.end_hi[k0]);
    const __m256d in_time =
        _mm256_and_pd(_mm256_cmp_pd(t_lo, tv, _CMP_LE_OQ),
                      _mm256_cmp_pd(tv, t_hi, _CMP_LE_OQ));
    __m256d sum = zero;
    for (int i = 0; i < node.dims; ++i) {
      const __m256d p = _mm256_set1_pd(point[i]);
      const __m256d lo = _mm256_loadu_pd(&node.sp_lo[i][k0]);
      const __m256d hi = _mm256_loadu_pd(&node.sp_hi[i][k0]);
      const __m256d below = _mm256_cmp_pd(p, lo, _CMP_LT_OQ);
      const __m256d above = _mm256_cmp_pd(p, hi, _CMP_GT_OQ);
      const __m256d d = _mm256_blendv_pd(
          _mm256_blendv_pd(zero, _mm256_sub_pd(p, hi), above),
          _mm256_sub_pd(lo, p), below);
      sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(&(*dist)[static_cast<size_t>(k0)],
                     _mm256_sqrt_pd(sum));
    const int mask = _mm256_movemask_pd(in_time);
    for (int l = 0; l < 4; ++l) {
      (*alive)[static_cast<size_t>(k0 + l)] =
          static_cast<uint8_t>((mask >> l) & 1);
    }
  }
  for (; k0 < n; ++k0) {
    (*alive)[static_cast<size_t>(k0)] = static_cast<uint8_t>(
        node.start_lo[k0] <= t && t <= node.end_hi[k0]);
    double sum = 0.0;
    for (int i = 0; i < node.dims; ++i) {
      double d = 0.0;
      if (point[i] < node.sp_lo[i][k0]) {
        d = node.sp_lo[i][k0] - point[i];
      } else if (point[i] > node.sp_hi[i][k0]) {
        d = point[i] - node.sp_hi[i][k0];
      }
      sum += d * d;
    }
    (*dist)[static_cast<size_t>(k0)] = std::sqrt(sum);
  }
}

__attribute__((target("avx2"))) void KnnLeafDistanceBatchAvx2(
    const SoaNode& node, double t, const Vec& point,
    std::vector<double>* dist, std::vector<uint8_t>* alive) {
  const int n = node.count;
  const __m256d tv = _mm256_set1_pd(t);
  const __m256d zero = _mm256_setzero_pd();
  int k0 = 0;
  for (; k0 + 4 <= n; k0 += 4) {
    const __m256d t_lo = _mm256_loadu_pd(&node.t_lo[k0]);
    const __m256d t_hi = _mm256_loadu_pd(&node.t_hi[k0]);
    const __m256d in_time =
        _mm256_and_pd(_mm256_cmp_pd(t_lo, tv, _CMP_LE_OQ),
                      _mm256_cmp_pd(tv, t_hi, _CMP_LE_OQ));
    // Interval::length(): 0 when inverted, else hi - lo; PositionAt uses
    // p0 when dt <= 0 and lerps otherwise.
    const __m256d inverted = _mm256_cmp_pd(t_lo, t_hi, _CMP_GT_OQ);
    const __m256d dt =
        _mm256_blendv_pd(_mm256_sub_pd(t_hi, t_lo), zero, inverted);
    const __m256d degenerate = _mm256_cmp_pd(dt, zero, _CMP_LE_OQ);
    const __m256d alpha = _mm256_div_pd(_mm256_sub_pd(tv, t_lo), dt);
    __m256d sum = zero;
    for (int i = 0; i < node.dims; ++i) {
      const __m256d p0 = _mm256_loadu_pd(&node.p0[i][k0]);
      const __m256d p1 = _mm256_loadu_pd(&node.p1[i][k0]);
      // Lerp: p0 + (p1 - p0) * alpha, exactly vec.h's op order.
      const __m256d lerp = _mm256_add_pd(
          p0, _mm256_mul_pd(_mm256_sub_pd(p1, p0), alpha));
      const __m256d pos = _mm256_blendv_pd(lerp, p0, degenerate);
      const __m256d d = _mm256_sub_pd(pos, _mm256_set1_pd(point[i]));
      sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(&(*dist)[static_cast<size_t>(k0)],
                     _mm256_sqrt_pd(sum));
    const int mask = _mm256_movemask_pd(in_time);
    for (int l = 0; l < 4; ++l) {
      (*alive)[static_cast<size_t>(k0 + l)] =
          static_cast<uint8_t>((mask >> l) & 1);
    }
  }
  for (; k0 < n; ++k0) {
    (*alive)[static_cast<size_t>(k0)] =
        static_cast<uint8_t>(node.t_lo[k0] <= t && t <= node.t_hi[k0]);
    const double lo = node.t_lo[k0];
    const double hi = node.t_hi[k0];
    const double seg_dt = lo > hi ? 0.0 : hi - lo;
    double sum = 0.0;
    for (int i = 0; i < node.dims; ++i) {
      double pos;
      if (seg_dt <= 0.0) {
        pos = node.p0[i][k0];
      } else {
        const double alpha = (t - lo) / seg_dt;
        pos = node.p0[i][k0] + (node.p1[i][k0] - node.p0[i][k0]) * alpha;
      }
      const double d = pos - point[i];
      sum += d * d;
    }
    (*dist)[static_cast<size_t>(k0)] = std::sqrt(sum);
  }
}

#endif  // DQMO_SIMD_X86

void KnnEntryDistanceBatchScalar(const SoaNode& node, double t,
                                 const Vec& point, std::vector<double>* dist,
                                 std::vector<uint8_t>* alive) {
  for (int k = 0; k < node.count; ++k) {
    // entry.bounds.time.Contains(t) with bounds.time = [start_lo, end_hi].
    (*alive)[static_cast<size_t>(k)] =
        static_cast<uint8_t>(node.start_lo[k] <= t && t <= node.end_hi[k]);
    // Box::MinDistance(point), op-for-op (box.cc).
    double sum = 0.0;
    for (int i = 0; i < node.dims; ++i) {
      double d = 0.0;
      if (point[i] < node.sp_lo[i][k]) {
        d = node.sp_lo[i][k] - point[i];
      } else if (point[i] > node.sp_hi[i][k]) {
        d = point[i] - node.sp_hi[i][k];
      }
      sum += d * d;
    }
    (*dist)[static_cast<size_t>(k)] = std::sqrt(sum);
  }
}

void KnnLeafDistanceBatchScalar(const SoaNode& node, double t,
                                const Vec& point, std::vector<double>* dist,
                                std::vector<uint8_t>* alive) {
  for (int k = 0; k < node.count; ++k) {
    (*alive)[static_cast<size_t>(k)] =
        static_cast<uint8_t>(node.t_lo[k] <= t && t <= node.t_hi[k]);
    // StSegment::DistanceAt(t, point) = PositionAt(t).DistanceTo(point),
    // op-for-op (segment.cc / vec.h).
    const double lo = node.t_lo[k];
    const double hi = node.t_hi[k];
    const double seg_dt = lo > hi ? 0.0 : hi - lo;  // Interval::length().
    double sum = 0.0;
    for (int i = 0; i < node.dims; ++i) {
      double pos;
      if (seg_dt <= 0.0) {
        pos = node.p0[i][k];
      } else {
        const double alpha = (t - lo) / seg_dt;
        pos = node.p0[i][k] + (node.p1[i][k] - node.p0[i][k]) * alpha;
      }
      const double d = pos - point[i];
      sum += d * d;
    }
    (*dist)[static_cast<size_t>(k)] = std::sqrt(sum);
  }
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel ActiveSimdLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced == 1) return SimdLevel::kScalar;
  if (forced == 2) return SimdLevel::kAvx2;
  static const SimdLevel detected = DetectSimdLevel();
  return detected;
}

void ForceSimdLevel(std::optional<SimdLevel> level) {
  int v = 0;
  if (level.has_value()) {
    v = *level == SimdLevel::kScalar ? 1 : 2;
  }
  g_forced_level.store(v, std::memory_order_relaxed);
}

TrajectoryCoeffs TrajectoryCoeffs::Build(const QueryTrajectory& trajectory) {
  TrajectoryCoeffs tc;
  tc.dims = trajectory.dims();
  tc.segs.resize(static_cast<size_t>(trajectory.num_segments()));
  for (int j = 0; j < trajectory.num_segments(); ++j) {
    const TrajectorySegment s = trajectory.Segment(j);
    Seg& seg = tc.segs[static_cast<size_t>(j)];
    seg.time = s.time;
    // Linear::Through (trapezoid.cc), replicated exactly: a degenerate
    // segment (dt <= 0) becomes the constant function at the first window.
    const double dt = s.time.hi - s.time.lo;
    for (int i = 0; i < tc.dims; ++i) {
      const double u0 = s.window0.extent(i).hi;
      const double u1 = s.window1.extent(i).hi;
      const double l0 = s.window0.extent(i).lo;
      const double l1 = s.window1.extent(i).lo;
      if (dt <= 0.0) {
        seg.upper[i] = Border{u0, 0.0};
        seg.lower[i] = Border{l0, 0.0};
      } else {
        const double ub = (u1 - u0) / dt;
        const double lb = (l1 - l0) / dt;
        seg.upper[i] = Border{u0 - ub * s.time.lo, ub};
        seg.lower[i] = Border{l0 - lb * s.time.lo, lb};
      }
    }
  }
  return tc;
}

void PdqOverlapBoxBatch(const TrajectoryCoeffs& coeffs, const SoaNode& node,
                        std::vector<TimeSet>* out) {
  if (out->size() < static_cast<size_t>(node.count)) {
    out->resize(static_cast<size_t>(node.count));
  }
#if DQMO_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    PdqOverlapBoxBatchAvx2(coeffs, node, out);
    return;
  }
#endif
  PdqOverlapBoxBatchScalar(coeffs, node, out);
}

void PdqOverlapSegmentsBatch(const TrajectoryCoeffs& coeffs,
                             const SoaNode& node,
                             std::vector<TimeSet>* out) {
  if (out->size() < static_cast<size_t>(node.count)) {
    out->resize(static_cast<size_t>(node.count));
  }
  for (int k = 0; k < node.count; ++k) {
    TimeSet& times = (*out)[static_cast<size_t>(k)];
    times.Clear();
    const double m_lo = node.t_lo[k];
    const double m_hi = node.t_hi[k];
    // StSegment::Velocity(): zero when the valid time is degenerate.
    const double seg_dt = m_lo > m_hi ? 0.0 : m_hi - m_lo;
    double v[kMaxSpatialDims];
    double xa[kMaxSpatialDims];
    for (int i = 0; i < coeffs.dims; ++i) {
      v[i] = seg_dt <= 0.0
                 ? 0.0
                 : (node.p1[i][k] - node.p0[i][k]) / seg_dt;
      // Motion coordinate as a + b*t: a = p0_i - v_i * time.lo.
      xa[i] = node.p0[i][k] - v[i] * m_lo;
    }
    for (const TrajectoryCoeffs::Seg& s : coeffs.segs) {
      double lo = std::max(s.time.lo, m_lo);
      double hi = std::min(s.time.hi, m_hi);
      for (int i = 0; i < coeffs.dims; ++i) {
        // x_i(t) <= U_i(t)  and  x_i(t) >= L_i(t) (trapezoid.cc).
        IntersectLe(xa[i] - s.upper[i].a, v[i] - s.upper[i].b, &lo, &hi);
        IntersectGe(xa[i] - s.lower[i].a, v[i] - s.lower[i].b, &lo, &hi);
      }
      times.Add(Interval(lo, hi));
    }
  }
}

void NpdqClassifyBatch(const StBox* p, const StBox& q,
                       bool intersection_contained, const SoaNode& node,
                       std::vector<uint8_t>* out) {
  out->resize(static_cast<size_t>(node.count));
  const int dims = node.dims;
  for (int k = 0; k < node.count; ++k) {
    uint8_t cls = kNpdqVisit;
    // entry.bounds.Overlaps(q): time overlap (bounds.time = [start_lo,
    // end_hi]) then per-dimension spatial overlap (box.h).
    const double bt_lo = node.start_lo[k];
    const double bt_hi = node.end_hi[k];
    bool overlaps = !(bt_lo > bt_hi) && !q.time.empty() &&
                    bt_lo <= q.time.hi && q.time.lo <= bt_hi;
    for (int i = 0; i < dims && overlaps; ++i) {
      const Interval& qi = q.spatial.extent(i);
      const double r_lo = node.sp_lo[i][k];
      const double r_hi = node.sp_hi[i][k];
      overlaps = !(r_lo > r_hi) && !qi.empty() && r_lo <= qi.hi &&
                 qi.lo <= r_hi;
    }
    if (!overlaps) {
      (*out)[static_cast<size_t>(k)] = kNpdqSkip;
      continue;
    }
    if (p != nullptr) {
      // Discardable(p, q, entry) from npdq.cc, op-for-op over the SoA
      // temporal-axis columns.
      const double i_ts_lo = std::max(node.start_lo[k], -kInf);
      const double i_ts_hi = std::min(node.start_hi[k], q.time.hi);
      const double i_te_lo = std::max(node.end_lo[k], q.time.lo);
      const double i_te_hi = std::min(node.end_hi[k], kInf);
      if (i_ts_lo > i_ts_hi || i_te_lo > i_te_hi) {
        cls = kNpdqDiscard;  // No Q-relevant motion below R at all.
      } else if (i_ts_hi > p->time.hi || i_te_lo < p->time.lo) {
        cls = kNpdqVisit;  // Motions started after / ended before P.
      } else {
        cls = kNpdqDiscard;
        for (int i = 0; i < dims; ++i) {
          const double r_lo = node.sp_lo[i][k];
          const double r_hi = node.sp_hi[i][k];
          double region_lo = r_lo;
          double region_hi = r_hi;
          if (intersection_contained) {
            region_lo = std::max(r_lo, q.spatial.extent(i).lo);
            region_hi = std::min(r_hi, q.spatial.extent(i).hi);
          }
          if (region_lo > region_hi) break;  // Spatially disjoint from Q.
          const Interval& pi = p->spatial.extent(i);
          if (pi.empty() ||
              !(pi.lo <= region_lo && region_hi <= pi.hi)) {
            cls = kNpdqVisit;
            break;
          }
        }
      }
    }
    (*out)[static_cast<size_t>(k)] = cls;
  }
}

void NpdqLeafMatchBatch(const StBox* p, const StBox& q, bool exact,
                        const SoaNode& node, std::vector<uint8_t>* out) {
  out->resize(static_cast<size_t>(node.count));
  if (exact) {
    NpdqLeafMatchBatchExact(p, q, node, out);
    return;
  }
#if DQMO_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    NpdqLeafMatchBatchBoxAvx2(p, q, node, out);
    return;
  }
#endif
  NpdqLeafMatchBatchBoxScalar(p, q, node, out);
}

void KnnEntryDistanceBatch(const SoaNode& node, double t, const Vec& point,
                           std::vector<double>* dist,
                           std::vector<uint8_t>* alive) {
  dist->resize(static_cast<size_t>(node.count));
  alive->resize(static_cast<size_t>(node.count));
#if DQMO_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    KnnEntryDistanceBatchAvx2(node, t, point, dist, alive);
    return;
  }
#endif
  KnnEntryDistanceBatchScalar(node, t, point, dist, alive);
}

void KnnLeafDistanceBatch(const SoaNode& node, double t, const Vec& point,
                          std::vector<double>* dist,
                          std::vector<uint8_t>* alive) {
  dist->resize(static_cast<size_t>(node.count));
  alive->resize(static_cast<size_t>(node.count));
#if DQMO_SIMD_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    KnnLeafDistanceBatchAvx2(node, t, point, dist, alive);
    return;
  }
#endif
  KnnLeafDistanceBatchScalar(node, t, point, dist, alive);
}

}  // namespace dqmo
