// Microbenchmarks (google-benchmark) for the geometric and storage kernels
// on the query hot path: exact segment tests, trapezoid overlap times,
// TimeSet maintenance, quadratic splits, node (de)serialization, the SoA
// decode + batch-prune kernels (scalar vs AVX2), and the PDQ heap-pop
// move-vs-copy regression guard.
#include <benchmark/benchmark.h>

#include <queue>

#include "common/metrics.h"
#include "common/random.h"
#include "geom/timeset.h"
#include "geom/trajectory.h"
#include "query/kernels.h"
#include "rtree/node.h"
#include "rtree/node_soa.h"
#include "rtree/split.h"

namespace {

using namespace dqmo;

StSegment RandomSeg(Rng* rng) {
  return StSegment(Vec(rng->Uniform(0, 100), rng->Uniform(0, 100)),
                   Vec(rng->Uniform(0, 100), rng->Uniform(0, 100)),
                   Interval(rng->Uniform(0, 50), rng->Uniform(50, 100)));
}

StBox RandomBox(Rng* rng) {
  const double x = rng->Uniform(0, 90);
  const double y = rng->Uniform(0, 90);
  const double t = rng->Uniform(0, 90);
  return StBox(Box(Interval(x, x + 10), Interval(y, y + 10)),
               Interval(t, t + 5));
}

QueryTrajectory RandomTrajectory(Rng* rng, int keys) {
  std::vector<KeySnapshot> ks;
  double t = 0.0;
  for (int i = 0; i < keys; ++i) {
    ks.emplace_back(t, Box::Centered(Vec(rng->Uniform(10, 90),
                                         rng->Uniform(10, 90)),
                                     8.0));
    t += rng->Uniform(0.5, 2.0);
  }
  return QueryTrajectory::Make(std::move(ks)).value();
}

void BM_SegmentExactIntersect(benchmark::State& state) {
  Rng rng(1);
  std::vector<StSegment> segs;
  std::vector<StBox> boxes;
  for (int i = 0; i < 1024; ++i) {
    segs.push_back(RandomSeg(&rng));
    boxes.push_back(RandomBox(&rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segs[i & 1023].Intersects(boxes[i & 1023]));
    ++i;
  }
}

void BM_TrapezoidOverlapBox(benchmark::State& state) {
  Rng rng(2);
  const QueryTrajectory traj =
      RandomTrajectory(&rng, static_cast<int>(state.range(0)));
  std::vector<StBox> boxes;
  for (int i = 0; i < 1024; ++i) boxes.push_back(RandomBox(&rng));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj.OverlapTimes(boxes[i & 1023]));
    ++i;
  }
}

void BM_TrapezoidOverlapMotion(benchmark::State& state) {
  Rng rng(3);
  const QueryTrajectory traj =
      RandomTrajectory(&rng, static_cast<int>(state.range(0)));
  std::vector<StSegment> segs;
  for (int i = 0; i < 1024; ++i) segs.push_back(RandomSeg(&rng));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj.OverlapTimes(segs[i & 1023]));
    ++i;
  }
}

void BM_TimeSetAdd(benchmark::State& state) {
  Rng rng(4);
  std::vector<Interval> ivs;
  for (int i = 0; i < 4096; ++i) {
    const double lo = rng.Uniform(0, 100);
    ivs.emplace_back(lo, lo + rng.Uniform(0, 2));
  }
  for (auto _ : state) {
    TimeSet set;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      set.Add(ivs[static_cast<size_t>(i) & 4095]);
    }
    benchmark::DoNotOptimize(set);
  }
}

void BM_QuadraticSplit(benchmark::State& state) {
  Rng rng(5);
  std::vector<StBox> boxes;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    boxes.push_back(QuantizeOutward(RandomSeg(&rng).Bounds()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuadraticSplit(boxes, n / 2, 0));
  }
}

void BM_NodeSerializeLeaf(benchmark::State& state) {
  Rng rng(6);
  Node node;
  node.self = 1;
  node.level = 0;
  node.dims = 2;
  for (int i = 0; i < LeafCapacity(2); ++i) {
    MotionSegment m(static_cast<ObjectId>(i), RandomSeg(&rng));
    m.seg = QuantizeStored(m.seg);
    node.segments.push_back(std::move(m));
  }
  uint8_t page[kPageSize];
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.SerializeTo(PageView(page, kPageSize)));
  }
}

void BM_NodeDeserializeLeaf(benchmark::State& state) {
  Rng rng(7);
  Node node;
  node.self = 1;
  node.level = 0;
  node.dims = 2;
  for (int i = 0; i < LeafCapacity(2); ++i) {
    MotionSegment m(static_cast<ObjectId>(i), RandomSeg(&rng));
    m.seg = QuantizeStored(m.seg);
    node.segments.push_back(std::move(m));
  }
  uint8_t page[kPageSize];
  benchmark::DoNotOptimize(node.SerializeTo(PageView(page, kPageSize)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Node::DeserializeFrom(page, 1));
  }
}

Node RandomLeafNode(Rng* rng) {
  Node node;
  node.self = 1;
  node.level = 0;
  node.dims = 2;
  for (int i = 0; i < LeafCapacity(2); ++i) {
    MotionSegment m(static_cast<ObjectId>(i), RandomSeg(rng));
    m.seg = QuantizeStored(m.seg);
    node.segments.push_back(std::move(m));
  }
  return node;
}

Node RandomInternalNode(Rng* rng) {
  Node node;
  node.self = 2;
  node.level = 1;
  node.dims = 2;
  for (int i = 0; i < InternalCapacity(2); ++i) {
    node.children.push_back(ChildEntry::ForBox(
        QuantizeOutward(RandomSeg(rng).Bounds()),
        static_cast<PageId>(i + 10)));
  }
  return node;
}

SoaNode DecodeSoa(const Node& node) {
  uint8_t page[kPageSize];
  benchmark::DoNotOptimize(node.SerializeTo(PageView(page, kPageSize)));
  SoaNode soa;
  benchmark::DoNotOptimize(soa.DecodeFrom(page, node.self));
  return soa;
}

/// Pins the benchmarked tier; skips when the CPU lacks it. range(0): 0 =
/// scalar, 1 = AVX2 (mirrors the kernels' runtime dispatch).
bool PinSimdTier(benchmark::State& state) {
  if (state.range(0) == 0) {
    ForceSimdLevel(SimdLevel::kScalar);
    return true;
  }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) {
    ForceSimdLevel(SimdLevel::kAvx2);
    return true;
  }
#endif
  state.SkipWithError("CPU lacks AVX2");
  return false;
}

/// Decode of a full leaf page into reused SoA columns — the per-visit cost
/// the decoded-node cache amortizes (compare BM_NodeDeserializeLeaf, the
/// AoS decode RangeSearch and the write path pay instead).
void BM_SoaDecodeLeaf(benchmark::State& state) {
  Rng rng(8);
  const Node node = RandomLeafNode(&rng);
  uint8_t page[kPageSize];
  benchmark::DoNotOptimize(node.SerializeTo(PageView(page, kPageSize)));
  SoaNode soa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soa.DecodeFrom(page, 1));
  }
}

/// PDQ internal-node candidacy over a full node, per dispatch tier.
void BM_PdqOverlapBoxBatch(benchmark::State& state) {
  if (!PinSimdTier(state)) return;
  Rng rng(9);
  const QueryTrajectory traj = RandomTrajectory(&rng, 8);
  const TrajectoryCoeffs coeffs = TrajectoryCoeffs::Build(traj);
  const SoaNode soa = DecodeSoa(RandomInternalNode(&rng));
  std::vector<TimeSet> out;
  for (auto _ : state) {
    PdqOverlapBoxBatch(coeffs, soa, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * soa.count);
  ForceSimdLevel(std::nullopt);
}

/// NPDQ leaf emission over a full leaf, per dispatch tier (bounding-box
/// semantics with a usable previous snapshot — the paper configuration).
void BM_NpdqLeafMatchBatch(benchmark::State& state) {
  if (!PinSimdTier(state)) return;
  Rng rng(10);
  const SoaNode soa = DecodeSoa(RandomLeafNode(&rng));
  const StBox p = RandomBox(&rng);
  StBox q = p;
  q.time = Interval(p.time.lo + 0.5, p.time.hi + 0.5);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    NpdqLeafMatchBatch(&p, q, /*exact=*/false, soa, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * soa.count);
  ForceSimdLevel(std::nullopt);
}

/// PDQ heap pop, move vs copy. GetNext moves the top item out of the heap
/// slot (pdq.cc); range(0) == 0 measures that, range(0) == 1 the
/// pre-optimization copy of the TimeSet + MotionSegment payload, so the
/// spread is the per-pop win this guard protects.
void BM_PdqQueuePops(benchmark::State& state) {
  struct Item {
    double priority = 0.0;
    MotionSegment motion;
    TimeSet times;
  };
  struct ItemCompare {
    bool operator()(const Item& a, const Item& b) const {
      return a.priority > b.priority;
    }
  };
  Rng rng(11);
  std::priority_queue<Item, std::vector<Item>, ItemCompare> queue;
  for (int i = 0; i < 256; ++i) {
    Item item;
    item.priority = rng.Uniform(0, 100);
    item.motion = MotionSegment(static_cast<ObjectId>(i), RandomSeg(&rng));
    for (int j = 0; j < 6; ++j) {
      const double lo = rng.Uniform(0, 100);
      item.times.Add(Interval(lo, lo + rng.Uniform(0, 3)));
    }
    queue.push(std::move(item));
  }
  const bool copy = state.range(0) != 0;
  for (auto _ : state) {
    // Steady state: pop one, requeue it at a later priority.
    Item item = copy ? queue.top()
                     : std::move(const_cast<Item&>(queue.top()));
    queue.pop();
    item.priority += rng.Uniform(0, 10);
    if (item.priority > 100.0) item.priority -= 100.0;
    queue.push(std::move(item));
  }
}

// ---------------------------------------------------------------------------
// Metrics overhead: the per-record cost the instrumentation adds to hot
// paths. range(0): 1 = metrics on (one relaxed fetch_add per record),
// 0 = DQMO_METRICS=off (the record path reduces to one branch; the timer
// variant must not touch the clock). These quantify the cost model stated
// in common/metrics.h; tools/ci.sh enforces the end-to-end consequence on
// abl_hot_path.

void BM_MetricsCounterAdd(benchmark::State& state) {
  const bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(state.range(0) != 0);
  Counter counter;
  for (auto _ : state) {
    counter.Add();
    benchmark::DoNotOptimize(&counter);
  }
  SetMetricsEnabled(was_enabled);
}

void BM_MetricsHistogramRecord(benchmark::State& state) {
  const bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(state.range(0) != 0);
  Histogram histogram;
  uint64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 40;  // Vary buckets.
    benchmark::DoNotOptimize(&histogram);
  }
  SetMetricsEnabled(was_enabled);
}

void BM_MetricsScopedTimer(benchmark::State& state) {
  const bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(state.range(0) != 0);
  Histogram histogram;
  for (auto _ : state) {
    ScopedLatencyTimer timer(&histogram);
    benchmark::DoNotOptimize(&histogram);
  }
  SetMetricsEnabled(was_enabled);
}

}  // namespace

BENCHMARK(BM_SegmentExactIntersect);
BENCHMARK(BM_TrapezoidOverlapBox)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_TrapezoidOverlapMotion)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_TimeSetAdd)->Arg(16)->Arg(256);
BENCHMARK(BM_QuadraticSplit)->Arg(64)->Arg(114)->Arg(128);
BENCHMARK(BM_NodeSerializeLeaf);
BENCHMARK(BM_NodeDeserializeLeaf);
BENCHMARK(BM_SoaDecodeLeaf);
BENCHMARK(BM_PdqOverlapBoxBatch)->Arg(0)->Arg(1);
BENCHMARK(BM_NpdqLeafMatchBatch)->Arg(0)->Arg(1);
BENCHMARK(BM_PdqQueuePops)->Arg(0)->Arg(1);
BENCHMARK(BM_MetricsCounterAdd)->Arg(0)->Arg(1);
BENCHMARK(BM_MetricsHistogramRecord)->Arg(0)->Arg(1);
BENCHMARK(BM_MetricsScopedTimer)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
