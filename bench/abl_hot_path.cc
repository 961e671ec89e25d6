// Ablation A15 — the zero-copy query hot path, dimension by dimension:
// decoded-node cache {off, on} x kernel tier {scalar, vector}, against the
// paper's naive snapshot search (RTree::RangeSearch over every frame
// window: an AoS decode and a per-entry test, sharing no code with the SoA
// path). Every hot-path configuration answers the *same* seeded PDQ sweep,
// NPDQ window sweep and kNN probe set; their checksums must be identical
// (the kernels' bit-identity contract), only the cost may move. The naive
// row answers each frame window from scratch, so its answers and checksum
// are its own.
//
// Reported metric: node-scan CPU as ns per pruned entry — wall time of the
// query phase divided by the number of per-entry prune decisions
// (QueryStats::distance_computations: one per entry of every loaded node,
// the paper's CPU account) — plus node visits split into physical decodes
// and decoded-cache hits.
//
// The speedup gate is same-run: after the table, one process alternates
// the naive search and the full hot path (cache + SoA + auto SIMD)
// kGatePasses times each and compares the minimum ns/entry of each.
//
// Env knobs, on top of the bench_common ones:
//   DQMO_HOT_PATH_FRAMES=N    frames per PDQ trajectory (default 60)
//   DQMO_CHECK_SPEEDUP=1      exit non-zero unless the full hot path beats
//                             the naive snapshot search by >= kGateSpeedup
//                             ns/entry (the CI gate)
#include <chrono>
#include <cstring>
#include <optional>

#include "bench_common.h"
#include "common/random.h"
#include "query/kernels.h"
#include "query/knn.h"
#include "query/pdq.h"
#include "rtree/node_cache.h"

namespace {

using namespace dqmo;
using namespace dqmo::bench;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FoldU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFF;
    *h *= kFnvPrime;
  }
}

void FoldDouble(uint64_t* h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  FoldU64(h, bits);
}

/// Which search answers the workload.
enum class Search {
  kNaive,    // RTree::RangeSearch per frame window (no kNN counterpart).
  kDynamic,  // PDQ + NPDQ per frame and the kNN probes, on the SoA path.
};

struct Config {
  const char* name;
  Search search;
  bool cache;
  bool vector;  // kDynamic only: auto-dispatch (AVX2 if available) or scalar.
};

/// Gate passes per side, alternated in one process; the gate compares the
/// minimum of each side.
constexpr int kGatePasses = 15;
/// The gate's threshold on naive / full ns/entry. The gate it replaces
/// required full >= 2x the deleted per-entry AoS copy of PDQ/NPDQ/kNN;
/// that copy ran 1.66x the naive search's ns/entry (median of 31
/// same-process alternations; EXPERIMENTS A15), so 2 / 1.66 trips at the
/// same full-path cost.
constexpr double kGateSpeedup = 1.20;

struct RunCost {
  double wall_seconds = 0.0;
  uint64_t entries = 0;      // Per-entry prune decisions (ns/entry basis).
  uint64_t node_reads = 0;   // Physical page decodes.
  uint64_t decoded_hits = 0; // Served from the decoded-node cache.
  uint64_t objects = 0;
  uint64_t checksum = kFnvOffset;

  double ns_per_entry() const {
    return entries == 0 ? 0.0 : 1e9 * wall_seconds / static_cast<double>(entries);
  }
};

QueryTrajectory MakeTrajectory(Rng* rng) {
  std::vector<KeySnapshot> keys;
  Vec pos(rng->Uniform(20, 80), rng->Uniform(20, 80));
  double t = rng->Uniform(5, 20);
  keys.emplace_back(t, Box::Centered(pos, 10.0));
  for (int j = 0; j < 6; ++j) {
    t += rng->Uniform(2.0, 5.0);
    pos = Vec(std::clamp(pos[0] + rng->Uniform(-8, 8), 5.0, 95.0),
              std::clamp(pos[1] + rng->Uniform(-8, 8), 5.0, 95.0));
    keys.emplace_back(t, Box::Centered(pos, 10.0));
  }
  return QueryTrajectory::Make(std::move(keys)).value();
}

/// One full pass of the workload under the active configuration. The mix
/// is node-scan dominated by design — that is the CPU this ablation
/// measures: PDQ visits each node once per trajectory (box + segment
/// kernels), the NPDQ window sweep re-scans overlapping subtrees every
/// snapshot (classification kernel + repeat decodes, where the cache
/// applies), and the kNN probes re-run full searches (distance kernels).
/// The naive search instead runs one RangeSearch per frame window.
/// Costs accumulate into *cost when non-null (warmup passes discard them).
void RunWorkload(Workbench* bench, int trajectories, int frames,
                 Search search, RunCost* cost) {
  QueryStats stats;
  uint64_t checksum = kFnvOffset;
  uint64_t objects = 0;
  const auto start = std::chrono::steady_clock::now();
  Rng rng(2002);
  for (int q = 0; q < trajectories; ++q) {
    const QueryTrajectory trajectory = MakeTrajectory(&rng);
    const Interval span = trajectory.TimeSpan();
    const double dt = span.length() / frames;
    if (search == Search::kNaive) {
      double prev = span.lo;
      for (int i = 1; i <= frames; ++i) {
        const double t = span.lo + i * dt;
        auto snapshot =
            bench->tree()->RangeSearch(trajectory.FrameQuery(prev, t), &stats);
        DQMO_CHECK(snapshot.ok());
        for (const MotionSegment& m : *snapshot) {
          FoldU64(&checksum, m.oid);
          FoldDouble(&checksum, m.seg.time.lo);
          ++objects;
        }
        prev = t;
      }
      // Draw the kNN probes too, so every trajectory matches the dynamic
      // workload's.
      for (int p = 0; p < 10; ++p) {
        rng.Uniform(5, 95);
        rng.Uniform(5, 95);
        rng.Uniform(10, 90);
      }
      continue;
    }
    auto pdq = PredictiveDynamicQuery::Make(bench->tree(), trajectory);
    DQMO_CHECK(pdq.ok());
    NonPredictiveDynamicQuery npdq(bench->tree(), NpdqOptions());
    double prev = span.lo;
    for (int i = 1; i <= frames; ++i) {
      const double t = span.lo + i * dt;
      auto frame = (*pdq)->Frame(prev, t);
      DQMO_CHECK(frame.ok());
      for (const PdqResult& r : *frame) {
        FoldU64(&checksum, r.motion.oid);
        FoldDouble(&checksum, r.motion.seg.time.lo);
        ++objects;
      }
      // The same frame answered non-predictively: an NPDQ snapshot over
      // the trajectory's interpolated window.
      auto fresh = npdq.Execute(trajectory.FrameQuery(prev, t));
      DQMO_CHECK(fresh.ok());
      for (const MotionSegment& m : *fresh) {
        FoldU64(&checksum, m.oid);
        FoldDouble(&checksum, m.seg.time.lo);
      }
      prev = t;
    }
    stats += (*pdq)->stats();
    stats += npdq.stats();

    for (int p = 0; p < 10; ++p) {
      const Vec point(rng.Uniform(5, 95), rng.Uniform(5, 95));
      auto neighbors = KnnAt(*bench->tree(), point, rng.Uniform(10, 90), 10,
                             &stats);
      DQMO_CHECK(neighbors.ok());
      for (const Neighbor& n : *neighbors) {
        FoldU64(&checksum, n.motion.oid);
        FoldDouble(&checksum, n.distance);
      }
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (cost == nullptr) return;
  cost->wall_seconds = wall;
  cost->entries = stats.distance_computations.load();
  cost->node_reads = stats.node_reads.load();
  cost->decoded_hits = stats.decoded_hits.load();
  cost->objects = objects;
  cost->checksum = checksum;
}

}  // namespace

int main(int argc, char** argv) {
  dqmo::bench::InitJsonMode(argc, argv);
  auto bench = PrepareBench();
  const int trajectories = TrajectoriesFromEnv(20);
  const int frames =
      static_cast<int>(GetEnvInt("DQMO_HOT_PATH_FRAMES", 60));
  PrintPreamble("Ablation A15",
                "zero-copy hot path: decoded-node cache x SIMD tier vs "
                "the naive snapshot search (hot-path checksums must agree)",
                trajectories);
  std::printf("# SIMD auto-dispatch level: %s "
              "(DQMO_DISABLE_SIMD=1 forces scalar)\n",
              SimdLevelName(ActiveSimdLevel()));

  const Config configs[] = {
      {"naive snapshot search (RangeSearch)", Search::kNaive, false, false},
      {"SoA kernels, scalar", Search::kDynamic, false, false},
      {"SoA kernels, vector", Search::kDynamic, false, true},
      {"SoA kernels, scalar + cache", Search::kDynamic, true, false},
      {"SoA kernels, vector + cache", Search::kDynamic, true, true},
  };

  Table table({"configuration", "ns/entry", "entries", "node visits",
               "(reads + cache hits)", "speedup vs naive", "checksum"});
  BenchJsonWriter json("abl_hot_path");
  double naive_ns = 0.0;
  std::optional<uint64_t> hot_checksum;
  bool checksums_agree = true;
  for (const Config& config : configs) {
    const bool naive = config.search == Search::kNaive;
    ForceSimdLevel(!naive && !config.vector
                       ? std::optional<SimdLevel>(SimdLevel::kScalar)
                       : std::nullopt);
    DecodedNodeCache cache(4096);
    if (config.cache) bench->tree()->AttachNodeCache(&cache);
    // Warmup: populates the decoded cache and faults in the page cache so
    // the timed pass measures node-scan CPU, not first-touch costs.
    RunWorkload(bench.get(), std::min(trajectories, 3), frames, config.search,
                nullptr);
    RunCost cost;
    RunWorkload(bench.get(), trajectories, frames, config.search, &cost);
    bench->tree()->AttachNodeCache(nullptr);
    ForceSimdLevel(std::nullopt);

    if (naive) {
      naive_ns = cost.ns_per_entry();
    } else {
      if (!hot_checksum.has_value()) hot_checksum = cost.checksum;
      checksums_agree = checksums_agree && cost.checksum == *hot_checksum;
    }
    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(cost.checksum));
    char visit_split[64];
    std::snprintf(visit_split, sizeof(visit_split), "(%llu + %llu)",
                  static_cast<unsigned long long>(cost.node_reads),
                  static_cast<unsigned long long>(cost.decoded_hits));
    table.AddRow(
        {config.name, Fmt(cost.ns_per_entry(), 1),
         std::to_string(cost.entries),
         std::to_string(cost.node_reads + cost.decoded_hits), visit_split,
         Fmt(naive_ns / std::max(cost.ns_per_entry(), 1e-12), 2) + "x",
         checksum_hex});
    json.AddRow()
        .Str("config", config.name)
        .Str("path", naive ? "naive" : "soa")
        .Int("cache", config.cache ? 1 : 0)
        .Str("simd", naive           ? "n/a"
                     : config.vector ? SimdLevelName(ActiveSimdLevel())
                                     : "scalar")
        .Num("wall_seconds", cost.wall_seconds)
        .Int("entries", cost.entries)
        .Num("ns_per_entry", cost.ns_per_entry())
        .Int("node_reads", cost.node_reads)
        .Int("decoded_hits", cost.decoded_hits)
        .Int("objects", cost.objects)
        .Str("checksum", checksum_hex);
  }
  table.Print();
  json.Write();
  DQMO_CHECK(checksums_agree);  // Bit-identity across the hot-path rows.

  // The gate: the naive search and the full hot path, alternated in this
  // process so host noise meets both sides alike; the fastest pass of each.
  DecodedNodeCache cache(4096);
  bench->tree()->AttachNodeCache(&cache);
  RunWorkload(bench.get(), std::min(trajectories, 3), frames,
              Search::kDynamic, nullptr);
  double naive_min = 0.0;
  double full_min = 0.0;
  for (int pass = 0; pass < kGatePasses; ++pass) {
    RunCost naive;
    RunCost full;
    RunWorkload(bench.get(), trajectories, frames, Search::kNaive, &naive);
    RunWorkload(bench.get(), trajectories, frames, Search::kDynamic, &full);
    naive_min = pass == 0 ? naive.ns_per_entry()
                          : std::min(naive_min, naive.ns_per_entry());
    full_min = pass == 0 ? full.ns_per_entry()
                         : std::min(full_min, full.ns_per_entry());
  }
  bench->tree()->AttachNodeCache(nullptr);
  const double speedup = full_min > 0.0 ? naive_min / full_min : 0.0;
  std::printf("full hot path vs naive snapshot search: %sx ns/entry "
              "(min of %d alternating passes: %s vs %s)\n",
              Fmt(speedup, 2).c_str(), kGatePasses, Fmt(naive_min, 1).c_str(),
              Fmt(full_min, 1).c_str());
  if (GetEnvInt("DQMO_CHECK_SPEEDUP", 0) != 0 && speedup < kGateSpeedup) {
    std::fprintf(stderr,
                 "FAIL: hot-path speedup %.2fx below the %.2fx acceptance "
                 "threshold\n",
                 speedup, kGateSpeedup);
    return 1;
  }
  return 0;
}
