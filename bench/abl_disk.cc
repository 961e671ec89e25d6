// Ablation A19 — the disk-resident page store, cold cache: the paper's
// fig06/fig10 I/O counts finally get milliseconds attached. One bulk-loaded
// index is checkpointed once, then the identical seeded PDQ trajectory
// sweep runs over it through every backend:
//
//   1. Equivalence: memory vs pread (prefetch on) must produce
//      byte-identical result checksums and identical node-level read
//      counts — the backends differ only in where the bytes live. The
//      pread arm also reports frame p50/p99 on the raw OS page cache (no
//      latency model).
//   2. Latency: on the pread backend under a deterministic slow-device
//      model (DiskPageFile::Options::sim_read_delay_us — every pread costs
//      D extra, served where a real device would serve it: in the caller
//      for sync reads, in a Prefetcher worker for speculative ones), frame
//      p99 with the PDQ-driven prefetch on vs off. The priority queue is a
//      declared future-access list; prefetch turns it into overlapped I/O,
//      and this is the number that shows how much latency it hides.
//
// Env knobs, on top of the bench_common ones:
//   DQMO_OBJECTS=N             segments in the index (default 60000;
//                              DQMO_FULL=1 sets 1000000)
//   DQMO_DISK_TRAJ=N           trajectories per arm (default 12)
//   DQMO_DISK_FRAMES=N         frames per trajectory (default 40)
//   DQMO_SIM_READ_DELAY_US=D   modeled device read latency (default 150;
//                              0 = raw OS-cache timing, no model)
//   DQMO_PREFETCH_DEPTH=K      speculative reads in flight (default 8,
//                              clamped to 0..256)
//   DQMO_CHECK_SPEEDUP=1       exit non-zero unless prefetch-on p99 beats
//                              prefetch-off by >= DQMO_MIN_SPEEDUP (the CI
//                              gate; default 1.5) and checksums match
//   DQMO_MIN_SPEEDUP=R         gate threshold (default 1.5)
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "query/pdq.h"
#include "rtree/bulk_load.h"
#include "rtree/layout.h"
#include "rtree/rtree.h"
#include "storage/disk_file.h"
#include "storage/page_file.h"
#include "storage/prefetch.h"

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

MotionSegment RandomSegmentAt(Rng* rng, ObjectId oid) {
  const double t0 = rng->Uniform(0.0, 100.0);
  const double dt = rng->Uniform(0.01, 2.0);
  StSegment seg(Vec(rng->Uniform(0.0, 100.0), rng->Uniform(0.0, 100.0)),
                Vec(rng->Uniform(0.0, 100.0), rng->Uniform(0.0, 100.0)),
                Interval(t0, std::min(100.0, t0 + dt)));
  MotionSegment m(oid, seg);
  m.seg = QuantizeStored(m.seg);
  return m;
}

QueryTrajectory MakeTrajectory(Rng* rng) {
  std::vector<KeySnapshot> keys;
  Vec pos(rng->Uniform(20, 80), rng->Uniform(20, 80));
  double t = rng->Uniform(5, 20);
  keys.emplace_back(t, Box::Centered(pos, 12.0));
  for (int j = 0; j < 6; ++j) {
    t += rng->Uniform(2.0, 5.0);
    pos = Vec(std::clamp(pos[0] + rng->Uniform(-8, 8), 5.0, 95.0),
              std::clamp(pos[1] + rng->Uniform(-8, 8), 5.0, 95.0));
    keys.emplace_back(t, Box::Centered(pos, 12.0));
  }
  return QueryTrajectory::Make(std::move(keys)).value();
}

struct ArmResult {
  std::string label;
  uint64_t checksum = kFnvOffset;
  uint64_t node_reads = 0;
  uint64_t objects = 0;
  IoStats io;
  std::vector<double> frame_us;

  double Quantile(double q) const {
    if (frame_us.empty()) return 0.0;
    std::vector<double> sorted = frame_us;
    std::sort(sorted.begin(), sorted.end());
    const size_t i = static_cast<size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(i, sorted.size() - 1)];
  }
};

/// The identical seeded trajectory sweep every arm runs: per-frame wall
/// time into `out->frame_us`, result bytes folded into `out->checksum`.
void RunSweep(RTree* tree, PageReader* reader, Prefetcher* prefetcher,
              int trajectories, int frames, ArmResult* out) {
  QueryStats stats;
  Rng rng(2002);
  for (int q = 0; q < trajectories; ++q) {
    const QueryTrajectory trajectory = MakeTrajectory(&rng);
    PredictiveDynamicQuery::Options opt;
    opt.reader = reader;
    opt.prefetcher = prefetcher;
    auto pdq = PredictiveDynamicQuery::Make(tree, trajectory, opt);
    DQMO_CHECK(pdq.ok());
    const Interval span = trajectory.TimeSpan();
    const double dt = span.length() / frames;
    double prev = span.lo;
    for (int i = 1; i <= frames; ++i) {
      const double t = span.lo + i * dt;
      const auto start = std::chrono::steady_clock::now();
      auto frame = (*pdq)->Frame(prev, t);
      DQMO_CHECK(frame.ok());
      const auto end = std::chrono::steady_clock::now();
      out->frame_us.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
      FoldU64(&out->checksum, static_cast<uint64_t>(i));
      for (const PdqResult& r : *frame) {
        FoldU64(&out->checksum, r.motion.oid);
        FoldDouble(&out->checksum, r.motion.seg.time.lo);
        ++out->objects;
      }
      prev = t;
    }
    stats += (*pdq)->stats();
    // A trajectory's declared future dies with it.
    if (prefetcher != nullptr) prefetcher->CancelPending();
  }
  if (prefetcher != nullptr) prefetcher->Quiesce();
  out->node_reads = stats.node_reads + stats.leaf_reads;
}

/// One pread arm over the shared checkpoint image, read in place.
ArmResult RunDiskArm(const std::string& label, const std::string& image,
                     bool prefetch, uint64_t sim_delay_us, int trajectories,
                     int frames) {
  ArmResult out;
  out.label = label;
  DiskPageFile::Options options;
  options.sim_read_delay_us = sim_delay_us;
  auto disk = DiskPageFile::Open(image, options);
  DQMO_CHECK(disk.ok());
  std::unique_ptr<Prefetcher> prefetcher;
  PageReader* reader = disk->get();
  if (prefetch) {
    Prefetcher::Options popt;
    popt.depth = static_cast<size_t>(
        std::clamp<int64_t>(GetEnvInt("DQMO_PREFETCH_DEPTH", 8), 0, 256));
    prefetcher = std::make_unique<Prefetcher>(disk->get(), popt);
    reader = prefetcher.get();
  }
  auto tree = RTree::Open(disk->get());
  DQMO_CHECK(tree.ok());
  RunSweep(tree->get(), reader, prefetcher.get(), trajectories, frames,
           &out);
  out.io = (*disk)->stats();
  return out;
}

ArmResult RunMemoryArm(const std::string& image, int trajectories,
                       int frames) {
  ArmResult out;
  out.label = "memory";
  PageFile file;
  DQMO_CHECK(file.LoadFrom(image).ok());
  auto tree = RTree::Open(&file);
  DQMO_CHECK(tree.ok());
  RunSweep(tree->get(), &file, nullptr, trajectories, frames, &out);
  out.io = file.stats();
  return out;
}

int Run(int argc, char** argv) {
  InitJsonMode(argc, argv);
  bool check = GetEnvBool("DQMO_CHECK_SPEEDUP", false);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--check") check = true;
  }
  const bool full = GetEnvInt("DQMO_FULL", 0) != 0;
  const int segments = static_cast<int>(
      GetEnvInt("DQMO_OBJECTS", full ? 1000000 : 60000));
  const int trajectories =
      static_cast<int>(GetEnvInt("DQMO_DISK_TRAJ", 12));
  const int frames = static_cast<int>(GetEnvInt("DQMO_DISK_FRAMES", 40));
  const uint64_t sim_delay_us =
      static_cast<uint64_t>(GetEnvInt("DQMO_SIM_READ_DELAY_US", 150));
  const double min_speedup = GetEnvDouble("DQMO_MIN_SPEEDUP", 1.5);

  std::printf("==============================================================\n");
  std::printf("A19 — disk-resident store, cold-cache: prefetch-hidden read "
              "latency\n");
  std::printf("(%d segments, %d trajectories x %d frames, modeled device "
              "read latency %llu us)\n",
              segments, trajectories, frames,
              static_cast<unsigned long long>(sim_delay_us));
  std::printf("==============================================================\n");

  // One index, one checkpoint image — every arm reads the same bytes.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dqmo_abl_disk";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string image = (dir / "index.pgf").string();
  {
    PageFile file;
    Rng rng(7);
    std::vector<MotionSegment> data;
    data.reserve(static_cast<size_t>(segments));
    for (int i = 0; i < segments; ++i) {
      data.push_back(RandomSegmentAt(&rng, static_cast<ObjectId>(i)));
    }
    auto tree = BulkLoad(&file, std::move(data), BulkLoadOptions());
    DQMO_CHECK(tree.ok());
    DQMO_CHECK(file.SaveTo(image).ok());
    std::printf("# index: %zu pages (%.1f MiB) at %s\n", file.num_pages(),
                static_cast<double>(file.num_pages()) * kPageSize /
                    (1024.0 * 1024.0),
                image.c_str());
  }

  BenchJsonWriter json("abl_disk");

  // Phase 1 — backend equivalence (no latency model; correctness only).
  const ArmResult mem = RunMemoryArm(image, trajectories, frames);
  const ArmResult eq =
      RunDiskArm("pread", image, /*prefetch=*/true, /*sim=*/0,
                 trajectories, frames);
  const bool same =
      eq.checksum == mem.checksum && eq.node_reads == mem.node_reads;
  bool checksums_ok = same;
  std::printf("# equivalence %-16s checksum %016llx node reads %-8llu %s"
              "  p50 %.1f us  p99 %.1f us\n",
              eq.label.c_str(), static_cast<unsigned long long>(eq.checksum),
              static_cast<unsigned long long>(eq.node_reads),
              same ? "== memory" : "!= memory  <-- MISMATCH",
              eq.Quantile(0.5), eq.Quantile(0.99));
  JsonObject& eq_row = json.AddRow();
  eq_row.Str("phase", "equivalence")
      .Str("backend", eq.label)
      .Str("checksum", StrFormat("%016llx", static_cast<unsigned long long>(eq.checksum)))
      .Num("p50_us", eq.Quantile(0.5))
      .Num("p99_us", eq.Quantile(0.99))
      .Int("node_reads", eq.node_reads)
      .Int("physical_reads", eq.io.physical_reads.load())
      .Int("prefetch_issued", eq.io.prefetch_issued.load())
      .Int("prefetch_hits", eq.io.prefetch_hits.load())
      .Int("prefetch_wasted", eq.io.prefetch_wasted.load())
      .Int("match", same ? 1 : 0);

  // Phase 2 — cold-cache frame latency, prefetch off vs on (pread).
  const ArmResult off =
      RunDiskArm("pread, prefetch off", image, /*prefetch=*/false,
                 sim_delay_us, trajectories, frames);
  const ArmResult on =
      RunDiskArm("pread, prefetch on", image, /*prefetch=*/true,
                 sim_delay_us, trajectories, frames);
  const bool latency_identical =
      off.checksum == on.checksum && on.checksum == mem.checksum;
  checksums_ok = checksums_ok && latency_identical;

  Table table({"config", "frames", "p50 us", "p99 us", "reads",
               "pf issued/hit/wasted"});
  for (const ArmResult* arm : {&off, &on}) {
    table.AddRow(
        {arm->label, std::to_string(arm->frame_us.size()),
         Fmt(arm->Quantile(0.5)), Fmt(arm->Quantile(0.99)),
         std::to_string(arm->io.physical_reads.load()),
         std::to_string(arm->io.prefetch_issued.load()) + "/" +
             std::to_string(arm->io.prefetch_hits.load()) + "/" +
             std::to_string(arm->io.prefetch_wasted.load())});
    JsonObject& row = json.AddRow();
    row.Str("phase", "latency")
        .Str("config", arm->label)
        .Num("p50_us", arm->Quantile(0.5))
        .Num("p99_us", arm->Quantile(0.99))
        .Int("frames", arm->frame_us.size())
        .Int("physical_reads", arm->io.physical_reads.load())
        .Int("prefetch_issued", arm->io.prefetch_issued.load())
        .Int("prefetch_hits", arm->io.prefetch_hits.load())
        .Int("prefetch_wasted", arm->io.prefetch_wasted.load())
        .Str("checksum", StrFormat("%016llx", static_cast<unsigned long long>(arm->checksum)));
  }
  table.Print();

  const double p99_off = off.Quantile(0.99);
  const double p99_on = on.Quantile(0.99);
  const double speedup = p99_on > 0 ? p99_off / p99_on : 0.0;
  const uint64_t issued = on.io.prefetch_issued.load();
  const uint64_t hits = on.io.prefetch_hits.load();
  std::printf("# prefetch p99 speedup: %.2fx (off %.0f us -> on %.0f us), "
              "hit rate %.0f%%\n",
              speedup, p99_off, p99_on,
              issued > 0 ? 100.0 * static_cast<double>(hits) /
                               static_cast<double>(issued)
                         : 0.0);
  std::printf("# checksums across all arms: %s\n",
              checksums_ok ? "byte-identical" : "MISMATCH");
  JsonObject& summary = json.AddRow();
  summary.Str("phase", "summary")
      .Num("p99_speedup", speedup)
      .Num("sim_read_delay_us", static_cast<double>(sim_delay_us))
      .Int("checksums_identical", checksums_ok ? 1 : 0);

  std::filesystem::remove_all(dir);
  if (check) {
    if (!checksums_ok) {
      std::printf("# CHECK FAILED: backend checksums differ\n");
      return 1;
    }
    if (speedup < min_speedup) {
      std::printf("# CHECK FAILED: p99 speedup %.2fx < required %.2fx\n",
                  speedup, min_speedup);
      return 1;
    }
    std::printf("# CHECK PASSED: %.2fx >= %.2fx, checksums identical\n",
                speedup, min_speedup);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
