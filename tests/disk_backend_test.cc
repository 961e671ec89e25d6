// Backend-equivalence differential tests: the same tree image queried
// through the in-memory PageFile and the pread DiskPageFile (speculative
// reads through the Prefetcher's pread workers) must produce
// byte-identical results with exact IoStats accounting —
// node-level read counts equal across backends, speculative reads charged
// per the Prefetcher contract (hits counted exactly once; after Quiesce,
// issued == hits + wasted + failed), and a failed speculative read
// degrading to the synchronous path without poisoning the frame.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "query/knn.h"
#include "query/npdq.h"
#include "query/pdq.h"
#include "rtree/rtree.h"
#include "server/durability.h"
#include "storage/disk_file.h"
#include "storage/fault.h"
#include "storage/page_file.h"
#include "storage/prefetch.h"
#include "test_util.h"

namespace dqmo {
namespace {

using ::dqmo::testing::RandomSegments;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

void Fold(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= 1099511628211ULL;
}

void FoldDouble(uint64_t* h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  Fold(h, bits);
}

/// Scratch directory per test, removed on destruction.
struct TempDir {
  std::filesystem::path dir;
  explicit TempDir(const std::string& tag) {
    dir = std::filesystem::temp_directory_path() /
          ("dqmo_backend_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }
  std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

/// Builds a seeded tree in memory and checkpoints it to `image` — the one
/// set of bytes every backend then opens.
void BuildImage(uint64_t seed, int n, const std::string& image) {
  PageFile file;
  auto tree = RTree::Create(&file, RTree::Options());
  ASSERT_TRUE(tree.ok());
  Rng rng(seed);
  for (const MotionSegment& m : RandomSegments(&rng, n, 2, 100, 100)) {
    ASSERT_TRUE((*tree)->Insert(m).ok());
  }
  ASSERT_TRUE((*tree)->Flush().ok());
  ASSERT_TRUE(file.SaveTo(image).ok());
}

/// One opened backend: store + optional prefetcher + tree, with the reader
/// the query layer should use.
struct Bundle {
  PageFile mem;
  std::unique_ptr<DiskPageFile> disk;
  std::unique_ptr<Prefetcher> prefetcher;
  PageStore* store = nullptr;
  PageReader* reader = nullptr;
  std::unique_ptr<RTree> tree;
};

void OpenBundle(IoBackend backend, const std::string& image, Bundle* b,
                FaultInjector* injector = nullptr) {
  if (backend == IoBackend::kMemory) {
    ASSERT_TRUE(b->mem.LoadFrom(image).ok());
    b->store = &b->mem;
    b->reader = &b->mem;
  } else {
    auto disk = DiskPageFile::Open(image, DiskPageFile::Options());
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    b->disk = std::move(disk).value();
    Prefetcher::Options popt;
    popt.depth = 8;
    popt.injector = injector;
    popt.sleeper = [](uint64_t) {};  // Injected delays: don't really sleep.
    b->prefetcher = std::make_unique<Prefetcher>(b->disk.get(), popt);
    b->store = b->disk.get();
    b->reader = b->prefetcher.get();
  }
  auto tree = RTree::Open(b->store);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  b->tree = std::move(tree).value();
}

/// Everything one query run observed: the result checksum plus the logical
/// and physical counters the backends must agree on.
struct RunResult {
  uint64_t checksum = kFnvOffset;
  uint64_t node_reads = 0;
  uint64_t leaf_reads = 0;
  uint64_t objects = 0;
  IoStats io;                   // Store counters, post-Quiesce.
  uint64_t prefetch_failed = 0;
};

void FinishRun(Bundle* b, const QueryStats& stats, RunResult* out) {
  if (b->prefetcher != nullptr) {
    b->prefetcher->Quiesce();
    out->prefetch_failed = b->prefetcher->failed();
  }
  out->node_reads = stats.node_reads;
  out->leaf_reads = stats.leaf_reads;
  out->objects = stats.objects_returned;
  out->io = b->store->stats();
}

RunResult RunPdq(IoBackend backend, const std::string& image,
                 FaultInjector* injector = nullptr) {
  RunResult out;
  Bundle b;
  OpenBundle(backend, image, &b, injector);
  if (::testing::Test::HasFatalFailure()) return out;

  std::vector<KeySnapshot> keys;
  keys.emplace_back(0.0, Box::Centered(Vec(20.0, 20.0), 25.0));
  keys.emplace_back(100.0, Box::Centered(Vec(80.0, 80.0), 25.0));
  PredictiveDynamicQuery::Options options;
  options.reader = b.reader;
  options.prefetcher = b.prefetcher.get();
  auto pdq = PredictiveDynamicQuery::Make(
      b.tree.get(), QueryTrajectory::Make(std::move(keys)).value(), options);
  EXPECT_TRUE(pdq.ok());
  if (!pdq.ok()) return out;

  for (int i = 0; i < 20; ++i) {
    auto frame = (*pdq)->Frame(i * 5.0, (i + 1) * 5.0);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame.ok()) return out;
    Fold(&out.checksum, static_cast<uint64_t>(i));
    for (const PdqResult& r : *frame) {
      Fold(&out.checksum, r.motion.oid);
      FoldDouble(&out.checksum, r.motion.seg.time.lo);
    }
  }
  FinishRun(&b, (*pdq)->stats(), &out);
  return out;
}

RunResult RunNpdq(IoBackend backend, const std::string& image,
                  FaultInjector* injector = nullptr) {
  RunResult out;
  Bundle b;
  OpenBundle(backend, image, &b, injector);
  if (::testing::Test::HasFatalFailure()) return out;

  NpdqOptions options;
  options.reader = b.reader;
  options.prefetcher = b.prefetcher.get();
  NonPredictiveDynamicQuery npdq(b.tree.get(), options);

  for (int i = 0; i < 15; ++i) {
    const double t = i * (100.0 / 15.0);
    const Vec center(10.0 + 5.0 * i, 10.0 + 5.0 * i);
    const StBox q(Box::Centered(center, 30.0),
                  Interval(t, t + 100.0 / 15.0));
    auto fresh = npdq.Execute(q);
    EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
    if (!fresh.ok()) return out;
    Fold(&out.checksum, static_cast<uint64_t>(i));
    for (const MotionSegment& m : *fresh) {
      Fold(&out.checksum, m.oid);
      FoldDouble(&out.checksum, m.seg.time.lo);
    }
  }
  FinishRun(&b, npdq.stats(), &out);
  return out;
}

RunResult RunKnn(IoBackend backend, const std::string& image,
                 FaultInjector* injector = nullptr) {
  RunResult out;
  Bundle b;
  OpenBundle(backend, image, &b, injector);
  if (::testing::Test::HasFatalFailure()) return out;

  MovingKnnQuery::Options options;
  options.reader = b.reader;
  options.prefetcher = b.prefetcher.get();
  MovingKnnQuery knn(b.tree.get(), 10, options);

  for (int i = 0; i < 15; ++i) {
    const double t = 2.0 + i * 6.0;
    const Vec point(15.0 + 4.5 * i, 85.0 - 4.5 * i);
    auto neighbors = knn.At(t, point);
    EXPECT_TRUE(neighbors.ok()) << neighbors.status().ToString();
    if (!neighbors.ok()) return out;
    Fold(&out.checksum, static_cast<uint64_t>(i));
    for (const Neighbor& n : *neighbors) {
      Fold(&out.checksum, n.motion.oid);
      FoldDouble(&out.checksum, n.distance);
    }
  }
  FinishRun(&b, knn.stats(), &out);
  return out;
}

using Runner = RunResult (*)(IoBackend, const std::string&, FaultInjector*);

/// The equivalence contract, per kind: identical results and node counts
/// across both backends, physical reads related exactly by
///   disk = memory + prefetch_wasted
/// (a prefetch hit charges the one read the sync path would have; a wasted
/// landing charges its real disk read on top), and the prefetch closure
/// issued == hits + wasted + failed after Quiesce.
void CheckBackends(Runner run, uint64_t seed, const std::string& kind) {
  TempDir tmp(kind + std::to_string(seed));
  const std::string image = tmp.path("index.pgf");
  BuildImage(seed, 2000, image);
  if (::testing::Test::HasFatalFailure()) return;

  const RunResult mem = run(IoBackend::kMemory, image, nullptr);
  const RunResult disk = run(IoBackend::kPread, image, nullptr);

  EXPECT_EQ(disk.checksum, mem.checksum) << kind << " seed " << seed;
  EXPECT_EQ(disk.node_reads, mem.node_reads);
  EXPECT_EQ(disk.leaf_reads, mem.leaf_reads);
  EXPECT_EQ(disk.objects, mem.objects);
  EXPECT_EQ(disk.io.physical_reads,
            mem.io.physical_reads + disk.io.prefetch_wasted);
  EXPECT_EQ(disk.io.prefetch_issued,
            disk.io.prefetch_hits + disk.io.prefetch_wasted +
                disk.prefetch_failed);
  EXPECT_EQ(disk.io.checksum_failures, 0u);
  EXPECT_EQ(mem.io.prefetch_issued, 0u);
}

class BackendSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendSweep, PdqByteIdenticalAcrossBackends) {
  CheckBackends(&RunPdq, GetParam(), "pdq");
}

TEST_P(BackendSweep, NpdqByteIdenticalAcrossBackends) {
  CheckBackends(&RunNpdq, GetParam(), "npdq");
}

TEST_P(BackendSweep, KnnByteIdenticalAcrossBackends) {
  CheckBackends(&RunKnn, GetParam(), "knn");
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// Failed speculative reads must degrade to the synchronous path without
/// changing a single delivered byte or logical counter: the injector's
/// async stream fails every other speculation, the sync stream is never
/// armed (no FaultyPageReader in this chain), and the run must match the
/// memory backend exactly.
void CheckFailedSpeculationHarmless(Runner run, const std::string& kind) {
  TempDir tmp("specfail_" + kind);
  const std::string image = tmp.path("index.pgf");
  BuildImage(99, 2000, image);
  if (::testing::Test::HasFatalFailure()) return;

  const RunResult mem = run(IoBackend::kMemory, image, nullptr);

  FaultInjector::Options fopt;
  fopt.seed = 7;
  fopt.fail_every_kth = 2;
  FaultInjector injector(fopt);
  const RunResult faulty = run(IoBackend::kPread, image, &injector);

  EXPECT_EQ(faulty.checksum, mem.checksum);
  EXPECT_EQ(faulty.node_reads, mem.node_reads);
  EXPECT_EQ(faulty.objects, mem.objects);
  EXPECT_GT(faulty.prefetch_failed, 0u);  // Faults really were injected.
  EXPECT_GT(injector.async_reads_seen(), 0u);
  // A failed speculation charges nothing; consumed and wasted landings
  // account for every physical read beyond the memory baseline.
  EXPECT_EQ(faulty.io.physical_reads,
            mem.io.physical_reads + faulty.io.prefetch_wasted);
  EXPECT_EQ(faulty.io.prefetch_issued,
            faulty.io.prefetch_hits + faulty.io.prefetch_wasted +
                faulty.prefetch_failed);
}

TEST(BackendFaultTest, PdqFailedSpeculationDegradesToSyncPath) {
  CheckFailedSpeculationHarmless(&RunPdq, "pdq");
}

TEST(BackendFaultTest, NpdqFailedSpeculationDegradesToSyncPath) {
  CheckFailedSpeculationHarmless(&RunNpdq, "npdq");
}

TEST(BackendFaultTest, KnnFailedSpeculationDegradesToSyncPath) {
  CheckFailedSpeculationHarmless(&RunKnn, "knn");
}

/// Slow speculative completions (the async half of a seeded slow-read
/// storm) delay but never corrupt: results stay byte-identical and the
/// injected delays are served through the injectable sleeper.
TEST(BackendFaultTest, SlowSpeculationStaysByteIdentical) {
  TempDir tmp("specslow");
  const std::string image = tmp.path("index.pgf");
  BuildImage(123, 2000, image);

  const RunResult mem = RunPdq(IoBackend::kMemory, image, nullptr);

  FaultInjector::Options fopt;
  fopt.seed = 11;
  fopt.slow_every_kth = 2;
  fopt.slow_read_delay_us = 250;
  FaultInjector injector(fopt);
  const RunResult slow = RunPdq(IoBackend::kPread, image, &injector);

  EXPECT_EQ(slow.checksum, mem.checksum);
  EXPECT_EQ(slow.node_reads, mem.node_reads);
  EXPECT_GT(injector.async_faults_injected(), 0u);
}

}  // namespace
}  // namespace dqmo
