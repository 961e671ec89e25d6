// Ablation A14 — durability: WAL append overhead and recovery time.
//
// Part 1: what the write-ahead log costs at insert time. The same seeded
// insert stream is timed three ways: plain in-memory RTree::Insert on a
// bare tree (the pre-durability baseline), DurableIndex::Insert with one
// Sync per 64 inserts (group commit — the sharded engine's pattern, one
// Sync per write group before the shard gate is released), and
// DurableIndex::Insert with a Sync after every insert (one fsync per
// acknowledgment, the latency floor a strict-durability service pays).
// Reported per insert with overhead percentages against the baseline, plus
// the IoStats wal_appends/wal_syncs counters so the A13/A14 numbers stay
// comparable across PRs.
//
// Part 2: what recovery costs as the WAL tail grows. A checkpoint image of
// the base index is written once; then for each tail length K, K insert
// records are appended beyond the checkpoint and DurableIndex::Open is
// timed cold — image load + scan + redo replay. Reported per tail length
// with replay throughput.
//
// CI-size by default (DQMO_RECOVERY_INSERTS=2000); DQMO_FULL=1 scales the
// stream and tails by 10x. Files live under TMPDIR (default /tmp), so on a
// tmpfs the fsync figures are an optimistic floor — the *relative* overhead
// of append vs sync is the comparable signal.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "server/durability.h"

namespace {

using namespace dqmo;
using namespace dqmo::bench;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string TmpPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Deterministic insert stream shared by every timed mode.
std::vector<MotionSegment> MakeStream(int n) {
  Rng rng(0xA14u);
  std::vector<MotionSegment> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double t0 = rng.Uniform(0, 95);
    StSegment seg(Vec(rng.Uniform(0, 100), rng.Uniform(0, 100)),
                  Vec(rng.Uniform(0, 100), rng.Uniform(0, 100)),
                  Interval(t0, t0 + rng.Uniform(0.5, 5.0)));
    out.emplace_back(static_cast<ObjectId>(i + 1), seg);
  }
  return out;
}

struct InsertCost {
  double seconds = 0.0;
  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
};

/// Times the stream into a fresh in-memory index. `batch` <= 0 means a
/// bare RTree (no WAL); otherwise a DurableIndex over kMemory live pages
/// with one Sync per `batch` inserts (1 = sync each insert).
InsertCost TimeInserts(const std::vector<MotionSegment>& stream, int batch) {
  InsertCost cost;
  if (batch <= 0) {
    PageFile file;
    auto tree = RTree::Create(&file, RTree::Options());
    DQMO_CHECK(tree.ok());
    const auto start = std::chrono::steady_clock::now();
    for (const MotionSegment& m : stream) DQMO_CHECK((*tree)->Insert(m).ok());
    cost.seconds = Seconds(start, std::chrono::steady_clock::now());
    return cost;
  }
  const std::string pgf = TmpPath("dqmo_abl_recovery_insert.pgf");
  const std::string wal = TmpPath("dqmo_abl_recovery_insert.wal");
  std::remove(pgf.c_str());
  std::remove(wal.c_str());
  auto index = DurableIndex::Open(pgf, wal, DurableIndex::Options());
  DQMO_CHECK(index.ok());
  const auto start = std::chrono::steady_clock::now();
  int pending = 0;
  for (const MotionSegment& m : stream) {
    DQMO_CHECK((*index)->Insert(m).ok());
    if (++pending == batch) {
      DQMO_CHECK((*index)->Sync().ok());
      pending = 0;
    }
  }
  if (pending > 0) DQMO_CHECK((*index)->Sync().ok());
  cost.seconds = Seconds(start, std::chrono::steady_clock::now());
  cost.wal_appends = (*index)->file()->stats().wal_appends.load();
  cost.wal_syncs = (*index)->file()->stats().wal_syncs.load();
  index->reset();
  std::remove(wal.c_str());
  return cost;
}

}  // namespace

int main() {
  const int inserts = static_cast<int>(
      GetEnvInt("DQMO_RECOVERY_INSERTS",
                GetEnvInt("DQMO_FULL", 0) != 0 ? 20000 : 2000));
  std::printf("==============================================================\n");
  std::printf("Ablation A14 — WAL append overhead & recovery time\n");
  std::printf("(%d-insert stream; DQMO_RECOVERY_INSERTS / DQMO_FULL=1 to "
              "scale)\n", inserts);
  std::printf("==============================================================\n");

  const std::vector<MotionSegment> stream = MakeStream(inserts);

  // Part 1: insert-time overhead.
  TimeInserts(stream, /*batch=*/0);  // Warm up allocator + page cache.
  const InsertCost baseline = TimeInserts(stream, /*batch=*/0);
  const InsertCost group = TimeInserts(stream, /*batch=*/64);
  const InsertCost strict = TimeInserts(stream, /*batch=*/1);
  auto per_insert_us = [&](const InsertCost& c) {
    return c.seconds * 1e6 / inserts;
  };
  auto overhead = [&](const InsertCost& c) {
    return baseline.seconds > 0.0
               ? (c.seconds - baseline.seconds) / baseline.seconds * 100.0
               : 0.0;
  };
  std::printf("\nWAL append overhead vs in-memory insert:\n");
  Table table({"mode", "total s", "us/insert", "overhead%", "wal appends",
               "wal syncs"});
  table.AddRow({"in-memory (no WAL)", Fmt(baseline.seconds, 3),
                Fmt(per_insert_us(baseline), 2), "--", "0", "0"});
  table.AddRow({"group commit (64/sync)", Fmt(group.seconds, 3),
                Fmt(per_insert_us(group), 2), Fmt(overhead(group), 1),
                StrFormat("%llu",
                          static_cast<unsigned long long>(group.wal_appends)),
                StrFormat("%llu",
                          static_cast<unsigned long long>(group.wal_syncs))});
  table.AddRow({"sync each insert", Fmt(strict.seconds, 3),
                Fmt(per_insert_us(strict), 2), Fmt(overhead(strict), 1),
                StrFormat("%llu",
                          static_cast<unsigned long long>(strict.wal_appends)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      strict.wal_syncs))});
  table.Print();

  // Part 2: recovery time vs WAL tail length. One checkpoint image of the
  // first half of the stream; tails replay the remainder in prefix order.
  const std::string pgf = TmpPath("dqmo_abl_recovery.pgf");
  const std::string wal_path = TmpPath("dqmo_abl_recovery.wal");
  const int base = inserts / 2;
  std::vector<int> tails = {0, inserts / 20, inserts / 8, inserts / 2};
  std::printf("\nrecovery time vs WAL tail length (checkpoint: %d segments):\n",
              base);
  Table rec({"wal tail", "open s", "replayed/s", "segments after"});
  for (const int tail : tails) {
    std::remove(pgf.c_str());
    std::remove(wal_path.c_str());
    {
      auto index = DurableIndex::Open(pgf, wal_path, DurableIndex::Options());
      DQMO_CHECK(index.ok());
      for (int i = 0; i < base; ++i) {
        DQMO_CHECK((*index)->Insert(stream[static_cast<size_t>(i)]).ok());
      }
      DQMO_CHECK((*index)->Sync().ok());
      DQMO_CHECK((*index)->Checkpoint().ok());
      for (int i = 0; i < tail; ++i) {
        DQMO_CHECK(
            (*index)->Insert(stream[static_cast<size_t>(base + i)]).ok());
      }
      DQMO_CHECK((*index)->Sync().ok());
    }
    const auto start = std::chrono::steady_clock::now();
    auto reopened = DurableIndex::Open(pgf, wal_path, DurableIndex::Options());
    const double open_s = Seconds(start, std::chrono::steady_clock::now());
    DQMO_CHECK(reopened.ok());
    DQMO_CHECK((*reopened)->report().replayed ==
               static_cast<uint64_t>(tail));
    rec.AddRow({StrFormat("%d", tail), Fmt(open_s, 4),
                tail > 0 && open_s > 0.0
                    ? Fmt(static_cast<double>(tail) / open_s, 0)
                    : "--",
                StrFormat("%llu", static_cast<unsigned long long>(
                                      (*reopened)->tree()->num_segments()))});
  }
  rec.Print();
  std::printf("# recovery = image load + WAL scan + redo replay; replayed/s "
              "is the redo throughput.\n");
  std::remove(pgf.c_str());
  std::remove(wal_path.c_str());
  return 0;
}
