// Crash-recovery tests: fork-based kill tests that murder a child process
// at every registered crash point of the durability protocol and assert
// that recovery yields an index whose query answers exactly match the
// brute-force oracles on the surviving prefix of inserts — and that no
// insert acknowledged after a WAL sync is ever lost.
//
// The child workload inserts a deterministic segment sequence with
// per-insert WAL sync (acknowledging each durable insert by appending one
// fsynced byte to an ack file) and checkpoints every few inserts, so every
// crash point — WAL sync paths and checkpoint protocol steps alike — is
// exercised several times per run via skip counts.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "oracle.h"
#include "query/knn.h"
#include "server/durability.h"
#include "storage/fault.h"
#include "storage/wal.h"
#include "test_util.h"

namespace dqmo {
namespace {

using ::dqmo::testing::KeysOf;
using ::dqmo::testing::NaiveOracle;
using ::dqmo::testing::RandomQueryBox;
using ::dqmo::testing::RandomSegments;

constexpr int kNumInserts = 30;
constexpr int kCheckpointEvery = 7;

/// The deterministic insert sequence both child and parent derive
/// independently (already stored-form quantized).
std::vector<MotionSegment> TestData() {
  Rng rng(7777);
  return RandomSegments(&rng, kNumInserts, /*dims=*/2, /*size=*/100.0,
                        /*horizon=*/20.0);
}

struct Paths {
  std::string pgf;
  std::string wal;
  std::string ack;
};

Paths FreshPaths(const char* tag) {
  const std::string base = std::string(::testing::TempDir()) + "/rec_" + tag;
  Paths p{base + ".pgf", base + ".wal", base + ".ack"};
  std::remove(p.pgf.c_str());
  std::remove((p.pgf + ".tmp").c_str());
  std::remove(p.wal.c_str());
  std::remove((p.wal + ".tmp").c_str());
  std::remove(p.ack.c_str());
  return p;
}

/// Bytes in the ack file = inserts the (dead) child was told were durable.
size_t AckedCount(const std::string& ack_path) {
  struct stat st;
  if (::stat(ack_path.c_str(), &st) != 0) return 0;
  return static_cast<size_t>(st.st_size);
}

/// Child body: never returns. Exit codes: 0 = workload completed,
/// CrashPoints::kExitCode = killed at the armed point, anything else = a
/// real failure the parent must flag.
[[noreturn]] void RunChildWorkload(const Paths& paths, const char* point,
                                   uint64_t skip) {
  if (point != nullptr) CrashPoints::Arm(point, skip);
  const int fd = ::open(paths.ack.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) ::_exit(3);
  const std::vector<MotionSegment> data = TestData();
  auto opened = DurableIndex::Open(paths.pgf, paths.wal,
                                   DurableIndex::Options());
  if (!opened.ok()) ::_exit(4);
  DurableIndex* index = opened->get();
  for (int i = 0; i < kNumInserts; ++i) {
    if (!index->Insert(data[static_cast<size_t>(i)]).ok()) ::_exit(5);
    // The insert is durable: record the acknowledgment crash-safely.
    const char byte = 1;
    if (::write(fd, &byte, 1) != 1 || ::fsync(fd) != 0) ::_exit(6);
    if ((i + 1) % kCheckpointEvery == 0) {
      if (!index->Checkpoint().ok()) ::_exit(7);
    }
  }
  ::_exit(0);
}

/// Forks the workload and returns the child's exit code.
int ForkWorkload(const Paths& paths, const char* point, uint64_t skip) {
  const pid_t pid = ::fork();
  if (pid == 0) RunChildWorkload(paths, point, skip);
  EXPECT_GT(pid, 0);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child died abnormally (signal "
                                 << WTERMSIG(status) << ")";
  return WEXITSTATUS(status);
}

/// The post-crash contract: recovery succeeds, yields a *prefix* of the
/// insert sequence at least as long as the acknowledged count, and every
/// query answer matches the brute-force oracle over that prefix exactly.
void ValidateRecovery(const Paths& paths,
                      const std::vector<MotionSegment>& data) {
  const size_t acked = AckedCount(paths.ack);
  auto opened = DurableIndex::Open(paths.pgf, paths.wal,
                                   DurableIndex::Options());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RTree* tree = (*opened)->tree();
  ASSERT_TRUE(tree->CheckInvariants().ok());

  const uint64_t recovered = tree->num_segments();
  EXPECT_GE(recovered, acked) << "acknowledged insert lost: "
                              << (*opened)->report().ToString();
  ASSERT_LE(recovered, data.size());

  // Prefix property: the recovered tree holds exactly the first
  // `recovered` inserts — never a later insert without every earlier one.
  NaiveOracle oracle;
  for (uint64_t i = 0; i < recovered; ++i) {
    oracle.Insert(data[static_cast<size_t>(i)]);
  }
  const StBox world(Box(Interval(-1e6, 1e6), Interval(-1e6, 1e6)),
                    Interval(-1e6, 1e6));
  QueryStats stats;
  auto all = tree->RangeSearch(world, &stats);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(KeysOf(*all),
            KeysOf({data.begin(),
                    data.begin() + static_cast<long>(recovered)}));

  // Query answers byte-identical to the oracles on the surviving prefix.
  Rng rng(123);
  for (int q = 0; q < 8; ++q) {
    const StBox box = RandomQueryBox(&rng, 2, 100.0, 20.0);
    auto got = tree->RangeSearch(box, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(KeysOf(*got), KeysOf(oracle.Snapshot(box))) << "query " << q;
  }
  for (const double t : {2.0, 10.0, 18.0}) {
    auto got = KnnAt(*tree, Vec(50.0, 50.0), t, 5, &stats);
    ASSERT_TRUE(got.ok());
    const std::vector<Neighbor> want = oracle.Knn(Vec(50.0, 50.0), t, 5);
    ASSERT_EQ(got->size(), want.size()) << "t=" << t;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].distance, want[i].distance)
          << "t=" << t << " rank " << i;
    }
  }
}

TEST(CrashRecovery, KillAtEveryCrashPointRecoversToOracle) {
  const std::vector<MotionSegment> data = TestData();
  for (const std::string& point : CrashPoints::All()) {
    bool crashed_at_least_once = false;
    // Skip counts walk the same point through successive hits (first WAL
    // sync, a later one mid-run, one inside a checkpoint, ...).
    for (uint64_t skip : {0u, 1u, 2u, 9u, 20u}) {
      SCOPED_TRACE(point + " skip=" + std::to_string(skip));
      const Paths paths = FreshPaths("matrix");
      const int code = ForkWorkload(paths, point.c_str(), skip);
      if (code == 0) break;  // Point not reached that often: done walking.
      ASSERT_EQ(code, CrashPoints::kExitCode);
      crashed_at_least_once = true;
      ValidateRecovery(paths, data);
    }
    EXPECT_TRUE(crashed_at_least_once)
        << point << " never fired — the matrix is not testing it";
  }
}

TEST(CrashRecovery, CrashBeforeRenameLeavesOldImageIntact) {
  // The atomic-SaveTo regression, crash-for-real edition: kill inside the
  // SECOND checkpoint after the temp image is written but before the
  // rename. The first checkpoint's image must still load, and recovery
  // must reach every acknowledged insert via the WAL tail.
  const std::vector<MotionSegment> data = TestData();
  const Paths paths = FreshPaths("rename");
  const int code =
      ForkWorkload(paths, crash_points::kSaveBeforeRename, /*skip=*/1);
  ASSERT_EQ(code, CrashPoints::kExitCode);
  // Both checkpoints happened after insert 7 and 14: all 14 acked.
  EXPECT_EQ(AckedCount(paths.ack), 14u);
  // The installed image is the FIRST checkpoint's (applied lsn covers the
  // first 7 inserts); it must load on its own.
  PageFile old_image;
  ASSERT_TRUE(old_image.LoadFrom(paths.pgf).ok());
  ValidateRecovery(paths, data);
}

TEST(CrashRecovery, CompletedWorkloadReopensExactly) {
  // No crash at all: the full run persists, a reopen replays the tail
  // after the last checkpoint and lands on all 30 inserts.
  const std::vector<MotionSegment> data = TestData();
  const Paths paths = FreshPaths("clean");
  ASSERT_EQ(ForkWorkload(paths, nullptr, 0), 0);
  EXPECT_EQ(AckedCount(paths.ack), static_cast<size_t>(kNumInserts));
  ValidateRecovery(paths, data);
  auto reopened = DurableIndex::Open(paths.pgf, paths.wal,
                                     DurableIndex::Options());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->tree()->num_segments(),
            static_cast<uint64_t>(kNumInserts));
  // 30 inserts, checkpoints at 7/14/21/28: the tail holds inserts 29, 30.
  EXPECT_EQ((*reopened)->report().replayed, 2u);
}

TEST(CrashRecovery, WalTruncatedAtEveryOffsetRecoversPrefix) {
  // Recovery-level torn-tail sweep: build a WAL of inserts (no checkpoint,
  // so the log carries everything), then cut it at EVERY byte offset and
  // recover. Each cut must recover exactly the records wholly before it.
  const int n = 12;
  Rng rng(4242);
  const std::vector<MotionSegment> data =
      RandomSegments(&rng, n, 2, 100.0, 20.0);
  const Paths paths = FreshPaths("cutsweep");
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(paths.wal).ok());
    for (const MotionSegment& m : data) {
      ASSERT_TRUE(w.AppendInsert(m).ok());
    }
    ASSERT_TRUE(w.Sync().ok());
  }
  std::FILE* f = std::fopen(paths.wal.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> master(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(master.data(), 1, master.size(), f), master.size());
  std::fclose(f);
  const size_t record_bytes = (master.size() - 16) / n;

  const Paths cut = FreshPaths("cutsweep_case");
  for (size_t len = 0; len <= master.size(); ++len) {
    SCOPED_TRACE(len);
    std::FILE* out = std::fopen(cut.wal.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    if (len > 0) {
      ASSERT_EQ(std::fwrite(master.data(), 1, len, out), len);
    }
    std::fclose(out);
    std::remove(cut.pgf.c_str());
    auto opened = DurableIndex::Open(cut.pgf, cut.wal,
                                     DurableIndex::Options());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const size_t expect =
        len <= 16 ? 0 : std::min<size_t>(n, (len - 16) / record_bytes);
    EXPECT_EQ((*opened)->tree()->num_segments(), expect);
  }
}

TEST(CrashRecovery, MidLogCorruptionFailsWithTypedStatus) {
  // A damaged non-tail record must fail recovery loudly — a wrong answer
  // (silently dropping an acknowledged insert) is the one forbidden
  // outcome.
  Rng rng(5555);
  const std::vector<MotionSegment> data =
      RandomSegments(&rng, 6, 2, 100.0, 20.0);
  const Paths paths = FreshPaths("midlog");
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(paths.wal).ok());
    for (const MotionSegment& m : data) ASSERT_TRUE(w.AppendInsert(m).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  std::FILE* f = std::fopen(paths.wal.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 16 + 40, SEEK_SET), 0);  // First record's payload.
  uint8_t byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0x20;
  ASSERT_EQ(std::fseek(f, 16 + 40, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);
  auto opened = DurableIndex::Open(paths.pgf, paths.wal,
                                   DurableIndex::Options());
  EXPECT_TRUE(opened.status().IsCorruption())
      << opened.status().ToString();
}

TEST(CrashRecovery, CheckpointCycleSurvivesReopenWithGroupCommit) {
  // Group-commit mode: inserts only buffer; Sync() is the acknowledgment
  // barrier. A reopen after (sync, checkpoint, sync) sees everything the
  // last Sync covered.
  Rng rng(9999);
  const std::vector<MotionSegment> data =
      RandomSegments(&rng, 20, 2, 100.0, 20.0);
  const Paths paths = FreshPaths("cycle");
  DurableIndex::Options options;
  options.sync_each_insert = false;
  {
    auto opened = DurableIndex::Open(paths.pgf, paths.wal, options);
    ASSERT_TRUE(opened.ok());
    DurableIndex* index = opened->get();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(index->Insert(data[static_cast<size_t>(i)]).ok());
    }
    ASSERT_TRUE(index->Sync().ok());
    ASSERT_TRUE(index->Checkpoint().ok());
    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(index->Insert(data[static_cast<size_t>(i)]).ok());
    }
    ASSERT_TRUE(index->Sync().ok());
    // No checkpoint for the second half: it lives only in the WAL.
  }
  auto reopened = DurableIndex::Open(paths.pgf, paths.wal, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->report().checkpoint_loaded);
  EXPECT_EQ((*reopened)->report().replayed, 10u);
  EXPECT_EQ((*reopened)->tree()->num_segments(), 20u);
  EXPECT_TRUE((*reopened)->tree()->CheckInvariants().ok());
  QueryStats stats;
  EXPECT_EQ(KeysOf((*reopened)
                       ->tree()
                       ->RangeSearch(StBox(Box(Interval(-1e6, 1e6),
                                               Interval(-1e6, 1e6)),
                                           Interval(-1e6, 1e6)),
                                     &stats)
                       .value()),
            KeysOf(data));
}

/// Online repair's reload (DurableIndex::ReloadFromDisk), on both kinds of
/// live store: 10 inserts checkpointed, then 10 more synced into the WAL.
class DurableReload : public ::testing::TestWithParam<IoBackend> {
 protected:
  void SetUp() override {
    // ctest runs every case in its own process, concurrently: one file
    // set per case.
    std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(tag.begin(), tag.end(), '/', '_');
    paths_ = FreshPaths(("reload_" + tag).c_str());
    std::remove((paths_.pgf + ".live").c_str());
    Rng rng(2468);
    data_ = RandomSegments(&rng, 20, 2, 100.0, 20.0);
    options_.sync_each_insert = false;
    options_.io_backend = GetParam();
    auto opened = DurableIndex::Open(paths_.pgf, paths_.wal, options_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    index_ = std::move(opened).value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(index_->Insert(data_[static_cast<size_t>(i)]).ok());
    }
    ASSERT_TRUE(index_->Checkpoint().ok());
    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(index_->Insert(data_[static_cast<size_t>(i)]).ok());
    }
    ASSERT_TRUE(index_->Sync().ok());
  }

  void TearDown() override {
    index_.reset();
    for (const std::string& path : {paths_.pgf, paths_.pgf + ".live",
                                    paths_.wal}) {
      std::remove(path.c_str());
    }
  }

  std::set<MotionSegment::Key> KeysIn(const StBox& box) {
    QueryStats stats;
    auto got = index_->tree()->RangeSearch(box, &stats);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? KeysOf(*got) : std::set<MotionSegment::Key>{};
  }

  const StBox kWorld{Box(Interval(-1e6, 1e6), Interval(-1e6, 1e6)),
                     Interval(-1e6, 1e6)};
  const StBox kWindow{Box(Interval(20, 70), Interval(10, 60)),
                      Interval(2, 15)};
  Paths paths_;
  std::vector<MotionSegment> data_;
  DurableIndex::Options options_;
  std::unique_ptr<DurableIndex> index_;
};

TEST_P(DurableReload, CheckpointPlusSyncedTailReloadsIdentically) {
  const uint64_t segments = index_->tree()->num_segments();
  ASSERT_EQ(segments, 20u);
  const std::set<MotionSegment::Key> world = KeysIn(kWorld);
  const std::set<MotionSegment::Key> window = KeysIn(kWindow);
  ASSERT_FALSE(window.empty());

  ASSERT_TRUE(index_->ReloadFromDisk().ok());
  EXPECT_EQ(index_->tree()->num_segments(), segments);
  EXPECT_EQ(KeysIn(kWorld), world);
  EXPECT_EQ(KeysIn(kWindow), window);
  EXPECT_TRUE(index_->tree()->CheckInvariants().ok());
}

TEST_P(DurableReload, MidLogHoleFailsAndLeavesExactlyTheImage) {
  // Damage the payload of the fifth post-checkpoint insert (2-d records
  // are 73 bytes after the 16-byte header). Four good records stream
  // before it and five well-formed ones follow it, so the scan sees a
  // hole, not a torn tail — after it has already delivered records.
  const long offset = 16 + 4 * 73 + 40;
  std::FILE* f = std::fopen(paths_.wal.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  uint8_t byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0x20;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);

  const Status st = index_->ReloadFromDisk();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Nothing from the rejected log was applied: the tree holds exactly the
  // checkpoint image's 10 segments.
  EXPECT_EQ(index_->tree()->num_segments(), 10u);
  EXPECT_EQ(KeysIn(kWorld), KeysOf({data_.begin(), data_.begin() + 10}));
  EXPECT_TRUE(index_->tree()->CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, DurableReload,
                         ::testing::Values(IoBackend::kMemory,
                                           IoBackend::kPread),
                         [](const ::testing::TestParamInfo<IoBackend>& info) {
                           return info.param == IoBackend::kMemory
                                      ? std::string("memory")
                                      : std::string("pread");
                         });

}  // namespace
}  // namespace dqmo
