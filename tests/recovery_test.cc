// Crash-recovery tests: fork-based kill tests that murder a child process
// at every registered crash point of the durability protocol and assert
// that recovery yields an index whose query answers exactly match the
// brute-force oracles on the surviving prefix of inserts — and that no
// insert acknowledged after a WAL sync is ever lost.
//
// The child workload inserts a deterministic segment sequence with a WAL
// sync after every insert (acknowledging each durable insert by appending
// one fsynced byte to an ack file) and checkpoints every few inserts, so
// every crash point — WAL sync paths and checkpoint protocol steps alike —
// is exercised several times per run via skip counts. A second pair of
// forked tests caps the log's file size so one WAL sync fails for real and
// checks that the failure is final until reopen.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "oracle.h"
#include "query/knn.h"
#include "server/durability.h"
#include "server/health.h"
#include "server/shard.h"
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

DurableIndex::Options BackendOptions(IoBackend backend) {
  DurableIndex::Options options;
  options.io_backend = backend;
  return options;
}

/// Child body: never returns. Exit codes: 0 = workload completed,
/// CrashPoints::kExitCode = killed at the armed point, anything else = a
/// real failure the parent must flag.
[[noreturn]] void RunChildWorkload(const Paths& paths, const char* point,
                                   uint64_t skip, IoBackend backend) {
  if (point != nullptr) CrashPoints::Arm(point, skip);
  const int fd = ::open(paths.ack.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) ::_exit(3);
  const std::vector<MotionSegment> data = TestData();
  auto opened =
      DurableIndex::Open(paths.pgf, paths.wal, BackendOptions(backend));
  if (!opened.ok()) ::_exit(4);
  DurableIndex* index = opened->get();
  for (int i = 0; i < kNumInserts; ++i) {
    if (!index->Insert(data[static_cast<size_t>(i)]).ok()) ::_exit(5);
    if (!index->Sync().ok()) ::_exit(5);
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
int ForkWorkload(const Paths& paths, const char* point, uint64_t skip,
                 IoBackend backend = IoBackend::kMemory) {
  const pid_t pid = ::fork();
  if (pid == 0) RunChildWorkload(paths, point, skip, backend);
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
                      const std::vector<MotionSegment>& data,
                      IoBackend backend = IoBackend::kMemory) {
  const size_t acked = AckedCount(paths.ack);
  auto opened =
      DurableIndex::Open(paths.pgf, paths.wal, BackendOptions(backend));
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
  // Both live-page backends: kPread's checkpoint writes its image from its
  // frames and the image it reads, then reopens the installed file.
  for (const IoBackend backend : {IoBackend::kMemory, IoBackend::kPread}) {
    const std::string name =
        backend == IoBackend::kMemory ? "memory" : "pread";
    for (const std::string& point : CrashPoints::All()) {
      bool crashed_at_least_once = false;
      // Skip counts walk the same point through successive hits (first WAL
      // sync, a later one mid-run, one inside a checkpoint, ...).
      for (uint64_t skip : {0u, 1u, 2u, 9u, 20u}) {
        SCOPED_TRACE(name + " " + point + " skip=" + std::to_string(skip));
        const Paths paths = FreshPaths(("matrix_" + name).c_str());
        const int code = ForkWorkload(paths, point.c_str(), skip, backend);
        if (code == 0) break;  // Point not reached that often: done walking.
        ASSERT_EQ(code, CrashPoints::kExitCode);
        crashed_at_least_once = true;
        ValidateRecovery(paths, data, backend);
      }
      EXPECT_TRUE(crashed_at_least_once)
          << name << " " << point
          << " never fired — the matrix is not testing it";
    }
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

// ---------------------------------------------------------------------------
// Fail-stop WAL: a sync that failed is final until the index is reopened.
// A forked child acknowledges kAckedBeforeCap inserts, then caps its file
// size (RLIMIT_FSIZE, SIGXFSZ ignored) kCapSlack bytes past the synced log,
// so the next sync lands a torn record and fails. Retrying would write the
// whole batch again after the torn bytes — a hole with well-formed records
// after it, which no reopen accepts — so every later write must be refused,
// even once the cap is lifted.

constexpr int kAckedBeforeCap = 20;
/// Less than one 2-d insert record (73 bytes): the capped sync tears.
constexpr off_t kCapSlack = 30;

/// Caps the size of every file this process writes at `path`'s current
/// size plus kCapSlack; false when the limit cannot be set.
bool CapFileSizeAfter(const std::string& path) {
  struct stat st;
  struct rlimit lim;
  if (::stat(path.c_str(), &st) != 0 || ::getrlimit(RLIMIT_FSIZE, &lim) != 0) {
    return false;
  }
  lim.rlim_cur = static_cast<rlim_t>(st.st_size + kCapSlack);
  return ::setrlimit(RLIMIT_FSIZE, &lim) == 0;
}

bool LiftFileSizeCap() {
  struct rlimit lim;
  if (::getrlimit(RLIMIT_FSIZE, &lim) != 0) return false;
  lim.rlim_cur = lim.rlim_max;
  return ::setrlimit(RLIMIT_FSIZE, &lim) == 0;
}

/// Appends one fsynced byte to the ack file: one more acknowledged insert.
bool Ack(int fd) {
  const char byte = 1;
  return ::write(fd, &byte, 1) == 1 && ::fsync(fd) == 0;
}

/// Runs `body` in a forked child with SIGXFSZ ignored (an over-limit write
/// then fails with EFBIG instead of killing the process) and returns its
/// exit code; 0 means every check in the child held.
template <typename Body>
int ForkCapped(const Body& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    ::_exit(body());
  }
  EXPECT_GT(pid, 0);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child died abnormally (signal "
                                 << WTERMSIG(status) << ")";
  return WEXITSTATUS(status);
}

/// What a reopen after the failed sync must find: exactly the acknowledged
/// inserts, and the capped sync's bytes dropped as a torn tail.
void ExpectAckedPrefixAndTornTail(const RecoveryReport& report, RTree* tree,
                                  size_t acked,
                                  const std::vector<MotionSegment>& data) {
  EXPECT_EQ(acked, static_cast<size_t>(kAckedBeforeCap));
  EXPECT_EQ(tree->num_segments(), acked) << report.ToString();
  EXPECT_EQ(report.replayed, acked) << report.ToString();
  EXPECT_TRUE(report.torn_tail) << report.ToString();
  EXPECT_EQ(report.torn_bytes_dropped, static_cast<uint64_t>(kCapSlack))
      << report.ToString();
  QueryStats stats;
  auto all = tree->RangeSearch(StBox(Box(Interval(-1e6, 1e6),
                                         Interval(-1e6, 1e6)),
                                     Interval(-1e6, 1e6)),
                               &stats);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(KeysOf(*all),
            KeysOf({data.begin(), data.begin() + static_cast<long>(acked)}));
}

TEST(WalFailStop, FailedSyncRefusesEveryWriteUntilReopen) {
  const std::vector<MotionSegment> data = TestData();
  const Paths paths = FreshPaths("failstop_index");
  const int code = ForkCapped([&]() -> int {
    const int fd =
        ::open(paths.ack.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return 3;
    auto opened = DurableIndex::Open(paths.pgf, paths.wal,
                                     DurableIndex::Options());
    if (!opened.ok()) return 4;
    DurableIndex* index = opened->get();
    for (int i = 0; i < kAckedBeforeCap; ++i) {
      if (!index->Insert(data[static_cast<size_t>(i)]).ok()) return 5;
      if (!index->Sync().ok()) return 5;
      if (!Ack(fd)) return 6;
    }
    if (!CapFileSizeAfter(paths.wal)) return 7;
    // The capped write: applied to the tree, but its sync tears.
    Status capped = index->Insert(data[kAckedBeforeCap]);
    if (capped.ok()) capped = index->Sync();
    if (capped.ok()) return 8;
    if (!LiftFileSizeCap()) return 7;
    // Fail-stop: every write is refused with the first error, even though
    // the file could grow again.
    if (index->Insert(data[kAckedBeforeCap + 1]).ToString() !=
        capped.ToString()) {
      return 9;
    }
    if (index->Log(data[kAckedBeforeCap + 1]).status().ToString() !=
        capped.ToString()) {
      return 10;
    }
    if (index->Sync().ToString() != capped.ToString()) return 11;
    if (index->Checkpoint().ToString() != capped.ToString()) return 12;
    return 0;
  });
  EXPECT_EQ(code, 0);
  auto reopened = DurableIndex::Open(paths.pgf, paths.wal,
                                     DurableIndex::Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectAckedPrefixAndTornTail((*reopened)->report(), (*reopened)->tree(),
                               AckedCount(paths.ack), data);
}

TEST(WalFailStop, FailedSyncOpensTheShardBreakerAndParksNothing) {
  // The engine's write step on a failure-domain shard. kMemory live pages,
  // so only the WAL grows while the cap holds.
  const std::vector<MotionSegment> data = TestData();
  const Paths paths = FreshPaths("failstop_engine");
  const std::string dir = paths.pgf + ".shards";
  std::filesystem::remove_all(dir);
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.durable_dir = dir;
  options.failure_domains = true;
  const std::string wal_path = dir + "/shard-0000.wal";
  const int code = ForkCapped([&]() -> int {
    const int fd =
        ::open(paths.ack.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return 3;
    auto engine = ShardedEngine::Create(options);
    if (!engine.ok()) return 4;
    for (int i = 0; i < kAckedBeforeCap; ++i) {
      if (!(*engine)->Insert(data[static_cast<size_t>(i)]).ok()) return 5;
      if (!Ack(fd)) return 6;
    }
    if (!CapFileSizeAfter(wal_path)) return 7;
    if ((*engine)->Insert(data[kAckedBeforeCap]).ok()) return 8;
    if ((*engine)->breaker(0)->state() != BreakerState::kOpen) return 9;
    if (!LiftFileSizeCap()) return 7;
    // The open breaker would park the next write in the shard's WAL, but
    // the log refuses it: the write fails and nothing is parked.
    if ((*engine)->Insert(data[kAckedBeforeCap + 1]).ok()) return 10;
    const RedoQueue* redo = (*engine)->shard(0).redo.get();
    if (redo->depth() != 0 || redo->total_parked() != 0) return 11;
    return 0;
  });
  EXPECT_EQ(code, 0);
  auto reopened = ShardedEngine::Create(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectAckedPrefixAndTornTail((*reopened)->shard(0).durable->report(),
                               (*reopened)->shard(0).tree,
                               AckedCount(paths.ack), data);
  std::filesystem::remove_all(dir);
}

TEST(CrashRecovery, CheckpointCycleSurvivesReopenWithGroupCommit) {
  // Group commit: inserts only buffer their records; Sync() is the
  // acknowledgment barrier. A reopen after (sync, checkpoint, sync) sees
  // everything the last Sync covered.
  Rng rng(9999);
  const std::vector<MotionSegment> data =
      RandomSegments(&rng, 20, 2, 100.0, 20.0);
  const Paths paths = FreshPaths("cycle");
  const DurableIndex::Options options;
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
    Rng rng(2468);
    data_ = RandomSegments(&rng, 20, 2, 100.0, 20.0);
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
    for (const std::string& path : {paths_.pgf, paths_.wal}) {
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
