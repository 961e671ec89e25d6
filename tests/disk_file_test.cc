// DiskPageFile contract tests: the disk-resident PageStore must honour the
// accounting the in-memory PageFile established (every Read is one charged
// physical access — even a frame hit), never write its image except by a
// checkpoint, interoperate byte-for-byte with PageFile checkpoint images,
// and reject corrupt images at open. Plus the Prefetcher charging contract
// (hits counted exactly once; cancel/quiesce charge wasted; failed
// speculation is counted once and falls through without poisoning
// anything), its pread workers landing every hint of a full table, and the
// one WAL scanner's summary, with and without a record sink.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk_file.h"
#include "storage/fault.h"
#include "storage/image_format.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/prefetch.h"
#include "storage/wal.h"
#include "test_util.h"

namespace dqmo {
namespace {

struct TempDir {
  std::filesystem::path dir;
  explicit TempDir(const std::string& tag) {
    dir = std::filesystem::temp_directory_path() /
          ("dqmo_disk_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }
  std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

/// Deterministic page payload: byte j of page i is (i * 131 + j) & 0xff.
void FillPage(uint64_t id, uint8_t* page) {
  for (size_t j = 0; j < kPageSize; ++j) {
    page[j] = static_cast<uint8_t>((id * 131 + j) & 0xff);
  }
}

bool PayloadMatches(uint64_t id, const uint8_t* page) {
  for (size_t j = 0; j < kPagePayloadSize; ++j) {
    if (page[j] != static_cast<uint8_t>((id * 131 + j) & 0xff)) return false;
  }
  return true;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  std::vector<uint8_t> bytes;
  uint8_t chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

/// A store over a fresh image at `path` holding `pages` filled pages: the
/// writes go to frames, and the checkpoint installs them as the image.
std::unique_ptr<DiskPageFile> MakeDiskFile(const std::string& path,
                                           int pages) {
  auto file = DiskPageFile::Open(path, DiskPageFile::Options());
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  if (!file.ok()) return nullptr;
  std::vector<uint8_t> buf(kPageSize);
  for (int i = 0; i < pages; ++i) {
    const PageId id = (*file)->Allocate();
    FillPage(id, buf.data());
    EXPECT_TRUE((*file)->Write(id, buf.data()).ok());
  }
  EXPECT_TRUE((*file)->SaveTo(path).ok());
  EXPECT_EQ((*file)->resident_frames(), 0u);
  (*file)->ResetStats();
  return std::move(file).value();
}

TEST(DiskPageFileTest, WriteReadRoundtripChargesEveryRead) {
  TempDir tmp("roundtrip");
  auto file = MakeDiskFile(tmp.path("f.pgf"), 8);
  ASSERT_NE(file, nullptr);

  for (PageId id = 0; id < 8; ++id) {
    auto r = file->Read(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->physical);
    EXPECT_TRUE(PayloadMatches(id, r->data)) << "page " << id;
  }
  // Re-reads are never cached by the store itself: the second pass charges
  // eight more physical reads (caching is the BufferPool's job).
  for (PageId id = 0; id < 8; ++id) ASSERT_TRUE(file->Read(id).ok());
  EXPECT_EQ(file->stats().physical_reads, 16u);

  // A frame hit is still one charged physical read: the paper's metric
  // counts accesses to the store, not to the medium.
  auto view = file->WritableView(3);
  ASSERT_TRUE(view.ok());
  const IoStats before = file->stats();
  ASSERT_TRUE(file->HasFrame(3));
  auto r = file->Read(3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(file->stats().physical_reads,
            before.physical_reads.load() + 1);
}

TEST(DiskPageFileTest, ImageChangesOnlyAtCheckpoint) {
  TempDir tmp("ckpt");
  const std::string path = tmp.path("f.pgf");
  auto file = MakeDiskFile(path, 4);
  ASSERT_NE(file, nullptr);
  const std::vector<uint8_t> image = ReadFileBytes(path);
  ASSERT_EQ(image.size(), PgfPageOffset(4));

  // An in-place edit of an image page and a new page: both stay in frames,
  // sealed by the write guard's SealAllDirty, and the image is untouched.
  auto view = file->WritableView(1);
  ASSERT_TRUE(view.ok());
  FillPage(7, view->data());
  std::vector<uint8_t> buf(kPageSize);
  const PageId added = file->Allocate();
  FillPage(added, buf.data());
  ASSERT_TRUE(file->Write(added, buf.data()).ok());
  file->SealAllDirty();
  EXPECT_EQ(file->resident_frames(), 2u);
  EXPECT_EQ(ReadFileBytes(path), image);
  auto edited = file->Read(1);
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  EXPECT_TRUE(PayloadMatches(7, edited->data));

  // An image saved elsewhere is a copy: the store's own file and frames
  // stay as they were.
  const std::string copy = tmp.path("copy.pgf");
  ASSERT_TRUE(file->SaveTo(copy).ok());
  EXPECT_EQ(file->resident_frames(), 2u);
  EXPECT_EQ(ReadFileBytes(path), image);

  // SaveTo(path()) is the checkpoint: it installs both pages, drops the
  // frames, and the store reads the new image in place.
  ASSERT_TRUE(file->SaveTo(file->path()).ok());
  EXPECT_EQ(file->resident_frames(), 0u);
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(copy));
  for (PageId id = 0; id < 5; ++id) {
    auto r = file->Read(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(PayloadMatches(id == 1 ? 7 : id, r->data)) << "page " << id;
  }

  // A fresh open reads them back.
  file.reset();
  auto reopened = DiskPageFile::Open(path, DiskPageFile::Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ((*reopened)->num_pages(), 5u);
  for (PageId id = 0; id < 5; ++id) {
    auto r = (*reopened)->Read(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(PayloadMatches(id == 1 ? 7 : id, r->data)) << "page " << id;
  }
}

TEST(DiskPageFileTest, ImageInteropWithPageFile) {
  TempDir tmp("interop");
  // Memory -> image -> disk: the disk store must serve the exact bytes the
  // in-memory store checkpointed.
  PageFile mem;
  std::vector<uint8_t> buf(kPageSize);
  for (int i = 0; i < 6; ++i) {
    const PageId id = mem.Allocate();
    FillPage(id, buf.data());
    ASSERT_TRUE(mem.Write(id, buf.data()).ok());
  }
  ASSERT_TRUE(mem.Publish().ok());
  const std::string image = tmp.path("ckpt.pgf");
  ASSERT_TRUE(mem.SaveTo(image).ok());

  auto disk = DiskPageFile::Open(image, DiskPageFile::Options());
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_EQ((*disk)->num_pages(), mem.num_pages());
  for (PageId id = 0; id < 6; ++id) {
    auto dm = mem.Read(id);
    auto dd = (*disk)->Read(id);
    ASSERT_TRUE(dm.ok());
    ASSERT_TRUE(dd.ok());
    EXPECT_EQ(std::memcmp(dm->data, dd->data, kPageSize), 0) << "page " << id;
  }

  // Disk -> image -> memory: the round trip back is just as exact.
  const std::string image2 = tmp.path("ckpt2.pgf");
  ASSERT_TRUE((*disk)->SaveTo(image2).ok());
  PageFile mem2;
  ASSERT_TRUE(mem2.LoadFrom(image2).ok());
  ASSERT_EQ(mem2.num_pages(), mem.num_pages());
  for (PageId id = 0; id < 6; ++id) {
    auto a = mem.Read(id);
    auto b = mem2.Read(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(std::memcmp(a->data, b->data, kPageSize), 0) << "page " << id;
  }

  // One layout, one writer: both stores' images of the same pages are the
  // same file, byte for byte.
  const std::vector<uint8_t> mem_bytes = ReadFileBytes(image);
  EXPECT_EQ(mem_bytes.size(), PgfPageOffset(6));
  EXPECT_EQ(ReadFileBytes(image2), mem_bytes);
}

TEST(DiskPageFileTest, CorruptImageRejectedAtOpen) {
  TempDir tmp("corrupt_open");
  PageFile mem;
  std::vector<uint8_t> buf(kPageSize);
  for (int i = 0; i < 4; ++i) {
    const PageId id = mem.Allocate();
    FillPage(id, buf.data());
    ASSERT_TRUE(mem.Write(id, buf.data()).ok());
  }
  ASSERT_TRUE(mem.Publish().ok());
  const std::string image = tmp.path("ckpt.pgf");
  ASSERT_TRUE(mem.SaveTo(image).ok());

  // Flip one payload byte of page 2 in the image file itself.
  std::FILE* f = std::fopen(image.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(PgfPageOffset(2) + 77), SEEK_SET),
            0);
  const uint8_t bad = 0xa5;
  ASSERT_EQ(std::fwrite(&bad, 1, 1, f), 1u);
  std::fclose(f);

  auto disk = DiskPageFile::Open(image, DiskPageFile::Options{});
  EXPECT_FALSE(disk.ok());
  EXPECT_TRUE(disk.status().IsCorruption()) << disk.status().ToString();
}

TEST(DiskPageFileTest, VerifyAndScrubSurface) {
  TempDir tmp("scrub");
  auto file = MakeDiskFile(tmp.path("f.pgf"), 5);
  ASSERT_NE(file, nullptr);

  std::vector<PageId> bad;
  EXPECT_EQ(file->VerifyAllPages(&bad), 0u);
  ASSERT_TRUE(file->CorruptPageForTest(1, 200, 0x40).ok());
  EXPECT_FALSE(file->VerifyPage(1).ok());
  bad.clear();
  EXPECT_EQ(file->VerifyAllPages(&bad), 1u);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 1u);
}

TEST(DiskPageFileTest, ReloadFromImageRestores) {
  TempDir tmp("reload");
  PageFile mem;
  std::vector<uint8_t> buf(kPageSize);
  for (int i = 0; i < 4; ++i) {
    const PageId id = mem.Allocate();
    FillPage(id, buf.data());
    ASSERT_TRUE(mem.Write(id, buf.data()).ok());
  }
  ASSERT_TRUE(mem.Publish().ok());
  const std::string image = tmp.path("ckpt.pgf");
  ASSERT_TRUE(mem.SaveTo(image).ok());

  auto disk = DiskPageFile::Open(image, DiskPageFile::Options{});
  ASSERT_TRUE(disk.ok());

  // Scribble over page 0 and add a page, then reload: the checkpoint's
  // bytes win and the frames are gone.
  auto view = (*disk)->WritableView(0);
  ASSERT_TRUE(view.ok());
  std::memset(view->data(), 0xee, kPagePayloadSize);
  (*disk)->Allocate();
  (*disk)->SealAllDirty();
  ASSERT_TRUE((*disk)->ReloadFromImage().ok());
  ASSERT_EQ((*disk)->num_pages(), 4u);
  EXPECT_EQ((*disk)->resident_frames(), 0u);
  auto r = (*disk)->Read(0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(PayloadMatches(0, r->data));
}

struct PrefetcherFixture {
  TempDir tmp;
  std::unique_ptr<DiskPageFile> file;
  std::unique_ptr<Prefetcher> prefetcher;

  explicit PrefetcherFixture(const std::string& tag, int pages = 16,
                             FaultInjector* injector = nullptr,
                             std::function<void(uint64_t)> sleeper = nullptr)
      : tmp(tag) {
    file = MakeDiskFile(tmp.path("f.pgf"), pages);
    if (file == nullptr) return;
    Prefetcher::Options options;
    options.depth = 8;
    options.injector = injector;
    options.sleeper = sleeper ? std::move(sleeper) : [](uint64_t) {};
    prefetcher = std::make_unique<Prefetcher>(file.get(), options);
  }
};

TEST(PrefetcherTest, HintReadRoundtripAtFullDepth) {
  PrefetcherFixture fx("roundtrip");
  ASSERT_NE(fx.prefetcher, nullptr);

  // A full table of hints: every worker reads into its own entry, and each
  // Read is served from the landing of its own page.
  std::vector<PageId> hints;
  for (PageId id = 0; id < 8; ++id) hints.push_back(id);
  fx.prefetcher->Hint(hints);
  EXPECT_EQ(fx.file->stats().prefetch_issued, 8u);
  for (PageId id : hints) {
    auto r = fx.prefetcher->Read(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(PayloadMatches(id, r->data)) << "page " << id;
  }
  EXPECT_EQ(fx.file->stats().prefetch_hits, 8u);
  EXPECT_EQ(fx.file->stats().physical_reads, 8u);
  EXPECT_EQ(fx.prefetcher->tracked(), 0u);
}

TEST(PrefetcherTest, HitChargedExactlyOnce) {
  PrefetcherFixture fx("hit");
  ASSERT_NE(fx.prefetcher, nullptr);

  const std::vector<PageId> hints = {3, 4};
  fx.prefetcher->Hint(hints);
  EXPECT_EQ(fx.file->stats().prefetch_issued, 2u);

  auto r = fx.prefetcher->Read(3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->physical);
  EXPECT_TRUE(PayloadMatches(3, r->data));
  // The hit replaced the sync read 1:1 — one physical read, one hit.
  EXPECT_EQ(fx.file->stats().prefetch_hits, 1u);
  EXPECT_EQ(fx.file->stats().physical_reads, 1u);

  // Quiesce discards the unconsumed speculation as wasted (its disk read
  // really happened), closing the accounting identity.
  fx.prefetcher->Quiesce();
  EXPECT_EQ(fx.file->stats().prefetch_wasted, 1u);
  EXPECT_EQ(fx.file->stats().physical_reads, 2u);
  EXPECT_EQ(fx.file->stats().prefetch_issued.load(),
            fx.file->stats().prefetch_hits.load() +
                fx.file->stats().prefetch_wasted.load() +
                fx.prefetcher->failed());
}

TEST(PrefetcherTest, CancelPendingChargesWasted) {
  PrefetcherFixture fx("cancel");
  ASSERT_NE(fx.prefetcher, nullptr);

  const std::vector<PageId> hints = {0, 1, 2, 5};
  fx.prefetcher->Hint(hints);
  fx.prefetcher->CancelPending();
  fx.prefetcher->Quiesce();
  EXPECT_EQ(fx.prefetcher->tracked(), 0u);
  EXPECT_EQ(fx.file->stats().prefetch_hits, 0u);
  EXPECT_EQ(fx.file->stats().prefetch_issued.load(),
            fx.file->stats().prefetch_wasted.load() +
                fx.prefetcher->failed());
}

TEST(PrefetcherTest, FailedSpeculationFallsThroughToSync) {
  FaultInjector::Options fopt;
  fopt.seed = 3;
  fopt.fail_every_kth = 1;  // Every speculative read fails.
  FaultInjector injector(fopt);
  PrefetcherFixture fx("fail", 16, &injector);
  ASSERT_NE(fx.prefetcher, nullptr);

  const std::vector<PageId> hints = {6};
  fx.prefetcher->Hint(hints);
  auto r = fx.prefetcher->Read(6);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(PayloadMatches(6, r->data));  // The frame was never poisoned.
  EXPECT_EQ(fx.prefetcher->failed(), 1u);
  EXPECT_EQ(fx.file->stats().prefetch_hits, 0u);
  // The failed speculation charged nothing; the sync fallthrough charged
  // its one read.
  EXPECT_EQ(fx.file->stats().physical_reads, 1u);
  // And the page stays readable afterwards — no sticky failure state.
  auto again = fx.prefetcher->Read(6);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(PayloadMatches(6, again->data));
}

TEST(PrefetcherTest, CancelPendingCountsAFailedSpeculationOnce) {
  FaultInjector::Options fopt;
  fopt.seed = 3;
  fopt.fail_every_kth = 1;  // Every speculative read fails.
  FaultInjector injector(fopt);
  PrefetcherFixture fx("cancel_failed", 16, &injector);
  ASSERT_NE(fx.prefetcher, nullptr);

  // A tracked page is never hinted twice, so re-hinting only waits for the
  // one speculation to fail.
  const std::vector<PageId> hints = {6};
  while (fx.prefetcher->failed() == 0) fx.prefetcher->Hint(hints);
  fx.prefetcher->CancelPending();
  fx.prefetcher->Quiesce();
  EXPECT_EQ(fx.file->stats().prefetch_issued, 1u);
  EXPECT_EQ(fx.file->stats().prefetch_hits, 0u);
  EXPECT_EQ(fx.file->stats().prefetch_wasted, 0u);
  EXPECT_EQ(fx.prefetcher->failed(), 1u);
  EXPECT_EQ(fx.prefetcher->tracked(), 0u);
}

TEST(PrefetcherTest, ChargeFnBoundsSpeculation) {
  PrefetcherFixture fx("charge");
  ASSERT_NE(fx.prefetcher, nullptr);

  int allowance = 2;
  const std::vector<PageId> hints = {0, 1, 2, 3, 4, 5};
  fx.prefetcher->Hint(hints, [&allowance]() { return allowance-- > 0; });
  EXPECT_EQ(fx.file->stats().prefetch_issued, 2u);
  EXPECT_LE(fx.prefetcher->tracked(), 2u);
  fx.prefetcher->Quiesce();
}

TEST(PrefetcherTest, DirtyFramedPagesAreSkipped) {
  PrefetcherFixture fx("dirty");
  ASSERT_NE(fx.prefetcher, nullptr);

  auto view = fx.file->WritableView(2);
  ASSERT_TRUE(view.ok());
  view->data()[0] ^= 0xff;
  ASSERT_TRUE(fx.file->HasFrame(2));

  const std::vector<PageId> hints = {2};
  fx.prefetcher->Hint(hints);
  // The image's bytes are stale, so no speculation was issued; the read
  // falls through to the store and serves the fresh frame.
  EXPECT_EQ(fx.file->stats().prefetch_issued, 0u);
  EXPECT_EQ(fx.prefetcher->tracked(), 0u);
  auto r = fx.prefetcher->Read(2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0],
            static_cast<uint8_t>(((2 * 131 + 0) & 0xff) ^ 0xff));
}

TEST(PrefetcherTest, LandingOlderThanAWriteIsDiscarded) {
  // A speculation issued before a write to its page must not be served
  // after it — even once a checkpoint has installed the write and dropped
  // its frame, so no frame is left to say the landing is stale.
  PrefetcherFixture fx("stale");
  ASSERT_NE(fx.prefetcher, nullptr);

  const std::vector<PageId> hints = {5};
  fx.prefetcher->Hint(hints);
  ASSERT_EQ(fx.file->stats().prefetch_issued, 1u);
  auto view = fx.file->WritableView(5);
  ASSERT_TRUE(view.ok());
  view->data()[0] ^= 0xff;
  ASSERT_TRUE(fx.file->SaveTo(fx.file->path()).ok());
  ASSERT_FALSE(fx.file->HasFrame(5));
  const uint8_t fresh = static_cast<uint8_t>(((5 * 131 + 0) & 0xff) ^ 0xff);

  auto r = fx.prefetcher->Read(5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->data[0], fresh);
  // Charged like any discarded landing: wasted plus its disk read, then
  // the synchronous read that served the page.
  EXPECT_EQ(fx.file->stats().prefetch_hits, 0u);
  EXPECT_EQ(fx.file->stats().prefetch_wasted, 1u);
  EXPECT_EQ(fx.file->stats().physical_reads, 2u);
  EXPECT_EQ(fx.prefetcher->tracked(), 0u);

  auto direct = fx.file->Read(5);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->data[0], fresh);
}

TEST(PrefetcherTest, SlowCompletionServedThroughSleeper) {
  FaultInjector::Options fopt;
  fopt.seed = 9;
  fopt.slow_every_kth = 1;
  fopt.slow_read_delay_us = 500;
  FaultInjector injector(fopt);
  std::vector<uint64_t> delays;
  PrefetcherFixture fx("slow", 16, &injector,
                       [&delays](uint64_t us) { delays.push_back(us); });
  ASSERT_NE(fx.prefetcher, nullptr);

  const std::vector<PageId> hints = {7};
  fx.prefetcher->Hint(hints);
  auto r = fx.prefetcher->Read(7);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(PayloadMatches(7, r->data));
  ASSERT_EQ(delays.size(), 1u);  // Delay served at consumption, injected.
  EXPECT_EQ(delays[0], 500u);
}

MotionSegment TestSegment(uint64_t i) {
  Rng rng(1000 + i);
  return dqmo::testing::RandomSegment(&rng, static_cast<ObjectId>(i), 2, 100,
                                      100);
}

void WriteWal(const std::string& path, int inserts, bool checkpoint) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, nullptr).ok());
  for (int i = 0; i < inserts; ++i) {
    ASSERT_TRUE(writer.AppendInsert(TestSegment(i)).ok());
  }
  if (checkpoint) {
    ASSERT_TRUE(writer.AppendCheckpoint(2, 42).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  writer.Close();
}

/// Scans `path` twice with the one scanner, once with a record sink and
/// once without, and checks that the summary agrees with the records the
/// sink received — and that a sink never changes the verdict.
void ExpectSummaryMatchesRecords(const std::string& path) {
  auto plain = ScanWal(path);
  auto collected = dqmo::testing::ScanWalRecords(path);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  const WalScan& sum = collected->summary;
  const std::vector<WalRecord>& records = collected->records;
  EXPECT_EQ(sum.records, records.size());
  EXPECT_EQ(plain->records, sum.records);
  EXPECT_EQ(plain->last_lsn, sum.last_lsn);
  EXPECT_EQ(plain->good_bytes, sum.good_bytes);
  EXPECT_EQ(plain->torn_bytes, sum.torn_bytes);
  EXPECT_EQ(plain->torn_tail, sum.torn_tail);
  uint64_t inserts = 0, checkpoints = 0;
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kInsert) ++inserts;
    if (r.type == WalRecordType::kCheckpoint) ++checkpoints;
  }
  EXPECT_EQ(sum.inserts, inserts);
  EXPECT_EQ(sum.checkpoints, checkpoints);
  if (!records.empty()) {
    EXPECT_EQ(sum.first_lsn, records.front().lsn);
    EXPECT_EQ(sum.last_lsn, records.back().lsn);
  }
}

TEST(WalStreamingTest, MatchesMaterializingScan) {
  TempDir tmp("wal_match");
  const std::string path = tmp.path("log.wal");
  WriteWal(path, 5, /*checkpoint=*/true);
  ExpectSummaryMatchesRecords(path);

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, 6u);
  EXPECT_EQ(scan->inserts, 5u);
  EXPECT_EQ(scan->checkpoints, 1u);
  EXPECT_EQ(scan->first_lsn, 1u);
  EXPECT_EQ(scan->last_lsn, 6u);
  EXPECT_EQ(scan->last_ckpt_lsn, 2u);
  EXPECT_EQ(scan->last_ckpt_segments, 42u);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalStreamingTest, EmptyAndAbsentLogs) {
  TempDir tmp("wal_empty");
  // Absent: an empty log.
  ExpectSummaryMatchesRecords(tmp.path("missing.wal"));
  // Present but record-free (header only).
  const std::string path = tmp.path("empty.wal");
  WriteWal(path, 0, /*checkpoint=*/false);
  ExpectSummaryMatchesRecords(path);
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, 0u);
  EXPECT_EQ(scan->first_lsn, 0u);
}

TEST(WalStreamingTest, TornTailToleratedIdentically) {
  TempDir tmp("wal_torn");
  const std::string path = tmp.path("log.wal");
  WriteWal(path, 4, /*checkpoint=*/false);

  // A torn write: a few garbage bytes where a record header should be.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const uint8_t garbage[9] = {0xde, 0xad, 0xbe, 0xef, 0x01,
                              0x02, 0x03, 0x04, 0x05};
  ASSERT_EQ(std::fwrite(garbage, 1, sizeof(garbage), f), sizeof(garbage));
  std::fclose(f);

  ExpectSummaryMatchesRecords(path);
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, 4u);
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->torn_bytes, sizeof(garbage));
}

TEST(WalStreamingTest, MidLogCorruptionRejectedIdentically) {
  TempDir tmp("wal_hole");
  const std::string path = tmp.path("log.wal");
  WriteWal(path, 4, /*checkpoint=*/false);

  // Damage the first record's payload: a well-formed record follows, so
  // this is a hole, not a torn tail — the scan must refuse to replay past
  // it, with or without a sink, and deliver nothing from beyond it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 16 + 17 + 3, SEEK_SET), 0);
  uint8_t byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0x10;
  ASSERT_EQ(std::fseek(f, 16 + 17 + 3, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);

  auto scan = ScanWal(path);
  EXPECT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
  size_t delivered = 0;
  auto sunk = ScanWal(path, [&delivered](const WalRecord&) {
    ++delivered;
    return Status::OK();
  });
  EXPECT_TRUE(sunk.status().IsCorruption()) << sunk.status().ToString();
  EXPECT_EQ(delivered, 0u);
}

}  // namespace
}  // namespace dqmo
