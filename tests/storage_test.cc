// Tests for the paged storage engine: PageFile accounting/persistence and
// the LRU BufferPool.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/image_format.h"
#include "storage/page_file.h"

namespace dqmo {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void FillPage(uint8_t* buf, uint8_t value) {
  std::memset(buf, value, kPageSize);
}

TEST(PageFileTest, AllocateGrowsSequentialIds) {
  PageFile f;
  EXPECT_EQ(f.num_pages(), 0u);
  EXPECT_EQ(f.Allocate(), 0u);
  EXPECT_EQ(f.Allocate(), 1u);
  EXPECT_EQ(f.Allocate(), 2u);
  EXPECT_EQ(f.num_pages(), 3u);
}

TEST(PageFileTest, NewPagesHaveZeroPayloadAndSealedTrailer) {
  PageFile f;
  const PageId id = f.Allocate();
  auto read = f.Read(id);
  ASSERT_TRUE(read.ok());
  for (size_t i = 0; i < kPagePayloadSize; ++i) EXPECT_EQ(read->data[i], 0);
  // The trailer holds the payload's CRC32C, not zeros.
  EXPECT_EQ(StoredPageChecksum(read->data), ComputePageChecksum(read->data));
}

TEST(PageFileTest, WriteThenReadRoundTripsPayload) {
  PageFile f;
  const PageId id = f.Allocate();
  uint8_t buf[kPageSize];
  FillPage(buf, 0xAB);
  ASSERT_TRUE(f.Write(id, buf).ok());
  auto read = f.Read(id);
  ASSERT_TRUE(read.ok());
  // The payload round-trips; the trailer is overwritten by the seal.
  EXPECT_EQ(std::memcmp(read->data, buf, kPagePayloadSize), 0);
  EXPECT_TRUE(PageChecksumOk(read->data));
  EXPECT_TRUE(read->physical);
}

TEST(PageFileTest, OutOfRangeRejected) {
  PageFile f;
  f.Allocate();
  EXPECT_TRUE(f.Read(5).status().IsOutOfRange());
  uint8_t buf[kPageSize] = {};
  EXPECT_TRUE(f.Write(5, buf).IsOutOfRange());
  EXPECT_TRUE(f.WritableView(5).status().IsOutOfRange());
}

TEST(PageFileTest, StatsCountPhysicalOps) {
  PageFile f;
  const PageId id = f.Allocate();
  uint8_t buf[kPageSize] = {};
  ASSERT_TRUE(f.Write(id, buf).ok());
  ASSERT_TRUE(f.Read(id).ok());
  ASSERT_TRUE(f.Read(id).ok());
  EXPECT_EQ(f.stats().physical_writes, 1u);
  EXPECT_EQ(f.stats().physical_reads, 2u);
  f.ResetStats();
  EXPECT_EQ(f.stats().physical_reads, 0u);
}

TEST(PageFileTest, WritableViewEditsInPlace) {
  PageFile f;
  const PageId id = f.Allocate();
  {
    auto view = f.WritableView(id);
    ASSERT_TRUE(view.ok());
    view->Write<uint32_t>(0, 0xDEADBEEF);
    view->Write<double>(8, 2.5);
  }
  auto read = f.Read(id);
  ASSERT_TRUE(read.ok());
  PageView v(const_cast<uint8_t*>(read->data), kPageSize);
  EXPECT_EQ(v.Read<uint32_t>(0), 0xDEADBEEFu);
  EXPECT_EQ(v.Read<double>(8), 2.5);
}

TEST(PageFileTest, SaveAndLoadRoundTrips) {
  const std::string path = TempPath("pf_roundtrip.pgf");
  PageFile f;
  for (int i = 0; i < 5; ++i) {
    const PageId id = f.Allocate();
    uint8_t buf[kPageSize];
    FillPage(buf, static_cast<uint8_t>(0x10 + i));
    ASSERT_TRUE(f.Write(id, buf).ok());
  }
  ASSERT_TRUE(f.SaveTo(path).ok());

  PageFile g;
  ASSERT_TRUE(g.LoadFrom(path).ok());
  EXPECT_EQ(g.num_pages(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto read = g.Read(static_cast<PageId>(i));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->data[17], 0x10 + i);
  }
  std::remove(path.c_str());
}

TEST(PageFileTest, LoadRejectsMissingFile) {
  PageFile f;
  EXPECT_TRUE(f.LoadFrom(TempPath("does_not_exist.pgf")).IsIOError());
}

TEST(PageFileTest, LoadRejectsGarbageFile) {
  const std::string path = TempPath("pf_garbage.pgf");
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  const char junk[] = "this is not a page file at all, sorry about that";
  std::fwrite(junk, 1, sizeof(junk), fp);
  std::fclose(fp);
  PageFile f;
  EXPECT_TRUE(f.LoadFrom(path).IsCorruption());
  std::remove(path.c_str());
}

TEST(PageFileTest, SaveEmptyFileWorks) {
  const std::string path = TempPath("pf_empty.pgf");
  PageFile f;
  ASSERT_TRUE(f.SaveTo(path).ok());
  PageFile g;
  ASSERT_TRUE(g.LoadFrom(path).ok());
  EXPECT_EQ(g.num_pages(), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Page integrity: checksums, verification, retired image versions, and
// LoadFrom hardening against damaged images.

TEST(PageChecksumTest, WritableViewPagesAreResealedLazily) {
  PageFile f;
  const PageId id = f.Allocate();
  {
    auto view = f.WritableView(id);
    ASSERT_TRUE(view.ok());
    view->Write<uint64_t>(0, 0x1122334455667788ULL);
  }
  // The next read re-seals before verifying; no false corruption.
  auto read = f.Read(id);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(PageChecksumOk(read->data));
  EXPECT_TRUE(f.VerifyPage(id).ok());
}

TEST(PageChecksumTest, ReadDetectsCorruptedPayload) {
  PageFile f;
  const PageId id = f.Allocate();
  uint8_t buf[kPageSize];
  FillPage(buf, 0x5A);
  ASSERT_TRUE(f.Write(id, buf).ok());
  const std::string path = TempPath("pf_corrupt_payload.pgf");
  ASSERT_TRUE(f.SaveTo(path).ok());

  // Corrupt the saved image directly: flip a payload byte of page 0.
  std::FILE* fp = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, static_cast<long>(PgfPageOffset(0) + 100),
                       SEEK_SET),
            0);
  const uint8_t evil = 0x5A ^ 0x01;
  ASSERT_EQ(std::fwrite(&evil, 1, 1, fp), 1u);
  std::fclose(fp);

  // The load verifies every page and names the damaged one, at the file
  // offset where page 0 really sits (after the 4 KiB header block).
  PageFile g;
  const Status load = g.LoadFrom(path);
  EXPECT_TRUE(load.IsCorruption()) << load.ToString();
  EXPECT_NE(load.message().find("page 0"), std::string::npos)
      << load.message();
  EXPECT_NE(load.message().find("file offset 4096"), std::string::npos)
      << load.message();

  // The same damage at rest in a live file: Read catches it on the next
  // read instead of trusting the stale verified flag.
  PageFile h;
  ASSERT_EQ(h.Allocate(), id);
  ASSERT_TRUE(h.Write(id, buf).ok());
  ASSERT_TRUE(h.CorruptPageForTest(id, 100, 0x01).ok());
  EXPECT_TRUE(h.Read(id).status().IsCorruption());
  EXPECT_EQ(h.stats().checksum_failures, 1u);

  // With verification disabled the damaged bytes are readable.
  h.set_verify_on_read(false);
  EXPECT_TRUE(h.Read(id).ok());

  std::vector<PageId> bad;
  EXPECT_EQ(h.VerifyAllPages(&bad), 1u);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], id);
  std::remove(path.c_str());
}

TEST(PageChecksumTest, PreV3HeadersRejectedAsNotSupported) {
  // Hand-craft the two retired layouts: a 24-byte header (same magic,
  // version 1 or 2) directly followed by the pages. Only the v3 layout
  // loads; both fail typed, before any page is trusted.
  for (const uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(version);
    const std::string path = TempPath("pf_pre_v3.pgf");
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    struct {
      uint64_t magic = 0x4451'4d4f'5047'4631ULL;
      uint32_t version = 0;
      uint32_t reserved = 0;
      uint64_t num_pages = 2;
    } header;
    header.version = version;
    ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, fp), 1u);
    uint8_t page[kPageSize];
    for (uint8_t i = 0; i < 2; ++i) {
      FillPage(page, static_cast<uint8_t>(0x30 + i));
      if (version == 2) SealPage(page);  // v2 pages carried checksums.
      ASSERT_EQ(std::fwrite(page, kPageSize, 1, fp), 1u);
    }
    std::fclose(fp);

    PageFile f;
    const Status s = f.LoadFrom(path);
    EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
    EXPECT_EQ(f.num_pages(), 0u);
    std::remove(path.c_str());
  }
}

TEST(PageFileLoadFuzz, TruncationIsAlwaysDetected) {
  const std::string path = TempPath("pf_truncate.pgf");
  PageFile f;
  for (int i = 0; i < 3; ++i) {
    const PageId id = f.Allocate();
    uint8_t buf[kPageSize];
    FillPage(buf, static_cast<uint8_t>(0x40 + i));
    ASSERT_TRUE(f.Write(id, buf).ok());
  }
  ASSERT_TRUE(f.SaveTo(path).ok());

  const long data = static_cast<long>(kPgfDataOffset);
  const long full = data + 3 * static_cast<long>(kPageSize);
  for (long cut : {0L, 10L, 23L, 24L, 25L, data - 1L, data, data + 1L,
                   data + 4095L, data + static_cast<long>(kPageSize),
                   full - 1L}) {
    SCOPED_TRACE(cut);
    const std::string cut_path = TempPath("pf_truncate_cut.pgf");
    // Copy the first `cut` bytes.
    std::FILE* in = std::fopen(path.c_str(), "rb");
    std::FILE* out = std::fopen(cut_path.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    std::vector<uint8_t> bytes(static_cast<size_t>(cut));
    if (cut > 0) {
      ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out),
                bytes.size());
    }
    std::fclose(in);
    std::fclose(out);
    PageFile g;
    const Status s = g.LoadFrom(cut_path);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    std::remove(cut_path.c_str());
  }

  // Trailing garbage is also rejected.
  std::FILE* fp = std::fopen(path.c_str(), "ab");
  ASSERT_NE(fp, nullptr);
  const char extra[] = "extra";
  ASSERT_EQ(std::fwrite(extra, 1, sizeof(extra), fp), sizeof(extra));
  std::fclose(fp);
  PageFile g;
  const Status s = g.LoadFrom(path);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("trailing"), std::string::npos) << s.message();
  std::remove(path.c_str());
}

TEST(PageFileLoadFuzz, ZeroLengthFileRejectedWithTypedError) {
  // A zero-byte file is what a crash between open and the first header
  // write leaves behind. It must be a typed error, never a crash.
  const std::string path = TempPath("pf_zero.pgf");
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  std::fclose(fp);
  PageFile f;
  const Status s = f.LoadFrom(path);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::remove(path.c_str());
}

TEST(PageFileLoadFuzz, HeaderClaimingMorePagesThanFileHoldsRejected) {
  // A truncated checkpoint: plausible header, fewer page bytes than it
  // declares. The size check must catch it before any page is trusted.
  const std::string path = TempPath("pf_short_pages.pgf");
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  uint8_t header[kPageSize];
  EncodePgfHeaderBlock(/*num_pages=*/5, header);
  ASSERT_EQ(std::fwrite(header, kPageSize, 1, fp), 1u);
  std::vector<uint8_t> two_pages(2 * kPageSize, 0x7E);
  ASSERT_EQ(std::fwrite(two_pages.data(), 1, two_pages.size(), fp),
            two_pages.size());
  std::fclose(fp);
  PageFile f;
  const Status s = f.LoadFrom(path);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.message();
  std::remove(path.c_str());
}

TEST(PageFileSaveAtomicity, FailedSaveLeavesPreviousFileLoadable) {
  // SaveTo must never touch `path` until the replacement image is complete:
  // inject a mid-save failure by planting a directory where SaveTo puts its
  // temp file, and verify the old image still loads bit-for-bit.
  const std::string path = TempPath("pf_atomic.pgf");
  PageFile old_file;
  const PageId id = old_file.Allocate();
  uint8_t buf[kPageSize];
  FillPage(buf, 0x77);
  ASSERT_TRUE(old_file.Write(id, buf).ok());
  ASSERT_TRUE(old_file.SaveTo(path).ok());

  const std::string tmp = path + ".tmp";
  ASSERT_EQ(std::remove(tmp.c_str()), -1);  // SaveTo cleaned up after itself.
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  PageFile replacement;
  const PageId rid = replacement.Allocate();
  FillPage(buf, 0x99);
  ASSERT_TRUE(replacement.Write(rid, buf).ok());
  const Status s = replacement.SaveTo(path);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);

  PageFile g;
  ASSERT_TRUE(g.LoadFrom(path).ok());
  auto read = g.Read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->data[10], 0x77);  // The old bytes, untouched.
  std::remove(path.c_str());
}

TEST(PageFileLoadFuzz, AbsurdHeaderPageCountRejected) {
  const std::string path = TempPath("pf_absurd.pgf");
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  uint8_t header[kPageSize];
  EncodePgfHeaderBlock(1ULL << 40, header);  // 4 PiB of pages: nonsense.
  ASSERT_EQ(std::fwrite(header, kPageSize, 1, fp), 1u);
  std::fclose(fp);
  PageFile f;
  const Status s = f.LoadFrom(path);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("absurd"), std::string::npos) << s.message();
  std::remove(path.c_str());
}

TEST(PageFileLoadFuzz, BitFlipsAreDetectedOrProvablyHarmless) {
  const std::string path = TempPath("pf_bitflip.pgf");
  PageFile f;
  for (int i = 0; i < 3; ++i) {
    const PageId id = f.Allocate();
    uint8_t buf[kPageSize];
    FillPage(buf, static_cast<uint8_t>(0x60 + i));
    ASSERT_TRUE(f.Write(id, buf).ok());
  }
  ASSERT_TRUE(f.SaveTo(path).ok());

  // Flip one bit at assorted offsets: header fields, payload bytes of
  // several pages, and checksum trailers. Every flip must either fail the
  // load with a typed error or leave all delivered page bytes identical
  // (flips in dead header space are undetectable but harmless).
  const size_t data = kPgfDataOffset;
  const size_t offsets[] = {
      0,                            // Magic.
      8,                            // Version.
      12,                           // Reserved (harmless).
      16,                           // num_pages (size check catches it).
      24,                           // Header block padding (harmless).
      data - 1,                     // Last padding byte (harmless).
      data,                         // Page 0 payload.
      data + 2048,                  // Page 0 payload middle.
      data + kPageChecksumOffset,   // Page 0 stored checksum.
      data + kPageSize + 1,         // Page 1 payload.
      data + 2 * kPageSize + 4091,  // Page 2 payload last byte.
      data + 2 * kPageSize + kPageChecksumOffset + 3,  // Page 2 checksum.
  };
  for (const size_t offset : offsets) {
    SCOPED_TRACE(offset);
    std::FILE* fp = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fseek(fp, static_cast<long>(offset), SEEK_SET), 0);
    uint8_t byte;
    ASSERT_EQ(std::fread(&byte, 1, 1, fp), 1u);
    byte ^= 0x10;
    ASSERT_EQ(std::fseek(fp, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&byte, 1, 1, fp), 1u);
    std::fclose(fp);

    PageFile g;
    const Status s = g.LoadFrom(path);
    if (s.ok()) {
      ASSERT_EQ(g.num_pages(), f.num_pages());
      for (PageId id = 0; id < 3; ++id) {
        auto original = f.Read(id);
        auto reloaded = g.Read(id);
        ASSERT_TRUE(original.ok());
        ASSERT_TRUE(reloaded.ok());
        EXPECT_EQ(
            std::memcmp(original->data, reloaded->data, kPageSize), 0);
      }
    } else {
      EXPECT_TRUE(s.IsCorruption() || s.IsNotSupported()) << s.ToString();
    }

    // Restore the byte for the next iteration.
    fp = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    byte ^= 0x10;
    ASSERT_EQ(std::fseek(fp, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&byte, 1, 1, fp), 1u);
    std::fclose(fp);
  }
  std::remove(path.c_str());
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
      const PageId id = file_.Allocate();
      uint8_t buf[kPageSize];
      FillPage(buf, static_cast<uint8_t>(i));
      ASSERT_TRUE(file_.Write(id, buf).ok());
    }
    file_.ResetStats();
  }

  PageFile file_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(&file_, 4);
  auto r1 = pool.Read(3);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->physical);
  EXPECT_EQ(r1->data[0], 3);
  auto r2 = pool.Read(3);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->physical);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(file_.stats().physical_reads, 1u);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(&file_, 2);
  ASSERT_TRUE(pool.Read(0).ok());  // Cache: {0}
  ASSERT_TRUE(pool.Read(1).ok());  // Cache: {1, 0}
  ASSERT_TRUE(pool.Read(0).ok());  // Hit; order {0, 1}
  ASSERT_TRUE(pool.Read(2).ok());  // Evicts 1. Cache {2, 0}
  EXPECT_FALSE(pool.Read(0)->physical);  // Still cached.
  EXPECT_TRUE(pool.Read(1)->physical);   // Was evicted.
}

TEST_F(BufferPoolTest, CapacityRespected) {
  BufferPool pool(&file_, 3);
  for (PageId id = 0; id < 10; ++id) ASSERT_TRUE(pool.Read(id).ok());
  EXPECT_EQ(pool.cached_pages(), 3u);
}

TEST_F(BufferPoolTest, ClearDropsEverything) {
  BufferPool pool(&file_, 4);
  ASSERT_TRUE(pool.Read(0).ok());
  ASSERT_TRUE(pool.Read(1).ok());
  pool.Clear();
  EXPECT_EQ(pool.cached_pages(), 0u);
  EXPECT_TRUE(pool.Read(0)->physical);
}

TEST_F(BufferPoolTest, InvalidateDropsOnePage) {
  BufferPool pool(&file_, 4);
  ASSERT_TRUE(pool.Read(0).ok());
  ASSERT_TRUE(pool.Read(1).ok());
  pool.Invalidate(0);
  EXPECT_TRUE(pool.Read(0)->physical);   // Re-fetched.
  EXPECT_FALSE(pool.Read(1)->physical);  // Still cached.
}

TEST_F(BufferPoolTest, ServesFreshDataAfterInvalidation) {
  BufferPool pool(&file_, 4);
  ASSERT_TRUE(pool.Read(5).ok());
  uint8_t buf[kPageSize];
  FillPage(buf, 0x99);
  ASSERT_TRUE(file_.Write(5, buf).ok());
  // Without invalidation the pool would serve stale bytes.
  EXPECT_EQ(pool.Read(5)->data[0], 5);
  pool.Invalidate(5);
  EXPECT_EQ(pool.Read(5)->data[0], 0x99);
}

}  // namespace
}  // namespace dqmo
