// Tests for the write-ahead log: framing round-trips, group commit, the
// torn-tail contract (truncate-at-EOF damage, reject mid-log holes), and
// LSN sequencing across reopen and reset.
#include "storage/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "geom/segment.h"
#include "motion/motion_segment.h"
#include "storage/io_stats.h"
#include "test_util.h"

namespace dqmo {
namespace {

using testing::ScanWalRecords;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

MotionSegment Seg(ObjectId oid, double x, double t) {
  return MotionSegment(
      oid, StSegment(Vec(x, x + 1.0), Vec(x + 2.0, x + 3.0),
                     Interval(t, t + 1.0)));
}

void ExpectSegEq(const MotionSegment& a, const MotionSegment& b) {
  EXPECT_EQ(a.oid, b.oid);
  EXPECT_EQ(a.seg.dims(), b.seg.dims());
  EXPECT_EQ(a.seg.time.lo, b.seg.time.lo);
  EXPECT_EQ(a.seg.time.hi, b.seg.time.hi);
  for (int d = 0; d < a.seg.dims(); ++d) {
    EXPECT_EQ(a.seg.p0[d], b.seg.p0[d]);
    EXPECT_EQ(a.seg.p1[d], b.seg.p1[d]);
  }
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (!bytes.empty()) {
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

TEST(WalTest, MissingFileScansEmpty) {
  auto scan = ScanWalRecords(TempPath("wal_never_created.wal"));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->summary.last_lsn, 0u);
  EXPECT_FALSE(scan->summary.torn_tail);
}

TEST(WalTest, RoundTripsRecordsBitForBit) {
  const std::string path = TempPath("wal_roundtrip.wal");
  std::remove(path.c_str());
  std::vector<MotionSegment> segs;
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    for (int i = 0; i < 7; ++i) {
      segs.push_back(Seg(static_cast<ObjectId>(100 + i), 0.5 * i, 1.0 + i));
      auto lsn = w.AppendInsert(segs.back());
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
    }
    auto marker = w.AppendCheckpoint(7, 7);
    ASSERT_TRUE(marker.ok());
    EXPECT_EQ(*marker, 8u);
    ASSERT_TRUE(w.Sync().ok());
    EXPECT_EQ(w.synced_lsn(), 8u);
    EXPECT_EQ(w.pending_records(), 0u);
  }
  auto scan = ScanWalRecords(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 8u);
  EXPECT_FALSE(scan->summary.torn_tail);
  EXPECT_EQ(scan->summary.last_lsn, 8u);
  for (int i = 0; i < 7; ++i) {
    const WalRecord& rec = scan->records[static_cast<size_t>(i)];
    EXPECT_EQ(rec.lsn, static_cast<uint64_t>(i + 1));
    ASSERT_EQ(rec.type, WalRecordType::kInsert);
    ExpectSegEq(rec.motion, segs[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(scan->records[7].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(scan->records[7].checkpoint_lsn, 7u);
  EXPECT_EQ(scan->records[7].checkpoint_segments, 7u);
  std::remove(path.c_str());
}

TEST(WalTest, GroupCommitBuffersUntilSync) {
  const std::string path = TempPath("wal_group.wal");
  std::remove(path.c_str());
  WalWriter w;
  IoStats stats;
  ASSERT_TRUE(w.Open(path, &stats).ok());
  ASSERT_TRUE(w.AppendInsert(Seg(1, 0.0, 1.0)).ok());
  ASSERT_TRUE(w.AppendInsert(Seg(2, 1.0, 2.0)).ok());
  EXPECT_EQ(w.pending_records(), 2u);
  EXPECT_EQ(w.synced_lsn(), 0u);
  {
    // Nothing on disk yet: the batch lives in memory until Sync.
    auto scan = ScanWalRecords(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->records.empty());
  }
  ASSERT_TRUE(w.Sync().ok());
  EXPECT_EQ(w.synced_lsn(), 2u);
  auto scan = ScanWalRecords(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 2u);
  // WAL I/O is accounted separately from page I/O.
  EXPECT_EQ(stats.wal_appends, 2u);
  EXPECT_EQ(stats.wal_syncs, 1u);
  EXPECT_EQ(stats.physical_reads, 0u);
  EXPECT_EQ(stats.physical_writes, 0u);
  // An empty Sync is a no-op, not another sync.
  ASSERT_TRUE(w.Sync().ok());
  EXPECT_EQ(stats.wal_syncs, 1u);
  std::remove(path.c_str());
}

TEST(WalTest, ReopenContinuesLsnSequence) {
  const std::string path = TempPath("wal_reopen.wal");
  std::remove(path.c_str());
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.AppendInsert(Seg(1, 0.0, 1.0)).ok());
    ASSERT_TRUE(w.AppendInsert(Seg(2, 1.0, 2.0)).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  WalWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  EXPECT_EQ(w.next_lsn(), 3u);
  EXPECT_EQ(w.synced_lsn(), 2u);
  auto lsn = w.AppendInsert(Seg(3, 2.0, 3.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  ASSERT_TRUE(w.Sync().ok());
  auto scan = ScanWalRecords(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->summary.last_lsn, 3u);
  std::remove(path.c_str());
}

TEST(WalTest, MinNextLsnFloorsFreshAndReopenedLogs) {
  const std::string path = TempPath("wal_floor.wal");
  std::remove(path.c_str());
  WalWriter w;
  WalWriter::Options options;
  options.min_next_lsn = 41;
  ASSERT_TRUE(w.Open(path, nullptr, options).ok());
  EXPECT_EQ(w.next_lsn(), 41u);
  auto lsn = w.AppendInsert(Seg(1, 0.0, 1.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 41u);
  ASSERT_TRUE(w.Sync().ok());
  // The scanned log's own sequence wins when it is ahead of the floor.
  WalWriter w2;
  options.min_next_lsn = 5;
  ASSERT_TRUE(w2.Open(path, nullptr, options).ok());
  EXPECT_EQ(w2.next_lsn(), 42u);
  std::remove(path.c_str());
}

TEST(WalTest, ResetEmptiesLogAndKeepsLsnSequence) {
  const std::string path = TempPath("wal_reset.wal");
  std::remove(path.c_str());
  WalWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.AppendInsert(Seg(1, 0.0, 1.0)).ok());
  ASSERT_TRUE(w.AppendInsert(Seg(2, 1.0, 2.0)).ok());
  ASSERT_TRUE(w.Sync().ok());
  ASSERT_TRUE(w.Reset().ok());
  {
    auto scan = ScanWalRecords(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->records.empty());
  }
  auto lsn = w.AppendInsert(Seg(3, 2.0, 3.0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);  // Sequence continued, never reused.
  ASSERT_TRUE(w.Sync().ok());
  auto scan = ScanWalRecords(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].lsn, 3u);
  std::remove(path.c_str());
}

TEST(WalTornTail, EveryTruncationOffsetRecoversCleanly) {
  // The acceptance bar: a WAL whose tail is cut at EVERY possible byte
  // offset scans without error, delivering exactly the records that lie
  // wholly before the cut — and a writer reopening it truncates the tear
  // and appends cleanly after.
  const std::string path = TempPath("wal_torn_master.wal");
  std::remove(path.c_str());
  std::vector<size_t> record_ends;  // Byte offset after each record.
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          w.AppendInsert(Seg(static_cast<ObjectId>(i + 1), 0.5 * i, 1.0 + i))
              .ok());
      ASSERT_TRUE(w.Sync().ok());
      record_ends.push_back(ReadAll(path).size());
    }
  }
  const std::vector<uint8_t> master = ReadAll(path);
  const std::string cut_path = TempPath("wal_torn_cut.wal");
  for (size_t cut = 0; cut < master.size(); ++cut) {
    SCOPED_TRACE(cut);
    WriteAll(cut_path,
             std::vector<uint8_t>(master.begin(),
                                  master.begin() + static_cast<long>(cut)));
    auto scan = ScanWalRecords(cut_path);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    size_t expect_records = 0;
    for (const size_t end : record_ends) {
      if (end <= cut) ++expect_records;
    }
    EXPECT_EQ(scan->records.size(), expect_records);
    EXPECT_EQ(scan->summary.records, expect_records);
    EXPECT_EQ(scan->summary.last_lsn, expect_records);
    // The good prefix and the dropped tail partition the file.
    EXPECT_EQ(scan->summary.good_bytes + scan->summary.torn_bytes, cut);
    // Torn iff the cut is not at a record (or header) boundary.
    const bool at_boundary =
        cut == 0 || cut == 16 ||
        std::find(record_ends.begin(), record_ends.end(), cut) !=
            record_ends.end();
    EXPECT_EQ(scan->summary.torn_tail, !at_boundary);

    // A writer opening the torn log truncates the tear and appends after
    // the surviving prefix.
    WalWriter w;
    ASSERT_TRUE(w.Open(cut_path).ok());
    EXPECT_EQ(w.next_lsn(), expect_records + 1);
    ASSERT_TRUE(
        w.AppendInsert(Seg(999, 50.0, 50.0)).ok());
    ASSERT_TRUE(w.Sync().ok());
    w.Close();
    auto rescan = ScanWalRecords(cut_path);
    ASSERT_TRUE(rescan.ok()) << rescan.status().ToString();
    ASSERT_EQ(rescan->records.size(), expect_records + 1);
    EXPECT_FALSE(rescan->summary.torn_tail);
    EXPECT_EQ(rescan->records.back().motion.oid, 999u);
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(WalCorruption, MidLogDamageFailsWithTypedStatus) {
  // Damage to any record that is FOLLOWED by a well-formed record is a
  // hole, not a tear: replaying past it would drop acknowledged inserts,
  // so the scan must refuse with Corruption.
  const std::string path = TempPath("wal_midlog.wal");
  std::remove(path.c_str());
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          w.AppendInsert(Seg(static_cast<ObjectId>(i + 1), 0.5 * i, 1.0 + i))
              .ok());
    }
    ASSERT_TRUE(w.Sync().ok());
  }
  const std::vector<uint8_t> master = ReadAll(path);
  // Every record is 17 + 56 = 73 bytes here (2-d insert); damage a byte of
  // the first and of the middle record: payloads, CRC field, length field.
  for (const size_t offset : {16u + 4u, 16u + 30u, 16u + 0u,
                              16u + 73u + 30u, 16u + 73u + 8u}) {
    SCOPED_TRACE(offset);
    std::vector<uint8_t> damaged = master;
    ASSERT_LT(offset, damaged.size());
    damaged[offset] ^= 0x01;
    WriteAll(path, damaged);
    auto scan = ScanWalRecords(path);
    EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
    // A writer must refuse such a log too — never truncate a hole away.
    WalWriter w;
    EXPECT_TRUE(w.Open(path).IsCorruption());
  }
  // The FINAL record's at-rest damage is indistinguishable from a torn
  // write and is (documented to be) truncated.
  std::vector<uint8_t> damaged = master;
  damaged[16 + 2 * 73 + 30] ^= 0x01;
  WriteAll(path, damaged);
  auto scan = ScanWalRecords(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_TRUE(scan->summary.torn_tail);
  std::remove(path.c_str());
}

TEST(WalCorruption, ForeignAndUnsupportedHeadersRejected) {
  const std::string path = TempPath("wal_header.wal");
  // Zero-length: empty scan, not an error (crash before header write).
  WriteAll(path, {});
  {
    auto scan = ScanWalRecords(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->records.empty());
    EXPECT_FALSE(scan->summary.torn_tail);
  }
  // Partial header: torn creation, still scans empty.
  WriteAll(path, {0x44, 0x51, 0x4d});
  {
    auto scan = ScanWalRecords(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan->records.empty());
    EXPECT_TRUE(scan->summary.torn_tail);
    EXPECT_EQ(scan->summary.torn_bytes, 3u);
  }
  // A writer opening either starts a fresh log.
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    EXPECT_EQ(w.next_lsn(), 1u);
  }
  // Foreign magic: typed Corruption.
  std::vector<uint8_t> foreign(32, 0xAA);
  WriteAll(path, foreign);
  EXPECT_TRUE(ScanWal(path).status().IsCorruption());
  // Right magic, future version: typed NotSupported.
  std::vector<uint8_t> future;
  const uint64_t magic = 0x4451'4d4f'5741'4c31ULL;
  future.resize(16, 0);
  std::memcpy(future.data(), &magic, 8);
  future[8] = 99;
  WriteAll(path, future);
  EXPECT_TRUE(ScanWal(path).status().IsNotSupported());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dqmo
