#include "storage/wal.h"

#include <unistd.h>

#include <cstring>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "common/types.h"
#include "storage/fault.h"

namespace dqmo {
namespace {

/// Process-wide WAL metrics (aggregate across writers; per-writer deltas
/// stay in the IoStats each writer was opened with).
struct WalMetrics {
  Counter* appends;
  Counter* syncs;
  Counter* synced_bytes;
  Histogram* sync_ns;

  static WalMetrics& Get() {
    static WalMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return WalMetrics{
          r.GetCounter("dqmo_wal_appends_total",
                       "Records buffered by WalWriter::Append*"),
          r.GetCounter("dqmo_wal_syncs_total",
                       "Batches made durable by WalWriter::Sync"),
          r.GetCounter("dqmo_wal_synced_bytes_total",
                       "Bytes pushed to the log by successful syncs"),
          r.GetHistogram("dqmo_wal_sync_ns",
                         "WalWriter::Sync latency (write + flush + fsync)"),
      };
    }();
    return m;
  }
};

constexpr uint64_t kWalMagic = 0x4451'4d4f'5741'4c31ULL;  // "DQMOWAL1"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderSize = 16;  // magic + version + reserved.
/// crc (u32) + payload_len (u32) + lsn (u64) + type (u8).
constexpr size_t kRecordHeaderSize = 17;
/// Payload sanity bound: an insert payload is at most 24 + 16 * 6 = 120
/// bytes; anything near a page is a damaged length field.
constexpr uint32_t kMaxWalPayload = 4096;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double GetF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Insert payload: u32 oid | u32 dims | f64 t_lo | f64 t_hi |
/// dims x f64 p0 | dims x f64 p1.
void EncodeInsertPayload(const MotionSegment& m, std::vector<uint8_t>* out) {
  PutU32(out, m.oid);
  PutU32(out, static_cast<uint32_t>(m.seg.dims()));
  PutF64(out, m.seg.time.lo);
  PutF64(out, m.seg.time.hi);
  for (int i = 0; i < m.seg.dims(); ++i) PutF64(out, m.seg.p0[i]);
  for (int i = 0; i < m.seg.dims(); ++i) PutF64(out, m.seg.p1[i]);
}

size_t InsertPayloadSize(int dims) {
  return 8 + 16 + 16 * static_cast<size_t>(dims);
}

/// Appends one framed record to `out`. The CRC covers everything after the
/// crc field itself, so a damaged length cannot silently re-frame the log.
void EncodeRecord(uint64_t lsn, WalRecordType type,
                  const std::vector<uint8_t>& payload,
                  std::vector<uint8_t>* out) {
  std::vector<uint8_t> body;
  body.reserve(kRecordHeaderSize - 4 + payload.size());
  PutU32(&body, static_cast<uint32_t>(payload.size()));
  PutU64(&body, lsn);
  body.push_back(static_cast<uint8_t>(type));
  body.insert(body.end(), payload.begin(), payload.end());
  PutU32(out, Crc32c(body.data(), body.size()));
  out->insert(out->end(), body.begin(), body.end());
}

/// Returns true when any CRC-valid record starts in (0, size) of `data`,
/// the bytes from a bad frame to EOF: the discriminator between a torn
/// tail (nothing well-formed follows the damage) and mid-log corruption
/// (acknowledged data follows a hole).
bool AnyValidRecordAfter(const uint8_t* data, size_t size) {
  for (size_t c = 1; c + kRecordHeaderSize <= size; ++c) {
    const uint32_t len = GetU32(data + c + 4);
    if (len > kMaxWalPayload) continue;
    if (c + kRecordHeaderSize + len > size) continue;
    const uint32_t crc = GetU32(data + c);
    if (Crc32c(data + c + 4, kRecordHeaderSize - 4 + len) == crc) {
      return true;
    }
  }
  return false;
}

/// Decodes the payload of a CRC-valid record. A valid CRC with a malformed
/// payload (impossible dims, size mismatch, unknown type) is corruption,
/// not a torn write: the frame was intact, the content is wrong.
Status DecodePayload(const uint8_t* payload, uint32_t len, uint64_t offset,
                     WalRecord* rec) {
  switch (rec->type) {
    case WalRecordType::kInsert: {
      if (len < 8) {
        return Status::Corruption(StrFormat(
            "WAL insert record at offset %llu: payload too short (%u bytes)",
            static_cast<unsigned long long>(offset), len));
      }
      const uint32_t oid = GetU32(payload);
      const uint32_t dims = GetU32(payload + 4);
      if (dims < 1 || dims > static_cast<uint32_t>(kMaxSpatialDims) ||
          len != InsertPayloadSize(static_cast<int>(dims))) {
        return Status::Corruption(StrFormat(
            "WAL insert record at offset %llu: dims %u / length %u "
            "inconsistent",
            static_cast<unsigned long long>(offset), dims, len));
      }
      Vec p0(static_cast<int>(dims));
      Vec p1(static_cast<int>(dims));
      const Interval time{GetF64(payload + 8), GetF64(payload + 16)};
      for (uint32_t i = 0; i < dims; ++i) {
        p0[static_cast<int>(i)] = GetF64(payload + 24 + 8 * i);
        p1[static_cast<int>(i)] = GetF64(payload + 24 + 8 * (dims + i));
      }
      rec->motion = MotionSegment(oid, StSegment(p0, p1, time));
      return Status::OK();
    }
    case WalRecordType::kCheckpoint: {
      if (len != 16) {
        return Status::Corruption(StrFormat(
            "WAL checkpoint record at offset %llu: payload length %u != 16",
            static_cast<unsigned long long>(offset), len));
      }
      rec->checkpoint_lsn = GetU64(payload);
      rec->checkpoint_segments = GetU64(payload + 8);
      return Status::OK();
    }
  }
  return Status::Corruption(StrFormat(
      "WAL record at offset %llu: unknown type %u",
      static_cast<unsigned long long>(offset),
      static_cast<unsigned>(rec->type)));
}

/// RAII wrapper over std::FILE.
class File {
 public:
  File(const char* path, const char* mode) : f_(std::fopen(path, mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() { return f_; }

  long Size() {
    if (std::fseek(f_, 0, SEEK_END) != 0) return -1;
    const long size = std::ftell(f_);
    if (std::fseek(f_, 0, SEEK_SET) != 0) return -1;
    return size;
  }

 private:
  std::FILE* f_;
};

Status FlushFsync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    return Status::IOError("fflush failed on " + path);
  }
  if (::fsync(::fileno(f)) != 0) {
    return Status::IOError("fsync failed on " + path);
  }
  return Status::OK();
}

/// Writes a fresh header-only log at `tmp` and renames it over `path`:
/// shared by log creation and Reset so both are atomic.
Status WriteFreshLog(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    File f(tmp.c_str(), "wb");
    if (!f.ok()) {
      return Status::IOError("cannot open " + tmp + " for write");
    }
    std::vector<uint8_t> header;
    PutU64(&header, kWalMagic);
    PutU32(&header, kWalVersion);
    PutU32(&header, 0);  // reserved
    if (std::fwrite(header.data(), 1, header.size(), f.get()) !=
        header.size()) {
      return Status::IOError("short header write to " + tmp);
    }
    DQMO_RETURN_IF_ERROR(FlushFsync(f.get(), tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " over " + path);
  }
  return Status::OK();
}

}  // namespace

Result<WalScan> ScanWal(const std::string& path, const WalRecordSink& sink) {
  WalScan scan;
  File f(path.c_str(), "rb");
  if (!f.ok()) return scan;  // Absent log: nothing was ever acknowledged.
  const long fsize = f.Size();
  if (fsize < 0) return Status::IOError("cannot stat " + path);
  const uint64_t size = static_cast<uint64_t>(fsize);
  if (size < kWalHeaderSize) {
    // A crash can interrupt log creation mid-header; no record can have
    // been acknowledged from a log whose header never finished.
    scan.torn_bytes = size;
    scan.torn_tail = size > 0;
    return scan;
  }
  uint8_t header[kWalHeaderSize];
  if (std::fread(header, 1, kWalHeaderSize, f.get()) != kWalHeaderSize) {
    return Status::IOError("short read from " + path);
  }
  if (GetU64(header) != kWalMagic) {
    return Status::Corruption(path + " is not a DQMO WAL file");
  }
  const uint32_t version = GetU32(header + 8);
  if (version != kWalVersion) {
    return Status::NotSupported(
        StrFormat("WAL version %u unsupported", version));
  }

  // One frame resident at a time. Only the torn-vs-hole look-ahead below
  // ever reads more, and only on a damaged log.
  std::vector<uint8_t> frame(kRecordHeaderSize + kMaxWalPayload);
  uint64_t offset = kWalHeaderSize;
  while (offset < size) {
    bool bad = false;
    uint32_t len = 0;
    if (offset + kRecordHeaderSize > size) {
      bad = true;  // Frame header cut off by EOF.
    } else {
      if (std::fread(frame.data(), 1, kRecordHeaderSize, f.get()) !=
          kRecordHeaderSize) {
        return Status::IOError("short read from " + path);
      }
      len = GetU32(frame.data() + 4);
      if (len > kMaxWalPayload || offset + kRecordHeaderSize + len > size) {
        bad = true;
      } else {
        if (len > 0 &&
            std::fread(frame.data() + kRecordHeaderSize, 1, len, f.get()) !=
                len) {
          return Status::IOError("short read from " + path);
        }
        bad = Crc32c(frame.data() + 4, kRecordHeaderSize - 4 + len) !=
              GetU32(frame.data());
      }
    }
    if (bad) {
      std::vector<uint8_t> rest(size - offset);
      if (std::fseek(f.get(), static_cast<long>(offset), SEEK_SET) != 0 ||
          std::fread(rest.data(), 1, rest.size(), f.get()) != rest.size()) {
        return Status::IOError("short read from " + path);
      }
      if (AnyValidRecordAfter(rest.data(), rest.size())) {
        return Status::Corruption(StrFormat(
            "%s: corrupt WAL record at offset %llu with well-formed records "
            "after it — refusing to replay past a hole",
            path.c_str(), static_cast<unsigned long long>(offset)));
      }
      scan.torn_bytes = size - offset;
      scan.torn_tail = true;
      break;
    }
    WalRecord rec;
    rec.lsn = GetU64(frame.data() + 8);
    rec.type = static_cast<WalRecordType>(frame[16]);
    DQMO_RETURN_IF_ERROR(
        DecodePayload(frame.data() + kRecordHeaderSize, len, offset, &rec));
    if (scan.last_lsn != 0 && rec.lsn != scan.last_lsn + 1) {
      return Status::Corruption(StrFormat(
          "%s: LSN discontinuity at offset %llu (%llu after %llu)",
          path.c_str(), static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(rec.lsn),
          static_cast<unsigned long long>(scan.last_lsn)));
    }
    if (scan.records == 0) scan.first_lsn = rec.lsn;
    scan.last_lsn = rec.lsn;
    ++scan.records;
    if (rec.type == WalRecordType::kInsert) {
      ++scan.inserts;
    } else {
      ++scan.checkpoints;
      scan.last_ckpt_lsn = rec.checkpoint_lsn;
      scan.last_ckpt_segments = rec.checkpoint_segments;
    }
    if (sink) DQMO_RETURN_IF_ERROR(sink(rec));
    offset += kRecordHeaderSize + len;
  }
  scan.good_bytes = size - scan.torn_bytes;
  return scan;
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path, IoStats* stats,
                       const Options& options, const WalRecordSink& replay,
                       WalScan* scanned) {
  Close();
  path_ = path;
  stats_ = stats;
  batch_.clear();
  pending_records_ = 0;

  DQMO_ASSIGN_OR_RETURN(WalScan scan, ScanWal(path, replay));
  if (scanned != nullptr) *scanned = scan;
  const bool exists = File(path.c_str(), "rb").ok();
  if (!exists || scan.good_bytes < kWalHeaderSize) {
    // Absent, zero-length, or so short even the header is torn: start
    // fresh so appends always land after a well-formed header.
    DQMO_RETURN_IF_ERROR(WriteFreshLog(path));
  } else if (scan.torn_tail) {
    // Drop the torn record(s) before the first new append lands after
    // them; ::truncate keeps the good prefix in place.
    if (::truncate(path.c_str(),
                   static_cast<off_t>(scan.good_bytes)) != 0) {
      return Status::IOError("cannot truncate torn tail of " + path);
    }
  }
  next_lsn_ = scan.last_lsn + 1;
  if (next_lsn_ < options.min_next_lsn) next_lsn_ = options.min_next_lsn;
  synced_lsn_ = scan.last_lsn;

  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IOError("cannot open " + path + " for append");
  }
  return Status::OK();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  batch_.clear();
  pending_records_ = 0;
}

Result<uint64_t> WalWriter::AppendInsert(const MotionSegment& m) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  std::vector<uint8_t> payload;
  payload.reserve(InsertPayloadSize(m.seg.dims()));
  EncodeInsertPayload(m, &payload);
  const uint64_t lsn = next_lsn_++;
  EncodeRecord(lsn, WalRecordType::kInsert, payload, &batch_);
  ++pending_records_;
  if (stats_ != nullptr) {
    stats_->wal_appends.fetch_add(1, std::memory_order_relaxed);
  }
  WalMetrics::Get().appends->Add();
  return lsn;
}

Result<uint64_t> WalWriter::AppendCheckpoint(uint64_t checkpoint_lsn,
                                             uint64_t checkpoint_segments) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  std::vector<uint8_t> payload;
  PutU64(&payload, checkpoint_lsn);
  PutU64(&payload, checkpoint_segments);
  const uint64_t lsn = next_lsn_++;
  EncodeRecord(lsn, WalRecordType::kCheckpoint, payload, &batch_);
  ++pending_records_;
  if (stats_ != nullptr) {
    stats_->wal_appends.fetch_add(1, std::memory_order_relaxed);
  }
  WalMetrics::Get().appends->Add();
  return lsn;
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (batch_.empty()) return Status::OK();
  const uint64_t tick = TickNs();
  Tracer::SpanScope span(SpanKind::kWalSync, batch_.size());
  CrashPoints::Hit(crash_points::kWalBeforeSync);
  if (CrashPoints::ConsumeHit(crash_points::kWalTornWrite)) {
    // Model a write torn by power loss: push roughly half the batch's
    // bytes all the way to the kernel, then die. Recovery must truncate
    // the cut record; nothing in this batch was acknowledged.
    const size_t half = batch_.size() / 2;
    if (half > 0) {
      std::fwrite(batch_.data(), 1, half, file_);
      std::fflush(file_);
      ::fsync(::fileno(file_));
    }
    CrashPoints::Die();
  }
  DQMO_RETURN_IF_ERROR(WriteRaw(batch_.data(), batch_.size()));
  DQMO_RETURN_IF_ERROR(FlushFsync(file_, path_));
  CrashPoints::Hit(crash_points::kWalAfterSync);
  synced_lsn_ = next_lsn_ - 1;
  WalMetrics& wm = WalMetrics::Get();
  wm.syncs->Add();
  wm.synced_bytes->Add(batch_.size());
  wm.sync_ns->RecordSince(tick);
  FlightRecorder::Record(FlightEventKind::kWalSync, -1, batch_.size());
  batch_.clear();
  pending_records_ = 0;
  if (stats_ != nullptr) {
    stats_->wal_syncs.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status WalWriter::Reset() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  std::fclose(file_);
  file_ = nullptr;
  batch_.clear();
  pending_records_ = 0;
  DQMO_RETURN_IF_ERROR(WriteFreshLog(path_));
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IOError("cannot reopen " + path_ + " after reset");
  }
  // The LSN sequence continues: next_lsn_ is untouched, and everything
  // assigned so far is contained in the checkpoint image the caller just
  // installed.
  synced_lsn_ = next_lsn_ - 1;
  return Status::OK();
}

Status WalWriter::WriteRaw(const uint8_t* data, size_t n) {
  if (std::fwrite(data, 1, n, file_) != n) {
    return Status::IOError("short WAL write to " + path_);
  }
  return Status::OK();
}

}  // namespace dqmo
