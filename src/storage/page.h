// Fixed-size pages and typed little-endian accessors for on-page data.
#ifndef DQMO_STORAGE_PAGE_H_
#define DQMO_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/check.h"
#include "common/status.h"
#include "common/types.h"

namespace dqmo {

/// Page size in bytes. The paper's experiments use 4 KB pages; node fanout
/// (145 internal / 127 leaf) follows from this size and the entry layouts in
/// rtree/node.h.
inline constexpr size_t kPageSize = 4096;

/// Page format v2: the last 4 bytes of every page hold a CRC32C of the
/// preceding kPagePayloadSize bytes ("sealing"), verified on every physical
/// read so a flipped bit in a page body surfaces as Status::Corruption
/// instead of being deserialized into garbage geometry. The trailer lives
/// in space the node layouts never used (rtree/layout.h derives fanouts
/// from kPagePayloadSize), so v2 keeps the paper's 113/127 fanout, and v1
/// pages — whose trailer bytes were zeroed slack — remain readable.
inline constexpr size_t kPageTrailerSize = 4;
inline constexpr size_t kPagePayloadSize = kPageSize - kPageTrailerSize;
inline constexpr size_t kPageChecksumOffset = kPagePayloadSize;

/// CRC32C over a page's payload (everything except the trailer).
uint32_t ComputePageChecksum(const uint8_t* page);

/// Writes the payload checksum into the page's trailer.
void SealPage(uint8_t* page);

/// True iff the trailer matches the payload.
bool PageChecksumOk(const uint8_t* page);

/// Checksum currently stored in a page's trailer.
uint32_t StoredPageChecksum(const uint8_t* page);

/// The Corruption status every reader returns for page `id` whose trailer
/// does not match its payload; the message names both checksums.
Status PageChecksumError(PageId id, const uint8_t* page);

/// View over one page's bytes with bounds-checked typed reads/writes.
///
/// All on-page values are stored in native byte order; the page file is a
/// single-host format (matching the single-machine testbed of the paper).
class PageView {
 public:
  PageView(uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  T Read(size_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    DQMO_DCHECK(offset + sizeof(T) <= size_);
    T value;
    std::memcpy(&value, data_ + offset, sizeof(T));
    return value;
  }

  template <typename T>
  void Write(size_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    DQMO_DCHECK(offset + sizeof(T) <= size_);
    std::memcpy(data_ + offset, &value, sizeof(T));
  }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  uint8_t* data_;
  size_t size_;
};

}  // namespace dqmo

#endif  // DQMO_STORAGE_PAGE_H_
