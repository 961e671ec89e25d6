#include "storage/page.h"

#include "common/crc32c.h"
#include "common/string_util.h"

namespace dqmo {

uint32_t ComputePageChecksum(const uint8_t* page) {
  return Crc32c(page, kPagePayloadSize);
}

void SealPage(uint8_t* page) {
  const uint32_t crc = ComputePageChecksum(page);
  std::memcpy(page + kPageChecksumOffset, &crc, sizeof(crc));
}

uint32_t StoredPageChecksum(const uint8_t* page) {
  uint32_t crc;
  std::memcpy(&crc, page + kPageChecksumOffset, sizeof(crc));
  return crc;
}

bool PageChecksumOk(const uint8_t* page) {
  return StoredPageChecksum(page) == ComputePageChecksum(page);
}

Status PageChecksumError(PageId id, const uint8_t* page) {
  return Status::Corruption(
      StrFormat("page %u checksum mismatch (stored %08x, computed %08x)", id,
                StoredPageChecksum(page), ComputePageChecksum(page)));
}

}  // namespace dqmo
