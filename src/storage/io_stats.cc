#include "storage/io_stats.h"

#include "common/string_util.h"

namespace dqmo {

std::string IoStats::ToString() const {
  return StrFormat(
      "io{reads=%llu, writes=%llu, crc_fail=%llu, retries=%llu, "
      "wal_app=%llu, wal_sync=%llu, pf_issued=%llu, pf_hit=%llu, "
      "pf_wasted=%llu}",
      static_cast<unsigned long long>(physical_reads),
      static_cast<unsigned long long>(physical_writes),
      static_cast<unsigned long long>(checksum_failures),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(wal_appends),
      static_cast<unsigned long long>(wal_syncs),
      static_cast<unsigned long long>(prefetch_issued),
      static_cast<unsigned long long>(prefetch_hits),
      static_cast<unsigned long long>(prefetch_wasted));
}

}  // namespace dqmo
