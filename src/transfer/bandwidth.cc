#include "transfer/bandwidth.h"

#include <cassert>

namespace p2p {
namespace transfer {

LinkProfile LinkProfile::Dsl2009() {
  return LinkProfile{"dsl-2009", 256.0 * 1024.0, 32.0 * 1024.0};
}

LinkProfile LinkProfile::ModernDsl() {
  return LinkProfile{"dsl-modern", 4 * 256.0 * 1024.0, 4 * 32.0 * 1024.0};
}

LinkProfile LinkProfile::Ftth() {
  return LinkProfile{"ftth", 12.5e6, 12.5e6};  // ~100 Mb/s each way
}

RepairCostModel::RepairCostModel(const LinkProfile& link, uint64_t archive_bytes,
                                 int k, int m)
    : link_(link), archive_bytes_(archive_bytes), k_(k), m_(m) {
  assert(k >= 1 && m >= 0);
  assert(link.download_bytes_per_s > 0 && link.upload_bytes_per_s > 0);
  block_bytes_ = archive_bytes_ / static_cast<uint64_t>(k_);
}

double RepairCostModel::DownloadSeconds() const {
  return static_cast<double>(block_bytes_) * k_ / link_.download_bytes_per_s;
}

double RepairCostModel::UploadSeconds(int d) const {
  return static_cast<double>(block_bytes_) * d / link_.upload_bytes_per_s;
}

double RepairCostModel::RepairSeconds(int d) const {
  return DownloadSeconds() + UploadSeconds(d);
}

double RepairCostModel::MaxRepairsPerDay(int d) const {
  return 86400.0 / RepairSeconds(d);
}

double RepairCostModel::InitialUploadSeconds(int archives) const {
  return UploadSeconds((k_ + m_) * archives);
}

double RepairCostModel::RestoreSeconds(int archives) const {
  return DownloadSeconds() * archives;
}

}  // namespace transfer
}  // namespace p2p
