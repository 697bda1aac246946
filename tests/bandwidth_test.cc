// The section-2.2.4 cost model against the paper's worked example: on the
// 2009 reference DSL link (256 kB/s down, 32 kB/s up), a 128 MB archive in
// k = 128 blocks gives delta_download > 512 s and delta_upload > d x 32 s,
// so "with d < 128, a total repair time should last 69 + 8 = 77 minutes" -
// and at most ~20 repair operations fit in a day.

#include <gtest/gtest.h>

#include "transfer/bandwidth.h"

namespace p2p {
namespace transfer {
namespace {

constexpr uint64_t kArchiveBytes = 128ull << 20;  // 128 MB
constexpr int kK = 128;
constexpr int kM = 128;

RepairCostModel PaperModel() {
  return RepairCostModel(LinkProfile::Dsl2009(), kArchiveBytes, kK, kM);
}

TEST(BandwidthTest, BlockSizeIsOneMegabyte) {
  EXPECT_EQ(PaperModel().block_bytes(), 1ull << 20);
}

TEST(BandwidthTest, PaperDownloadPhase) {
  // 128 blocks of 1 MB at 256 kB/s: exactly 512 seconds (~8.5 minutes).
  EXPECT_DOUBLE_EQ(PaperModel().DownloadSeconds(), 512.0);
}

TEST(BandwidthTest, PaperUploadPhase) {
  // d x 32 seconds per regenerated block at 32 kB/s.
  const RepairCostModel model = PaperModel();
  EXPECT_DOUBLE_EQ(model.UploadSeconds(1), 32.0);
  EXPECT_DOUBLE_EQ(model.UploadSeconds(128), 4096.0);
}

TEST(BandwidthTest, PaperWorkedExampleSeventySevenMinutes) {
  // The full worst-case maintenance repair (d = 128): 512 + 4096 = 4608 s
  // = 76.8 minutes - the paper's "77 minutes".
  const double minutes = PaperModel().RepairSeconds(128) / 60.0;
  EXPECT_NEAR(minutes, 76.8, 0.01);
  EXPECT_LT(minutes, 77.0);
  EXPECT_GT(minutes, 69.0 + 8.0 - 1.0);  // the "69 + 8" decomposition
}

TEST(BandwidthTest, PaperRepairsPerDayCeiling) {
  // 86400 / 4608 = 18.75 full repairs per day: the paper's <= 20 ceiling.
  const RepairCostModel model = PaperModel();
  EXPECT_DOUBLE_EQ(model.MaxRepairsPerDay(128), 18.75);
  EXPECT_LE(model.MaxRepairsPerDay(128), 20.0);
  // Smaller repairs fit more often but the download phase keeps a hard cap:
  // even d = 1 cannot beat 86400 / 544 ~ 158 repairs/day.
  EXPECT_NEAR(model.MaxRepairsPerDay(1), 86400.0 / 544.0, 1e-9);
}

TEST(BandwidthTest, InitialUploadAndRestore) {
  // Joining uploads all n = k + m blocks: 256 x 32 s = 8192 s per archive.
  const RepairCostModel model = PaperModel();
  EXPECT_DOUBLE_EQ(model.InitialUploadSeconds(1), 8192.0);
  EXPECT_DOUBLE_EQ(model.InitialUploadSeconds(4), 4 * 8192.0);
  // Restoring downloads k blocks per archive: 512 s each.
  EXPECT_DOUBLE_EQ(model.RestoreSeconds(1), 512.0);
  EXPECT_DOUBLE_EQ(model.RestoreSeconds(32), 32 * 512.0);
}

TEST(BandwidthTest, ModernDslIsFourTimesFaster) {
  const RepairCostModel paper = PaperModel();
  const RepairCostModel modern(LinkProfile::ModernDsl(), kArchiveBytes, kK,
                               kM);
  EXPECT_DOUBLE_EQ(modern.RepairSeconds(128), paper.RepairSeconds(128) / 4.0);
  EXPECT_DOUBLE_EQ(modern.MaxRepairsPerDay(128),
                   4.0 * paper.MaxRepairsPerDay(128));
}

TEST(BandwidthTest, FtthUncorksTheUplink) {
  // FTTH is symmetric, so the upload phase stops dominating: a full repair
  // drops from ~77 minutes to under a minute.
  const RepairCostModel ftth(LinkProfile::Ftth(), kArchiveBytes, kK, kM);
  EXPECT_LT(ftth.RepairSeconds(128), 60.0);
  EXPECT_GT(ftth.MaxRepairsPerDay(128), 1000.0);
}

}  // namespace
}  // namespace transfer
}  // namespace p2p
