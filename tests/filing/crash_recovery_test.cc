// End-to-end crash-restart testing of the journaled filing system: seeded power-cut
// campaigns must recover every epoch (prefix-consistent store, zero patrol violations,
// type identity preserved across restart) and be bit-identical when re-run.

#include "src/filing/crash_campaign.h"

#include <gtest/gtest.h>

#include "src/filing/stable_store.h"
#include "src/os/system.h"

namespace imax432 {
namespace {

CrashCampaignConfig SmallConfig() {
  CrashCampaignConfig config;
  config.seed = 77;
  config.events = 40;
  config.power_cuts = 6;
  config.horizon = 500'000;
  return config;
}

TEST(CrashRecoveryTest, SmallCampaignRecoversEveryEpoch) {
  CrashCampaignReport report = RunCrashCampaign(SmallConfig());
  EXPECT_EQ(report.epochs, 7u);  // power_cuts + 1
  EXPECT_EQ(report.power_cuts_fired, 6u);
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.recovery_mismatches, 0u);
  EXPECT_EQ(report.typed_identity_failures, 0u);
  EXPECT_EQ(report.post_recovery_violations, 0u);
  EXPECT_EQ(report.panics, 0u);
  // The workload actually exercised the journal.
  EXPECT_GT(report.mutations_applied, 0u);
  EXPECT_GT(report.journal.appends, 0u);
  // Every epoch after the first recovered from a real log and checked the sentinel.
  for (size_t i = 0; i < report.epoch_reports.size(); ++i) {
    const CrashEpochReport& epoch = report.epoch_reports[i];
    EXPECT_TRUE(epoch.recovery_matched) << "epoch " << i;
    EXPECT_EQ(epoch.patrol_violations, 0u) << "epoch " << i;
    if (i > 0) {
      EXPECT_TRUE(epoch.typed_identity_checked) << "epoch " << i;
      EXPECT_TRUE(epoch.typed_identity_ok) << "epoch " << i;
    }
  }
}

TEST(CrashRecoveryTest, CampaignIsBitIdenticalAcrossRuns) {
  CrashCampaignReport first = RunCrashCampaign(SmallConfig());
  CrashCampaignReport second = RunCrashCampaign(SmallConfig());
  EXPECT_EQ(first.campaign_fingerprint, second.campaign_fingerprint);
  ASSERT_EQ(first.epoch_reports.size(), second.epoch_reports.size());
  for (size_t i = 0; i < first.epoch_reports.size(); ++i) {
    EXPECT_EQ(first.epoch_reports[i].trace_fingerprint,
              second.epoch_reports[i].trace_fingerprint)
        << "epoch " << i;
    EXPECT_EQ(first.epoch_reports[i].store_digest, second.epoch_reports[i].store_digest)
        << "epoch " << i;
    EXPECT_EQ(first.epoch_reports[i].recovered_digest,
              second.epoch_reports[i].recovered_digest)
        << "epoch " << i;
  }
  EXPECT_EQ(first.virtual_cycles, second.virtual_cycles);
  EXPECT_EQ(first.mutations_applied, second.mutations_applied);
}

TEST(CrashRecoveryTest, SeedsDiverge) {
  CrashCampaignConfig a = SmallConfig();
  CrashCampaignConfig b = SmallConfig();
  b.seed = 78;
  EXPECT_NE(RunCrashCampaign(a).campaign_fingerprint,
            RunCrashCampaign(b).campaign_fingerprint);
}

TEST(CrashRecoveryTest, AcceptanceCampaignTwoHundredEventsTwentyFiveCuts) {
  // The acceptance bar: a 200-event campaign with 25 seeded power cuts recovers every
  // time — journal replay restores all committed state, zero patrol violations after
  // recovery, type identity enforced across restart.
  CrashCampaignConfig config;  // defaults: seed 432, 200 events, 25 cuts
  CrashCampaignReport report = RunCrashCampaign(config);
  EXPECT_EQ(report.epochs, 26u);
  EXPECT_EQ(report.power_cuts_fired, 25u);
  EXPECT_TRUE(report.healthy());
  EXPECT_GT(report.mutations_applied, 25u);
  EXPECT_GT(report.journal.torn_tail_truncations + report.journal.rolled_back_transactions +
                report.journal.replayed_transactions,
            0u);
  // `imax_trace --power-cut-campaign 200 --power-cuts 25` runs this config; a change to
  // either pinned value is a model change.
  EXPECT_EQ(report.campaign_fingerprint, 0x747980a021766f09ull);
  EXPECT_EQ(report.virtual_cycles, 2'024'370u);
}

TEST(CrashRecoveryTest, SystemBootSurvivesGarbageJournal) {
  // A corrupt log must never panic the kernel: boot recovers what it can and keeps going.
  StableStore device;
  std::vector<uint8_t> garbage(300);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  device.LoadImage(garbage);

  SystemConfig config;
  config.processors = 1;
  config.machine.memory_bytes = 96 * 1024;
  config.stable_store = &device;
  System system(config);
  EXPECT_TRUE(system.filing_recovery_status().ok());  // garbage dropped, store empty
  EXPECT_EQ(system.filing().size(), 0u);
  EXPECT_GT(system.journal()->stats().corrupt_records_dropped, 0u);
}

TEST(CrashRecoveryTest, SystemBootRecoversTheSealedPrefixOfATornLog) {
  // A System files three objects: its log is the boot checkpoint and three sealed
  // transactions. A power cut 30 bytes before the end tears the third transaction; the
  // checkpoint and the first two replay.
  SystemConfig config;
  config.processors = 1;
  config.machine.memory_bytes = 96 * 1024;
  StableStore healthy;
  {
    config.stable_store = &healthy;
    System first(config);
    auto object = first.kernel().memory().CreateObject(
        first.kernel().memory().global_heap(), SystemType::kGeneric, 16, 0,
        rights::kRead | rights::kWrite);
    ASSERT_TRUE(object.ok());
    for (const char* name : {"one", "two", "three"}) {
      ASSERT_TRUE(first.filing().File(name, object.value()).ok());
    }
    first.machine().events().RunUntilIdle();  // let the journal syncs complete
  }
  StableStore torn;
  const std::vector<uint8_t>& image = healthy.durable_bytes();
  torn.LoadImage(image);
  torn.TruncateDurable(image.size() - 30);

  config.stable_store = &torn;
  System recovered(config);
  EXPECT_TRUE(recovered.filing_recovery_status().ok());
  EXPECT_EQ(recovered.kernel().stats().panics, 0u);
  ASSERT_NE(recovered.journal(), nullptr);
  EXPECT_EQ(recovered.journal()->stats().torn_tail_truncations, 1u);
  EXPECT_EQ(recovered.journal()->stats().replayed_transactions, 3u);
  EXPECT_TRUE(recovered.filing().Contains("one"));
  EXPECT_TRUE(recovered.filing().Contains("two"));
  EXPECT_FALSE(recovered.filing().Contains("three"));
}

TEST(CrashRecoveryTest, SystemBootRecoversCommittedState) {
  StableStore device;
  {
    SystemConfig config;
    config.processors = 1;
    config.machine.memory_bytes = 96 * 1024;
    config.stable_store = &device;
    System first(config);
    auto object = first.kernel().memory().CreateObject(
        first.kernel().memory().global_heap(), SystemType::kGeneric, 16, 0,
        rights::kRead | rights::kWrite);
    ASSERT_TRUE(object.ok());
    ASSERT_TRUE(first.machine().addressing().WriteData(object.value(), 0, 8, 0xabcd).ok());
    ASSERT_TRUE(first.filing().File("survivor", object.value()).ok());
    first.machine().events().RunUntilIdle();  // let the journal sync complete
    // `first` is destroyed here without any clean shutdown — the "crash".
  }

  SystemConfig config;
  config.processors = 1;
  config.machine.memory_bytes = 96 * 1024;
  config.stable_store = &device;
  System second(config);
  ASSERT_TRUE(second.filing_recovery_status().ok());
  ASSERT_TRUE(second.filing().Contains("survivor"));
  auto restored =
      second.filing().Retrieve("survivor", second.kernel().memory().global_heap());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(second.machine().addressing().ReadData(restored.value(), 0, 8).value(), 0xabcdu);
  EXPECT_EQ(second.filing().stats().recovered_images, 1u);
}

}  // namespace
}  // namespace imax432
