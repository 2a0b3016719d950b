// End-to-end fault-injection campaigns: the acceptance contract of the injection harness.
// Same {seed, schedule} => bit-identical replay (virtual end time and full trace
// fingerprint), and every injected fault ends in documented recovery or a policy-driven
// termination — never a kernel panic. The campaign is the one `imax_trace --inject` runs,
// and its 200-event replay is pinned here with and without the observers armed.

#include "src/os/fault_campaign.h"

#include <gtest/gtest.h>

namespace imax432 {
namespace {

// 24 events over 600,000 cycles, the default two GDPs, no observers.
FaultCampaignResult RunShortCampaign(uint64_t seed) {
  return RunFaultCampaign(seed, 24, 600'000, SystemConfig());
}

uint64_t Quarantined(const FaultCampaignResult& result) {
  return result.system->patrol().stats().objects_quarantined;
}

// This seed's short campaign quarantines objects, so the replay covers the patrol's
// quarantine path and the faults it delivers.
TEST(FaultCampaignTest, ReplayIsBitIdentical) {
  FaultCampaignResult first = RunShortCampaign(20260805);
  FaultCampaignResult second = RunShortCampaign(20260805);
  EXPECT_EQ(first.system->now(), second.system->now());
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.injector.fired, second.injector.fired);
  EXPECT_EQ(Quarantined(first), Quarantined(second));
  EXPECT_GT(Quarantined(first), 0u);
}

TEST(FaultCampaignTest, DifferentSeedsProduceDifferentTimelines) {
  FaultCampaignResult a = RunShortCampaign(1);
  FaultCampaignResult b = RunShortCampaign(2);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(FaultCampaignTest, EveryInjectedFaultEndsInRecoveryNeverPanic) {
  // A handful of seeds, each mixing all eight injection kinds against live workers. The
  // invariant under test: injections land (fired > 0) and the kernel never panics — every
  // fault either recovers (retry, requeue, re-baseline) or terminates by policy.
  for (uint64_t seed : {3ull, 17ull, 20260805ull}) {
    FaultCampaignResult outcome = RunShortCampaign(seed);
    EXPECT_GT(outcome.injector.fired, 0u) << "seed " << seed;
    EXPECT_EQ(outcome.system->kernel().stats().panics, 0u) << "seed " << seed;
  }
}

// `imax_trace --inject 200 --seed 20260805`. A replay that matches itself but not these
// values changed the model, or renumbered a trace kind, which the fingerprint hashes.
void ExpectPinnedCampaign(bool observers) {
  SystemConfig config;
  config.profile = observers;
  config.span_trace = observers;
  FaultCampaignResult result = RunFaultCampaign(20260805, 200, 2'000'000, config);
  const KernelStats& kernel = result.system->kernel().stats();
  EXPECT_EQ(result.fingerprint, 0x58e6f55c3f2786a9ull);
  EXPECT_EQ(result.system->now(), 12'446'750u);
  EXPECT_EQ(kernel.panics, 0u);
  EXPECT_EQ(result.fault_service->stats().received, kernel.faults_delivered);
}

TEST(FaultCampaignTest, TwoHundredEventCampaignMatchesItsPinnedFingerprint) {
  ExpectPinnedCampaign(/*observers=*/false);
}

// The profiler and span tracer are pure observers: arming them moves neither the end time
// nor the fingerprint.
TEST(FaultCampaignTest, ObserversLeaveThePinnedFingerprintUnchanged) {
  ExpectPinnedCampaign(/*observers=*/true);
}

}  // namespace
}  // namespace imax432
