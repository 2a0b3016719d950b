// CycleProfiler unit tests plus the system-level attribution contracts: gap-free per-GDP
// accounting, daemon rebinning, deterministic sampling, and the pure-observer guarantee.

#include "src/obs/profiler.h"

#include <gtest/gtest.h>

#include "src/os/system.h"

namespace imax432 {
namespace {

TEST(CycleProfilerTest, DisabledChargesNothing) {
  CycleProfiler profiler;
  profiler.OnProcessorAdded(0, 0);
  profiler.ChargeCpu(0, CycleBucket::kInterpreter, 100);
  profiler.ChargeProcess(7, CycleBucket::kInterpreter, 100);
  profiler.SampleSite(1, 2, 6);
  EXPECT_EQ(profiler.CpuTotal(0), 0u);
  EXPECT_TRUE(profiler.process_buckets().empty());
  EXPECT_TRUE(profiler.hot_sites().empty());
}

TEST(CycleProfilerTest, GapFreeIdentityWithExplicitCharges) {
  CycleProfiler profiler;
  profiler.OnProcessorAdded(0, 100);
  profiler.Enable();
  profiler.ChargeCpu(0, CycleBucket::kDispatch, 400);
  profiler.ChargeCpu(0, CycleBucket::kInterpreter, 300);
  profiler.OpenIdle(0);
  profiler.CloseIdle(0, 1000);  // 200 unaccounted cycles bin as idle
  profiler.FlushOpenIntervals(1100);
  EXPECT_EQ(profiler.CpuTotal(0), 1000u);  // 1100 - epoch_start 100, exactly
  const auto& buckets = profiler.cpus()[0].buckets;
  EXPECT_EQ(buckets[static_cast<size_t>(CycleBucket::kDispatch)], 400u);
  EXPECT_EQ(buckets[static_cast<size_t>(CycleBucket::kInterpreter)], 300u);
  EXPECT_EQ(buckets[static_cast<size_t>(CycleBucket::kIdle)], 300u);  // 200 + 100 tail
}

TEST(CycleProfilerTest, CloseIdleWithoutOpenIsANoOp) {
  CycleProfiler profiler;
  profiler.OnProcessorAdded(0, 0);
  profiler.Enable();
  profiler.ChargeCpu(0, CycleBucket::kInterpreter, 50);
  profiler.CloseIdle(0, 500);  // never opened: the gap stays open for the flush
  EXPECT_EQ(profiler.CpuTotal(0), 50u);
  profiler.FlushOpenIntervals(500);
  EXPECT_EQ(profiler.CpuTotal(0), 500u);
}

TEST(CycleProfilerTest, RetiredCpuBinsTailAsHalted) {
  CycleProfiler profiler;
  profiler.OnProcessorAdded(0, 0);
  profiler.Enable();
  profiler.ChargeCpu(0, CycleBucket::kInterpreter, 100);
  profiler.OnRetired(0, 100);
  profiler.FlushOpenIntervals(1000);
  EXPECT_EQ(profiler.cpus()[0].buckets[static_cast<size_t>(CycleBucket::kHalted)], 900u);
  EXPECT_EQ(profiler.CpuTotal(0), 1000u);
}

TEST(CycleProfilerTest, TagsRebinOnlyInterpreterCycles) {
  CycleProfiler profiler;
  profiler.TagProcess(5, CycleBucket::kGc);  // recorded while still disabled
  profiler.Enable();
  EXPECT_EQ(profiler.ResolveTag(5, CycleBucket::kInterpreter), CycleBucket::kGc);
  EXPECT_EQ(profiler.ResolveTag(5, CycleBucket::kBusWait), CycleBucket::kBusWait);
  EXPECT_EQ(profiler.ResolveTag(6, CycleBucket::kInterpreter), CycleBucket::kInterpreter);
}

TEST(CycleProfilerTest, SamplingTakesEveryNthCharge) {
  CycleProfiler profiler;
  profiler.Enable(/*sample_period=*/4);
  for (uint32_t pc = 0; pc < 16; ++pc) {
    profiler.SampleSite(/*segment=*/9, pc, 6);
  }
  EXPECT_EQ(profiler.samples_taken(), 4u);
  // Deterministic counter: exactly pcs 3, 7, 11, 15 (the 4th, 8th, ... calls).
  for (uint32_t pc : {3u, 7u, 11u, 15u}) {
    uint64_t key = (uint64_t{9} << 32) | pc;
    ASSERT_TRUE(profiler.hot_sites().count(key)) << "pc " << pc;
    EXPECT_EQ(profiler.hot_sites().at(key).samples, 1u);
    EXPECT_EQ(profiler.hot_sites().at(key).cycles, 6u);
  }
}

// --- System-level contracts --------------------------------------------------------------

SystemConfig ProfiledConfig(bool profile, bool gc = false) {
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 2 * 1024 * 1024;
  config.profile = profile;
  config.start_gc_daemon = gc;
  return config;
}

// Producer/consumer over a tiny port: blocks, idles, and bus traffic all appear.
void SpawnPipeline(System& system) {
  auto port = system.kernel().ports().CreatePort(system.memory().global_heap(), 2,
                                                 QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 8, 2,
                                              rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  (void)system.machine().addressing().WriteAd(carrier.value(), 0, port.value());
  (void)system.machine().addressing().WriteAd(carrier.value(), 1,
                                              system.memory().global_heap());

  Assembler producer("producer");
  auto send_loop = producer.NewLabel();
  producer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .CreateObject(4, 3, 32)
      .LoadImm(0, 0)
      .LoadImm(1, 8)
      .Bind(send_loop)
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, send_loop)
      .Halt();
  Assembler consumer("consumer");
  auto recv_loop = consumer.NewLabel();
  consumer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 8)
      .Bind(recv_loop)
      .Receive(4, 2)
      .Compute(1024)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, recv_loop)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  ASSERT_TRUE(system.Spawn(consumer.Build(), options).ok());
  ASSERT_TRUE(system.Spawn(producer.Build(), options).ok());
}

TEST(ProfilerSystemTest, AttributionIsGapFreeOnRealWorkload) {
  System system(ProfiledConfig(/*profile=*/true));
  SpawnPipeline(system);
  system.Run();
  CycleProfiler& profiler = system.machine().profiler();
  profiler.FlushOpenIntervals(system.now());
  ASSERT_EQ(profiler.cpus().size(), 2u);
  for (uint16_t cpu = 0; cpu < 2; ++cpu) {
    Cycles online = system.now() - profiler.cpus()[cpu].epoch_start;
    EXPECT_EQ(profiler.CpuTotal(cpu), online) << "GDP " << cpu;
  }
  CycleBucketArray totals = profiler.Totals();
  EXPECT_GT(totals[static_cast<size_t>(CycleBucket::kInterpreter)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(CycleBucket::kBusTransfer)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(CycleBucket::kDispatch)], 0u);
}

TEST(ProfilerSystemTest, ProfilingDoesNotPerturbVirtualTime) {
  Cycles now[2];
  for (int profiled = 0; profiled < 2; ++profiled) {
    System system(ProfiledConfig(profiled == 1));
    SpawnPipeline(system);
    system.Run();
    now[profiled] = system.now();
  }
  EXPECT_EQ(now[0], now[1]);
}

TEST(ProfilerSystemTest, BlockedSenderPortWaitLandsInProcessBuckets) {
  System system(ProfiledConfig(/*profile=*/true));
  SpawnPipeline(system);  // capacity-2 port + slow consumer: the producer must block
  system.Run();
  uint64_t port_wait = 0;
  for (const auto& [process, buckets] : system.machine().profiler().process_buckets()) {
    port_wait += buckets[static_cast<size_t>(CycleBucket::kPortWait)];
  }
  EXPECT_GT(port_wait, 0u);
}

TEST(ProfilerSystemTest, GcDaemonCyclesRebinUnderGc) {
  System system(ProfiledConfig(/*profile=*/true, /*gc=*/true));
  system.Run();  // daemon starts and parks
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 8, 2,
                                              rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  (void)system.machine().addressing().WriteAd(carrier.value(), 0,
                                              system.memory().global_heap());
  Assembler churn("churn");
  auto loop = churn.NewLabel();
  churn.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 64)
      .Bind(loop)
      .CreateObject(4, 2, 32)
      .StoreAd(1, 4, 1)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  ASSERT_TRUE(system.Spawn(churn.Build(), options).ok());
  system.Run();
  ASSERT_TRUE(system.RequestCollection().ok());
  system.Run();
  CycleBucketArray totals = system.machine().profiler().Totals();
  EXPECT_GT(totals[static_cast<size_t>(CycleBucket::kGc)], 0u);
}

TEST(ProfilerSystemTest, HotSiteSamplingIsDeterministicAcrossRuns) {
  auto run = [](CycleProfiler::HotSite* first, uint64_t* first_key, uint64_t* taken,
                size_t* sites) {
    System system(ProfiledConfig(/*profile=*/true));
    system.machine().profiler().Enable(16);
    SpawnPipeline(system);
    system.Run();
    const CycleProfiler& profiler = system.machine().profiler();
    *taken = profiler.samples_taken();
    *sites = profiler.hot_sites().size();
    ASSERT_FALSE(profiler.hot_sites().empty());
    *first_key = profiler.hot_sites().begin()->first;
    *first = profiler.hot_sites().begin()->second;
  };
  CycleProfiler::HotSite site_a, site_b;
  uint64_t key_a = 0, key_b = 0, taken_a = 0, taken_b = 0;
  size_t sites_a = 0, sites_b = 0;
  run(&site_a, &key_a, &taken_a, &sites_a);
  run(&site_b, &key_b, &taken_b, &sites_b);
  EXPECT_GT(taken_a, 0u);
  EXPECT_EQ(taken_a, taken_b);
  EXPECT_EQ(sites_a, sites_b);
  EXPECT_EQ(key_a, key_b);
  EXPECT_EQ(site_a.samples, site_b.samples);
  EXPECT_EQ(site_a.cycles, site_b.cycles);
}

}  // namespace
}  // namespace imax432
