// Ground truth for inter-process interference as the race detector sees it: a pair with
// disjoint footprints shares nothing and runs clean under the sanitizer, a shared-write
// pair is reported with the shared object named, a booted system with the GC daemon
// resident analyzes clean while its accesses translate through the cache, and the replay
// contract: the trace fingerprint matches the uncached reference with and without the race
// sanitizer (the dynamic auditor of the race analysis) armed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/lifetime/lifetime.h"
#include "src/analysis/races/races.h"
#include "src/analysis/races/sanitizer.h"
#include "src/arch/rights.h"
#include "src/exec/kernel.h"
#include "src/isa/assembler.h"
#include "src/os/system.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

SystemConfig CorpusConfig(bool audit) {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 1;
  config.start_gc_daemon = false;
  config.race_sanitize = audit;
  return config;
}

uint64_t FingerprintTrace(const std::vector<TraceEvent>& events) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over every payload word
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const TraceEvent& event : events) {
    mix(event.ts);
    mix(event.process);
    mix(event.a);
    mix(event.b);
    mix(event.c);
    mix(event.cpu);
    mix(static_cast<uint64_t>(event.kind));
  }
  return h;
}

AccessDescriptor MakeShared(System& system, const std::string& name,
                            uint64_t initial_value = 0) {
  auto object = system.memory().CreateObject(system.memory().global_heap(),
                                             SystemType::kGeneric, 64, 0,
                                             rights::kRead | rights::kWrite);
  EXPECT_TRUE(object.ok());
  system.kernel().symbols().Name(object.value().index(), name);
  EXPECT_TRUE(
      system.machine().addressing().WriteData(object.value(), 0, 8, initial_value).ok());
  return object.value();
}

void Spawn(System& system, Assembler& a, const AccessDescriptor& arg) {
  ProcessOptions options;
  options.initial_arg = arg;
  auto process = system.Spawn(a.Build(), options);
  ASSERT_TRUE(process.ok()) << FaultName(process.fault());
}

uint64_t ReadCell(System& system, const AccessDescriptor& object) {
  auto value = system.machine().addressing().ReadData(object, 0, 8);
  EXPECT_TRUE(value.ok());
  return value.ok() ? value.value() : 0;
}

// Sums the shared object into a private total `iters` times (read-only workload).
Assembler ReadLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(4, iters)
      .LoadImm(3, 0)
      .Bind(loop)
      .LoadData(2, 1, 0, 8)
      .Add(3, 3, 2)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 4, loop)
      .Halt();
  return a;
}

// Increments the shared object `iters` times (read-modify-write workload).
Assembler CounterLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(3, iters)
      .Bind(loop)
      .LoadData(2, 1, 0, 8)
      .AddImm(2, 2, 1)
      .StoreData(1, 2, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 3, loop)
      .Halt();
  return a;
}

Assembler WriteOnce(const std::string& name, uint64_t value) {
  Assembler a(name);
  a.MoveAd(1, kArgAdReg).LoadImm(2, value).StoreData(1, 2, 0, 8).Halt();
  return a;
}

TEST(InterferenceCorpusTest, DisjointFootprintPairIsIndependentAndRunsClean) {
  System system(CorpusConfig(true));
  AccessDescriptor left = MakeShared(system, "corpus.left", 1);
  AccessDescriptor right = MakeShared(system, "corpus.right", 2);
  Assembler a = CounterLoop("corpus.a", 20);
  Assembler b = CounterLoop("corpus.b", 20);
  Spawn(system, a, left);
  Spawn(system, b, right);

  // Both programs write, but to different objects: nothing is shared, nothing to order.
  analysis::RaceAnalysisReport report = system.kernel().AnalyzeRaces();
  EXPECT_TRUE(report.ok()) << analysis::FormatRaceReport(report);
  EXPECT_EQ(report.programs_analyzed, 2u);
  EXPECT_EQ(report.objects_shared, 0u);
  EXPECT_EQ(report.pairs_checked, 0u);

  system.Run();
  EXPECT_TRUE(system.kernel().race_sanitizer()->races().empty());
  EXPECT_EQ(ReadCell(system, left), 21u);
  EXPECT_EQ(ReadCell(system, right), 22u);
}

TEST(InterferenceCorpusTest, SharedWritePairIsReportedWithNamedWitness) {
  System system(CorpusConfig(true));
  AccessDescriptor shared = MakeShared(system, "corpus.cell");
  Assembler w0 = WriteOnce("corpus.w0", 1);
  Assembler w1 = WriteOnce("corpus.w1", 2);
  Spawn(system, w0, shared);
  Spawn(system, w1, shared);

  analysis::RaceAnalysisReport report = system.kernel().AnalyzeRaces();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatRaceReport(report);
  const analysis::RaceDiagnostic& diagnostic = report.diagnostics[0];
  EXPECT_EQ(diagnostic.object, shared.index());
  EXPECT_EQ(diagnostic.part, analysis::ObjectPart::kData);
  EXPECT_NE(diagnostic.message.find("corpus.cell"), std::string::npos) << diagnostic.message;

  // The dynamic side confirms the conflict on the same object.
  system.Run();
  const std::vector<analysis::RaceRecord>& races = system.kernel().race_sanitizer()->races();
  ASSERT_FALSE(races.empty());
  EXPECT_EQ(races[0].object, shared.index());
}

TEST(InterferenceCorpusTest, BootedSystemAnalyzesCleanWithTheDaemonRunning) {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 2;
  config.race_sanitize = true;
  System system(config);  // GC daemon on: a native resident program in the mix

  analysis::SystemAnalysisReport ipc = system.kernel().AnalyzeSystem();
  EXPECT_TRUE(ipc.ok()) << analysis::FormatReport(ipc);
  analysis::RaceAnalysisReport races = system.kernel().AnalyzeRaces();
  EXPECT_TRUE(races.ok()) << analysis::FormatRaceReport(races);
  analysis::LifetimeAnalysisReport lifetimes = system.kernel().AnalyzeLifetimes();
  EXPECT_TRUE(lifetimes.ok()) << analysis::FormatLifetimeReport(lifetimes);

  system.RunUntil(200000);
  EXPECT_TRUE(system.kernel().race_sanitizer()->races().empty());
  EXPECT_GT(system.kernel().xlat_stats().hits, 0u);  // the daemon's accesses translate cached
}

// The uncached reference: the run below with the translation cache and the race sanitizer
// off, as measured at commit 365b855, the last one with an uncached mode.
constexpr uint64_t kUncachedInterferenceFingerprint = 0x356fd3ba178cb0feull;

TEST(InterferenceCorpusTest, ReplayFingerprintIsBitIdenticalWithCacheAndAuditor) {
  auto run = [](bool audit) {
    System system(CorpusConfig(audit));
    system.machine().trace().Enable();
    AccessDescriptor left = MakeShared(system, "corpus.left", 1);
    AccessDescriptor right = MakeShared(system, "corpus.right", 2);
    Assembler a = ReadLoop("corpus.a", 100);
    Assembler b = CounterLoop("corpus.b", 60);
    Spawn(system, a, left);
    Spawn(system, b, right);
    system.Run();
    return FingerprintTrace(system.machine().trace().Snapshot());
  };
  EXPECT_EQ(run(/*audit=*/false), kUncachedInterferenceFingerprint);
  EXPECT_EQ(run(/*audit=*/true), kUncachedInterferenceFingerprint);
}

}  // namespace
}  // namespace imax432
