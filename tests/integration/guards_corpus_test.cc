// Ground truth for the checked access path through the translation cache: a bounds shrink
// between two loads of one object faults the second load although its translation is a
// cache hit (a hit skips no guard), a hot-patched segment bumps both staleness keys and
// retracts its analysis through the ProgramStore replace hook, and the replay contract: the
// trace fingerprint matches the uncached reference with and without the lifetime auditor.

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  config.verify_on_load = true;
  config.start_gc_daemon = false;
  config.lifetime_demote = true;  // gives the auditor demoted populations to scan
  config.lifetime_audit = audit;
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

AccessDescriptor Spawn(System& system, Assembler& a, const AccessDescriptor& arg) {
  ProcessOptions options;
  options.initial_arg = arg;
  auto process = system.Spawn(a.Build(), options);
  EXPECT_TRUE(process.ok()) << FaultName(process.fault());
  return process.ok() ? process.value() : AccessDescriptor();
}

// Reads the shared object twice per iteration.
Assembler DoubleReadLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(4, iters)
      .Bind(loop)
      .LoadData(2, 1, 0, 8)
      .LoadData(3, 1, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 4, loop)
      .Halt();
  return a;
}

// Allocation-shaped loop over the SRO in a7: every object is created, touched and left to
// die with the context, so the lifetime analysis demotes the site.
Assembler AllocLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(3, iters)
      .LoadImm(5, 41)
      .Bind(loop)
      .CreateObject(4, 1, 32)
      .StoreData(4, 5, 0, 8)
      .LoadData(6, 4, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 3, loop)
      .Halt();
  return a;
}

struct BoundsOutcome {
  Cycles now = 0;
  uint64_t data_hits = 0;
  std::vector<uint64_t> faults;  // fault codes, in trace order
};

// pc 1 loads the object (filling the translation), the compute leaves a window to shrink
// its data part below the access width, and pc 3 loads it again.
BoundsOutcome RunShrunkBounds() {
  System system(CorpusConfig(false));
  AccessDescriptor shared = MakeShared(system, "guards.victim", 5);
  system.machine().trace().Enable();
  Assembler a("guards.window");
  a.MoveAd(1, kArgAdReg)
      .LoadData(2, 1, 0, 8)
      .Compute(100000)
      .LoadData(3, 1, 0, 8)
      .Halt();
  Spawn(system, a, shared);

  system.RunUntil(50000);  // inside the compute window
  uint64_t hits_before = system.kernel().xlat_stats().hits;
  system.machine().table().At(shared.index()).data_length = 4;
  system.Run();

  BoundsOutcome outcome;
  outcome.now = system.machine().now();
  outcome.data_hits = system.kernel().xlat_stats().hits - hits_before;
  for (const TraceEvent& event : system.machine().trace().Snapshot()) {
    if (event.kind == TraceEventKind::kFault) outcome.faults.push_back(event.a);
  }
  return outcome;
}

// The uncached reference: RunShrunkBounds with the translation cache off, as measured at
// commit 365b855, the last one with an uncached mode.
constexpr Cycles kUncachedBoundsNow = 101470;
const std::vector<uint64_t> kUncachedBoundsFaults = {
    static_cast<uint64_t>(Fault::kBoundsViolation)};

TEST(GuardsCorpusTest, ShrunkBoundsFaultTheNextLoadEvenOnACacheHit) {
  BoundsOutcome on = RunShrunkBounds();
  EXPECT_GT(on.data_hits, 0u);  // pc 3's translation came from the cache
  ASSERT_EQ(on.faults.size(), 1u);
  EXPECT_EQ(on.faults[0], static_cast<uint64_t>(Fault::kBoundsViolation));
  EXPECT_EQ(on.faults, kUncachedBoundsFaults);
  EXPECT_EQ(on.now, kUncachedBoundsNow);
}

TEST(GuardsCorpusTest, ReplaceRetractsAnalysisThroughTheStoreHook) {
  System system(CorpusConfig(false));
  Assembler a = AllocLoop("guards.patch", 400);
  AccessDescriptor process = Spawn(system, a, system.memory().global_heap());
  system.RunUntil(20000);  // mid-loop: the segment's translation is cached and hot

  ContextView ctx(&system.machine().addressing(),
                  system.kernel().process_view(process).context());
  AccessDescriptor segment = ctx.instruction_segment();
  ASSERT_TRUE(system.kernel().effect_graph().HasProgram(segment.index()));
  ASSERT_EQ(system.kernel().lifetime_summaries().count(segment.index()), 1u);

  // Hot-patch the segment with identical code: content is equal, but the store must still
  // bump both staleness keys and retract the old analysis through the replace hook.
  Assembler patched = AllocLoop("guards.patch", 400);
  uint64_t version = system.kernel().programs().version();
  uint32_t epoch = system.machine().table().At(segment.index()).data_epoch;
  ASSERT_TRUE(system.kernel().programs().Replace(segment, patched.Build()).ok());
  EXPECT_GT(system.kernel().programs().version(), version);
  EXPECT_GT(system.machine().table().At(segment.index()).data_epoch, epoch);
  EXPECT_FALSE(system.kernel().effect_graph().HasProgram(segment.index()));
  EXPECT_EQ(system.kernel().lifetime_summaries().count(segment.index()), 0u);

  // The replacement runs to completion without a fault.
  system.Run();
  EXPECT_EQ(system.kernel().process_view(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(system.kernel().stats().faults_delivered, 0u);
}

// The uncached reference: the run below with the translation cache and the auditor off, as
// measured at commit 365b855, the last one with an uncached mode.
constexpr uint64_t kUncachedGuardsFingerprint = 0xbf201730d9dea417ull;

TEST(GuardsCorpusTest, ReplayFingerprintIsBitIdenticalWithCacheAndAuditor) {
  auto run = [](bool audit) {
    System system(CorpusConfig(audit));
    system.machine().trace().Enable();
    AccessDescriptor shared = MakeShared(system, "guards.shared", 7);
    Assembler reader = DoubleReadLoop("guards.reader", 100);
    Assembler alloc = AllocLoop("guards.alloc", 60);
    Spawn(system, reader, shared);
    Spawn(system, alloc, system.memory().global_heap());
    system.Run();
    if (audit) {
      EXPECT_GT(system.kernel().stats().demotions, 0u);
      EXPECT_GT(system.kernel().lifetime_auditor()->stats().scopes_audited, 0u);
      EXPECT_EQ(system.kernel().lifetime_auditor()->stats().violations, 0u);
    }
    return FingerprintTrace(system.machine().trace().Snapshot());
  };
  EXPECT_EQ(run(/*audit=*/false), kUncachedGuardsFingerprint);
  EXPECT_EQ(run(/*audit=*/true), kUncachedGuardsFingerprint);
}

}  // namespace
}  // namespace imax432
