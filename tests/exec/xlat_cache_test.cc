// The AD-translation cache (src/arch/xlat_cache.h) and its kernel integration: the
// direct-mapped structure itself, the addressing-unit tier (every downstream check still
// enforced), the program-fetch tier (a hot-patched segment is never served stale), one cache
// shared by every processor, and the pure-observer contract (virtual time identical to the
// uncached reference runs pinned below).

#include "src/arch/xlat_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/arch/object_descriptor.h"
#include "src/arch/rights.h"
#include "src/exec/kernel.h"
#include "src/isa/assembler.h"
#include "src/memory/basic_memory_manager.h"
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

// --- The structure itself ---------------------------------------------------------------

TEST(XlatCacheTest, ProbeIsDirectMappedModuloEntries) {
  XlatCache cache;
  EXPECT_EQ(&cache.Probe(5), &cache.Probe(5 + XlatCache::kEntries));
  EXPECT_NE(&cache.Probe(5), &cache.Probe(6));
}

// --- Addressing-unit tier ---------------------------------------------------------------

class XlatAddressingTest : public ::testing::Test {
 protected:
  XlatAddressingTest() : machine_(SmallConfig()), memory_(&machine_) {}

  // The addressing unit's own cache, which every access below goes through.
  XlatCache& cache() { return machine_.addressing().xlat(); }

  AccessDescriptor MakeObject(RightsMask rights = rights::kRead | rights::kWrite |
                                                  rights::kDelete) {
    auto object =
        memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 64, 0, rights);
    EXPECT_TRUE(object.ok());
    return object.value();
  }

  Machine machine_;
  BasicMemoryManager memory_;
};

TEST_F(XlatAddressingTest, RepeatedAccessHitsAfterTheFirstMiss) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().WriteData(ad, 0, 8, 17).ok());
  uint64_t misses = cache().stats().misses;
  ASSERT_GT(misses, 0u);
  for (int i = 0; i < 10; ++i) {
    auto read = machine_.addressing().ReadData(ad, 0, 8);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), 17u);
  }
  EXPECT_GT(cache().stats().hits, 0u);
  EXPECT_EQ(cache().stats().misses, misses);  // no further authoritative resolves
}

TEST_F(XlatAddressingTest, QuarantineIsStillEnforcedOnCacheHits) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().WriteData(ad, 0, 8, 1).ok());  // entry now cached
  machine_.table().At(ad.index()).quarantined = true;
  auto read = machine_.addressing().ReadData(ad, 0, 8);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.fault(), Fault::kObjectQuarantined);
}

TEST_F(XlatAddressingTest, RightsAreStillEnforcedOnCacheHits) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().ReadData(ad, 0, 8).ok());  // fill
  AccessDescriptor read_only = ad.Restricted(rights::kRead);
  EXPECT_TRUE(machine_.addressing().ReadData(read_only, 0, 8).ok());
  EXPECT_EQ(machine_.addressing().WriteData(read_only, 0, 8, 1).fault(),
            Fault::kRightsViolation);
}

TEST_F(XlatAddressingTest, FreedObjectMissesAndFaultsThroughTheCache) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().ReadData(ad, 0, 8).ok());  // fill
  ASSERT_TRUE(memory_.DestroyObject(ad).ok());
  auto read = machine_.addressing().ReadData(ad, 0, 8);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.fault(), Fault::kInvalidAccess);
}

TEST_F(XlatAddressingTest, ReusedSlotNeverServesTheOldGeneration) {
  AccessDescriptor old_ad = MakeObject();
  ObjectIndex index = old_ad.index();
  ASSERT_TRUE(machine_.addressing().ReadData(old_ad, 0, 8).ok());  // fill
  ASSERT_TRUE(memory_.DestroyObject(old_ad).ok());
  // Allocate until the slot is reused (the basic manager reuses low indices eagerly).
  AccessDescriptor reused;
  for (int i = 0; i < 64 && reused.index() != index; ++i) {
    reused = MakeObject();
  }
  if (reused.index() == index) {
    ASSERT_TRUE(machine_.addressing().WriteData(reused, 0, 8, 99).ok());
    EXPECT_EQ(machine_.addressing().ReadData(old_ad, 0, 8).fault(), Fault::kInvalidAccess);
    auto fresh = machine_.addressing().ReadData(reused, 0, 8);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value(), 99u);
  }
}

// --- Direct-mapped conflicts: aliasing indices share one slot ---------------------------

class XlatConflictTest : public XlatAddressingTest {
 protected:
  // Allocates until an object lands on `first`'s slot (the table hands out consecutive
  // indices, so at most kEntries allocations are needed).
  AccessDescriptor MakeAliasingObject(const AccessDescriptor& first) {
    for (uint32_t i = 0; i < 2 * XlatCache::kEntries; ++i) {
      AccessDescriptor candidate = MakeObject();
      if (candidate.index() != first.index() &&
          (candidate.index() & (XlatCache::kEntries - 1)) ==
              (first.index() & (XlatCache::kEntries - 1))) {
        return candidate;
      }
    }
    ADD_FAILURE() << "no aliasing index allocated";
    return first;
  }
};

TEST_F(XlatConflictTest, AliasingObjectsEvictEachOtherAndStayCorrect) {
  AccessDescriptor a = MakeObject();
  AccessDescriptor b = MakeAliasingObject(a);
  ASSERT_TRUE(machine_.addressing().WriteData(a, 0, 8, 111).ok());
  ASSERT_TRUE(machine_.addressing().WriteData(b, 0, 8, 222).ok());
  // b's fill took the shared slot.
  EXPECT_EQ(cache().Probe(a.index()).index, b.index());

  uint64_t misses = cache().stats().misses;
  auto read_a = machine_.addressing().ReadData(a, 0, 8);  // conflict miss: evicts b
  ASSERT_TRUE(read_a.ok());
  EXPECT_EQ(read_a.value(), 111u);
  EXPECT_GT(cache().stats().misses, misses);
  EXPECT_EQ(cache().Probe(b.index()).index, a.index());

  auto read_b = machine_.addressing().ReadData(b, 0, 8);  // and back again
  ASSERT_TRUE(read_b.ok());
  EXPECT_EQ(read_b.value(), 222u);
  EXPECT_EQ(cache().Probe(a.index()).index, b.index());
}

// --- Kernel integration ------------------------------------------------------------------

// A self-contained workload: adds `step` to a counter in the shared object `iters` times.
Assembler CounterLoop(const std::string& name, uint32_t iters, uint32_t step = 1) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(3, iters)
      .Bind(loop)
      .LoadData(2, 1, 0, 8)
      .AddImm(2, 2, step)
      .StoreData(1, 2, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 3, loop)
      .Halt();
  return a;
}

SystemConfig CounterConfig() {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 1;
  config.verify_on_load = true;  // summaries land at spawn, like the shipped configuration
  config.start_gc_daemon = false;
  return config;
}

// CounterConfig with a time slice short enough that processes sharing the GDP take turns
// many times within a test's loop.
SystemConfig SlicedConfig() {
  SystemConfig config = CounterConfig();
  config.machine.time_slice = 2000;
  return config;
}

struct RunOutcome {
  Cycles now = 0;
  uint64_t instructions = 0;
  uint64_t counter = 0;
};

// Runs `processes` counter loops, each on its own object, to completion; `counter` is the
// first loop's count, and every other loop must reach the same.
RunOutcome RunCounterWorkload(System& system, uint32_t iters, int processes = 1) {
  std::vector<AccessDescriptor> shared;
  for (int i = 0; i < processes; ++i) {
    auto object = system.memory().CreateObject(system.memory().global_heap(),
                                               SystemType::kGeneric, 64, 0,
                                               rights::kRead | rights::kWrite);
    EXPECT_TRUE(object.ok());
    shared.push_back(object.value());
    Assembler a = CounterLoop("xlat.counter", iters);
    ProcessOptions options;
    options.initial_arg = object.value();
    EXPECT_TRUE(system.Spawn(a.Build(), options).ok());
  }
  system.Run();
  RunOutcome outcome;
  outcome.now = system.machine().now();
  outcome.instructions = system.kernel().stats().instructions_executed;
  for (size_t i = 0; i < shared.size(); ++i) {
    auto counter = system.machine().addressing().ReadData(shared[i], 0, 8);
    EXPECT_TRUE(counter.ok());
    if (i == 0) {
      outcome.counter = counter.value();
    } else {
      EXPECT_EQ(counter.value(), outcome.counter);
    }
  }
  return outcome;
}

// Two counter loops time-sliced on one GDP. A GDP keeps its step frame, and with it the
// fetched program, from one event to the next while the same process stays bound, so a loop
// alone on its GDP fetches its program once. Every slice end here binds the other loop,
// whose frame is rebuilt and whose program is fetched again, which is where the program
// tier serves.
TEST(XlatKernelTest, HotLoopPopulatesBothCacheTiers) {
  System system(SlicedConfig());
  RunOutcome outcome = RunCounterWorkload(system, 200, /*processes=*/2);
  EXPECT_EQ(outcome.counter, 200u);
  EXPECT_GT(system.kernel().stats().time_slice_ends, 4u);
  XlatCacheStats stats = system.kernel().xlat_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.program_hits, 0u);
  EXPECT_GT(stats.program_misses, 0u);  // the compulsory fill
}

// The uncached reference: RunCounterWorkload(system, 300) with the translation cache off, as
// measured at commit 365b855, the last one with an uncached mode. The cache charges no
// cycles, so the cached run must match it exactly.
constexpr Cycles kUncachedCounterNow = 14962;
constexpr uint64_t kUncachedCounterInstructions = 1504;
constexpr uint64_t kUncachedCounterValue = 300;

TEST(XlatKernelTest, VirtualTimeAndResultsAreBitIdenticalOffAndOn) {
  System on(CounterConfig());
  RunOutcome on_outcome = RunCounterWorkload(on, 300);
  EXPECT_EQ(on_outcome.now, kUncachedCounterNow);
  EXPECT_EQ(on_outcome.instructions, kUncachedCounterInstructions);
  EXPECT_EQ(on_outcome.counter, kUncachedCounterValue);
}

// The lifetime auditor is a switch of its own, and the cache serves with it armed.
TEST(XlatKernelTest, SystemConfigWiresCacheAndAuditor) {
  System plain(CounterConfig());
  EXPECT_EQ(plain.kernel().lifetime_auditor(), nullptr);

  SystemConfig audited = CounterConfig();
  audited.lifetime_audit = true;
  System armed(audited);
  ASSERT_NE(armed.kernel().lifetime_auditor(), nullptr);
  RunOutcome outcome = RunCounterWorkload(armed, 50);
  EXPECT_EQ(outcome.counter, 50u);
  EXPECT_EQ(armed.kernel().stats().lifetime_violations, 0u);
  EXPECT_GT(armed.kernel().xlat_stats().hits, 0u);
}

// A process on GDP 0 creates an object and sends it through a port. A process on GDP 1,
// after a long compute, receives the object and reads it: both of its accesses hit the
// translation the first process's step filled.
TEST(XlatKernelTest, ProcessorsShareOneCache) {
  Machine machine(SmallConfig());
  BasicMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  ASSERT_TRUE(kernel.AddProcessors(2).ok());
  machine.trace().Enable();
  auto port = kernel.ports().CreatePort(memory.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 2,
                                     rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine.addressing().WriteAd(carrier.value(), 0, memory.global_heap()).ok());
  ASSERT_TRUE(machine.addressing().WriteAd(carrier.value(), 1, port.value()).ok());

  Assembler sender("xlat.sender");
  sender.LoadAd(1, kArgAdReg, 0)  // a1 = the global heap
      .LoadAd(2, kArgAdReg, 1)    // a2 = the port
      .CreateObject(3, 1, 64)
      .LoadImm(0, 42)
      .StoreData(3, 0, 0, 8)
      .Send(2, 3)
      .Halt();
  Assembler receiver("xlat.receiver");
  receiver.Compute(50000)
      .Receive(1, kArgAdReg)
      .LoadData(0, 1, 0, 8)
      .Compute(50000)
      .Halt();
  std::vector<AccessDescriptor> processes;
  const std::pair<Assembler*, AccessDescriptor> spawns[] = {{&sender, carrier.value()},
                                                             {&receiver, port.value()}};
  for (const auto& [a, arg] : spawns) {
    ProcessOptions options;
    options.initial_arg = arg;
    auto process = kernel.CreateProcess(a->Build(), options);
    ASSERT_TRUE(process.ok());
    ASSERT_TRUE(kernel.StartProcess(process.value()).ok());
    processes.push_back(process.value());
  }

  kernel.RunUntil(25000);  // the sender is done, the receiver is in its first compute
  ASSERT_EQ(kernel.process_view(processes[0]).state(), ProcessState::kTerminated);
  const XlatCacheStats before = kernel.xlat_stats();
  kernel.RunUntil(75000);  // the receiver has received and read the object
  const XlatCacheStats after = kernel.xlat_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);

  kernel.Run();
  EXPECT_EQ(kernel.process_view(processes[1]).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel.stats().faults_delivered, 0u);
  // The two processes were first dispatched, and read the object, on different processors.
  std::vector<uint32_t> cpus(2, kTraceNoProcessor);
  for (const TraceEvent& event : machine.trace().Snapshot()) {
    for (size_t i = 0; i < processes.size(); ++i) {
      if (event.kind == TraceEventKind::kDispatch && event.process == processes[i].index() &&
          cpus[i] == kTraceNoProcessor) {
        cpus[i] = event.cpu;
      }
    }
  }
  EXPECT_EQ(cpus[0], 0u);
  EXPECT_EQ(cpus[1], 1u);
}

// Hot-patches the running process's segment mid-loop with code that adds 10 per iteration
// instead of 1. The patched loop has the same shape, so the saved pc stays meaningful.
// Nothing clears the cache: the program payload must go stale on the store version and the
// segment's data_epoch alone. With `neighbour`, a second loop shares the GDP in short time
// slices, so the counter's program is fetched again at every rebind and the program tier
// serves it; alone, the counter keeps its frame and fetches once.
constexpr uint32_t kPatchedIters = 1000;

RunOutcome RunPatchedCounter(uint64_t* program_hits_before_patch, bool neighbour) {
  System system(neighbour ? SlicedConfig() : CounterConfig());
  auto shared = system.memory().CreateObject(system.memory().global_heap(),
                                             SystemType::kGeneric, 64, 0,
                                             rights::kRead | rights::kWrite);
  EXPECT_TRUE(shared.ok());
  Assembler original = CounterLoop("xlat.patch", kPatchedIters);
  ProcessOptions options;
  options.initial_arg = shared.value();
  auto process = system.Spawn(original.Build(), options);
  EXPECT_TRUE(process.ok());
  if (neighbour) {
    auto other = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 64, 0,
                                              rights::kRead | rights::kWrite);
    EXPECT_TRUE(other.ok());
    ProcessOptions other_options;
    other_options.initial_arg = other.value();
    EXPECT_TRUE(
        system.Spawn(CounterLoop("xlat.neighbour", kPatchedIters).Build(), other_options).ok());
  }
  system.RunUntil(20000);  // mid-loop
  *program_hits_before_patch = system.kernel().xlat_stats().program_hits;

  ContextView ctx(&system.machine().addressing(),
                  system.kernel().process_view(process.value()).context());
  AccessDescriptor segment = ctx.instruction_segment();
  Assembler patched = CounterLoop("xlat.patch", kPatchedIters, /*step=*/10);
  EXPECT_TRUE(system.kernel().programs().Replace(segment, patched.Build()).ok());

  system.Run();
  RunOutcome outcome;
  outcome.now = system.machine().now();
  outcome.instructions = system.kernel().stats().instructions_executed;
  auto counter = system.machine().addressing().ReadData(shared.value(), 0, 8);
  EXPECT_TRUE(counter.ok());
  outcome.counter = counter.value();
  return outcome;
}

// The uncached reference: RunPatchedCounter alone with the translation cache off, as measured
// at commit 365b855, the last one with an uncached mode.
constexpr uint64_t kUncachedPatchedCounter = 6355;
constexpr Cycles kUncachedPatchedNow = 48562;
constexpr uint64_t kUncachedPatchedInstructions = 5004;

// The reference with the neighbour, measured with a step frame rebuilt at every event (commit
// 0ecb009, the last one that did so). Neither the cache nor the frame charges cycles, so the
// run must match it exactly.
constexpr uint64_t kSlicedPatchedCounter = 8506;
constexpr Cycles kSlicedPatchedNow = 120676;
constexpr uint64_t kSlicedPatchedInstructions = 10008;

TEST(XlatKernelTest, ReplacedSegmentRunsTheNewCodeWithTheCacheOn) {
  uint64_t hits_on = 0;
  RunOutcome sliced = RunPatchedCounter(&hits_on, /*neighbour=*/true);
  EXPECT_GT(hits_on, 0u);  // the old code was being served from the cache at the patch

  // Some iterations ran the old code and the rest the new: the counter is neither the
  // all-old nor the all-new total.
  EXPECT_GT(sliced.counter, kPatchedIters);
  EXPECT_LT(sliced.counter, 10 * kPatchedIters);
  EXPECT_EQ(sliced.counter, kSlicedPatchedCounter);
  EXPECT_EQ(sliced.now, kSlicedPatchedNow);
  EXPECT_EQ(sliced.instructions, kSlicedPatchedInstructions);

  uint64_t hits_alone = 0;
  RunOutcome on = RunPatchedCounter(&hits_alone, /*neighbour=*/false);
  EXPECT_GT(on.counter, kPatchedIters);
  EXPECT_LT(on.counter, 10 * kPatchedIters);
  EXPECT_EQ(on.counter, kUncachedPatchedCounter);
  EXPECT_EQ(on.now, kUncachedPatchedNow);
  EXPECT_EQ(on.instructions, kUncachedPatchedInstructions);
}

}  // namespace
}  // namespace imax432
