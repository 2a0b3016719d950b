// Phase 3 of the lifetime analysis: GC-load demotion in the kernel. Under verify_on_load
// the kernel holds demotion verdicts per instruction segment; provably context-local
// create_object sites allocate from a per-context demote SRO, are GC-exempt, and die in one
// bulk destroy at context exit — guarded by the dynamic lifetime auditor.

#include <gtest/gtest.h>

#include "src/exec/kernel.h"
#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

class LifetimeDemotionTest : public ::testing::Test {
 protected:
  LifetimeDemotionTest()
      : machine_(SmallConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {
    EXPECT_TRUE(kernel_.AddProcessors(1).ok());
    kernel_.set_verify_on_load(true);
    kernel_.set_lifetime_demote(true);
    kernel_.EnableLifetimeAuditor();
  }

  // Carrier the programs receive as a7: slot 0 = the allocation SRO, slot 1 = a port.
  AccessDescriptor MakeCarrier() {
    auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                        rights::kAll);
    EXPECT_TRUE(carrier.ok());
    auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    port_ = port.value();
    EXPECT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, memory_.global_heap()).ok());
    EXPECT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, port_).ok());
    return carrier.value();
  }

  AccessDescriptor Spawn(ProgramRef program, const AccessDescriptor& arg) {
    ProcessOptions options;
    options.initial_arg = arg;
    auto process = kernel_.CreateProcess(std::move(program), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    EXPECT_TRUE(kernel_.StartProcess(process.value()).ok());
    return process.value();
  }

  // The one GC-exempt object in the table, or kInvalidObjectIndex.
  ObjectIndex FindDemoted() {
    const ObjectIndex end = machine_.table().capacity();
    const ObjectIndex found = machine_.table().NextExempt(0, end);
    return found < end ? found : kInvalidObjectIndex;
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
  AccessDescriptor port_;
};

TEST_F(LifetimeDemotionTest, DemotableAllocationIsExemptAndBulkReclaimed) {
  Assembler a("local-alloc");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)         // SRO
      .LoadAd(3, 1, 1)         // port
      .CreateObject(4, 2, 16)  // provably context-local: demoted
      .Receive(5, 3)           // park so the host can inspect mid-flight
      .Halt();
  AccessDescriptor process = Spawn(a.Build(), MakeCarrier());
  kernel_.Run();  // runs until the receive blocks

  EXPECT_EQ(kernel_.stats().lifetime_summaries, 1u);
  ASSERT_EQ(kernel_.stats().demotions, 1u);
  EXPECT_EQ(kernel_.stats().demote_sros_created, 1u);
  ObjectIndex demoted = FindDemoted();
  ASSERT_NE(demoted, kInvalidObjectIndex);
  const ObjectDescriptor& descriptor = machine_.table().At(demoted);
  EXPECT_EQ(machine_.table().color(demoted), GcColor::kBlack);
  // It came from the demote SRO, not the program's SRO (the global heap).
  EXPECT_NE(descriptor.origin_sro, memory_.global_heap().index());

  // Unblock; termination reclaims the demote SRO and the object with it.
  auto token = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 0,
                                    rights::kAll);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(kernel_.PostMessage(port_, token.value()).ok());
  kernel_.Run();
  EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().demoted_bulk_reclaimed, 1u);
  EXPECT_EQ(kernel_.stats().lifetime_violations, 0u);
  EXPECT_FALSE(machine_.table().At(demoted).allocated);
}

TEST_F(LifetimeDemotionTest, EscapingAllocationIsNeverDemoted) {
  Assembler a("escapes");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .CreateObject(4, 2, 16)
      .StoreAd(1, 4, 0)  // escapes into the longer-lived carrier
      .Halt();
  Spawn(a.Build(), MakeCarrier());
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().demotions, 0u);
  EXPECT_EQ(kernel_.stats().demote_sros_created, 0u);
  EXPECT_EQ(FindDemoted(), kInvalidObjectIndex);
}

TEST_F(LifetimeDemotionTest, WithoutVerifyOnLoadDemotionIsInert) {
  kernel_.set_verify_on_load(false);
  Assembler a("local-alloc");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).CreateObject(4, 2, 16).Halt();
  Spawn(a.Build(), MakeCarrier());
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().lifetime_summaries, 0u);
  EXPECT_EQ(kernel_.stats().demotions, 0u);
}

TEST_F(LifetimeDemotionTest, ExhaustedDemoteSroFallsBackToThePlainPath) {
  kernel_.set_demote_sro_bytes(64);  // too small for the 4 KiB allocation below
  Assembler a("big-local");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).CreateObject(4, 2, 4096).Halt();
  AccessDescriptor process = Spawn(a.Build(), MakeCarrier());
  kernel_.Run();
  EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().demotions, 0u);
  EXPECT_GE(kernel_.stats().demote_fallbacks, 1u);
  EXPECT_EQ(kernel_.stats().lifetime_violations, 0u);
}

TEST_F(LifetimeDemotionTest, LoopedDemotionsShareOneSroAndAllReclaim) {
  Assembler a("loop-alloc");
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 8)
      .Bind(loop)
      .CreateObject(4, 2, 16)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  Spawn(a.Build(), MakeCarrier());
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().demotions, 8u);
  EXPECT_EQ(kernel_.stats().demote_sros_created, 1u);
  EXPECT_EQ(kernel_.stats().demoted_bulk_reclaimed, 8u);
  EXPECT_EQ(kernel_.stats().lifetime_violations, 0u);
  EXPECT_EQ(FindDemoted(), kInvalidObjectIndex);
}

TEST_F(LifetimeDemotionTest, ForgetProgramAnalysisDropsLifetimeSummaries) {
  Assembler a("forgettable");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).CreateObject(4, 2, 16).Halt();
  Spawn(a.Build(), MakeCarrier());
  ASSERT_EQ(kernel_.lifetime_summaries().size(), 1u);
  const ObjectIndex segment = kernel_.lifetime_summaries().begin()->first;
  ASSERT_TRUE(kernel_.effect_graph().HasProgram(segment));

  kernel_.ForgetProgramAnalysis(segment);
  EXPECT_FALSE(kernel_.effect_graph().HasProgram(segment));
  EXPECT_TRUE(kernel_.lifetime_summaries().empty());
  // AnalyzeLifetimes recomputes from the program store rather than consulting stale state.
  analysis::LifetimeAnalysisReport report = kernel_.AnalyzeLifetimes();
  EXPECT_EQ(report.programs_analyzed, 1u);
}

TEST_F(LifetimeDemotionTest, AuditorCatchesASeededEscape) {
  machine_.trace().Enable();
  Assembler a("betrayed");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .CreateObject(4, 2, 16)
      .Receive(5, 3)
      .Halt();
  AccessDescriptor process = Spawn(a.Build(), MakeCarrier());
  kernel_.Run();
  ObjectIndex demoted = FindDemoted();
  ASSERT_NE(demoted, kInvalidObjectIndex);

  // Ground-truth betrayal: a host-side (privileged, level-rule-exempt) store plants the
  // demoted object's AD in a global container — exactly what the static verdict says no
  // program can do. The audit at scope exit must catch it.
  auto container = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 1,
                                        rights::kAll);
  ASSERT_TRUE(container.ok());
  auto stolen = machine_.table().MintAd(demoted, rights::kRead);
  ASSERT_TRUE(stolen.ok());
  ASSERT_TRUE(
      machine_.addressing().WriteAdPrivileged(container.value(), 0, stolen.value()).ok());

  auto token = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 0,
                                    rights::kAll);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(kernel_.PostMessage(port_, token.value()).ok());
  kernel_.Run();
  EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kTerminated);

  ASSERT_EQ(kernel_.stats().lifetime_violations, 1u);
  const auto& violations = kernel_.lifetime_auditor()->violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].object, demoted);
  EXPECT_EQ(violations[0].holder, container.value().index());
  EXPECT_EQ(violations[0].alloc_pc, 3u);  // the create_object pc

  bool traced = false;
  for (const TraceEvent& event : machine_.trace().Snapshot()) {
    if (event.kind == TraceEventKind::kLifetimeViolation) {
      traced = true;
      EXPECT_EQ(event.a, demoted);
      EXPECT_EQ(event.b, container.value().index());
    }
  }
  EXPECT_TRUE(traced);
}

TEST_F(LifetimeDemotionTest, AuditorIsAPureObserver) {
  // Identical workload, auditor on vs. off: the virtual timeline must be bit-identical
  // (the PR 5 replay contract extends to the lifetime instrumentation).
  auto run = [](bool audit) -> Cycles {
    Machine machine(SmallConfig());
    BasicMemoryManager memory(&machine);
    Kernel kernel(&machine, &memory);
    EXPECT_TRUE(kernel.AddProcessors(1).ok());
    kernel.set_verify_on_load(true);
    kernel.set_lifetime_demote(true);
    if (audit) kernel.EnableLifetimeAuditor();

    auto carrier =
        memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 1, rights::kAll);
    EXPECT_TRUE(carrier.ok());
    EXPECT_TRUE(
        machine.addressing().WriteAd(carrier.value(), 0, memory.global_heap()).ok());
    Assembler a("loop-alloc");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadImm(0, 0)
        .LoadImm(1, 16)
        .Bind(loop)
        .CreateObject(4, 2, 16)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier.value();
    auto process = kernel.CreateProcess(a.Build(), options);
    EXPECT_TRUE(process.ok());
    EXPECT_TRUE(kernel.StartProcess(process.value()).ok());
    kernel.Run();
    EXPECT_EQ(kernel.stats().demotions, 16u);
    return machine.now();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(LifetimeDemotionTest, ReadBackThroughAFreshObjectRetractsTheLeak) {
  // The reader parks the registry AD in an object it just created and reads the registry
  // through the AD it loads back: the writer's object is read back, not leaked.
  auto registry =
      memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 1, rights::kAll);
  ASSERT_TRUE(registry.ok());
  auto carrier =
      memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2, rights::kAll);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, registry.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, memory_.global_heap()).ok());
  Assembler writer("registry.writer");
  writer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)         // a2 = the registry
      .LoadAd(3, 1, 1)         // a3 = the global heap
      .CreateObject(4, 3, 16)  // a4 = the entry
      .StoreAd(2, 4, 0)        // registry[0] = the entry
      .Halt();
  Assembler reader("registry.reader");
  reader.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)           // a2 = the registry
      .LoadAd(3, 1, 1)           // a3 = the global heap
      .CreateObject(4, 3, 8, 1)  // a4 = the stash
      .StoreAd(4, 2, 0)          // stash[0] = the registry
      .LoadAd(5, 4, 0)           // a5 = the registry, loaded back
      .LoadAd(2, 5, 0)           // a2 = registry[0]: the writer's entry
      .LoadImm(0, 42)
      .StoreData(2, 0, 0, 8)     // mark the entry, so the run shows the read-back
      .Halt();
  AccessDescriptor writing = Spawn(writer.Build(), carrier.value());
  kernel_.Run();
  AccessDescriptor reading = Spawn(reader.Build(), carrier.value());
  kernel_.Run();

  analysis::LifetimeAnalysisReport report = kernel_.AnalyzeLifetimes();
  EXPECT_TRUE(report.leaks.empty()) << analysis::FormatLifetimeReport(report);
  EXPECT_EQ(report.leaks_suppressed, 1u);

  // Ground truth: the reader reached the writer's entry through the registry.
  EXPECT_EQ(kernel_.process_view(writing).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.process_view(reading).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().faults_delivered, 0u);
  auto entry = machine_.addressing().ReadAd(registry.value(), 0);
  ASSERT_TRUE(entry.ok());
  auto mark = machine_.addressing().ReadData(entry.value(), 0, 8);
  ASSERT_TRUE(mark.ok());
  EXPECT_EQ(mark.value(), 42u);
  EXPECT_EQ(kernel_.stats().lifetime_violations, 0u);
}

// What a run of a package publishing into its state leaves behind: the entry loads a global
// registry from its domain state, creates an object from the caller's SRO and stores it into
// the registry.
struct PublishOutcome {
  uint64_t faults_delivered = 0;
  uint64_t demotions = 0;
  bool published = false;
};

PublishOutcome RunPublish(bool demote) {
  Machine machine(SmallConfig());
  BasicMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  EXPECT_TRUE(kernel.AddProcessors(1).ok());
  kernel.set_verify_on_load(true);
  kernel.set_lifetime_demote(demote);
  kernel.EnableLifetimeAuditor();
  auto registry =
      memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 1, rights::kAll);
  EXPECT_TRUE(registry.ok());

  Assembler publish("package.publish");
  publish.LoadAd(2, kDomainAdReg, 1)   // a2 = the registry (state slot 0)
      .CreateObject(3, kArgAdReg, 16)  // a3 = a fresh object from the caller's SRO
      .StoreAd(2, 3, 0)                // registry[0] = a3: escapes the activation
      .Return();
  auto segment = kernel.programs().Register(publish.Build());
  EXPECT_TRUE(segment.ok());
  auto domain = kernel.CreateDomain({segment.value()}, /*state_slots=*/1);
  EXPECT_TRUE(domain.ok()) << FaultName(domain.fault());
  EXPECT_TRUE(kernel.SetDomainState(domain.value(), 0, registry.value()).ok());

  // Client carrier: slot 0 = the package, slot 1 = the global heap.
  auto carrier =
      memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 2, rights::kAll);
  EXPECT_TRUE(carrier.ok());
  EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 0, domain.value()).ok());
  EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 1, memory.global_heap()).ok());
  Assembler client("package.client");
  client.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)          // a2 = the package
      .LoadAd(kArgAdReg, 1, 1)  // a7 = the global heap, the call's argument
      .Call(2, 0)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto process = kernel.CreateProcess(client.Build(), options);
  EXPECT_TRUE(process.ok()) << FaultName(process.fault());
  EXPECT_TRUE(kernel.StartProcess(process.value()).ok());
  kernel.Run();
  EXPECT_EQ(kernel.process_view(process.value()).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel.stats().lifetime_violations, 0u);

  PublishOutcome outcome;
  outcome.faults_delivered = kernel.stats().faults_delivered;
  outcome.demotions = kernel.stats().demotions;
  auto published = machine.addressing().ReadAd(registry.value(), 0);
  outcome.published = published.ok() && !published.value().is_null();
  return outcome;
}

TEST_F(LifetimeDemotionTest, PackagePublishingIntoItsStateIsNotDemoted) {
  // The entry's store goes through a6, the package's own domain: the allocation escapes the
  // activation, so demotion must leave the run exactly as it is without demotion.
  const PublishOutcome plain = RunPublish(false);
  EXPECT_EQ(plain.faults_delivered, 0u);
  EXPECT_TRUE(plain.published);

  const PublishOutcome demoted = RunPublish(true);
  EXPECT_EQ(demoted.faults_delivered, 0u);
  EXPECT_TRUE(demoted.published);
  EXPECT_EQ(demoted.demotions, 0u);
}

}  // namespace
}  // namespace imax432
