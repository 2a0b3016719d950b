// Kernel::AnalyzeSystem and the incremental IPC effect summaries the kernel keeps as
// programs register (src/analysis/effects.h + deadlock.h wired through exec/kernel.cc).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
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

class AnalyzeSystemTest : public ::testing::Test {
 protected:
  AnalyzeSystemTest() : machine_(SmallConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {
    EXPECT_TRUE(kernel_.AddProcessors(1).ok());
  }

  AccessDescriptor MakePort(const char* name) {
    auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    kernel_.symbols().Name(port.value().index(), name);
    return port.value();
  }

  AccessDescriptor SpawnReceiver(const AccessDescriptor& port) {
    Assembler a("receiver");
    a.MoveAd(1, kArgAdReg).Receive(2, 1).Halt();
    ProcessOptions options;
    options.initial_arg = port;
    auto process = kernel_.CreateProcess(a.Build(), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    return process.ok() ? process.value() : AccessDescriptor();
  }

  AccessDescriptor Spawn(ProgramRef program, const AccessDescriptor& arg) {
    ProcessOptions options;
    options.initial_arg = arg;
    auto process = kernel_.CreateProcess(std::move(program), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    EXPECT_TRUE(kernel_.StartProcess(process.value()).ok());
    return process.value();
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
};

// The paper's small protection domain: a package whose entry sends the caller's argument to
// a private port held in its domain state, a client process that calls the entry, and a
// listener on that port.
struct PackageSystem {
  explicit PackageSystem(bool verify_on_load)
      : machine(SmallConfig()), memory(&machine), kernel(&machine, &memory) {
    EXPECT_TRUE(kernel.AddProcessors(1).ok());
    kernel.set_verify_on_load(verify_on_load);
    auto port = kernel.ports().CreatePort(memory.global_heap(), 4, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    kernel.symbols().Name(port.value().index(), "package.port");

    Assembler notify("package.notify");
    notify.LoadAd(2, kDomainAdReg, 1)  // a2 = the package's port (state slot 0)
        .Send(2, kArgAdReg)            // forward the caller's argument
        .Return();
    auto segment = kernel.programs().Register(notify.Build());
    EXPECT_TRUE(segment.ok());
    auto domain = kernel.CreateDomain({segment.value()}, /*state_slots=*/1);
    EXPECT_TRUE(domain.ok()) << FaultName(domain.fault());
    EXPECT_TRUE(kernel.SetDomainState(domain.value(), 0, port.value()).ok());

    // Client carrier: slot 0 = the package (call rights only), slot 1 = the global heap.
    auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 2,
                                       rights::kRead | rights::kWrite);
    EXPECT_TRUE(carrier.ok());
    EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 0, domain.value()).ok());
    EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 1, memory.global_heap()).ok());
    Assembler client_code("package.client");
    client_code.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)                // a2 = the package
        .LoadAd(3, 1, 1)                // a3 = the global heap
        .CreateObject(kArgAdReg, 3, 8)  // a7 = the message
        .Call(2, 0)
        .Halt();
    Assembler listener_code("package.listener");
    listener_code.MoveAd(1, kArgAdReg).Receive(2, 1).Halt();
    client = Spawn(client_code.Build(), carrier.value());
    listener = Spawn(listener_code.Build(), port.value());
  }

  AccessDescriptor Spawn(ProgramRef program, const AccessDescriptor& arg) {
    ProcessOptions options;
    options.initial_arg = arg;
    auto process = kernel.CreateProcess(std::move(program), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    EXPECT_TRUE(kernel.StartProcess(process.value()).ok());
    return process.value();
  }

  // Program name -> the kind its summary was filed under.
  std::map<std::string, ProgramKind> Kinds() {
    std::map<std::string, ProgramKind> out;
    for (const auto& [segment, entry] : kernel.effect_graph().programs()) {
      out[entry.summary.program_name] = entry.kind;
    }
    return out;
  }

  Machine machine;
  BasicMemoryManager memory;
  Kernel kernel;
  AccessDescriptor client;
  AccessDescriptor listener;
};

TEST_F(AnalyzeSystemTest, VerifyOnLoadRecordsSummariesIncrementally) {
  kernel_.set_verify_on_load(true);
  EXPECT_EQ(kernel_.stats().effect_summaries, 0u);
  Assembler a("trivial");
  a.Halt();
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), {}).ok());
  EXPECT_EQ(kernel_.stats().effect_summaries, 1u);
  EXPECT_EQ(kernel_.effect_graph().program_count(), 1u);
  // AnalyzeSystem finds the summary already on file and does not recompute it.
  (void)kernel_.AnalyzeSystem();
  EXPECT_EQ(kernel_.stats().effect_summaries, 1u);
}

TEST_F(AnalyzeSystemTest, AnalyzeSystemLazilySummarizesUnverifiedPrograms) {
  Assembler a("trivial");
  a.Halt();
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), {}).ok());
  EXPECT_EQ(kernel_.effect_graph().program_count(), 0u);  // verify-on-load is off
  analysis::SystemAnalysisReport report = kernel_.AnalyzeSystem();
  EXPECT_EQ(kernel_.stats().effect_summaries, 1u);
  EXPECT_GE(report.programs_analyzed, 1u);
}

TEST_F(AnalyzeSystemTest, LoneReceiverIsReportedStarved) {
  AccessDescriptor port = MakePort("inbox");
  SpawnReceiver(port);
  analysis::SystemAnalysisReport report = kernel_.AnalyzeSystem();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].rule, analysis::SystemRule::kStarvedPort);
  // The symbol table name reaches the diagnostic text.
  EXPECT_NE(report.diagnostics[0].message.find("'inbox'"), std::string::npos)
      << report.diagnostics[0].message;
}

TEST_F(AnalyzeSystemTest, LoneSendersPortIsReportedOrphan) {
  AccessDescriptor port = MakePort("outbox");
  Assembler a("sender");
  a.MoveAd(1, kArgAdReg).Send(1, 1).Halt();
  ProcessOptions options;
  options.initial_arg = port;
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), options).ok());
  analysis::SystemAnalysisReport report = kernel_.AnalyzeSystem();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].rule, analysis::SystemRule::kOrphanPort);
  EXPECT_EQ(report.diagnostics[0].ports, std::vector<ObjectIndex>{port.index()});
  EXPECT_NE(report.diagnostics[0].message.find("'outbox'"), std::string::npos)
      << report.diagnostics[0].message;
}

TEST_F(AnalyzeSystemTest, PostMessageMarksThePortExternallyFed) {
  AccessDescriptor port = MakePort("inbox");
  SpawnReceiver(port);
  ASSERT_FALSE(kernel_.AnalyzeSystem().ok());
  // Outside traffic (a device, a test harness) exists: the starvation claim must retract.
  auto message = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(message.ok());
  ASSERT_TRUE(kernel_.PostMessage(port, message.value()).ok());
  EXPECT_TRUE(kernel_.AnalyzeSystem().ok());
}

TEST_F(AnalyzeSystemTest, FaultPortIsAKernelSideSender) {
  AccessDescriptor port = MakePort("faults");
  // A supervisor blocks receiving faulted processes. Nothing in the program set ever sends
  // to the port — the kernel does, so no starvation diagnostic may appear.
  SpawnReceiver(port);
  Assembler a("worker");
  a.Halt();
  ProcessOptions options;
  options.fault_port = port;
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), options).ok());
  EXPECT_TRUE(kernel_.AnalyzeSystem().ok());
}

TEST_F(AnalyzeSystemTest, SchedulerPortIsAKernelSideSender) {
  AccessDescriptor port = MakePort("events");
  SpawnReceiver(port);
  Assembler a("worker");
  a.Halt();
  ProcessOptions options;
  options.scheduler_port = port;
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), options).ok());
  EXPECT_TRUE(kernel_.AnalyzeSystem().ok());
}

TEST_F(AnalyzeSystemTest, PortStashedInAFreshObjectIsNotStarved) {
  // The sender parks the port in an object it just created and sends through the AD it
  // loads back out. That AD is the port: nothing about the receiver is starved.
  AccessDescriptor port = MakePort("mailbox");
  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, port).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, memory_.global_heap()).ok());
  Assembler sender("stash.sender");
  sender.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)           // a2 = the port
      .LoadAd(3, 1, 1)           // a3 = the global heap
      .CreateObject(4, 3, 8, 1)  // a4 = the stash
      .StoreAd(4, 2, 0)          // stash[0] = the port
      .LoadAd(5, 4, 0)           // a5 = the port, loaded back
      .Send(5, 4)
      .Halt();
  Assembler reader("mailbox.reader");
  reader.MoveAd(1, kArgAdReg).Receive(2, 1).Halt();
  AccessDescriptor sending = Spawn(sender.Build(), carrier.value());
  AccessDescriptor reading = Spawn(reader.Build(), port);

  analysis::SystemAnalysisReport report = kernel_.AnalyzeSystem();
  EXPECT_TRUE(report.ok()) << analysis::FormatReport(report);

  // Ground truth: the message is handed off and both processes run to completion.
  kernel_.Run();
  EXPECT_EQ(kernel_.process_view(sending).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.process_view(reading).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().faults_delivered, 0u);
}

TEST(PackageSystemTest, PackagePrivatePortIsNotStarved) {
  // The entry reaches its port through a6, which a domain call sets to the package itself.
  for (bool verify_on_load : {false, true}) {
    SCOPED_TRACE(verify_on_load ? "verify_on_load" : "lazy summaries");
    PackageSystem world(verify_on_load);
    analysis::SystemAnalysisReport report = world.kernel.AnalyzeSystem();
    EXPECT_TRUE(report.ok()) << analysis::FormatReport(report);

    world.kernel.Run();
    EXPECT_EQ(world.kernel.process_view(world.client).state(), ProcessState::kTerminated);
    EXPECT_EQ(world.kernel.process_view(world.listener).state(), ProcessState::kTerminated);
    EXPECT_EQ(world.kernel.stats().faults_delivered, 0u);
  }
}

TEST(PackageSystemTest, WholeSystemAnalysesDoNotDependOnVerifyOnLoad) {
  // The eager and the lazy path summarize every segment from the same load facts, so the
  // three whole-system reports and the filed program kinds agree.
  PackageSystem lazy(false);
  PackageSystem eager(true);

  analysis::SystemAnalysisReport lazy_system = lazy.kernel.AnalyzeSystem();
  analysis::SystemAnalysisReport eager_system = eager.kernel.AnalyzeSystem();
  EXPECT_EQ(analysis::FormatReport(lazy_system), analysis::FormatReport(eager_system));
  EXPECT_EQ(lazy_system.programs_analyzed, eager_system.programs_analyzed);
  EXPECT_EQ(lazy_system.ports_seen, eager_system.ports_seen);
  EXPECT_EQ(lazy_system.opaque_programs, eager_system.opaque_programs);
  EXPECT_EQ(lazy_system.unresolved_send_programs, eager_system.unresolved_send_programs);
  EXPECT_EQ(lazy_system.unresolved_receive_programs,
            eager_system.unresolved_receive_programs);

  analysis::RaceAnalysisReport lazy_races = lazy.kernel.AnalyzeRaces();
  analysis::RaceAnalysisReport eager_races = eager.kernel.AnalyzeRaces();
  EXPECT_EQ(analysis::FormatRaceReport(lazy_races), analysis::FormatRaceReport(eager_races));
  EXPECT_EQ(lazy_races.programs_analyzed, eager_races.programs_analyzed);
  EXPECT_EQ(lazy_races.objects_shared, eager_races.objects_shared);
  EXPECT_EQ(lazy_races.pairs_checked, eager_races.pairs_checked);
  EXPECT_EQ(lazy_races.pairs_ordered, eager_races.pairs_ordered);
  EXPECT_EQ(lazy_races.pairs_suppressed, eager_races.pairs_suppressed);
  EXPECT_EQ(lazy_races.opaque_programs, eager_races.opaque_programs);
  EXPECT_EQ(lazy_races.unresolved_access_programs, eager_races.unresolved_access_programs);

  analysis::LifetimeAnalysisReport lazy_life = lazy.kernel.AnalyzeLifetimes();
  analysis::LifetimeAnalysisReport eager_life = eager.kernel.AnalyzeLifetimes();
  EXPECT_EQ(analysis::FormatLifetimeReport(lazy_life),
            analysis::FormatLifetimeReport(eager_life));
  EXPECT_EQ(lazy_life.programs_analyzed, eager_life.programs_analyzed);
  EXPECT_EQ(lazy_life.sites_analyzed, eager_life.sites_analyzed);
  EXPECT_EQ(lazy_life.sites_demotable, eager_life.sites_demotable);
  EXPECT_EQ(lazy_life.leaks_suppressed, eager_life.leaks_suppressed);
  EXPECT_EQ(lazy_life.anomalies_suppressed, eager_life.anomalies_suppressed);
  EXPECT_EQ(lazy_life.opaque_programs, eager_life.opaque_programs);
  EXPECT_EQ(lazy_life.unresolved_programs, eager_life.unresolved_programs);

  EXPECT_EQ(lazy.Kinds(), eager.Kinds());
  EXPECT_EQ(lazy.Kinds().at("package.notify"), ProgramKind::kDomainEntry);
}

}  // namespace
}  // namespace imax432
