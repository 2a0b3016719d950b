// Ground truth for the static race detector: a pair the static pass reports really does
// race when run under the dynamic sanitizer, and a pair it proves ordered really is silent.
// Also covers the analysis-state lifecycle (ForgetProgramAnalysis drops the summary, the
// deferred initial argument, and the diagnostic name) and the SystemConfig wiring.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/analysis/races/races.h"
#include "src/analysis/races/sanitizer.h"
#include "src/exec/kernel.h"
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

class RaceCorpusTest : public ::testing::Test {
 protected:
  RaceCorpusTest() : machine_(SmallConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {
    EXPECT_TRUE(kernel_.AddProcessors(1).ok());
    kernel_.EnableRaceSanitizer();
  }

  AccessDescriptor MakeObject(const std::string& name, uint32_t access_slots = 0) {
    auto object = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 64,
                                       access_slots, rights::kRead | rights::kWrite);
    EXPECT_TRUE(object.ok());
    kernel_.symbols().Name(object.value().index(), name);
    return object.value();
  }

  AccessDescriptor MakePort(const std::string& name) {
    auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    kernel_.symbols().Name(port.value().index(), name);
    return port.value();
  }

  // carrier slot 0 = shared object, slot 1 = port (when given).
  AccessDescriptor MakeCarrier(const AccessDescriptor& shared, const AccessDescriptor& port) {
    AccessDescriptor carrier = MakeObject("carrier", /*access_slots=*/2);
    EXPECT_TRUE(machine_.addressing().WriteAd(carrier, 0, shared).ok());
    if (!port.is_null()) {
      EXPECT_TRUE(machine_.addressing().WriteAd(carrier, 1, port).ok());
    }
    return carrier;
  }

  AccessDescriptor Create(Assembler& assembler, const AccessDescriptor& carrier) {
    ProcessOptions options;
    options.initial_arg = carrier;
    auto process = kernel_.CreateProcess(assembler.Build(), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    return process.ok() ? process.value() : AccessDescriptor();
  }

  AccessDescriptor Spawn(Assembler& assembler, const AccessDescriptor& carrier) {
    AccessDescriptor process = Create(assembler, carrier);
    EXPECT_TRUE(kernel_.StartProcess(process).ok());
    return process;
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
};

TEST_F(RaceCorpusTest, StaticReportIsConfirmedByTheSanitizer) {
  AccessDescriptor shared = MakeObject("corpus.counter");
  AccessDescriptor carrier = MakeCarrier(shared, AccessDescriptor());
  Assembler w0("corpus.w0");
  w0.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadImm(0, 1).StoreData(2, 0, 0).Halt();
  Assembler w1("corpus.w1");
  w1.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadImm(0, 2).StoreData(2, 0, 0).Halt();
  Spawn(w0, carrier);
  Spawn(w1, carrier);

  // Static verdict before a single instruction executes: one write-write diagnostic on the
  // shared counter, named in the rendered message.
  analysis::RaceAnalysisReport report = kernel_.AnalyzeRaces();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatRaceReport(report);
  EXPECT_EQ(report.diagnostics[0].object, shared.index());
  EXPECT_EQ(report.diagnostics[0].part, analysis::ObjectPart::kData);
  EXPECT_NE(report.diagnostics[0].message.find("corpus.counter"), std::string::npos)
      << report.diagnostics[0].message;

  // Dynamic ground truth: running the pair trips the sanitizer on the same object.
  kernel_.Run();
  ASSERT_FALSE(kernel_.race_sanitizer()->races().empty());
  EXPECT_EQ(kernel_.race_sanitizer()->races().front().object, shared.index());
}

TEST_F(RaceCorpusTest, StaticOrderedPairStaysSilentDynamically) {
  AccessDescriptor shared = MakeObject("corpus.cell");
  AccessDescriptor port = MakePort("corpus.token");
  AccessDescriptor carrier = MakeCarrier(shared, port);
  Assembler writer("corpus.writer");
  writer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .LoadImm(0, 7)
      .StoreData(2, 0, 0)
      .Send(3, 1)
      .Halt();
  Assembler reader("corpus.reader");
  reader.MoveAd(1, kArgAdReg)
      .LoadAd(3, 1, 1)
      .Receive(4, 3)
      .LoadAd(2, 1, 0)
      .LoadData(0, 2, 0)
      .Halt();
  Spawn(writer, carrier);
  Spawn(reader, carrier);

  analysis::RaceAnalysisReport report = kernel_.AnalyzeRaces();
  EXPECT_TRUE(report.ok()) << analysis::FormatRaceReport(report);
  EXPECT_GE(report.pairs_ordered, 1u);

  kernel_.Run();
  EXPECT_TRUE(kernel_.race_sanitizer()->races().empty());
}

// Five topologies side by side in one kernel, each on its own object: the unordered
// write/write and write/read pairs are reported, each on its own object; the send/receive
// pair and the relayed pair are ordered; the cond-send pair is suppressed. The processes are
// created but never started.
TEST_F(RaceCorpusTest, FiveTopologiesInOneSystemKeepTheirOwnVerdicts) {
  AccessDescriptor counter = MakeObject("racy.counter");
  AccessDescriptor buffer = MakeObject("racy.buffer");
  AccessDescriptor sync = MakeObject("sync.cell");
  AccessDescriptor relay = MakeObject("relay.cell");
  AccessDescriptor cond = MakeObject("cond.cell");
  AccessDescriptor sync_port = MakePort("sync.token");
  AccessDescriptor relay_t = MakePort("relay.t");
  AccessDescriptor relay_u = MakePort("relay.u");
  AccessDescriptor cond_port = MakePort("cond.token");

  // Each program starts with a2 = carrier slot 0 (the shared object, or for the relay hop
  // its inbound port) and a3 = carrier slot 1 (a port, when given).
  auto add = [&](const char* name, const AccessDescriptor& slot0,
                 const AccessDescriptor& slot1, const std::function<void(Assembler&)>& body) {
    Assembler a(name);
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0);
    if (!slot1.is_null()) a.LoadAd(3, 1, 1);
    body(a);
    a.Halt();
    Create(a, MakeCarrier(slot0, slot1));
  };
  auto write = [](Assembler& a) { a.StoreData(2, 0, 0); };
  auto read = [](Assembler& a) { a.LoadData(0, 2, 0); };
  auto write_then_send = [](Assembler& a) { a.StoreData(2, 0, 0).Send(3, 1); };
  auto receive_then_read = [](Assembler& a) { a.Receive(4, 3).LoadData(0, 2, 0); };
  add("racy.w0", counter, {}, write);
  add("racy.w1", counter, {}, write);
  add("racy.writer", buffer, {}, write);
  add("racy.reader", buffer, {}, read);
  add("sync.writer", sync, sync_port, write_then_send);
  add("sync.reader", sync, sync_port, receive_then_read);
  add("relay.writer", relay, relay_t, write_then_send);
  add("relay.hop", relay_t, relay_u, [](Assembler& a) { a.Receive(4, 2).Send(3, 1); });
  add("relay.reader", relay, relay_u, receive_then_read);
  add("cond.writer", cond, cond_port,
      [](Assembler& a) { a.StoreData(2, 0, 0).CondSend(3, 1, 0); });
  add("cond.reader", cond, cond_port, receive_then_read);

  analysis::RaceAnalysisReport report = kernel_.AnalyzeRaces();
  ASSERT_EQ(report.diagnostics.size(), 2u) << analysis::FormatRaceReport(report);
  for (const analysis::RaceDiagnostic& diagnostic : report.diagnostics) {
    ASSERT_EQ(diagnostic.pairs.size(), 1u) << diagnostic.message;
    const analysis::RacePair& pair = diagnostic.pairs[0];
    if (diagnostic.object == counter.index()) {
      EXPECT_EQ(pair.first->kind, analysis::AccessKind::kWrite);
      EXPECT_EQ(pair.second->kind, analysis::AccessKind::kWrite);
    } else {
      EXPECT_EQ(diagnostic.object, buffer.index()) << diagnostic.message;
      EXPECT_NE(pair.first->kind, pair.second->kind);  // one write, one read
    }
  }
  EXPECT_NE(report.diagnostics[0].object, report.diagnostics[1].object);
  EXPECT_GE(report.pairs_ordered, 2u);     // sync and relay
  EXPECT_GE(report.pairs_suppressed, 1u);  // cond
}

TEST_F(RaceCorpusTest, ForgetProgramAnalysisClearsSummaryNameAndDeferredArgument) {
  AccessDescriptor shared = MakeObject("forget.cell");
  AccessDescriptor port = MakePort("forget.port");
  AccessDescriptor carrier = MakeCarrier(shared, port);
  Assembler sender("forget.sender");
  sender.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).Send(3, 1).Halt();
  Spawn(sender, carrier);

  // The first analysis computes the deferred summary; the concrete carrier argument makes
  // the send resolve to the named port.
  kernel_.AnalyzeRaces();
  ASSERT_EQ(kernel_.effect_graph().programs().size(), 1u);
  const ObjectIndex segment = kernel_.effect_graph().programs().begin()->first;
  EXPECT_TRUE(kernel_.effect_graph().programs().begin()->second.summary.SendsTo(port.index()));
  kernel_.symbols().Name(segment, "forget.segment");
  ASSERT_NE(kernel_.symbols().Find(segment), nullptr);

  kernel_.ForgetProgramAnalysis(segment);
  EXPECT_FALSE(kernel_.effect_graph().HasProgram(segment));
  EXPECT_EQ(kernel_.symbols().Find(segment), nullptr);

  // The program itself is still registered, so re-analysis recomputes a summary — but the
  // deferred initial-argument fact is gone too, so the send no longer resolves. A stale
  // cached argument here would quietly resurrect the old resolution.
  kernel_.AnalyzeRaces();
  ASSERT_TRUE(kernel_.effect_graph().HasProgram(segment));
  const analysis::EffectSummary& recomputed =
      kernel_.effect_graph().programs().at(segment).summary;
  EXPECT_FALSE(recomputed.SendsTo(port.index()));
  EXPECT_TRUE(recomputed.has_unresolved_send);
}

TEST(RaceCorpusSystemTest, SystemConfigWiresTheSanitizer) {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 1;
  config.start_gc_daemon = false;
  ASSERT_EQ(System(config).kernel().race_sanitizer(), nullptr);

  config.race_sanitize = true;
  System system(config);
  ASSERT_NE(system.kernel().race_sanitizer(), nullptr);

  auto shared = system.memory().CreateObject(system.memory().global_heap(),
                                             SystemType::kGeneric, 64, 0,
                                             rights::kRead | rights::kWrite);
  ASSERT_TRUE(shared.ok());
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 16, 1,
                                              rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(system.machine().addressing().WriteAd(carrier.value(), 0, shared.value()).ok());

  for (int i = 0; i < 2; ++i) {
    Assembler a("system.w" + std::to_string(i));
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadImm(0, i).StoreData(2, 0, 0).Halt();
    ProcessOptions options;
    options.initial_arg = carrier.value();
    ASSERT_TRUE(system.Spawn(a.Build(), options).ok());
  }
  system.Run();
  EXPECT_FALSE(system.kernel().race_sanitizer()->races().empty());
}

TEST(RaceCorpusSystemTest, BootedSystemIsCleanStaticallyAndDynamically) {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 2;
  config.race_sanitize = true;
  System system(config);  // GC daemon on: a real resident process in the mix

  analysis::RaceAnalysisReport report = system.kernel().AnalyzeRaces();
  EXPECT_TRUE(report.ok()) << analysis::FormatRaceReport(report);

  system.RunUntil(200000);
  EXPECT_TRUE(system.kernel().race_sanitizer()->races().empty());
}

}  // namespace
}  // namespace imax432
