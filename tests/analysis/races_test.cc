// Static data-race detection (src/analysis/races/races.h): the three-tier verdicts —
// proven ordered, suppressed-by-ambiguity, reported — and every disqualifier on the
// happens-before proof.

#include "src/analysis/races/races.h"

#include <gtest/gtest.h>

#include <map>

#include "src/analysis/effects.h"
#include "src/arch/rights.h"
#include "src/isa/assembler.h"
#include "src/isa/disassembler.h"

namespace imax432 {
namespace analysis {
namespace {

// Fixture world: object 1 = carrier; slots 0/1/2 = ports 10/11/12, slots 3/4 = plain
// shared objects 30/31, slot 5 = domain 20 whose entry 0 is segment 21.
constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kPortA = 10;
constexpr ObjectIndex kPortB = 11;
constexpr ObjectIndex kPortC = 12;
constexpr ObjectIndex kShared = 30;
constexpr ObjectIndex kOther = 31;
constexpr ObjectIndex kDomain = 20;
constexpr ObjectIndex kSegment = 21;

AccessDescriptor Ad(ObjectIndex index) { return AccessDescriptor(index, 0, rights::kAll); }

EffectOptions WorldOptions(const SymbolTable* symbols = nullptr) {
  EffectOptions options;
  options.initial_arg = Ad(kCarrier);
  options.symbols = symbols;
  options.slot_reader = [](ObjectIndex index, uint32_t slot) -> AccessDescriptor {
    static const std::map<std::pair<ObjectIndex, uint32_t>, ObjectIndex> kSlots = {
        {{kCarrier, 0}, kPortA},
        {{kCarrier, 1}, kPortB},
        {{kCarrier, 2}, kPortC},
        {{kCarrier, 3}, kShared},
        {{kCarrier, 4}, kOther},
        {{kCarrier, 5}, kDomain},
        {{kDomain, 0}, kSegment},
    };
    auto it = kSlots.find({index, slot});
    return it == kSlots.end() ? AccessDescriptor() : Ad(it->second);
  };
  return options;
}

// A graph under construction: programs are summarized against the fixture world and keyed
// by synthetic segment indices starting at 100 (the domain callee uses kSegment).
struct World {
  SystemEffectGraph graph;
  ObjectIndex next_segment = 100;

  ObjectIndex Add(Assembler& a, ProgramKind kind = ProgramKind::kProcess,
                  ObjectIndex segment = kInvalidObjectIndex) {
    if (segment == kInvalidObjectIndex) segment = next_segment++;
    graph.AddProgram(segment, AnalyzeProgram(*a.Build(), WorldOptions()).effects, kind);
    return segment;
  }

  RaceAnalysisReport Analyze() { return AnalyzeRaces(graph); }
};

Assembler Writer(const char* name, uint32_t slot = 3) {
  Assembler a(name);
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, slot).StoreData(2, 0, 0, 8).Halt();
  return a;
}

Assembler Reader(const char* name, uint32_t slot = 3) {
  Assembler a(name);
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, slot).LoadData(0, 2, 0, 8).Halt();
  return a;
}

// Writes the shared object, then blocking-sends the token to port `port_slot`.
Assembler SyncWriter(const char* name, uint32_t port_slot = 0) {
  Assembler a(name);
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadAd(3, 1, port_slot)
      .StoreData(2, 0, 0, 8)
      .Send(3, 1)
      .Halt();
  return a;
}

// Blocking-receives the token from port `port_slot`, then reads the shared object.
Assembler SyncReader(const char* name, uint32_t port_slot = 0) {
  Assembler a(name);
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadAd(3, 1, port_slot)
      .Receive(4, 3)
      .LoadData(0, 2, 0, 8)
      .Halt();
  return a;
}

TEST(RacesTest, UnorderedWritesAreReported) {
  World world;
  Assembler w0 = Writer("w0"), w1 = Writer("w1");
  world.Add(w0);
  world.Add(w1);
  RaceAnalysisReport report = world.Analyze();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].object, kShared);
  EXPECT_EQ(report.diagnostics[0].part, ObjectPart::kData);
  ASSERT_EQ(report.diagnostics[0].pairs.size(), 1u);
  EXPECT_EQ(report.pairs_checked, 1u);
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_EQ(report.pairs_suppressed, 0u);
  EXPECT_FALSE(report.ok());
}

TEST(RacesTest, UnorderedWriteReadIsReported) {
  World world;
  Assembler w = Writer("writer"), r = Reader("reader");
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const RacePair& pair = report.diagnostics[0].pairs[0];
  EXPECT_EQ(pair.first_program, "reader");  // alphabetical
  EXPECT_EQ(pair.second_program, "writer");
}

TEST(RacesTest, ReadReadNeverConflicts) {
  World world;
  Assembler r0 = Reader("r0"), r1 = Reader("r1");
  world.Add(r0);
  world.Add(r1);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_checked, 0u);
  EXPECT_EQ(report.objects_shared, 2u);  // kShared and the carrier's access part
}

TEST(RacesTest, SameProcessAccessesNeverConflict) {
  World world;
  Assembler a("solo");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .StoreData(2, 0, 0, 8)
      .LoadData(0, 2, 0, 8)
      .Halt();
  world.Add(a);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_checked, 0u);
  EXPECT_EQ(report.objects_shared, 0u);
}

TEST(RacesTest, DataAndAccessPartsAreDisjoint) {
  World world;
  Assembler data_writer = Writer("data_writer");
  Assembler ad_writer("ad_writer");
  ad_writer.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).StoreAd(2, 1, 0).Halt();
  world.Add(data_writer);
  world.Add(ad_writer);
  RaceAnalysisReport report = world.Analyze();
  // data write vs access write on the same object: disjoint storage, no pair.
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_checked, 0u);
}

TEST(RacesTest, DestroyConflictsWithRead) {
  World world;
  Assembler destroyer("destroyer");
  destroyer.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).DestroyObject(2).Halt();
  Assembler r = Reader("reader");
  world.Add(destroyer);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].object, kShared);
}

TEST(RacesTest, SendReceiveOrdersThePair) {
  World world;
  Assembler w = SyncWriter("sync_writer"), r = SyncReader("sync_reader");
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok()) << FormatRaceReport(report);
  EXPECT_EQ(report.pairs_ordered, 1u);
  EXPECT_EQ(report.pairs_suppressed, 0u);
}

TEST(RacesTest, RelayChainExtendsTheOrdering) {
  World world;
  Assembler w = SyncWriter("relay_writer", 0);  // write, send A
  Assembler hop("relay_hop");                   // receive A, send B
  hop.MoveAd(1, kArgAdReg)
      .LoadAd(3, 1, 0)
      .LoadAd(4, 1, 1)
      .Receive(5, 3)
      .Send(4, 1)
      .Halt();
  Assembler r = SyncReader("relay_reader", 1);  // receive B, read
  world.Add(w);
  world.Add(hop);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok()) << FormatRaceReport(report);
  EXPECT_EQ(report.pairs_ordered, 1u);
}

TEST(RacesTest, CondSendSuppressesWithoutOrdering) {
  World world;
  Assembler w("cond_writer");
  w.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadAd(3, 1, 0)
      .StoreData(2, 0, 0, 8)
      .CondSend(3, 1, 0)
      .Halt();
  Assembler r = SyncReader("cond_reader");
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok()) << FormatRaceReport(report);
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_EQ(report.pairs_suppressed, 1u);
}

TEST(RacesTest, WriteAfterTheSendIsNotOrdered) {
  // The send precedes the write, so nothing released the write; the pair stays ambiguous
  // (the two still communicate, so it is suppressed rather than reported).
  World world;
  Assembler w("late_writer");
  w.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadAd(3, 1, 0)
      .Send(3, 1)
      .StoreData(2, 0, 0, 8)
      .Halt();
  Assembler r = SyncReader("late_reader");
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_EQ(report.pairs_suppressed, 1u);
}

TEST(RacesTest, ExternalSenderBreaksQualification) {
  World world;
  Assembler w = SyncWriter("ext_writer"), r = SyncReader("ext_reader");
  world.Add(w);
  world.Add(r);
  world.graph.MarkExternalSender(kPortA);
  RaceAnalysisReport report = world.Analyze();
  // The reader's receive might have matched the external message instead: no proof, but
  // still may-communication, so suppressed.
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_EQ(report.pairs_suppressed, 1u);
}

TEST(RacesTest, SecondSenderBreaksQualification) {
  World world;
  Assembler w = SyncWriter("two_writer"), r = SyncReader("two_reader");
  Assembler other("other_sender");
  other.MoveAd(1, kArgAdReg).LoadAd(3, 1, 0).Send(3, 1).Halt();
  world.Add(w);
  world.Add(r);
  world.Add(other);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_GE(report.pairs_suppressed, 1u);
}

TEST(RacesTest, SecondSendSiteBreaksQualification) {
  // Two send sites in one program: a completed receive may have matched the *other* send,
  // which nothing orders after the write.
  World world;
  Assembler w("double_writer");
  w.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadAd(3, 1, 0)
      .Send(3, 1)
      .StoreData(2, 0, 0, 8)
      .Send(3, 1)
      .Halt();
  Assembler r = SyncReader("double_reader");
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_EQ(report.pairs_suppressed, 1u);
}

TEST(RacesTest, LoopingSenderBreaksQualification) {
  // A sender that may not terminate can send again and again; "the" message is no longer
  // unique, so the matched-receive argument collapses.
  World world;
  Assembler w("loop_writer");
  auto loop = w.NewLabel();
  w.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadAd(3, 1, 0)
      .Bind(loop)
      .StoreData(2, 0, 0, 8)
      .Send(3, 1)
      .BranchIfZero(0, loop)
      .Halt();
  Assembler r = SyncReader("loop_reader");
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_GE(report.pairs_suppressed, 1u);
}

TEST(RacesTest, CalleeSendDoesNotQualify) {
  // The write and the send both live in a domain callee, which may execute once per call
  // site; only the root program's single site proves a unique message.
  World world;
  Assembler callee("callee");  // sends the token on the caller's behalf
  callee.MoveAd(1, kArgAdReg).LoadAd(3, 1, 0).Send(3, 1).Return();
  Assembler w("call_writer");
  w.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadAd(5, 1, 5)
      .StoreData(2, 0, 0, 8)
      .Call(5, 0)
      .Halt();
  Assembler r = SyncReader("call_reader");
  world.Add(callee, ProgramKind::kDomainEntry, kSegment);
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  // The pair still communicates (suppressed), but no happens-before proof exists for the
  // writer's store.
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.pairs_ordered, 0u);
  EXPECT_GE(report.pairs_suppressed, 1u);
}

TEST(RacesTest, DisjointPortsStillReportWhenSystemIsClosed) {
  // Writer sends into a port nobody reads; reader receives from a port nobody feeds. In a
  // closed system no execution connects them: still a race.
  World world;
  Assembler w = SyncWriter("deaf_writer", 0);
  Assembler r = SyncReader("mute_reader", 1);
  world.Add(w);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].object, kShared);
}

TEST(RacesTest, OpaqueProgramBridgesDisjointPorts) {
  // The same topology with opaque code in the system: the unknown actor may relay the
  // token, so the pair is suppressed instead of reported.
  World world;
  Assembler w = SyncWriter("deaf_writer", 0);
  Assembler r = SyncReader("mute_reader", 1);
  Assembler ghost("ghost");
  ghost.Native([](ExecutionContext&) -> Result<NativeResult> { return NativeResult{}; }).Halt();
  world.Add(w);
  world.Add(r);
  world.Add(ghost);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.pairs_suppressed, 1u);
  EXPECT_EQ(report.opaque_programs, 1u);
}

TEST(RacesTest, OpaqueThirdPartyCannotMaskAutonomousRace) {
  // Two port-free programs cannot be ordered by anyone, however much unknown code runs
  // beside them: the race stays reported.
  World world;
  Assembler w0 = Writer("w0"), w1 = Writer("w1");
  Assembler ghost("ghost");
  ghost.Native([](ExecutionContext&) -> Result<NativeResult> { return NativeResult{}; }).Halt();
  world.Add(w0);
  world.Add(w1);
  world.Add(ghost);
  RaceAnalysisReport report = world.Analyze();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].object, kShared);
}

TEST(RacesTest, UnresolvedAccessesAreCountedNotReported) {
  World world;
  Assembler blind("blind");
  blind.MoveAd(1, kArgAdReg).LoadAd(3, 1, 0).Receive(4, 3).StoreData(4, 0, 0, 8).Halt();
  Assembler r = Reader("reader");
  world.Add(blind);
  world.Add(r);
  RaceAnalysisReport report = world.Analyze();
  EXPECT_EQ(report.unresolved_access_programs, 1u);
  // The blind store could alias kShared, but unresolved sites never become diagnostics.
  EXPECT_TRUE(report.ok());
}

TEST(RacesTest, ReportMessageNamesProgramsAndObject) {
  SymbolTable symbols;
  symbols.Name(kShared, "account");
  World world;
  Assembler w0 = Writer("alpha"), w1 = Writer("beta");
  world.graph.set_symbols(&symbols);
  // Re-summarize with symbols so disassembly picks up names.
  world.graph.AddProgram(100, AnalyzeProgram(*w0.Build(), WorldOptions(&symbols)).effects);
  world.graph.AddProgram(101, AnalyzeProgram(*w1.Build(), WorldOptions(&symbols)).effects);
  RaceAnalysisReport report = world.Analyze();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const RaceDiagnostic& diagnostic = report.diagnostics[0];
  EXPECT_EQ(diagnostic.programs, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_NE(diagnostic.message.find("'account'"), std::string::npos);
  EXPECT_NE(diagnostic.message.find("store_data"), std::string::npos);
  EXPECT_NE(diagnostic.message.find("data part"), std::string::npos);
  std::string formatted = FormatRaceReport(report);
  EXPECT_NE(formatted.find("error  data-race"), std::string::npos);
}

TEST(RacesTest, EmptyGraphIsClean) {
  SystemEffectGraph graph;
  RaceAnalysisReport report = AnalyzeRaces(graph);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.programs_analyzed, 0u);
  EXPECT_EQ(report.pairs_checked, 0u);
  EXPECT_EQ(FormatRaceReport(report), "");
}

}  // namespace
}  // namespace analysis
}  // namespace imax432
