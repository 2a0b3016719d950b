// Phase 1 (per-program allocation-site summaries) and phase 2 (whole-system composition)
// of the lifetime analysis, over the same synthetic world effects_test.cc uses: a slot
// reader answers loads, no machine required.

#include "src/analysis/lifetime/lifetime.h"

#include <gtest/gtest.h>

#include <map>

#include "src/arch/rights.h"
#include "src/isa/assembler.h"

namespace imax432 {
namespace analysis {
namespace {

constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kOther = 2;
constexpr ObjectIndex kPortA = 10;

AccessDescriptor Ad(ObjectIndex index) { return AccessDescriptor(index, 0, rights::kAll); }

EffectOptions WorldOptions() {
  EffectOptions options;
  options.initial_arg = Ad(kCarrier);
  options.slot_reader = [](ObjectIndex index, uint32_t slot) -> AccessDescriptor {
    static const std::map<std::pair<ObjectIndex, uint32_t>, ObjectIndex> kSlots = {
        {{kCarrier, 0}, kPortA},
        {{kCarrier, 3}, kOther},
    };
    auto it = kSlots.find({index, slot});
    return it == kSlots.end() ? AccessDescriptor() : Ad(it->second);
  };
  return options;
}

LifetimeSummary Analyze(Assembler& a) {
  return AnalyzeProgram(*a.Build(), WorldOptions()).lifetime;
}

// --- Phase 1: site detection and escape facts ---

TEST(LifetimeTest, SitesAreDetectedInProgramOrderWithShape) {
  Assembler a("two-sites");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 32, 2)
      .CreateObject(3, 1, 64, 0)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 2u);
  EXPECT_EQ(summary.sites[0].pc, 1u);
  EXPECT_EQ(summary.sites[0].data_bytes, 32u);
  EXPECT_EQ(summary.sites[0].access_slots, 2u);
  EXPECT_EQ(summary.sites[1].pc, 2u);
  EXPECT_EQ(summary.sites[1].data_bytes, 64u);
  EXPECT_NE(summary.sites[0].disasm.find("create_object"), std::string::npos);
}

TEST(LifetimeTest, ContextLocalSiteIsDemotable) {
  Assembler a("local");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .MoveAd(3, 2)  // moves do not escape
      .ClearAd(3)
      .ClearAd(2)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 1u);
  const AllocationSite& site = summary.sites[0];
  EXPECT_TRUE(site.heap_stores.empty());
  EXPECT_FALSE(site.sent || site.passed_to_call || site.returned || site.destroyed ||
               site.unresolved);
  EXPECT_EQ(DemotableSites(summary), std::vector<uint32_t>{1u});
}

TEST(LifetimeTest, StoreIntoPreexistingObjectRecordsHeapStore) {
  Assembler a("escapes-store");
  a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).StoreAd(1, 2, 4).Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 1u);
  ASSERT_EQ(summary.sites[0].heap_stores.size(), 1u);
  const HeapStore& store = summary.sites[0].heap_stores[0];
  EXPECT_EQ(store.container, kCarrier);
  EXPECT_EQ(store.slot, 4u);
  EXPECT_EQ(store.pc, 2u);
  EXPECT_TRUE(DemotableSites(summary).empty());
}

TEST(LifetimeTest, IndexedStoreRecordsUnknownSlot) {
  Assembler a("escapes-indexed");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .LoadImm(0, 3)
      .StoreAdIndexed(1, 2, 0)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites[0].heap_stores.size(), 1u);
  EXPECT_EQ(summary.sites[0].heap_stores[0].slot, kUnknownSlot);
}

TEST(LifetimeTest, SendAndCondSendMarkSent) {
  Assembler a("escapes-send");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)         // a2 = port A
      .CreateObject(3, 1, 16)
      .Send(2, 3)
      .CreateObject(4, 1, 16)
      .CondSend(2, 4, 0)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 2u);
  EXPECT_TRUE(summary.sites[0].sent);
  EXPECT_TRUE(summary.sites[1].sent);
  EXPECT_FALSE(summary.sent_unknown);
  EXPECT_TRUE(DemotableSites(summary).empty());
}

TEST(LifetimeTest, CallArgumentMarksPassedToCall) {
  Assembler a("escapes-call");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(kArgAdReg, 1, 16)
      .CallLocal(5)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 1u);
  EXPECT_TRUE(summary.sites[0].passed_to_call);
  EXPECT_TRUE(DemotableSites(summary).empty());
}

TEST(LifetimeTest, ReturnValueMarksReturned) {
  Assembler a("escapes-return");
  a.MoveAd(1, kArgAdReg).CreateObject(kArgAdReg, 1, 16).Return();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 1u);
  EXPECT_TRUE(summary.sites[0].returned);
  EXPECT_TRUE(DemotableSites(summary).empty());
}

TEST(LifetimeTest, DestroyMarksDestroyedNotDemotable) {
  // An explicitly destroyed site must never be demoted: destroy_object on a demote-SRO
  // object would double-reclaim at context exit.
  Assembler a("destroys");
  a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).DestroyObject(2).Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 1u);
  EXPECT_TRUE(summary.sites[0].destroyed);
  EXPECT_TRUE(DemotableSites(summary).empty());
}

TEST(LifetimeTest, StoreThroughUnresolvedContainerIsUnresolvedTier) {
  Assembler a("unresolved-container");
  a.MoveAd(1, kArgAdReg)
      .Receive(2, 1)           // a2 unknown: could be any object
      .CreateObject(3, 1, 16)
      .StoreAd(2, 3, 0)        // stored somewhere we cannot name
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 1u);
  EXPECT_TRUE(summary.sites[0].unresolved);
  EXPECT_TRUE(summary.sites[0].heap_stores.empty());
  EXPECT_TRUE(DemotableSites(summary).empty());
}

TEST(LifetimeTest, SendOfUnknownPayloadSetsSentUnknown) {
  Assembler a("sends-unknown");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Receive(3, 2).Send(2, 3).Halt();
  LifetimeSummary summary = Analyze(a);
  EXPECT_TRUE(summary.sent_unknown);
}

TEST(LifetimeTest, SiblingStoreInheritsDemotabilityFromTarget) {
  // site0 is stored into site1 only. If site1 is context-local both are demotable ...
  Assembler a("siblings-local");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 0, 4)  // site0: the container sibling
      .CreateObject(3, 1, 16)    // site1: stored into site0
      .StoreAd(2, 3, 0)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 2u);
  EXPECT_EQ(summary.sites[1].stored_into_sites, std::vector<uint16_t>{0});
  EXPECT_EQ(DemotableSites(summary), (std::vector<uint32_t>{1u, 2u}));

  // ... but if the sibling container escapes, the stored site's lifetime is no longer
  // bounded by the context and demotability must not propagate.
  Assembler b("siblings-escape");
  b.MoveAd(1, kArgAdReg)
      .LoadAd(4, 1, 0)
      .CreateObject(2, 1, 0, 4)
      .CreateObject(3, 1, 16)
      .StoreAd(2, 3, 0)
      .Send(4, 2)
      .Halt();
  LifetimeSummary escaped = AnalyzeProgram(*b.Build(), WorldOptions()).lifetime;
  EXPECT_TRUE(DemotableSites(escaped).empty());
}

TEST(LifetimeTest, NativeStepMakesProgramOpaqueAndNothingDemotable) {
  Assembler a("opaque");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .Native([](ExecutionContext&) -> Result<NativeResult> { return NativeResult{}; })
      .Halt();
  LifetimeSummary summary = Analyze(a);
  EXPECT_TRUE(summary.opaque);
  EXPECT_TRUE(DemotableSites(summary).empty());
}

TEST(LifetimeTest, KnownOsServicesStayPreciseUnknownOnesAreOpaque) {
  Assembler a("yields");
  a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).OsCall(1 /* yield */).Halt();
  LifetimeSummary summary = Analyze(a);
  EXPECT_FALSE(summary.opaque);
  EXPECT_EQ(DemotableSites(summary).size(), 1u);

  Assembler b("package-call");
  b.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).OsCall(77).Halt();
  LifetimeSummary opaque = AnalyzeProgram(*b.Build(), WorldOptions()).lifetime;
  EXPECT_TRUE(opaque.opaque);
  EXPECT_TRUE(DemotableSites(opaque).empty());
}

TEST(LifetimeTest, LoadBackThroughDirtiedContainerStaysSound) {
  // Storing the site dirties the carrier; the load gets top, so the send cannot claim a
  // resolved payload — but the heap store already made the site non-demotable, and the
  // unknown payload voids whole-system claims. No fact is lost, only precision.
  Assembler a("round-trip");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(4, 1, 0)
      .CreateObject(2, 1, 16)
      .StoreAd(1, 2, 5)
      .LoadAd(3, 1, 5)
      .Send(4, 3)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.sites.size(), 1u);
  EXPECT_FALSE(summary.sites[0].heap_stores.empty());
  EXPECT_TRUE(summary.sent_unknown);
  EXPECT_TRUE(DemotableSites(summary).empty());
}

// --- Phase 1: retention anomalies ---

TEST(LifetimeTest, OverwritingSoleReferenceIsAnAnomaly) {
  Assembler a("killer");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .StoreAd(1, 2, 4)   // the only AD lands in carrier[4]
      .ClearAd(2)         // no register holds it any more
      .StoreAd(1, 3, 4)   // null overwrites it: the object is unreachable garbage
      .Halt();
  LifetimeSummary summary = Analyze(a);
  ASSERT_EQ(summary.anomalies.size(), 1u);
  const RetentionAnomaly& anomaly = summary.anomalies[0];
  EXPECT_EQ(anomaly.site, 0u);
  EXPECT_EQ(anomaly.store_pc, 2u);
  EXPECT_EQ(anomaly.overwrite_pc, 4u);
  EXPECT_EQ(anomaly.container, kCarrier);
  EXPECT_EQ(anomaly.slot, 4u);
}

TEST(LifetimeTest, NoAnomalyWhileARegisterStillHoldsTheSite) {
  Assembler a("kept");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .StoreAd(1, 2, 4)
      .StoreAd(1, 3, 4)   // a2 still names the object: nothing is lost
      .Halt();
  LifetimeSummary summary = Analyze(a);
  EXPECT_TRUE(summary.anomalies.empty());
}

TEST(LifetimeTest, NoAnomalyWhenTheSameSiteIsRestored) {
  Assembler a("restore");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .StoreAd(1, 2, 4)
      .StoreAd(1, 2, 4)   // overwrite with itself
      .Halt();
  LifetimeSummary summary = Analyze(a);
  EXPECT_TRUE(summary.anomalies.empty());
}

TEST(LifetimeTest, NoAnomalyWhenTheSiteLivesInASecondCell) {
  Assembler a("two-cells");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .StoreAd(1, 2, 4)
      .StoreAd(1, 2, 5)   // second home: not a sole-cell site
      .ClearAd(2)
      .StoreAd(1, 3, 4)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  EXPECT_TRUE(summary.anomalies.empty());
}

TEST(LifetimeTest, UnresolvedStoreValueVoidsAnomalyClaims) {
  // A top value stored anywhere could be the site's AD surviving somewhere we cannot see.
  Assembler a("muddy");
  a.MoveAd(1, kArgAdReg)
      .Receive(5, 1)      // a5 = top
      .StoreAd(1, 5, 7)   // stored_top
      .CreateObject(2, 1, 16)
      .StoreAd(1, 2, 4)
      .ClearAd(2)
      .StoreAd(1, 3, 4)
      .Halt();
  LifetimeSummary summary = Analyze(a);
  EXPECT_TRUE(summary.stored_top);
  EXPECT_TRUE(summary.anomalies.empty());
}

// --- Phase 2: whole-system composition ---

struct World {
  SystemEffectGraph graph;
  std::map<ObjectIndex, LifetimeSummary> lifetimes;

  void Add(ObjectIndex segment, Assembler& a) {
    ProgramRef program = a.Build();
    ProgramSummary summary = AnalyzeProgram(*program, WorldOptions());
    graph.AddProgram(segment, std::move(summary.effects));
    lifetimes.emplace(segment, std::move(summary.lifetime));
  }
};

TEST(LifetimeSystemTest, StoreNobodyReadsBackIsALeakSuspect) {
  Assembler a("stasher");
  a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).StoreAd(1, 2, 4).Halt();
  World world;
  world.Add(100, a);
  LifetimeAnalysisReport report = AnalyzeLifetimes(world.graph, world.lifetimes);
  ASSERT_EQ(report.leaks.size(), 1u);
  EXPECT_EQ(report.leaks[0].container, kCarrier);
  EXPECT_EQ(report.leaks[0].alloc_pc, 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(FormatLifetimeReport(report).find("leak suspect"), std::string::npos);
}

TEST(LifetimeSystemTest, AReadBackAnywhereRetractsTheLeak) {
  Assembler a("stasher");
  a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).StoreAd(1, 2, 4).Halt();
  Assembler b("reader");
  b.MoveAd(1, kArgAdReg).LoadAd(2, 1, 4).Halt();
  World world;
  world.Add(100, a);
  world.Add(101, b);
  LifetimeAnalysisReport report = AnalyzeLifetimes(world.graph, world.lifetimes);
  EXPECT_TRUE(report.leaks.empty());
  EXPECT_TRUE(report.ok());
}

TEST(LifetimeSystemTest, AnyOpaqueProgramSuppressesEveryClaim) {
  Assembler a("stasher");
  a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).StoreAd(1, 2, 4).Halt();
  Assembler daemon("daemon");
  daemon.Native([](ExecutionContext&) -> Result<NativeResult> { return NativeResult{}; })
      .Halt();
  World world;
  world.Add(100, a);
  world.Add(101, daemon);
  LifetimeAnalysisReport report = AnalyzeLifetimes(world.graph, world.lifetimes);
  EXPECT_TRUE(report.leaks.empty());
  EXPECT_EQ(report.leaks_suppressed, 1u);
  EXPECT_GE(report.opaque_programs, 1u);
  EXPECT_TRUE(report.ok());
}

TEST(LifetimeSystemTest, AnomalySurvivesOnlyWhenNobodyReadsTheContainer) {
  Assembler a("killer");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)
      .StoreAd(1, 2, 4)
      .ClearAd(2)
      .StoreAd(1, 3, 4)
      .Halt();
  {
    World world;
    world.Add(100, a);
    LifetimeAnalysisReport report = AnalyzeLifetimes(world.graph, world.lifetimes);
    ASSERT_EQ(report.anomalies.size(), 1u);
    EXPECT_EQ(report.anomalies[0].anomaly.overwrite_pc, 4u);
    EXPECT_NE(FormatLifetimeReport(report).find("retention anomaly"), std::string::npos);
  }
  {
    // A concurrent reader of the carrier could copy the AD out before the overwrite.
    Assembler b("reader");
    b.MoveAd(1, kArgAdReg).LoadAd(2, 1, 4).Halt();
    Assembler a2("killer");
    a2.MoveAd(1, kArgAdReg)
        .CreateObject(2, 1, 16)
        .StoreAd(1, 2, 4)
        .ClearAd(2)
        .StoreAd(1, 3, 4)
        .Halt();
    World world;
    world.Add(100, a2);
    world.Add(101, b);
    LifetimeAnalysisReport report = AnalyzeLifetimes(world.graph, world.lifetimes);
    EXPECT_TRUE(report.anomalies.empty());
    EXPECT_EQ(report.anomalies_suppressed, 1u);
  }
}

TEST(LifetimeSystemTest, ReportTalliesSitesAndDemotables) {
  Assembler a("mixed");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 16)  // demotable
      .CreateObject(3, 1, 16)
      .StoreAd(1, 3, 4)        // escapes
      .Halt();
  World world;
  world.Add(100, a);
  LifetimeAnalysisReport report = AnalyzeLifetimes(world.graph, world.lifetimes);
  EXPECT_EQ(report.programs_analyzed, 1u);
  EXPECT_EQ(report.sites_analyzed, 2u);
  EXPECT_EQ(report.sites_demotable, 1u);
}

}  // namespace
}  // namespace analysis
}  // namespace imax432
