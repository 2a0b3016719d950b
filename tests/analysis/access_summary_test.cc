// Phase-1 race machinery: per-program object access summaries (effects.h) — what gets
// recorded, and the must-receive-before / must-send-after facts the race detector's
// happens-before proofs stand on.

#include <gtest/gtest.h>

#include <map>

#include "src/analysis/effects.h"
#include "src/arch/rights.h"
#include "src/isa/assembler.h"

namespace imax432 {
namespace analysis {
namespace {

// Fixture world: object 1 = carrier; slots 0/1/2 = ports 10/11/12, slots 3/4 = plain
// shared objects 30/31.
constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kPortA = 10;
constexpr ObjectIndex kPortB = 11;
constexpr ObjectIndex kShared = 30;
constexpr ObjectIndex kOther = 31;

AccessDescriptor Ad(ObjectIndex index) { return AccessDescriptor(index, 0, rights::kAll); }

EffectOptions WorldOptions() {
  EffectOptions options;
  options.initial_arg = Ad(kCarrier);
  options.slot_reader = [](ObjectIndex index, uint32_t slot) -> AccessDescriptor {
    static const std::map<std::pair<ObjectIndex, uint32_t>, ObjectIndex> kSlots = {
        {{kCarrier, 0}, kPortA},
        {{kCarrier, 1}, kPortB},
        {{kCarrier, 3}, kShared},
        {{kCarrier, 4}, kOther},
    };
    auto it = kSlots.find({index, slot});
    return it == kSlots.end() ? AccessDescriptor() : Ad(it->second);
  };
  return options;
}

const ObjectAccess* FindAccess(const EffectSummary& summary, AccessKind kind,
                               ObjectPart part, ObjectIndex object) {
  for (const ObjectAccess& access : summary.accesses) {
    if (access.kind == kind && access.part == part && access.object == object) {
      return &access;
    }
  }
  return nullptr;
}

TEST(AccessSummaryTest, LoadDataRecordsDataRead) {
  Assembler a("reader");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).LoadData(0, 2, 0, 8).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.Reads(kShared));
  EXPECT_FALSE(summary.Writes(kShared));
  EXPECT_FALSE(summary.has_unresolved_access);
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kRead, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->pc, 2u);
}

TEST(AccessSummaryTest, StoreDataRecordsDataWrite) {
  Assembler a("writer");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).StoreData(2, 0, 0, 8).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.Writes(kShared));
  EXPECT_FALSE(summary.Reads(kShared));
}

TEST(AccessSummaryTest, IndexedVariantsRecordAccessesToo) {
  Assembler a("indexed");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 3)
      .LoadImm(0, 4)
      .LoadDataIndexed(3, 2, 0)
      .StoreDataIndexed(2, 3, 0)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.Reads(kShared));
  EXPECT_TRUE(summary.Writes(kShared));
}

TEST(AccessSummaryTest, LoadAdRecordsAccessPartRead) {
  Assembler a("ad_reader");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.Reads(kCarrier, ObjectPart::kAccess));
  EXPECT_FALSE(summary.Reads(kCarrier, ObjectPart::kData));
}

TEST(AccessSummaryTest, StoreAdRecordsAccessPartWrite) {
  Assembler a("ad_writer");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).StoreAd(2, 1, 0).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.Writes(kShared, ObjectPart::kAccess));
  EXPECT_FALSE(summary.Writes(kShared, ObjectPart::kData));
}

TEST(AccessSummaryTest, DestroyWritesBothParts) {
  Assembler a("destroyer");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).DestroyObject(2).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.Writes(kShared, ObjectPart::kData));
  EXPECT_TRUE(summary.Writes(kShared, ObjectPart::kAccess));
}

TEST(AccessSummaryTest, CreateObjectRecordsNoAccess) {
  // Allocation mutates only manager metadata (kernel-serialized); writes into the fresh
  // object touch nothing any pre-existing summary could name.
  Assembler a("allocator");
  a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 32).StoreData(2, 0, 0, 8).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.accesses.empty());
  EXPECT_FALSE(summary.has_unresolved_access);
}

TEST(AccessSummaryTest, UnresolvedContainerSetsFlagWithoutEntries) {
  // A store through a received message could hit any object: flagged, never enumerated.
  Assembler a("blind_writer");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Receive(3, 2).StoreData(3, 0, 0, 8).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.has_unresolved_access);
  EXPECT_EQ(FindAccess(summary, AccessKind::kWrite, ObjectPart::kData, kShared), nullptr);
}

TEST(AccessSummaryTest, RecvsBeforeRecordsBlockingReceive) {
  Assembler a("consumer");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)         // port A
      .LoadAd(3, 1, 3)         // shared object
      .Receive(4, 2)
      .LoadData(0, 3, 0, 8)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kRead, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->recvs_before, std::vector<ObjectIndex>{kPortA});
}

TEST(AccessSummaryTest, AccessBeforeReceiveHasNoRecvsBefore) {
  Assembler a("eager");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 3)
      .LoadData(0, 3, 0, 8)    // before the receive
      .Receive(4, 2)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kRead, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->recvs_before.empty());
}

TEST(AccessSummaryTest, CondReceiveCarriesNoMustReceive) {
  // A guarded receive may complete without a message; it proves no ordering.
  Assembler a("poller");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 3)
      .CondReceive(4, 2, 0)
      .LoadData(0, 3, 0, 8)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kRead, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->recvs_before.empty());
}

TEST(AccessSummaryTest, AmbiguousReceivePortCarriesNoMustReceive) {
  // The receive's port register holds two candidates at the join; which message completed
  // it is unknown, so the fact is dropped.
  Assembler a("either");
  auto other = a.NewLabel();
  auto join = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(3, 1, 3)
      .BranchIfZero(0, other)
      .LoadAd(2, 1, 0)
      .Branch(join)
      .Bind(other)
      .LoadAd(2, 1, 1)
      .Bind(join)
      .Receive(4, 2)
      .LoadData(0, 3, 0, 8)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kRead, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->recvs_before.empty());
}

TEST(AccessSummaryTest, SendsAfterStraightLine) {
  Assembler a("producer");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 3)
      .StoreData(3, 0, 0, 8)
      .Send(2, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kWrite, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->sends_after, std::vector<ObjectIndex>{kPortA});
}

TEST(AccessSummaryTest, SendsAfterIntersectsAcrossPaths) {
  // One path sends, the other halts without sending: nothing is guaranteed.
  Assembler a("maybe_sender");
  auto skip = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 3)
      .StoreData(3, 0, 0, 8)
      .BranchIfZero(0, skip)
      .Send(2, 1)
      .Bind(skip)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kWrite, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->sends_after.empty());
}

TEST(AccessSummaryTest, SendsAfterHoldsWhenEveryPathSends) {
  Assembler a("always_sender");
  auto other = a.NewLabel();
  auto done = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 3)
      .StoreData(3, 0, 0, 8)
      .BranchIfZero(0, other)
      .Send(2, 1)
      .Branch(done)
      .Bind(other)
      .Send(2, 1)
      .Bind(done)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kWrite, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->sends_after, std::vector<ObjectIndex>{kPortA});
}

TEST(AccessSummaryTest, CondSendNeverEntersSendsAfter) {
  // A guarded send may take its fallback; it releases nothing.
  Assembler a("cond_producer");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 3)
      .StoreData(3, 0, 0, 8)
      .CondSend(2, 1, 0)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kWrite, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->sends_after.empty());
}

TEST(AccessSummaryTest, AmbiguousSendSiteExcludedFromSendsAfter) {
  // The send's port register holds two candidates: the site has no unique target, so it
  // cannot serve as a happens-before anchor.
  Assembler a("either_sender");
  auto other = a.NewLabel();
  auto join = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(3, 1, 3)
      .StoreData(3, 0, 0, 8)
      .BranchIfZero(0, other)
      .LoadAd(2, 1, 0)
      .Branch(join)
      .Bind(other)
      .LoadAd(2, 1, 1)
      .Bind(join)
      .Send(2, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kWrite, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->sends_after.empty());
}

TEST(AccessSummaryTest, NativeProgramSkipsSendsAfter) {
  // Opaque C++ can jump anywhere; the backward must-send pass refuses to reason about it.
  Assembler a("half_native");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 3)
      .StoreData(3, 0, 0, 8)
      .Native([](ExecutionContext&) -> Result<NativeResult> { return NativeResult{}; })
      .Send(2, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.has_native);
  for (const ObjectAccess& access : summary.accesses) {
    EXPECT_TRUE(access.sends_after.empty());
  }
}

TEST(AccessSummaryTest, AccessesCoverEveryCandidateOfTheSet) {
  // A two-candidate container records one access row per candidate object.
  Assembler a("either_writer");
  auto other = a.NewLabel();
  auto join = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .BranchIfZero(0, other)
      .LoadAd(2, 1, 3)
      .Branch(join)
      .Bind(other)
      .LoadAd(2, 1, 4)
      .Bind(join)
      .StoreData(2, 0, 0, 8)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.Writes(kShared));
  EXPECT_TRUE(summary.Writes(kOther));
  EXPECT_FALSE(summary.has_unresolved_access);
}

TEST(AccessSummaryTest, DisassemblyIsAnchoredToTheSite) {
  Assembler a("annotated");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 3).StoreData(2, 0, 0, 8).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const ObjectAccess* access =
      FindAccess(summary, AccessKind::kWrite, ObjectPart::kData, kShared);
  ASSERT_NE(access, nullptr);
  EXPECT_NE(access->disasm.find("0002"), std::string::npos);
  EXPECT_NE(access->disasm.find("store_data"), std::string::npos);
}

}  // namespace
}  // namespace analysis
}  // namespace imax432
