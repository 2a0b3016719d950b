#include "src/analysis/effects.h"

#include <gtest/gtest.h>

#include <map>

#include "src/arch/object_table.h"
#include "src/arch/rights.h"
#include "src/isa/assembler.h"
#include "src/isa/disassembler.h"

namespace imax432 {
namespace analysis {
namespace {

// Fixture world: a tiny synthetic object graph the slot reader answers from, without any
// machine. Object 1 = carrier, objects 10/11/12 = ports, object 20 = domain, 21 = segment.
constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kPortA = 10;
constexpr ObjectIndex kPortB = 11;
constexpr ObjectIndex kPortC = 12;
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
        {{kDomain, 0}, kSegment},
    };
    auto it = kSlots.find({index, slot});
    return it == kSlots.end() ? AccessDescriptor() : Ad(it->second);
  };
  return options;
}

const PortUse* FindUse(const EffectSummary& summary, PortOp op, ObjectIndex port) {
  for (const PortUse& use : summary.uses) {
    if (use.op == op && use.port == port) return &use;
  }
  return nullptr;
}

TEST(EffectsTest, SendResolvesThroughMoveAndLoadChain) {
  Assembler a("producer");
  a.MoveAd(1, kArgAdReg)  // a1 = carrier
      .LoadAd(2, 1, 0)    // a2 = port A
      .MoveAd(3, 2)       // chase one more move
      .Send(3, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.SendsTo(kPortA));
  EXPECT_FALSE(summary.has_unresolved_send);
  const PortUse* use = FindUse(summary, PortOp::kSend, kPortA);
  ASSERT_NE(use, nullptr);
  EXPECT_TRUE(use->blocking);
  EXPECT_EQ(use->pc, 3u);
}

TEST(EffectsTest, ReceiveResolvesAndIsBlocking) {
  Assembler a("consumer");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 1).Receive(4, 2).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.ReceivesFrom(kPortB));
  const PortUse* use = FindUse(summary, PortOp::kReceive, kPortB);
  ASSERT_NE(use, nullptr);
  EXPECT_TRUE(use->blocking);
}

TEST(EffectsTest, CondVariantsAreGuarded) {
  Assembler a("poller");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .CondSend(2, 1, 0)
      .CondReceive(3, 2, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const PortUse* send = FindUse(summary, PortOp::kSend, kPortA);
  const PortUse* recv = FindUse(summary, PortOp::kReceive, kPortA);
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_FALSE(send->blocking);
  EXPECT_FALSE(recv->blocking);
}

TEST(EffectsTest, UnseededArgumentLeavesUsesUnresolved) {
  Assembler a("orphaned");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Send(2, 1).Receive(3, 2).Halt();
  EffectOptions options = WorldOptions();
  options.initial_arg = AccessDescriptor();  // a7 unknown
  EffectSummary summary = AnalyzeProgram(*a.Build(), options).effects;
  EXPECT_TRUE(summary.has_unresolved_send);
  EXPECT_TRUE(summary.has_unresolved_receive);
  EXPECT_NE(FindUse(summary, PortOp::kSend, kUnresolvedPort), nullptr);
  EXPECT_FALSE(summary.SendsTo(kPortA));
}

TEST(EffectsTest, ClearedRegisterRecordsNoUse) {
  Assembler a("cleared");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .ClearAd(2)   // the send below faults at run time; statically it reaches no port
      .Send(2, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.uses.empty());
  EXPECT_FALSE(summary.has_unresolved_send);
}

TEST(EffectsTest, FreshObjectIsNeverAPreexistingPort) {
  Assembler a("fresh");
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 32)  // a2 = brand-new object
      .Send(2, 1)              // cannot name any existing port
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.uses.empty());
}

TEST(EffectsTest, NativeStepHavocsResolutionAndFlagsSummary) {
  Assembler a("daemonish");
  a.MoveAd(1, kArgAdReg)
      .Native([](ExecutionContext&) -> Result<NativeResult> { return NativeResult{}; })
      .LoadAd(2, 1, 0)
      .Send(2, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.has_native);
  EXPECT_TRUE(summary.may_not_terminate);
  EXPECT_TRUE(summary.has_unresolved_send);
  EXPECT_FALSE(summary.SendsTo(kPortA));
}

TEST(EffectsTest, LoopSetsMayNotTerminate) {
  Assembler looping("looping");
  auto loop = looping.NewLabel();
  looping.MoveAd(1, kArgAdReg).Bind(loop).Compute(10).Branch(loop);
  EXPECT_TRUE(AnalyzeProgram(*looping.Build(), WorldOptions()).effects.may_not_terminate);

  Assembler straight("straight");
  straight.MoveAd(1, kArgAdReg).Compute(10).Halt();
  EXPECT_FALSE(AnalyzeProgram(*straight.Build(), WorldOptions()).effects.may_not_terminate);
}

TEST(EffectsTest, MustSendsBeforeAReceiveAreRecorded) {
  Assembler a("request_reply");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)  // request port A
      .LoadAd(3, 1, 1)  // reply port B
      .Send(2, 1)       // request goes out on every path
      .Receive(4, 3)    // then block for the reply
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const PortUse* recv = FindUse(summary, PortOp::kReceive, kPortB);
  ASSERT_NE(recv, nullptr);
  ASSERT_EQ(recv->sends_before.size(), 1u);
  EXPECT_EQ(recv->sends_before[0], kPortA);
}

TEST(EffectsTest, MustSendsIntersectAcrossPaths) {
  Assembler a("branchy");
  auto other = a.NewLabel();
  auto join = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)           // port A
      .LoadAd(3, 1, 1)           // port B
      .BranchIfZero(0, other)
      .Send(2, 1)                // path 1 sends to A only
      .Branch(join)
      .Bind(other)
      .Send(3, 1)                // path 2 sends to B only
      .Bind(join)
      .Receive(4, 2)             // no send is guaranteed here
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const PortUse* recv = FindUse(summary, PortOp::kReceive, kPortA);
  ASSERT_NE(recv, nullptr);
  EXPECT_TRUE(recv->sends_before.empty());
}

TEST(EffectsTest, JoinUnionsPortCandidates) {
  Assembler a("either");
  auto other = a.NewLabel();
  auto join = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .BranchIfZero(0, other)
      .LoadAd(2, 1, 0)  // port A
      .Branch(join)
      .Bind(other)
      .LoadAd(2, 1, 1)  // port B
      .Bind(join)
      .Send(2, 1)       // may hit either port: both must be recorded
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.SendsTo(kPortA));
  EXPECT_TRUE(summary.SendsTo(kPortB));
  EXPECT_FALSE(summary.has_unresolved_send);
}

TEST(EffectsTest, StoreAdInvalidatesSnapshotResolution) {
  Assembler a("self_mutating");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)   // resolves against the boot snapshot
      .StoreAd(1, 2, 1)  // carrier slot 1 overwritten at run time
      .LoadAd(3, 1, 1)   // must NOT resolve to the stale port B
      .Send(3, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_FALSE(summary.SendsTo(kPortB));
  EXPECT_TRUE(summary.has_unresolved_send);
}

TEST(EffectsTest, DomainCallEntryResolvesToSegment) {
  Assembler a("caller");
  a.MoveAd(1, kArgAdReg)
      .Call(1, 0)  // treat the argument as a domain; entry 0
      .Halt();
  EffectOptions options = WorldOptions();
  options.initial_arg = Ad(kDomain);
  EffectSummary summary = AnalyzeProgram(*a.Build(), options).effects;
  ASSERT_EQ(summary.calls.size(), 1u);
  EXPECT_EQ(summary.calls[0].callee_segment, kSegment);
  EXPECT_EQ(summary.calls[0].entry, 0u);
}

TEST(EffectsTest, TimedReceiveIsAGuardedReceiveThroughA7) {
  Assembler a("timed");
  a.LoadAd(7, 7, 0)  // a7 = carrier slot 0 = port A (carrier arrives in a7)
      .LoadImm(7, 1000)
      .OsCall(/*kTimedReceive=*/5)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  const PortUse* use = FindUse(summary, PortOp::kReceive, kPortA);
  ASSERT_NE(use, nullptr);
  EXPECT_FALSE(use->blocking);  // the timeout fault bounds the wait
  EXPECT_FALSE(summary.has_native);
}

TEST(EffectsTest, UnknownOsServiceIsOpaque) {
  Assembler a("pkg_call");
  a.MoveAd(1, kArgAdReg).OsCall(/*some package service=*/16).LoadAd(2, 1, 0).Send(2, 1).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.has_native);
  EXPECT_TRUE(summary.has_unresolved_send);
}

TEST(EffectsTest, DisassemblyIsAnchoredAndNamesThePort) {
  SymbolTable symbols;
  symbols.Name(kPortA, "ring.0");
  Assembler a("named");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Receive(4, 2).Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions(&symbols)).effects;
  const PortUse* use = FindUse(summary, PortOp::kReceive, kPortA);
  ASSERT_NE(use, nullptr);
  EXPECT_NE(use->disasm.find("0002"), std::string::npos) << use->disasm;
  EXPECT_NE(use->disasm.find("receive"), std::string::npos) << use->disasm;
  EXPECT_NE(use->disasm.find("'ring.0'"), std::string::npos) << use->disasm;
}

TEST(EffectsTest, OptionsForTableChaseRealAccessParts) {
  ObjectTable table(16);
  auto port = table.Allocate(SystemType::kPort, 0, 0, 0, 0, kInvalidObjectIndex, 0);
  auto carrier = table.Allocate(SystemType::kGeneric, 0, 0, 16, 2, kInvalidObjectIndex, 0);
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(carrier.ok());
  auto port_ad = table.MintAd(port.value(), rights::kAll);
  auto carrier_ad = table.MintAd(carrier.value(), rights::kAll);
  ASSERT_TRUE(port_ad.ok());
  ASSERT_TRUE(carrier_ad.ok());
  table.At(carrier.value()).access[0] = port_ad.value();

  Assembler a("table_backed");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Send(2, 1).Halt();
  EffectSummary summary = AnalyzeProgram(
      *a.Build(), EffectOptionsForTable(table, carrier_ad.value())).effects;
  EXPECT_TRUE(summary.SendsTo(port.value()));
}

// --- Bounded AD-set resolution: conditional move chains and domain-call arguments. ---

// A carrier whose first 16 slots all hold distinct ports, for exercising the candidate-set
// bound (the analyzer keeps at most 8 candidates per register before saturating).
EffectOptions WideWorldOptions() {
  EffectOptions options;
  options.initial_arg = Ad(kCarrier);
  options.slot_reader = [](ObjectIndex index, uint32_t slot) -> AccessDescriptor {
    if (index == kCarrier && slot < 16) return Ad(static_cast<ObjectIndex>(100 + slot));
    return AccessDescriptor();
  };
  return options;
}

// Loads slot 0, then threads the register through `diamonds` conditional overwrites, each
// of which may replace it with the next slot's port. At the final merge the register holds
// the union of every path's candidate.
Assembler DiamondChain(uint32_t diamonds) {
  Assembler a("diamonds");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0);
  for (uint32_t i = 1; i <= diamonds; ++i) {
    Assembler::Label skip = a.NewLabel();
    a.BranchIfZero(0, skip).LoadAd(2, 1, i).Bind(skip);
  }
  a.Send(2, 1).Halt();
  return a;
}

TEST(EffectsTest, ConditionalMoveChainUnionsBothCandidates) {
  EffectSummary summary = AnalyzeProgram(*DiamondChain(1).Build(), WideWorldOptions()).effects;
  EXPECT_TRUE(summary.SendsTo(100));
  EXPECT_TRUE(summary.SendsTo(101));
  EXPECT_FALSE(summary.has_unresolved_send);
}

TEST(EffectsTest, CandidateSetStaysResolvedUpToTheBound) {
  // Seven diamonds leave eight candidates: exactly the cap, still fully resolved.
  EffectSummary summary = AnalyzeProgram(*DiamondChain(7).Build(), WideWorldOptions()).effects;
  for (ObjectIndex port = 100; port < 108; ++port) {
    EXPECT_TRUE(summary.SendsTo(port)) << "port " << port;
  }
  EXPECT_FALSE(summary.has_unresolved_send);
}

TEST(EffectsTest, CandidateSetBeyondTheBoundSaturatesToUnresolved) {
  // Nine diamonds would need ten candidates: the set saturates and the send degrades to
  // "some port" rather than silently dropping candidates.
  EffectSummary summary = AnalyzeProgram(*DiamondChain(9).Build(), WideWorldOptions()).effects;
  EXPECT_TRUE(summary.has_unresolved_send);
  for (ObjectIndex port = 100; port < 110; ++port) {
    EXPECT_FALSE(summary.SendsTo(port)) << "port " << port;
  }
}

TEST(EffectsTest, DomainCallHavocsOnlyTheArgumentRegister) {
  // The caller passes a port in a7 (the argument register the callee may overwrite) and
  // keeps another in a2. After the call only a7's resolution is lost.
  Assembler a("caller");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)        // a2 = port A: survives the call
      .LoadAd(5, 1, 3)        // a5 = the domain
      .LoadAd(kArgAdReg, 1, 1)  // a7 = port B: the call argument, havocked on return
      .Call(5, 0)
      .Send(2, 1)
      .Send(kArgAdReg, 1)
      .Halt();
  EffectOptions options;
  options.initial_arg = Ad(kCarrier);
  options.slot_reader = [](ObjectIndex index, uint32_t slot) -> AccessDescriptor {
    static const std::map<std::pair<ObjectIndex, uint32_t>, ObjectIndex> kSlots = {
        {{kCarrier, 0}, kPortA},
        {{kCarrier, 1}, kPortB},
        {{kCarrier, 3}, kDomain},
        {{kDomain, 0}, kSegment},
    };
    auto it = kSlots.find({index, slot});
    return it == kSlots.end() ? AccessDescriptor() : Ad(it->second);
  };
  EffectSummary summary = AnalyzeProgram(*a.Build(), options).effects;
  EXPECT_TRUE(summary.SendsTo(kPortA));
  EXPECT_FALSE(summary.SendsTo(kPortB)) << "a7 must be havocked by the call";
  EXPECT_TRUE(summary.has_unresolved_send);
  // The callee itself is recorded for composition: the call site resolves to the segment.
  ASSERT_EQ(summary.calls.size(), 1u);
  EXPECT_EQ(summary.calls[0].callee_segment, kSegment);
}

TEST(EffectsTest, SendThroughAnAdLoadedBackFromAFreshObjectIsUnresolved) {
  // A fresh object holds whatever the program stores into it, so the load back may name
  // any object: the send cannot be pinned to a port and must not be silently dropped.
  Assembler a("stash.sender");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)            // a2 = port A
      .CreateObject(4, 1, 8, 1)   // a4 = fresh object
      .StoreAd(4, 2, 0)           // a4[0] = port A
      .LoadAd(5, 4, 0)            // a5 = a4[0]
      .Send(5, 1)
      .Halt();
  EffectSummary summary = AnalyzeProgram(*a.Build(), WorldOptions()).effects;
  EXPECT_TRUE(summary.has_unresolved_send);
  EXPECT_NE(FindUse(summary, PortOp::kSend, kUnresolvedPort), nullptr);
}

TEST(EffectsTest, DomainEntryAccessThroughA6IsUnresolved) {
  // The call amplified a6 to the callee's own domain, which the segment alone cannot name:
  // at a domain entry a6 may be any object. A process starts with a null a6.
  Assembler a("package.entry");
  a.LoadAd(2, kDomainAdReg, 1).Return();
  ProgramRef program = a.Build();
  EffectOptions options = WorldOptions();
  options.kind = ProgramKind::kDomainEntry;
  EXPECT_TRUE(AnalyzeProgram(*program, options).effects.has_unresolved_access);
  EXPECT_FALSE(AnalyzeProgram(*program, WorldOptions()).effects.has_unresolved_access);
}

}  // namespace
}  // namespace analysis
}  // namespace imax432
