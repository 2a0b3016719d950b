#include "src/analysis/verifier.h"

#include <gtest/gtest.h>

#include "src/isa/assembler.h"

namespace imax432 {
namespace analysis {
namespace {

// Seeds a7 with the shape Spawn-from-the-global-heap gives a process: a level-0 SRO-like
// object carrying generous rights (tests that need a port seed their own).
VerifyOptions GlobalSroArg() {
  VerifyOptions options;
  options.initial_arg = AdAbstract::Object(
      SystemType::kStorageResource,
      rights::kRead | rights::kWrite | rights::kSroAllocate | rights::kSroDestroy,
      LevelRange::Exact(0));
  return options;
}

VerifyOptions PortArg(RightsMask port_rights = rights::kAll) {
  VerifyOptions options;
  options.initial_arg =
      AdAbstract::Object(SystemType::kPort, port_rights, LevelRange::Exact(0));
  return options;
}

bool HasError(const VerifyResult& result, Rule rule, uint32_t pc) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.rule == rule && d.pc == pc && d.severity == Severity::kError) {
      return true;
    }
  }
  return false;
}

std::string Render(const Program& program, const VerifyResult& result) {
  return FormatDiagnostics(program, result);
}

TEST(VerifierTest, CleanProgramHasNoDiagnostics) {
  Assembler a("clean");
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 64, 2)
      .LoadImm(0, 0)
      .LoadImm(1, 8)
      .Bind(loop)
      .StoreData(2, 0, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, GlobalSroArg());
  EXPECT_TRUE(result.ok()) << Render(*program, result);
  EXPECT_TRUE(result.diagnostics.empty()) << Render(*program, result);
}

TEST(VerifierTest, NullAdUseReportsInstructionIndex) {
  Assembler a("null_use");
  a.LoadImm(0, 1)         // 0
      .LoadData(1, 3, 0, 8)  // 1: a3 never initialized
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasError(result, Rule::kNullAdUse, 1)) << Render(*program, result);
}

TEST(VerifierTest, RightsStripSurvivesMoveAdChain) {
  Assembler a("strip_chain");
  a.MoveAd(1, kArgAdReg)             // 0
      .RestrictRights(1, rights::kRead)  // 1: a1 loses send rights
      .MoveAd(2, 1)                  // 2
      .MoveAd(3, 2)                  // 3: the stripped bound rides along the chain
      .Send(3, 3)                    // 4: provably lacks port-send
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, PortArg());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasError(result, Rule::kMissingRights, 4)) << Render(*program, result);
}

TEST(VerifierTest, JoinOfDivergentBranchesIsMaybeNull) {
  // One arm defines a3, the other nulls it: after the join a3 is maybe-null, which must NOT
  // be reported (the verifier only rejects what faults on every path).
  Assembler a("divergent");
  auto else_arm = a.NewLabel();
  auto done = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 1)
      .BranchIfZero(0, else_arm)
      .CreateObject(3, 1, 64)
      .Branch(done)
      .Bind(else_arm)
      .ClearAd(3)
      .Bind(done)
      .StoreData(3, 0, 0, 8)
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, GlobalSroArg());
  EXPECT_TRUE(result.ok()) << Render(*program, result);
}

TEST(VerifierTest, JoinWhereBothArmsNullIsStillNull) {
  Assembler a("both_null");
  auto else_arm = a.NewLabel();
  auto done = a.NewLabel();
  a.LoadImm(0, 1)
      .BranchIfZero(0, else_arm)  // 1
      .ClearAd(3)                 // 2
      .Branch(done)               // 3
      .Bind(else_arm)
      .ClearAd(3)                 // 4
      .Bind(done)
      .LoadData(0, 3, 0, 8)       // 5: null on every path
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasError(result, Rule::kNullAdUse, 5)) << Render(*program, result);
}

TEST(VerifierTest, JoinOfRightsIsUnion) {
  // One arm strips write rights; the store after the join may still succeed via the other
  // arm, so it must not be flagged.
  Assembler a("rights_union");
  auto else_arm = a.NewLabel();
  auto done = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .CreateObject(2, 1, 64)
      .LoadImm(0, 1)
      .BranchIfZero(0, else_arm)
      .RestrictRights(2, rights::kRead)
      .Branch(done)
      .Bind(else_arm)
      .Compute(1)
      .Bind(done)
      .StoreData(2, 0, 0, 8)
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, GlobalSroArg());
  EXPECT_TRUE(result.ok()) << Render(*program, result);
}

TEST(VerifierTest, LoopFixpointTerminatesAndKeepsFacts) {
  // The back edge joins the loop body's state into the head on every iteration; rights
  // stripped inside the loop must stabilize (fixpoint) and still be flagged after it.
  Assembler a("loop_strip");
  auto head = a.NewLabel();
  a.MoveAd(1, kArgAdReg)              // 0
      .LoadImm(0, 4)                  // 1
      .Bind(head)
      .RestrictRights(1, rights::kRead)  // 2
      .AddImm(0, 0, 0xffffffffu)      // 3: r0 -= 1
      .BranchIfNotZero(0, head)       // 4
      .Send(1, 1)                     // 5: stripped on every path through the loop
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, PortArg());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasError(result, Rule::kMissingRights, 5)) << Render(*program, result);
}

TEST(VerifierTest, LevelRuleRejectsEscapingLocalSro) {
  Assembler a("level_escape");
  a.MoveAd(1, kArgAdReg)         // 0: a1 = level-0 SRO
      .CreateObject(2, 1, 16, 2)  // 1: a2 = level-0 object
      .CreateSro(3, 1, 4096)      // 2: a3 = local SRO, level = entry + 1 >= 2
      .StoreAd(2, 3, 0)           // 3: provable level violation
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, GlobalSroArg());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasError(result, Rule::kLevelRule, 3)) << Render(*program, result);
}

TEST(VerifierTest, LevelRuleUnknownLevelsNotFlagged) {
  // Mirror of examples/ada_tasks.cpp part 3: the container's level is statically unknown
  // (arg with no seeded level), so the store must be left to the runtime check.
  Assembler a("maybe_escape");
  a.MoveAd(1, kArgAdReg)
      .CreateSro(3, 1, 4096)
      .StoreAd(1, 3, 0)
      .Halt();
  VerifyOptions options;
  options.initial_arg = AdAbstract::Object(
      SystemType::kStorageResource, rights::kAll, LevelRange::Unknown());
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, options);
  EXPECT_TRUE(result.ok()) << Render(*program, result);
}

TEST(VerifierTest, DomainEntryReturningLocalAdRejected) {
  // A domain entry that returns an activation-local object in a7: the checked store into
  // the caller's context provably violates the lifetime rule.
  Assembler a("leaky_entry");
  a.MoveAd(1, kArgAdReg)      // 0 (arg unknown; harmless)
      .LoadAd(2, kDomainAdReg, 0)  // 1: read own domain state
      .CreateSro(7, 2, 1024)  // 2: oops — a7 = local SRO... (needs an SRO; reuse domain? no)
      .Return();              // 3
  // The CreateSro above derefs a2 (unknown) — fine. What matters is a7's entry-relative
  // level at the return.
  ProgramRef program = a.Build();
  VerifyOptions options;
  options.entry = ProgramKind::kDomainEntry;
  VerifyResult result = Verifier::Verify(*program, options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasError(result, Rule::kLevelRule, 3)) << Render(*program, result);
}

TEST(VerifierTest, UnreachableCodeIsAWarningNotAnError) {
  Assembler a("dead_tail");
  a.Halt().LoadImm(0, 1).Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program);
  EXPECT_TRUE(result.ok()) << Render(*program, result);
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_EQ(result.diagnostics[0].rule, Rule::kUnreachable);
  EXPECT_EQ(result.diagnostics[0].severity, Severity::kWarning);
}

TEST(VerifierTest, NativeProgramsHavocInsteadOfRejecting) {
  // Daemon-style program: a native step may initialize a1 and jump anywhere, so the load
  // below must not be reported even though no static path defines a1.
  Assembler a("daemon_like");
  auto loop = a.NewLabel();
  a.Native([](ExecutionContext&) -> Result<NativeResult> { return NativeResult{}; })
      .Bind(loop)
      .LoadData(0, 1, 0, 8)
      .Branch(loop);
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program);
  EXPECT_TRUE(result.ok()) << Render(*program, result);
}

TEST(VerifierTest, CallHavocsTheReturnRegisterOnly) {
  Assembler a("caller");
  VerifyOptions options;
  options.seeded_ad_regs[1] = AdAbstract::Object(SystemType::kDomain,
                                                 rights::kDomainCall, LevelRange::Exact(0));
  a.Call(1, 0)            // 0: fine — a1 carries call rights
      .LoadData(0, 7, 0, 8)  // 1: a7 = callee's return value (unknown, maybe-null): fine
      .LoadData(0, 2, 0, 8)  // 2: a2 still definitely null across the call
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, options);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(HasError(result, Rule::kNullAdUse, 1)) << Render(*program, result);
  EXPECT_TRUE(HasError(result, Rule::kNullAdUse, 2)) << Render(*program, result);
}

TEST(VerifierTest, CallWithoutCallRightsRejected) {
  Assembler a("bad_caller");
  VerifyOptions options;
  options.seeded_ad_regs[1] =
      AdAbstract::Object(SystemType::kDomain, rights::kNone, LevelRange::Exact(0));
  a.Call(1, 0).Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, options);
  EXPECT_TRUE(HasError(result, Rule::kMissingRights, 0)) << Render(*program, result);
}

TEST(VerifierTest, TypeConfusionOnSendToNonPort) {
  Assembler a("send_to_sro");
  a.MoveAd(1, kArgAdReg).Send(1, 1).Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, GlobalSroArg());
  EXPECT_TRUE(HasError(result, Rule::kTypeConfusion, 1)) << Render(*program, result);
}

// The guarded variants must obey the same rights discipline as their blocking forms: a
// successful conditional transfer moves the message exactly like Send/Receive would.
TEST(VerifierTest, CondSendWithoutSendRightsRejected) {
  Assembler a("cond_send_stripped");
  a.MoveAd(1, kArgAdReg).RestrictRights(1, rights::kRead).CondSend(1, 1, 0).Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, PortArg());
  EXPECT_TRUE(HasError(result, Rule::kMissingRights, 2)) << Render(*program, result);
}

TEST(VerifierTest, CondReceiveWithoutReceiveRightsRejected) {
  Assembler a("cond_receive_stripped");
  a.MoveAd(1, kArgAdReg)
      .RestrictRights(1, rights::kPortSend)
      .CondReceive(2, 1, 0)
      .Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, PortArg());
  EXPECT_TRUE(HasError(result, Rule::kMissingRights, 2)) << Render(*program, result);
}

TEST(VerifierTest, CondVariantsWithFullPortRightsAreClean) {
  Assembler a("cond_ok");
  a.MoveAd(1, kArgAdReg).CondSend(1, 1, 0).CondReceive(2, 1, 1).Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program, PortArg());
  EXPECT_TRUE(result.ok()) << Render(*program, result);
}

// The acceptance corpus: distinct seeded-bad programs, each rejected with a diagnostic
// naming the offending instruction index and rule.
struct BadCase {
  const char* name;
  ProgramRef program;
  VerifyOptions options;
  Rule rule;
  uint32_t pc;
};

std::vector<BadCase> BadCorpus() {
  std::vector<BadCase> cases;

  {  // 1: load through a never-initialized AD register
    Assembler a("c1_null_load");
    a.LoadImm(0, 1).LoadData(0, 2, 0, 8).Halt();
    cases.push_back({"c1_null_load", a.Build(), {}, Rule::kNullAdUse, 1});
  }
  {  // 2: store-AD into a never-initialized container
    Assembler a("c2_null_store_ad");
    a.MoveAd(1, kArgAdReg).StoreAd(4, 1, 0).Halt();
    cases.push_back({"c2_null_store_ad", a.Build(), GlobalSroArg(), Rule::kNullAdUse, 1});
  }
  {  // 3: send after stripping port-send rights
    Assembler a("c3_stripped_send");
    a.MoveAd(1, kArgAdReg).RestrictRights(1, rights::kRead).Send(1, 1).Halt();
    cases.push_back({"c3_stripped_send", a.Build(), PortArg(), Rule::kMissingRights, 2});
  }
  {  // 4: allocation from an SRO held without allocate rights
    Assembler a("c4_no_allocate");
    a.MoveAd(1, kArgAdReg)
        .RestrictRights(1, rights::kRead)
        .CreateObject(2, 1, 64)
        .Halt();
    cases.push_back({"c4_no_allocate", a.Build(), GlobalSroArg(), Rule::kMissingRights, 2});
  }
  {  // 5: domain call without call rights (stripped en route)
    Assembler a("c5_no_call");
    VerifyOptions options;
    options.seeded_ad_regs[1] = AdAbstract::Object(
        SystemType::kDomain, rights::kDomainCall, LevelRange::Exact(0));
    a.RestrictRights(1, rights::kNone).Call(1, 0).Halt();
    cases.push_back({"c5_no_call", a.Build(), options, Rule::kMissingRights, 1});
  }
  {  // 6: provable lifetime-rule violation (local SRO into a global object)
    Assembler a("c6_level_escape");
    a.MoveAd(1, kArgAdReg)
        .CreateObject(2, 1, 16, 2)
        .CreateSro(3, 1, 4096)
        .StoreAd(2, 3, 0)
        .Halt();
    cases.push_back({"c6_level_escape", a.Build(), GlobalSroArg(), Rule::kLevelRule, 3});
  }
  {  // 7: branch target beyond the end of the program
    auto program = std::make_shared<Program>("c7_wild_branch");
    Instruction branch;
    branch.op = Opcode::kBranch;
    branch.imm = 1000;
    program->Append(branch);
    cases.push_back({"c7_wild_branch", ProgramRef(program), {}, Rule::kBranchRange, 0});
  }
  {  // 8: statically out-of-bounds data store on an object of known size
    Assembler a("c8_oob_data");
    a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 16).StoreData(2, 0, 64, 8).Halt();
    cases.push_back({"c8_oob_data", a.Build(), GlobalSroArg(), Rule::kDataBounds, 2});
  }
  {  // 9: access-slot index beyond the object's access part
    Assembler a("c9_oob_slot");
    a.MoveAd(1, kArgAdReg)
        .CreateObject(2, 1, 16, 2)
        .LoadAd(3, 2, 7)
        .Halt();
    cases.push_back({"c9_oob_slot", a.Build(), GlobalSroArg(), Rule::kSlotBounds, 2});
  }
  {  // 10: data access width not in {1, 2, 4, 8}
    Assembler a("c10_bad_width");
    a.MoveAd(1, kArgAdReg).CreateObject(2, 1, 64).LoadData(0, 2, 0, 3).Halt();
    cases.push_back({"c10_bad_width", a.Build(), GlobalSroArg(), Rule::kBadWidth, 2});
  }
  {  // 11: destroy through an AD without delete rights
    Assembler a("c11_no_delete");
    a.MoveAd(1, kArgAdReg)
        .CreateObject(2, 1, 64)
        .RestrictRights(2, rights::kRead | rights::kWrite)
        .DestroyObject(2)
        .Halt();
    cases.push_back({"c11_no_delete", a.Build(), GlobalSroArg(), Rule::kMissingRights, 3});
  }
  {  // 12: write through an AD restricted to read-only
    Assembler a("c12_readonly_write");
    a.MoveAd(1, kArgAdReg)
        .CreateObject(2, 1, 64)
        .RestrictRights(2, rights::kRead)
        .StoreData(2, 0, 0, 8)
        .Halt();
    cases.push_back(
        {"c12_readonly_write", a.Build(), GlobalSroArg(), Rule::kMissingRights, 3});
  }

  return cases;
}

TEST(VerifierTest, SeededBadCorpusAllRejected) {
  std::vector<BadCase> corpus = BadCorpus();
  ASSERT_GE(corpus.size(), 8u);
  for (const BadCase& c : corpus) {
    VerifyResult result = Verifier::Verify(*c.program, c.options);
    EXPECT_FALSE(result.ok()) << c.name << " was not rejected";
    EXPECT_TRUE(HasError(result, c.rule, c.pc))
        << c.name << " expected " << RuleName(c.rule) << " at pc " << c.pc << "\n"
        << Render(*c.program, result);
  }
}

TEST(VerifierTest, DiagnosticsFormatNamesRuleAndIndex) {
  Assembler a("fmt");
  a.LoadData(0, 2, 0, 8).Halt();
  ProgramRef program = a.Build();
  VerifyResult result = Verifier::Verify(*program);
  std::string text = FormatDiagnostics(*program, result);
  EXPECT_NE(text.find("0000"), std::string::npos) << text;
  EXPECT_NE(text.find("null-ad-use"), std::string::npos) << text;
  EXPECT_NE(text.find("load_data"), std::string::npos) << text;  // disassembly attached
}

TEST(LevelRangeTest, JoinAndProvability) {
  LevelRange zero = LevelRange::Exact(0);
  LevelRange local = LevelRange::EntryPlus(1);
  EXPECT_TRUE(ProvablyViolatesLevelRule(zero, local));
  EXPECT_FALSE(ProvablyViolatesLevelRule(local, zero));
  EXPECT_FALSE(ProvablyViolatesLevelRule(LevelRange::Unknown(), local));
  // entry+0 container cannot hold entry+1 values, whatever the entry level is.
  EXPECT_TRUE(ProvablyViolatesLevelRule(LevelRange::EntryPlus(0), LevelRange::EntryPlus(1)));
  EXPECT_FALSE(ProvablyViolatesLevelRule(LevelRange::EntryPlus(1), LevelRange::EntryPlus(1)));

  LevelRange joined = LevelRange::Join(zero, local);
  EXPECT_EQ(joined.lo, 0u);
  EXPECT_EQ(joined.hi, LevelRange::kUnbounded);
  EXPECT_FALSE(joined.entry_relative);
}

}  // namespace
}  // namespace analysis
}  // namespace imax432
