#include "src/analysis/verifier.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "src/analysis/cfg.h"
#include "src/isa/disassembler.h"

namespace imax432 {
namespace analysis {

namespace {

bool ValidReg(uint8_t r) { return r < kNumDataRegs; }
bool ValidAdReg(uint8_t r) { return r < kNumAdRegs; }

bool ValidWidth(uint32_t width) {
  return width == 1 || width == 2 || width == 4 || width == 8;
}

std::string Format(const char* fmt, ...) {
  char buffer[192];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

}  // namespace

const char* RuleName(Rule rule) {
  switch (rule) {
    case Rule::kNullAdUse: return "null-ad-use";
    case Rule::kMissingRights: return "missing-rights";
    case Rule::kLevelRule: return "level-rule";
    case Rule::kBranchRange: return "branch-range";
    case Rule::kUnreachable: return "unreachable";
    case Rule::kDataBounds: return "data-bounds";
    case Rule::kSlotBounds: return "slot-bounds";
    case Rule::kBadWidth: return "bad-width";
    case Rule::kBadRegister: return "bad-register";
    case Rule::kTypeConfusion: return "type-confusion";
  }
  return "?";
}

LevelRange LevelRange::Join(const LevelRange& a, const LevelRange& b) {
  LevelRange joined;
  joined.lo = std::min(a.lo, b.lo);
  joined.hi = (a.hi == b.hi) ? a.hi : kUnbounded;
  if (a.entry_relative && b.entry_relative && a.delta == b.delta) {
    joined.entry_relative = true;
    joined.delta = a.delta;
  }
  return joined;
}

bool ProvablyViolatesLevelRule(const LevelRange& container, const LevelRange& value) {
  // The store is legal iff container.level >= value.level; it provably faults when the
  // container's highest possible level is still below the value's lowest possible level.
  if (container.hi != LevelRange::kUnbounded && container.hi < value.lo) {
    return true;
  }
  // Both exactly entry + delta: compare symbolically even though the entry level is unknown.
  if (container.entry_relative && value.entry_relative && container.delta < value.delta) {
    return true;
  }
  // Container exactly entry + d stores a value of level >= entry + d' with d' > d. The
  // value's entry-relative lower bound dominates any absolute one.
  return false;
}

AdAbstract AdAbstract::Join(const AdAbstract& a, const AdAbstract& b) {
  AdAbstract joined;
  joined.nullness = a.nullness == b.nullness ? a.nullness : Nullness::kMaybeNull;
  // Rights of a definitely-null value are vacuous; joining them in would erase what is
  // known about the other arm (a null arm faults with kNullAccess, not by gaining rights).
  if (a.nullness == Nullness::kNull) {
    joined.rights = b.rights;
  } else if (b.nullness == Nullness::kNull) {
    joined.rights = a.rights;
  } else {
    joined.rights = static_cast<RightsMask>(a.rights | b.rights);
  }
  joined.type_known = a.type_known && b.type_known && a.type == b.type;
  joined.type = joined.type_known ? a.type : SystemType::kGeneric;
  joined.level = LevelRange::Join(a.level, b.level);
  joined.data_bytes = a.data_bytes == b.data_bytes ? a.data_bytes : kUnknownSize;
  joined.access_slots = a.access_slots == b.access_slots ? a.access_slots : kUnknownSize;
  return joined;
}

namespace {

// Full register-file state at one program point. The `domain` pseudo-register models
// ctx.domain(), which kCallLocal dereferences without naming a register.
struct RegisterState {
  std::array<AdAbstract, kNumAdRegs> ad;
  AdAbstract domain;

  // Least upper bound; returns true when this state changed.
  bool Join(const RegisterState& other) {
    bool changed = false;
    auto join = [&changed](AdAbstract& into, const AdAbstract& from) {
      const AdAbstract joined = AdAbstract::Join(into, from);
      changed |= !(joined == into);
      into = joined;
    };
    for (uint8_t i = 0; i < kNumAdRegs; ++i) join(ad[i], other.ad[i]);
    join(domain, other.domain);
    return changed;
  }
};

class Analysis {
 public:
  Analysis(const Program& program, const VerifyOptions& options)
      : program_(program), options_(options), cfg_(ControlFlowGraph::Build(program)) {}

  VerifyResult Run() {
    VerifyResult result;
    if (program_.size() == 0) {
      return result;
    }
    const RegisterState entry = EntryState();

    // Fixpoint. All joins move toward "unknown" and the level bounds move toward the
    // interval hull over a finite set of constants, so the transfer functions are monotone
    // over a finite-height lattice and the loop terminates.
    const std::vector<std::optional<RegisterState>> in_state = ForwardFixpoint(
        cfg_, entry, HavocState(entry), [this](uint32_t id, RegisterState& state) {
          const BasicBlock& block = cfg_.block(id);
          for (uint32_t pc = block.begin; pc < block.end; ++pc) {
            Apply(program_.at(pc), pc, state, nullptr);
          }
          return false;
        });

    // Reporting pass: one walk per reachable block against its fixpoint entry state.
    for (uint32_t id = 0; id < cfg_.size(); ++id) {
      const BasicBlock& block = cfg_.block(id);
      if (!block.reachable) {
        result.diagnostics.push_back(
            {block.begin, Rule::kUnreachable, Severity::kWarning,
             Format("block at %u unreachable from entry", block.begin)});
        continue;
      }
      RegisterState state = *in_state[id];
      for (uint32_t pc = block.begin; pc < block.end; ++pc) {
        Apply(program_.at(pc), pc, state, &result.diagnostics);
      }
    }
    std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) { return a.pc < b.pc; });
    return result;
  }

 private:
  RegisterState EntryState() const {
    RegisterState state;
    // A fresh context's AD registers are null: using one before initializing it is the
    // static form of kNullAccess.
    for (uint8_t i = 0; i < kNumAdRegs; ++i) {
      state.ad[i] = AdAbstract::Null();
    }
    state.ad[kArgAdReg] = options_.initial_arg;
    if (options_.entry == ProgramKind::kDomainEntry) {
      // The call instruction amplified a6 with read rights on the domain itself.
      AdAbstract domain = AdAbstract::Unknown();
      domain.nullness = AdAbstract::Nullness::kObject;
      domain.type_known = true;
      domain.type = SystemType::kDomain;
      state.ad[kDomainAdReg] = domain;
      state.domain = domain;
    } else {
      state.domain = AdAbstract::Null();
    }
    for (const auto& [reg, fact] : options_.seeded_ad_regs) {
      if (ValidAdReg(reg)) {
        state.ad[reg] = fact;
      }
    }
    return state;
  }

  // The all-unknown state a native step can leave behind. The current domain survives: no
  // native or OS-call path rebinds a context's domain.
  RegisterState HavocState(const RegisterState& entry) const {
    RegisterState state;
    for (uint8_t i = 0; i < kNumAdRegs; ++i) {
      state.ad[i] = AdAbstract::Unknown();
    }
    state.domain = entry.domain;
    return state;
  }

  LevelRange EntryLevelPlus(uint32_t delta) const {
    if (options_.entry_level.has_value()) {
      return LevelRange::Exact(*options_.entry_level + delta);
    }
    return LevelRange::EntryPlus(delta);
  }

  void Report(std::vector<Diagnostic>* sink, uint32_t pc, Rule rule, Severity severity,
              std::string message) const {
    if (sink != nullptr) {
      sink->push_back({pc, rule, severity, std::move(message)});
    }
  }

  // Checks a dereference of AD register `reg` needing `required` rights (and `type` when
  // the instruction is type-checked at run time). `required_name` is the human name of the
  // right — the type-right bit values alias across types (kPortSend == kSroAllocate), so the
  // mask alone cannot be rendered. Returns the abstract operand.
  AdAbstract Deref(RegisterState& state, uint32_t pc, uint8_t reg, RightsMask required,
                   const char* required_name, std::optional<SystemType> type,
                   std::vector<Diagnostic>* sink) {
    if (!ValidAdReg(reg)) {
      Report(sink, pc, Rule::kBadRegister, Severity::kError,
             Format("AD register a%u out of range", reg));
      return AdAbstract::Unknown();
    }
    const AdAbstract& operand = state.ad[reg];
    if (operand.definitely_null()) {
      Report(sink, pc, Rule::kNullAdUse, Severity::kError,
             Format("a%u is null (never initialized on any path to this instruction)", reg));
      return operand;
    }
    if (type.has_value() && operand.type_known && operand.type != *type) {
      Report(sink, pc, Rule::kTypeConfusion, Severity::kError,
             Format("a%u is a %s object; instruction requires %s", reg,
                    SystemTypeName(operand.type), SystemTypeName(*type)));
    } else if (operand.ProvablyLacks(required)) {
      Report(sink, pc, Rule::kMissingRights, Severity::kError,
             Format("a%u provably lacks %s rights (upper bound 0x%02x)", reg, required_name,
                    operand.rights));
    }
    return operand;
  }

  void CheckDataReg(uint32_t pc, uint8_t reg, std::vector<Diagnostic>* sink) const {
    if (!ValidReg(reg)) {
      Report(sink, pc, Rule::kBadRegister, Severity::kError,
             Format("data register r%u out of range", reg));
    }
  }

  void CheckDataBounds(uint32_t pc, const AdAbstract& object, uint32_t min_offset,
                       uint32_t width, std::vector<Diagnostic>* sink) const {
    if (!ValidWidth(width)) {
      Report(sink, pc, Rule::kBadWidth, Severity::kError,
             Format("width %u not in {1, 2, 4, 8}", width));
      return;
    }
    if (object.data_bytes != AdAbstract::kUnknownSize &&
        static_cast<uint64_t>(min_offset) + width > object.data_bytes) {
      Report(sink, pc, Rule::kDataBounds, Severity::kError,
             Format("access at offset %u width %u exceeds the object's %u data bytes",
                    min_offset, width, object.data_bytes));
    }
  }

  void CheckSlotBounds(uint32_t pc, const AdAbstract& object, uint32_t min_slot,
                       std::vector<Diagnostic>* sink) const {
    if (object.access_slots != AdAbstract::kUnknownSize && min_slot >= object.access_slots) {
      Report(sink, pc, Rule::kSlotBounds, Severity::kError,
             Format("slot %u outside the object's %u access slots", min_slot,
                    object.access_slots));
    }
  }

  void CheckBranchTarget(uint32_t pc, uint32_t target, std::vector<Diagnostic>* sink) const {
    // Branching exactly to program.size() is the fall-off-the-end implicit return; anything
    // beyond that is a malformed (likely unpatched) target.
    if (target > program_.size()) {
      Report(sink, pc, Rule::kBranchRange, Severity::kError,
             Format("branch target %u beyond program end %u", target, program_.size()));
    }
  }

  void SetAd(RegisterState& state, uint8_t reg, const AdAbstract& value) {
    if (ValidAdReg(reg)) {
      state.ad[reg] = value;
    }
  }

  // Transfer function: mutates `state` across one instruction, reporting provable
  // violations into `sink` when non-null (the fixpoint passes run with sink == nullptr).
  void Apply(const Instruction& in, uint32_t pc, RegisterState& state,
             std::vector<Diagnostic>* sink) {
    switch (in.op) {
      case Opcode::kCompute:
        return;

      case Opcode::kLoadImm:
        CheckDataReg(pc, in.a, sink);
        return;

      case Opcode::kMove:
        CheckDataReg(pc, in.a, sink);
        CheckDataReg(pc, in.b, sink);
        return;

      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
        CheckDataReg(pc, in.a, sink);
        CheckDataReg(pc, in.b, sink);
        CheckDataReg(pc, in.c, sink);
        return;

      case Opcode::kAddImm:
        CheckDataReg(pc, in.a, sink);
        CheckDataReg(pc, in.b, sink);
        return;

      case Opcode::kLoadData: {
        CheckDataReg(pc, in.a, sink);
        AdAbstract object = Deref(state, pc, in.b, rights::kRead, "read", std::nullopt, sink);
        CheckDataBounds(pc, object, in.imm, in.c, sink);
        return;
      }

      case Opcode::kStoreData: {
        CheckDataReg(pc, in.b, sink);
        AdAbstract object = Deref(state, pc, in.a, rights::kWrite, "write", std::nullopt, sink);
        CheckDataBounds(pc, object, in.imm, in.c, sink);
        return;
      }

      case Opcode::kLoadDataIndexed: {
        CheckDataReg(pc, in.a, sink);
        CheckDataReg(pc, in.c, sink);
        AdAbstract object = Deref(state, pc, in.b, rights::kRead, "read", std::nullopt, sink);
        // The index register is unknown but non-negative, so `imm` is the smallest offset
        // this access can touch.
        CheckDataBounds(pc, object, in.imm, 8, sink);
        return;
      }

      case Opcode::kStoreDataIndexed: {
        CheckDataReg(pc, in.b, sink);
        CheckDataReg(pc, in.c, sink);
        AdAbstract object = Deref(state, pc, in.a, rights::kWrite, "write", std::nullopt, sink);
        CheckDataBounds(pc, object, in.imm, 8, sink);
        return;
      }

      case Opcode::kMoveAd:
        if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) {
          Report(sink, pc, Rule::kBadRegister, Severity::kError,
                 Format("AD register a%u or a%u out of range", in.a, in.b));
          return;
        }
        state.ad[in.a] = state.ad[in.b];
        return;

      case Opcode::kClearAd:
        SetAd(state, in.a, AdAbstract::Null());
        return;

      case Opcode::kLoadAd: {
        AdAbstract container = Deref(state, pc, in.b, rights::kRead, "read", std::nullopt, sink);
        CheckSlotBounds(pc, container, in.imm, sink);
        SetAd(state, in.a, AdAbstract::Unknown());  // slot contents are not tracked
        return;
      }

      case Opcode::kLoadAdIndexed: {
        CheckDataReg(pc, in.c, sink);
        AdAbstract container = Deref(state, pc, in.b, rights::kRead, "read", std::nullopt, sink);
        CheckSlotBounds(pc, container, in.imm, sink);
        SetAd(state, in.a, AdAbstract::Unknown());
        return;
      }

      case Opcode::kStoreAd:
      case Opcode::kStoreAdIndexed: {
        if (in.op == Opcode::kStoreAdIndexed) {
          CheckDataReg(pc, in.c, sink);
        }
        if (!ValidAdReg(in.b)) {
          Report(sink, pc, Rule::kBadRegister, Severity::kError,
                 Format("AD register a%u out of range", in.b));
        }
        AdAbstract container = Deref(state, pc, in.a, rights::kWrite, "write", std::nullopt, sink);
        CheckSlotBounds(pc, container, in.imm, sink);
        if (ValidAdReg(in.b) && state.ad[in.b].nullness == AdAbstract::Nullness::kObject &&
            ProvablyViolatesLevelRule(container.level, state.ad[in.b].level)) {
          Report(sink, pc, Rule::kLevelRule, Severity::kError,
                 Format("storing a%u (level >= %u) into a%u (level <= %u) violates the "
                        "lifetime rule",
                        in.b, state.ad[in.b].level.lo, in.a, container.level.hi));
        }
        return;
      }

      case Opcode::kRestrictRights:
        if (ValidAdReg(in.a) && state.ad[in.a].maybe_object()) {
          state.ad[in.a].rights =
              rights::Restrict(state.ad[in.a].rights, static_cast<RightsMask>(in.imm));
        }
        return;

      case Opcode::kAdIsNull:
        CheckDataReg(pc, in.a, sink);
        if (!ValidAdReg(in.b)) {
          Report(sink, pc, Rule::kBadRegister, Severity::kError,
                 Format("AD register a%u out of range", in.b));
        }
        return;

      case Opcode::kCreateObject: {
        AdAbstract sro = Deref(state, pc, in.b, rights::kSroAllocate, "sro-allocate",
                               SystemType::kStorageResource, sink);
        if (in.imm > kMaxDataPartBytes) {
          Report(sink, pc, Rule::kDataBounds, Severity::kError,
                 Format("object of %u bytes exceeds the %u-byte architectural limit", in.imm,
                        kMaxDataPartBytes));
        }
        // The new object allocates at the SRO's level and carries the full generic rights.
        SetAd(state, in.a,
              AdAbstract::Object(SystemType::kGeneric,
                                 rights::kRead | rights::kWrite | rights::kDelete, sro.level,
                                 in.imm, in.c));
        return;
      }

      case Opcode::kDestroyObject:
        Deref(state, pc, in.a, rights::kDelete, "delete", std::nullopt, sink);
        SetAd(state, in.a, AdAbstract::Null());
        return;

      case Opcode::kCreateSro:
        Deref(state, pc, in.b, rights::kSroAllocate, "sro-allocate",
              SystemType::kStorageResource, sink);
        // A local SRO allocates one level below the executing context, whatever the parent.
        SetAd(state, in.a,
              AdAbstract::Object(SystemType::kStorageResource,
                                 rights::kRead | rights::kSroAllocate | rights::kSroDestroy,
                                 EntryLevelPlus(1)));
        return;

      case Opcode::kDestroySro:
        Deref(state, pc, in.a, rights::kSroDestroy, "sro-destroy",
              SystemType::kStorageResource, sink);
        SetAd(state, in.a, AdAbstract::Null());
        return;

      case Opcode::kSend:
        Deref(state, pc, in.a, rights::kPortSend, "port-send", SystemType::kPort, sink);
        if (!ValidAdReg(in.b)) {
          Report(sink, pc, Rule::kBadRegister, Severity::kError,
                 Format("AD register a%u out of range", in.b));
        }
        return;

      case Opcode::kCondSend:
        CheckDataReg(pc, in.c, sink);
        Deref(state, pc, in.a, rights::kPortSend, "port-send", SystemType::kPort, sink);
        if (!ValidAdReg(in.b)) {
          Report(sink, pc, Rule::kBadRegister, Severity::kError,
                 Format("AD register a%u out of range", in.b));
        }
        return;

      case Opcode::kReceive:
        Deref(state, pc, in.b, rights::kPortReceive, "port-receive", SystemType::kPort, sink);
        SetAd(state, in.a, AdAbstract::Unknown());
        return;

      case Opcode::kCondReceive:
        CheckDataReg(pc, in.c, sink);
        Deref(state, pc, in.b, rights::kPortReceive, "port-receive", SystemType::kPort, sink);
        SetAd(state, in.a, AdAbstract::Unknown());
        return;

      case Opcode::kCall:
        Deref(state, pc, in.a, rights::kDomainCall, "domain-call", SystemType::kDomain, sink);
        // The callee's return value lands in r7/a7; everything else is caller-saved by the
        // context machinery.
        SetAd(state, kArgAdReg, AdAbstract::Unknown());
        return;

      case Opcode::kCallLocal:
        if (state.domain.definitely_null()) {
          Report(sink, pc, Rule::kNullAdUse, Severity::kError,
                 "call_local at process top level: no current domain");
        }
        SetAd(state, kArgAdReg, AdAbstract::Unknown());
        return;

      case Opcode::kReturn:
        // Returning an activation-local AD escapes the activation's lifetime; the checked
        // store into the caller's context provably faults. Only meaningful when a caller
        // exists, i.e. for domain entries (a process's top-level return just terminates).
        if (options_.entry == ProgramKind::kDomainEntry &&
            state.ad[kArgAdReg].nullness == AdAbstract::Nullness::kObject &&
            state.ad[kArgAdReg].level.entry_relative) {
          Report(sink, pc, Rule::kLevelRule, Severity::kError,
                 Format("returning a7 (activation-local, level = entry + %u) to the caller "
                        "violates the lifetime rule",
                        state.ad[kArgAdReg].level.delta));
        }
        return;

      case Opcode::kBranch:
      case Opcode::kBranchIfZero:
      case Opcode::kBranchIfNotZero:
        if (in.op != Opcode::kBranch) {
          CheckDataReg(pc, in.a, sink);
        }
        CheckBranchTarget(pc, in.imm, sink);
        return;

      case Opcode::kBranchIfLess:
        CheckDataReg(pc, in.a, sink);
        CheckDataReg(pc, in.b, sink);
        CheckBranchTarget(pc, in.imm, sink);
        return;

      case Opcode::kHalt:
        return;

      case Opcode::kNative:
        if (program_.native(in.imm) == nullptr) {
          Report(sink, pc, Rule::kBranchRange, Severity::kError,
                 Format("native step %u not registered with the program", in.imm));
        }
        state = HavocState(state);
        return;

      case Opcode::kOsCall:
        // Services run arbitrary native code against the register file (kTimedReceive, for
        // one, rewrites a7).
        state = HavocState(state);
        return;
    }
  }

  const Program& program_;
  const VerifyOptions& options_;
  ControlFlowGraph cfg_;
};

}  // namespace

VerifyResult Verifier::Verify(const Program& program, const VerifyOptions& options) {
  return Analysis(program, options).Run();
}

std::string FormatDiagnostics(const Program& program, const VerifyResult& result) {
  std::string out;
  for (const Diagnostic& d : result.diagnostics) {
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "%s %04u [%s] ",
                  d.severity == Severity::kError ? "error  " : "warning", d.pc,
                  RuleName(d.rule));
    out += prefix;
    out += d.message;
    if (d.pc < program.size()) {
      out += "\n           | ";
      out += DisassembleInstruction(program.at(d.pc));
    }
    out += '\n';
  }
  return out;
}

}  // namespace analysis
}  // namespace imax432
