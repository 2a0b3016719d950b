// Static capability verifier: forward dataflow analysis over a Program's AD registers.
//
// The 432's protection guarantees — rights can only be removed when copying an AD, and an AD
// may never be stored into an object with a lower (more global) level number — are enforced
// by the AddressingUnit on every instruction at run time. This pass proves a useful subset of
// those properties *before dispatch*, so a program from an untrusted source can be rejected
// at load time instead of faulting deep inside the interpreter.
//
// The abstract state per AD register is:
//   - nullness:  definitely null / definitely an object / either,
//   - rights:    an upper bound on the rights the AD can carry (exact for ADs minted by
//                kCreateObject/kCreateSro, monotonically shrunk by kRestrictRights, copied
//                by kMoveAd, reset to "all" when the value comes from memory or a port),
//   - type:      the SystemType when statically known,
//   - level:     bounds on the object's lifetime level (created objects are exactly
//                entry-level + 1; seeded facts can pin absolute levels),
//   - sizes:     data bytes / access slots when the object was created in this program.
//
// Everything the analysis cannot prove is left to the AddressingUnit: the verifier never
// rejects a program unless *every* execution reaching the flagged instruction would fault.
// Joins at control-flow merges go toward "unknown", and native steps (whose C++ bodies can
// rewrite any register and jump anywhere) havoc the whole register file.

#ifndef IMAX432_SRC_ANALYSIS_VERIFIER_H_
#define IMAX432_SRC_ANALYSIS_VERIFIER_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/arch/rights.h"
#include "src/arch/types.h"
#include "src/isa/program.h"

namespace imax432 {
namespace analysis {

// Bounds on an object's lifetime level. `lo`/`hi` bound the absolute level number; values
// allocated in the analyzed activation are additionally *exactly* entry_level + delta, which
// lets the level rule compare two such values even when the entry level itself is unknown.
struct LevelRange {
  static constexpr uint32_t kUnbounded = 0xffffffffu;

  uint32_t lo = 0;
  uint32_t hi = kUnbounded;
  bool entry_relative = false;
  uint32_t delta = 0;

  static LevelRange Unknown() { return LevelRange{}; }
  static LevelRange Exact(uint32_t level) { return LevelRange{level, level, false, 0}; }
  // Exactly entry-context level + delta. Contexts always run at level >= 1 (their process
  // allocates at >= 0 and the context one deeper), so the absolute lower bound is 1 + delta.
  static LevelRange EntryPlus(uint32_t d) { return LevelRange{1 + d, kUnbounded, true, d}; }

  static LevelRange Join(const LevelRange& a, const LevelRange& b);
  friend bool operator==(const LevelRange& a, const LevelRange& b) {
    return a.lo == b.lo && a.hi == b.hi && a.entry_relative == b.entry_relative &&
           a.delta == b.delta;
  }
};

// True when storing a `value`-level AD into a `container`-level object provably violates the
// lifetime rule (container.level < value.level on every execution).
bool ProvablyViolatesLevelRule(const LevelRange& container, const LevelRange& value);

// Abstract value of one AD register.
struct AdAbstract {
  static constexpr uint32_t kUnknownSize = 0xffffffffu;

  enum class Nullness : uint8_t { kNull, kObject, kMaybeNull };

  Nullness nullness = Nullness::kMaybeNull;
  RightsMask rights = rights::kAll;  // upper bound, meaningful whenever possibly non-null
  bool type_known = false;
  SystemType type = SystemType::kGeneric;
  LevelRange level;
  uint32_t data_bytes = kUnknownSize;
  uint32_t access_slots = kUnknownSize;

  static AdAbstract Null() {
    AdAbstract s;
    s.nullness = Nullness::kNull;
    s.rights = rights::kNone;
    return s;
  }
  static AdAbstract Unknown() { return AdAbstract{}; }
  static AdAbstract Object(SystemType object_type, RightsMask rights_bound,
                           LevelRange level_range,
                           uint32_t data_bytes_known = kUnknownSize,
                           uint32_t access_slots_known = kUnknownSize) {
    AdAbstract s;
    s.nullness = Nullness::kObject;
    s.rights = rights_bound;
    s.type_known = true;
    s.type = object_type;
    s.level = level_range;
    s.data_bytes = data_bytes_known;
    s.access_slots = access_slots_known;
    return s;
  }

  bool definitely_null() const { return nullness == Nullness::kNull; }
  bool maybe_object() const { return nullness != Nullness::kNull; }
  // Provably lacks `required` on every non-null execution.
  bool ProvablyLacks(RightsMask required) const {
    return maybe_object() && !rights::Has(rights, required);
  }

  static AdAbstract Join(const AdAbstract& a, const AdAbstract& b);
  friend bool operator==(const AdAbstract& a, const AdAbstract& b) {
    return a.nullness == b.nullness && a.rights == b.rights && a.type_known == b.type_known &&
           a.type == b.type && a.level == b.level && a.data_bytes == b.data_bytes &&
           a.access_slots == b.access_slots;
  }
};

// The verifier's rule taxonomy; each diagnostic names exactly one.
enum class Rule : uint8_t {
  kNullAdUse,      // dereference of a definitely-null / uninitialized AD register
  kMissingRights,  // AD's rights upper bound lacks a right the instruction requires
  kLevelRule,      // store provably violates the lifetime level rule
  kBranchRange,    // branch target beyond the end of the program
  kUnreachable,    // basic block unreachable from entry (warning)
  kDataBounds,     // data access provably outside the object's data part
  kSlotBounds,     // access-slot index provably outside the object's access part
  kBadWidth,       // data access width not in {1, 2, 4, 8}
  kBadRegister,    // register operand index out of range
  kTypeConfusion,  // operand's known SystemType cannot satisfy the instruction
};

const char* RuleName(Rule rule);

enum class Severity : uint8_t { kWarning, kError };

struct Diagnostic {
  uint32_t pc = 0;
  Rule rule = Rule::kNullAdUse;
  Severity severity = Severity::kError;
  std::string message;
};

struct VerifyResult {
  std::vector<Diagnostic> diagnostics;

  bool ok() const {
    for (const Diagnostic& d : diagnostics) {
      if (d.severity == Severity::kError) {
        return false;
      }
    }
    return true;
  }
  size_t error_count() const {
    size_t n = 0;
    for (const Diagnostic& d : diagnostics) {
      n += d.severity == Severity::kError ? 1 : 0;
    }
    return n;
  }
};

// Renders diagnostics as "pc NNNN [rule] message — disassembly" lines.
std::string FormatDiagnostics(const Program& program, const VerifyResult& result);

struct VerifyOptions {
  // A process entry has no current domain; a domain entry's a6 is the current domain.
  ProgramKind entry = ProgramKind::kProcess;
  // Abstract value of the argument register a7 at entry (defaults to unknown).
  AdAbstract initial_arg = AdAbstract::Unknown();
  // Absolute level of the entry context, when the loader knows it.
  std::optional<uint32_t> entry_level;
  // Extra seeded facts: AD register index -> abstract value, overriding the defaults above.
  std::map<uint8_t, AdAbstract> seeded_ad_regs;
};

class Verifier {
 public:
  // Analyzes `program` to a fixpoint and reports every provable violation. A result with
  // ok() == false means the program faults on every execution that reaches a flagged
  // instruction, and a loader is entitled to reject it outright.
  static VerifyResult Verify(const Program& program, const VerifyOptions& options = {});
};

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_VERIFIER_H_
