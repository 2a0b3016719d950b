// System-wide port-communication analysis: wait-for graph, deadlock cycles, orphaned and
// starved ports.
//
// The graph holds one EffectSummary (effects.h) per registered instruction segment, plus the
// kernel's knowledge of external traffic (PostMessage injections, fault / scheduler /
// dispatch ports the kernel itself feeds or drains). Analyze() composes domain-call callees
// into their callers, then derives per-port sender/receiver sets and reports:
//
//   kDeadlockCycle — a cycle of programs each blocked in an unguarded receive on a port fed
//       only from inside the cycle. Request/reply pairs are recognized by the must-send
//       ("primed") sets: a receive preceded on every path by a send into the cycle cannot be
//       the first blocker, so such cycles are suppressed.
//   kOrphanPort    — a port some program sends to but nothing can ever receive from:
//       unbounded queue growth.
//   kStarvedPort   — a port some program receive-blocks on but nothing can ever send to:
//       permanent block.
//
// Soundness posture: the detector only trusts *resolved* traffic. Any program containing
// native steps, unknown OS services, or unresolvable sends could feed any port, so its
// presence suppresses cycle/starvation claims (and unresolvable receives suppress orphan
// claims) rather than producing false alarms. The report counts how much was suppressed.

#ifndef IMAX432_SRC_ANALYSIS_DEADLOCK_H_
#define IMAX432_SRC_ANALYSIS_DEADLOCK_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/effects.h"
#include "src/arch/types.h"

namespace imax432 {

class SymbolTable;  // disassembler.h

namespace analysis {

enum class SystemRule : uint8_t {
  kDeadlockCycle,
  kOrphanPort,
  kStarvedPort,
};

const char* SystemRuleName(SystemRule rule);

struct SystemDiagnostic {
  SystemRule rule = SystemRule::kDeadlockCycle;
  // Rendered, multi-line, disassembly-anchored: names every involved program and port.
  std::string message;
  std::vector<std::string> programs;   // names of involved programs
  std::vector<ObjectIndex> ports;      // involved ports, sorted
};

struct SystemAnalysisReport {
  std::vector<SystemDiagnostic> diagnostics;
  uint32_t programs_analyzed = 0;
  uint32_t ports_seen = 0;           // distinct ports appearing in resolved uses
  uint32_t opaque_programs = 0;      // native / unknown-service / unresolved-call programs
  uint32_t unresolved_send_programs = 0;
  uint32_t unresolved_receive_programs = 0;

  bool ok() const { return diagnostics.empty(); }
};

// One report as text, one block per diagnostic ("" when the report is clean).
std::string FormatReport(const SystemAnalysisReport& report);

// One registered summary plus how it runs. A process runs autonomously and is an actor in
// the wait-for graph; a domain entry executes only when some process calls into it, so its
// effects count solely through composition into its callers.
struct ProgramEntry {
  EffectSummary summary;
  ProgramKind kind = ProgramKind::kProcess;
};

// Incremental store of per-program summaries plus external port topology. The kernel owns
// one and feeds it as programs register (see Kernel::AnalyzeSystem); tools and tests build
// standalone instances.
class SystemEffectGraph {
 public:
  // Registers (or replaces) the summary for the program in instruction segment `segment`.
  void AddProgram(ObjectIndex segment, EffectSummary summary,
                  ProgramKind kind = ProgramKind::kProcess);
  // Drops a program (segment reclaimed by GC).
  void RemoveProgram(ObjectIndex segment);
  bool HasProgram(ObjectIndex segment) const { return programs_.count(segment) != 0; }
  uint32_t program_count() const { return static_cast<uint32_t>(programs_.size()); }

  // Declares traffic originating outside any summarized program: the kernel posting to a
  // fault/scheduler port, a device, a test harness. An external sender keeps a port's
  // receivers unblocked forever; an external receiver keeps its queue drained.
  void MarkExternalSender(ObjectIndex port) { external_senders_.insert(port); }
  void MarkExternalReceiver(ObjectIndex port) { external_receivers_.insert(port); }

  void set_symbols(const SymbolTable* symbols) { symbols_ = symbols; }

  const std::map<ObjectIndex, ProgramEntry>& programs() const { return programs_; }
  const std::set<ObjectIndex>& external_senders() const { return external_senders_; }
  const std::set<ObjectIndex>& external_receivers() const { return external_receivers_; }
  const SymbolTable* symbols() const { return symbols_; }

  SystemAnalysisReport Analyze() const;

 private:
  std::map<ObjectIndex, ProgramEntry> programs_;
  std::set<ObjectIndex> external_senders_;
  std::set<ObjectIndex> external_receivers_;
  const SymbolTable* symbols_ = nullptr;
};

// A port use / object access attributed to the program whose behavior it contributes to
// (after domain-call composition a caller owns its callees' sites). Pointers alias the
// graph's stored summaries and stay valid until the graph is next mutated.
struct OwnedPortUse {
  const PortUse* use = nullptr;
  ObjectIndex origin_segment = kInvalidObjectIndex;  // segment the site's code lives in
};

struct OwnedAccess {
  const ObjectAccess* access = nullptr;
  ObjectIndex origin_segment = kInvalidObjectIndex;
};

// Per-process view after composing domain callees into callers (transitively, cycle-safe).
struct EffectiveProgram {
  ObjectIndex segment = kInvalidObjectIndex;
  const EffectSummary* own = nullptr;  // the process's own (pre-composition) summary
  std::vector<OwnedPortUse> uses;
  std::vector<OwnedAccess> accesses;
  bool opaque = false;  // native steps, unknown services, or calls into unknown code
  bool unresolved_send = false;
  bool unresolved_receive = false;
  bool unresolved_access = false;
  bool may_not_terminate = false;  // any composed summary may loop or is opaque
};

// Composes every registered process (domain entries contribute only through their callers).
// Shared between the deadlock pass and the race pass (races/races.h).
std::vector<EffectiveProgram> ComposeProcesses(const SystemEffectGraph& graph);

// "port N" / "port N 'name'" for diagnostics.
std::string PortLabel(ObjectIndex port, const SymbolTable* symbols);

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_DEADLOCK_H_
