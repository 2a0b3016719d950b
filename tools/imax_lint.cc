// imax_lint: offline static analysis for iMAX-432 programs.
//
// Boots a representative system configuration — GC daemon, fault service, pass-through
// scheduler, console device server, a quickstart-style producer/consumer pair, and a
// package (a protection domain with a private port, its client and a listener) — then
// sweeps every instruction segment in the program store through the static verifier
// (src/analysis) and prints a disassembly-annotated diagnostic report. See --help for the
// modes and the exit-code contract (CI gates on it).

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/effects.h"
#include "src/analysis/lifetime/lifetime.h"
#include "src/analysis/races/races.h"
#include "src/analysis/verifier.h"
#include "src/filing/journal.h"
#include "src/filing/stable_store.h"
#include "src/io/devices.h"
#include "src/isa/disassembler.h"
#include "src/os/fault_service.h"
#include "src/os/schedulers.h"
#include "src/os/system.h"

using namespace imax432;

namespace {

constexpr char kUsage[] =
    "usage: imax_lint [--dump] [--demo-bad] [--deadlock] [--races] [--lifetime]\n"
    "                 [--filing] [--all] [--json] [--help]\n"
    "\n"
    "Boots a representative iMAX-432 system with verify-on-load armed and sweeps every\n"
    "loaded program through the static capability verifier.\n"
    "\n"
    "  --dump      also print the full disassembly of every linted program\n"
    "  --demo-bad  additionally lint a corpus of deliberately broken programs and check\n"
    "              that each one is rejected (verifier rule coverage, end to end)\n"
    "  --deadlock  additionally run the whole-system IPC analysis: the booted system must\n"
    "              come back clean, and a seeded corpus (3-process receive cycle, orphan\n"
    "              port, starved port) must be flagged\n"
    "  --races     additionally run the static data-race analysis: the booted system must\n"
    "              come back clean, a seeded racy corpus (unordered write/write and\n"
    "              write/read pairs) must be flagged, and a seeded race-free corpus\n"
    "              (send/receive ordered, relayed, conditionally ambiguous) must not be\n"
    "  --lifetime  additionally run the object-lifetime analysis: the booted system must\n"
    "              come back clean, a seeded corpus (leaked store, retention anomaly) must\n"
    "              be flagged while context-local and consumed allocations must not, and a\n"
    "              live demote+audit quickstart must run violation-free\n"
    "  --filing    additionally run the filing journal-integrity pass: a healthy journal\n"
    "              must replay whole, and a seeded corrupt-journal corpus (torn tail,\n"
    "              checksum-mismatched record, orphaned commit record) must be detected,\n"
    "              rolled back to the surviving prefix, and recovered from by a booting\n"
    "              kernel without panicking\n"
    "  --all       run every analysis pass above (equivalent to --demo-bad --deadlock\n"
    "              --races --lifetime --filing); tools/lint.sh and CI use this\n"
    "  --json      append a machine-readable findings document as the LAST line of stdout:\n"
    "              one JSON object {\"findings\":[...],\"exit\":N} where each finding carries\n"
    "              pass (which analysis produced it), site (program/object/pc anchor),\n"
    "              verdict, and reason (suppression cause or diagnostic text; empty when\n"
    "              none). Human output above it is unchanged; CI extracts with `tail -1`\n"
    "  --help      print this text and exit 0\n"
    "\n"
    "exit status (flags combine; the worst outcome across all requested checks wins):\n"
    "  0  everything clean: all programs verified, all seeded defects detected, no seeded\n"
    "     race-free pair reported\n"
    "  1  infrastructure failure (boot/setup error, bad usage) — reported only when no\n"
    "     check that did run produced a finding\n"
    "  2  diagnostics found: a verifier error, a missed seeded defect, or a whole-system\n"
    "     false positive/negative; takes precedence over 1. CI gates on this value\n"
    "     (--json mirrors the same value in the document's \"exit\" field)\n";

// --- --json: machine-readable findings ---------------------------------------------------
//
// Every pass appends findings here when --json is armed; main() prints the whole document as
// the last line of stdout so CI can extract it with `tail -1` without parsing the prose.
struct JsonFinding {
  std::string pass;     // which analysis produced it (verifier, demo-bad, races, ...)
  std::string site;     // program / object / pc anchor
  std::string verdict;  // clean / rejected / rolled-back / findings / ...
  std::string reason;   // suppression cause or diagnostic text; empty when none
};
std::vector<JsonFinding>* g_json_findings = nullptr;

void AddFinding(std::string pass, std::string site, std::string verdict,
                std::string reason = "") {
  if (g_json_findings == nullptr) return;
  g_json_findings->push_back(
      {std::move(pass), std::move(site), std::move(verdict), std::move(reason)});
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void EmitJson(const std::vector<JsonFinding>& findings, int exit_code) {
  std::printf("{\"findings\":[");
  for (size_t i = 0; i < findings.size(); ++i) {
    const JsonFinding& f = findings[i];
    std::printf("%s{\"pass\":\"%s\",\"site\":\"%s\",\"verdict\":\"%s\",\"reason\":\"%s\"}",
                i == 0 ? "" : ",", JsonEscape(f.pass).c_str(), JsonEscape(f.site).c_str(),
                JsonEscape(f.verdict).c_str(), JsonEscape(f.reason).c_str());
  }
  std::printf("],\"exit\":%d}\n", exit_code);
}

struct BadProgram {
  const char* why;
  ProgramRef program;
  analysis::VerifyOptions options;
};

// The shape Spawn-from-the-global-heap gives a7: a level-0 SRO with allocate rights.
analysis::VerifyOptions SroArg() {
  analysis::VerifyOptions options;
  options.initial_arg = analysis::AdAbstract::Object(
      SystemType::kStorageResource, rights::kRead | rights::kSroAllocate,
      analysis::LevelRange::Exact(0));
  return options;
}

analysis::VerifyOptions PortArg() {
  analysis::VerifyOptions options;
  options.initial_arg = analysis::AdAbstract::Object(SystemType::kPort, rights::kAll,
                                                     analysis::LevelRange::Exact(0));
  return options;
}

// Deliberately broken programs, one per verifier rule family.
std::vector<BadProgram> BuildBadCorpus() {
  std::vector<BadProgram> corpus;

  {
    Assembler a("bad_null_load");
    a.LoadData(0, 1, 0, 8).Halt();  // a1 never initialized
    corpus.push_back({"loads through a null AD register", a.Build(), {}});
  }
  {
    Assembler a("bad_restricted_send");
    a.MoveAd(1, kArgAdReg).RestrictRights(1, rights::kRead).Send(1, 1).Halt();
    corpus.push_back({"sends after stripping port-send rights", a.Build(), PortArg()});
  }
  {
    Assembler a("bad_branch_target");
    Instruction in;
    in.op = Opcode::kBranch;
    in.imm = 1000;
    auto program = std::make_shared<Program>("bad_branch_target");
    program->Append(in);
    corpus.push_back({"branches far beyond the program end", ProgramRef(program), {}});
  }
  {
    Assembler a("bad_oob_store");
    a.MoveAd(1, kArgAdReg)
        .CreateObject(2, 1, 16)    // 16-byte object
        .StoreData(2, 0, 64, 8)    // store at offset 64
        .Halt();
    corpus.push_back({"stores past the end of a 16-byte object", a.Build(), SroArg()});
  }
  {
    Assembler a("bad_restricted_cond_send");
    a.MoveAd(1, kArgAdReg).RestrictRights(1, rights::kRead).CondSend(1, 1, 0).Halt();
    corpus.push_back(
        {"cond-sends after stripping port-send rights", a.Build(), PortArg()});
  }
  {
    Assembler a("bad_restricted_cond_receive");
    a.MoveAd(1, kArgAdReg)
        .RestrictRights(1, rights::kPortSend)  // keep send, drop receive
        .CondReceive(2, 1, 0)
        .Halt();
    corpus.push_back(
        {"cond-receives after stripping port-receive rights", a.Build(), PortArg()});
  }
  {
    Assembler a("bad_level_escape");
    a.MoveAd(1, kArgAdReg)       // a1 = global SRO (level 0)
        .CreateObject(2, 1, 16, 2)
        .CreateSro(3, 1, 4096)   // a3 = local SRO, level = entry + 1
        .StoreAd(2, 3, 0)        // store local SRO into global-level object
        .Halt();
    corpus.push_back(
        {"stores an activation-local SRO into a global object", a.Build(), SroArg()});
  }

  return corpus;
}

int LintProgram(const Program& program, const analysis::VerifyOptions& options, bool dump) {
  analysis::VerifyResult result = analysis::Verifier::Verify(program, options);
  std::printf("---- %-24s %4u instructions: %s\n", program.name().c_str(), program.size(),
              result.ok() ? (result.diagnostics.empty() ? "clean" : "clean (warnings)")
                          : "REJECTED");
  if (dump) {
    std::fputs(Disassemble(program).c_str(), stdout);
  }
  if (!result.diagnostics.empty()) {
    std::fputs(analysis::FormatDiagnostics(program, result).c_str(), stdout);
  }
  return static_cast<int>(result.error_count());
}

// Whole-system IPC analysis: the booted system must come back clean (zero false positives
// on shipped programs), then a seeded corpus of known-defective topologies must be flagged
// (zero false negatives on the patterns the detector claims to catch). Returns the number
// of failed expectations; -1 on setup failure.
int RunDeadlockChecks(System& system, bool dump) {
  int failures = 0;

  std::printf("\n==== whole-system IPC analysis (booted system) ====\n");
  analysis::SystemAnalysisReport live = system.kernel().AnalyzeSystem();
  std::printf("imax_lint: %u programs, %u distinct ports, %u opaque: %s\n",
              live.programs_analyzed, live.ports_seen, live.opaque_programs,
              live.ok() ? "clean" : "DIAGNOSTICS");
  if (!live.ok()) {
    std::fputs(analysis::FormatReport(live).c_str(), stdout);
    std::printf("^^^^ FALSE POSITIVE — the booted system is known deadlock-free\n");
    failures += static_cast<int>(live.diagnostics.size());
  }

  // --- Seeded corpus: a 3-process receive ring, an orphan port, a starved port. ---
  // Ports and carriers are real objects in the live table (so AD chains resolve exactly as
  // they would at load time), but the programs are analyzed standalone and never spawned —
  // running the ring would genuinely hang the simulation.
  std::printf("\n==== seeded deadlock corpus (every defect below must be flagged) ====\n");
  Kernel& kernel = system.kernel();
  SymbolTable& symbols = kernel.symbols();
  auto make_port = [&](const char* name) {
    auto port = kernel.ports().CreatePort(system.memory().global_heap(), 4,
                                          QueueDiscipline::kFifo);
    if (port.ok()) symbols.Name(port.value().index(), name);
    return port;
  };
  auto ring0 = make_port("ring.0");
  auto ring1 = make_port("ring.1");
  auto ring2 = make_port("ring.2");
  auto orphan = make_port("orphan.sink");
  auto starved = make_port("starved.source");
  if (!ring0.ok() || !ring1.ok() || !ring2.ok() || !orphan.ok() || !starved.ok()) {
    std::fprintf(stderr, "imax_lint: corpus port creation failed\n");
    return -1;
  }

  // carrier slot 0 = the port the program receives from, slot 1 = the port it sends to.
  auto make_carrier = [&](const AccessDescriptor& recv_port,
                          const AccessDescriptor& send_port) {
    auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                                SystemType::kGeneric, 16, 2,
                                                rights::kRead | rights::kWrite);
    if (carrier.ok()) {
      (void)system.machine().addressing().WriteAd(carrier.value(), 0, recv_port);
      (void)system.machine().addressing().WriteAd(carrier.value(), 1, send_port);
    }
    return carrier;
  };

  analysis::SystemEffectGraph graph;
  graph.set_symbols(&symbols);
  ObjectIndex next_key = 1;
  auto add_program = [&](const Program& program, const AccessDescriptor& carrier) {
    analysis::EffectOptions options =
        analysis::EffectOptionsForTable(system.machine().table(), carrier, &symbols);
    if (dump) std::fputs(Disassemble(program).c_str(), stdout);
    graph.AddProgram(next_key++, analysis::AnalyzeProgram(program, options).effects);
  };

  // The ring: each member blocks receiving from its own port, then forwards to the next.
  // No message is ever in flight, so all three block forever.
  const AccessDescriptor ring_ports[3] = {ring0.value(), ring1.value(), ring2.value()};
  for (int i = 0; i < 3; ++i) {
    Assembler a("ring.p" + std::to_string(i));
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)   // own port
        .LoadAd(3, 1, 1)   // next member's port
        .Receive(4, 2)
        .Send(3, 4)
        .Halt();
    auto carrier = make_carrier(ring_ports[i], ring_ports[(i + 1) % 3]);
    if (!carrier.ok()) return -1;
    add_program(*a.Build(), carrier.value());
  }
  {
    Assembler a("orphan.writer");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 1).Send(2, 1).Halt();
    auto carrier = make_carrier(AccessDescriptor(), orphan.value());
    if (!carrier.ok()) return -1;
    add_program(*a.Build(), carrier.value());
  }
  {
    Assembler a("starved.reader");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Receive(4, 2).Halt();
    auto carrier = make_carrier(starved.value(), AccessDescriptor());
    if (!carrier.ok()) return -1;
    add_program(*a.Build(), carrier.value());
  }

  analysis::SystemAnalysisReport report = graph.Analyze();
  std::fputs(analysis::FormatReport(report).c_str(), stdout);
  int cycles = 0, orphans = 0, starvations = 0;
  for (const analysis::SystemDiagnostic& diagnostic : report.diagnostics) {
    switch (diagnostic.rule) {
      case analysis::SystemRule::kDeadlockCycle:
        ++cycles;
        if (diagnostic.programs.size() != 3) {
          std::printf("^^^^ WRONG CYCLE — expected 3 programs, got %zu\n",
                      diagnostic.programs.size());
          ++failures;
        }
        break;
      case analysis::SystemRule::kOrphanPort: ++orphans; break;
      case analysis::SystemRule::kStarvedPort: ++starvations; break;
    }
  }
  if (cycles != 1 || orphans != 1 || starvations != 1) {
    std::printf("^^^^ MISSED DEFECT — expected 1 cycle / 1 orphan / 1 starved, "
                "got %d / %d / %d\n", cycles, orphans, starvations);
    ++failures;
  }
  std::printf("\nimax_lint: seeded corpus: %d cycle, %d orphan, %d starved; %d failures\n",
              cycles, orphans, starvations, failures);
  return failures;
}

// Static data-race analysis: the booted system must come back clean, a seeded corpus of
// genuinely racy topologies must be flagged, and a seeded corpus of message-ordered (or
// merely ambiguous) topologies must be suppressed — both halves of the zero-false-positive
// contract, end to end. Returns the number of failed expectations; -1 on setup failure.
int RunRaceChecks(System& system, bool dump) {
  int failures = 0;

  std::printf("\n==== whole-system race analysis (booted system) ====\n");
  analysis::RaceAnalysisReport live = system.kernel().AnalyzeRaces();
  std::printf("imax_lint: %u programs, %u shared objects, %u pairs "
              "(%u ordered, %u suppressed): %s\n",
              live.programs_analyzed, live.objects_shared, live.pairs_checked,
              live.pairs_ordered, live.pairs_suppressed,
              live.ok() ? "clean" : "DIAGNOSTICS");
  if (!live.ok()) {
    std::fputs(analysis::FormatRaceReport(live).c_str(), stdout);
    std::printf("^^^^ FALSE POSITIVE — the booted system is known race-free\n");
    failures += static_cast<int>(live.diagnostics.size());
  }

  std::printf("\n==== seeded race corpus (racy pairs flagged, ordered pairs not) ====\n");
  Kernel& kernel = system.kernel();
  SymbolTable& symbols = kernel.symbols();
  // Shared objects and ports are real objects in the live table; the programs are analyzed
  // standalone, exactly like the deadlock corpus.
  auto make_object = [&](const char* name) {
    auto object = system.memory().CreateObject(system.memory().global_heap(),
                                               SystemType::kGeneric, 16, 0,
                                               rights::kRead | rights::kWrite);
    if (object.ok()) symbols.Name(object.value().index(), name);
    return object;
  };
  auto make_port = [&](const char* name) {
    auto port = kernel.ports().CreatePort(system.memory().global_heap(), 4,
                                          QueueDiscipline::kFifo);
    if (port.ok()) symbols.Name(port.value().index(), name);
    return port;
  };
  // carrier slot 0 = the shared object, slots 1/2 = ports.
  auto make_carrier = [&](const AccessDescriptor& shared, const AccessDescriptor& port1,
                          const AccessDescriptor& port2) {
    auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                                SystemType::kGeneric, 16, 3,
                                                rights::kRead | rights::kWrite);
    if (carrier.ok()) {
      (void)system.machine().addressing().WriteAd(carrier.value(), 0, shared);
      (void)system.machine().addressing().WriteAd(carrier.value(), 1, port1);
      (void)system.machine().addressing().WriteAd(carrier.value(), 2, port2);
    }
    return carrier;
  };

  auto ww = make_object("racy.counter");
  auto rw = make_object("racy.buffer");
  auto sync = make_object("sync.cell");
  auto relay = make_object("relay.cell");
  auto cond = make_object("cond.cell");
  auto sync_port = make_port("sync.token");
  auto relay_t = make_port("relay.t");
  auto relay_u = make_port("relay.u");
  auto cond_port = make_port("cond.token");
  if (!ww.ok() || !rw.ok() || !sync.ok() || !relay.ok() || !cond.ok() || !sync_port.ok() ||
      !relay_t.ok() || !relay_u.ok() || !cond_port.ok()) {
    std::fprintf(stderr, "imax_lint: race corpus object creation failed\n");
    return -1;
  }

  analysis::SystemEffectGraph graph;
  graph.set_symbols(&symbols);
  ObjectIndex next_key = 1;
  bool carriers_ok = true;
  auto add_program = [&](const Program& program, const AccessDescriptor& shared,
                         const AccessDescriptor& port1, const AccessDescriptor& port2) {
    auto carrier = make_carrier(shared, port1, port2);
    if (!carrier.ok()) {
      carriers_ok = false;
      return;
    }
    analysis::EffectOptions options = analysis::EffectOptionsForTable(
        system.machine().table(), carrier.value(), &symbols);
    if (dump) std::fputs(Disassemble(program).c_str(), stdout);
    graph.AddProgram(next_key++, analysis::AnalyzeProgram(program, options).effects);
  };

  // Two writers, no communication at all: must be reported.
  for (int i = 0; i < 2; ++i) {
    Assembler a("racy.w" + std::to_string(i));
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).StoreData(2, 0, 0, 8).Halt();
    add_program(*a.Build(), ww.value(), AccessDescriptor(), AccessDescriptor());
  }
  // A writer and a reader, no communication: must be reported.
  {
    Assembler a("racy.writer");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).StoreData(2, 0, 0, 8).Halt();
    add_program(*a.Build(), rw.value(), AccessDescriptor(), AccessDescriptor());
  }
  {
    Assembler a("racy.reader");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadData(0, 2, 0, 8).Halt();
    add_program(*a.Build(), rw.value(), AccessDescriptor(), AccessDescriptor());
  }
  // Write, then a blocking send; the reader receives first: proven ordered, not reported.
  {
    Assembler a("sync.writer");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1).StoreData(2, 0, 0, 8)
        .Send(3, 1).Halt();
    add_program(*a.Build(), sync.value(), sync_port.value(), AccessDescriptor());
  }
  {
    Assembler a("sync.reader");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1).Receive(4, 3)
        .LoadData(0, 2, 0, 8).Halt();
    add_program(*a.Build(), sync.value(), sync_port.value(), AccessDescriptor());
  }
  // Same, but the ordering crosses a relay (receive t, then send u): still not reported.
  {
    Assembler a("relay.writer");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1).StoreData(2, 0, 0, 8)
        .Send(3, 1).Halt();
    add_program(*a.Build(), relay.value(), relay_t.value(), relay_u.value());
  }
  {
    Assembler a("relay.hop");
    a.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).LoadAd(4, 1, 2).Receive(5, 3).Send(4, 1).Halt();
    add_program(*a.Build(), relay.value(), relay_t.value(), relay_u.value());
  }
  {
    Assembler a("relay.reader");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(4, 1, 2).Receive(5, 4)
        .LoadData(0, 2, 0, 8).Halt();
    add_program(*a.Build(), relay.value(), relay_t.value(), relay_u.value());
  }
  // A conditional send carries no must-ordering, but the pair may communicate: the
  // zero-false-positive posture suppresses it rather than reporting.
  {
    Assembler a("cond.writer");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1).StoreData(2, 0, 0, 8)
        .CondSend(3, 1, 0).Halt();
    add_program(*a.Build(), cond.value(), cond_port.value(), AccessDescriptor());
  }
  {
    Assembler a("cond.reader");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1).Receive(4, 3)
        .LoadData(0, 2, 0, 8).Halt();
    add_program(*a.Build(), cond.value(), cond_port.value(), AccessDescriptor());
  }
  if (!carriers_ok) {
    std::fprintf(stderr, "imax_lint: race corpus carrier creation failed\n");
    return -1;
  }

  analysis::RaceAnalysisReport report = analysis::AnalyzeRaces(graph);
  std::fputs(analysis::FormatRaceReport(report).c_str(), stdout);
  int ww_pairs = 0, rw_pairs = 0, clean_object_reports = 0;
  for (const analysis::RaceDiagnostic& diagnostic : report.diagnostics) {
    if (diagnostic.object == ww.value().index()) {
      ww_pairs += static_cast<int>(diagnostic.pairs.size());
    } else if (diagnostic.object == rw.value().index()) {
      rw_pairs += static_cast<int>(diagnostic.pairs.size());
    } else {
      ++clean_object_reports;
    }
  }
  if (ww_pairs != 1 || rw_pairs != 1) {
    std::printf("^^^^ MISSED RACE — expected 1 write/write + 1 write/read pair, "
                "got %d / %d\n", ww_pairs, rw_pairs);
    ++failures;
  }
  if (clean_object_reports != 0) {
    std::printf("^^^^ FALSE POSITIVE — %d diagnostic(s) on ordered/suppressed objects\n",
                clean_object_reports);
    failures += clean_object_reports;
  }
  if (report.pairs_ordered < 2) {
    std::printf("^^^^ LOST ORDERING — expected >= 2 ordered pairs (sync + relay), got %u\n",
                report.pairs_ordered);
    ++failures;
  }
  if (report.pairs_suppressed < 1) {
    std::printf("^^^^ LOST SUPPRESSION — expected >= 1 suppressed pair (cond), got %u\n",
                report.pairs_suppressed);
    ++failures;
  }
  std::printf("\nimax_lint: race corpus: %d racy pair(s) flagged, %u ordered, "
              "%u suppressed; %d failures\n",
              ww_pairs + rw_pairs, report.pairs_ordered, report.pairs_suppressed, failures);
  return failures;
}

// Object-lifetime analysis: the booted system must come back clean (whole-system opacity
// from the native daemons suppresses speculation), a seeded corpus must flag the genuine
// leak and retention anomaly while never touching the context-local or consumed
// allocations, and a live demote+audit quickstart must demote every loop allocation with
// zero auditor violations. Returns the number of failed expectations; -1 on setup failure.
int RunLifetimeChecks(System& system, bool dump) {
  int failures = 0;

  std::printf("\n==== whole-system lifetime analysis (booted system) ====\n");
  analysis::LifetimeAnalysisReport live = system.kernel().AnalyzeLifetimes();
  std::printf("imax_lint: %u programs, %u sites (%u demotable), %u opaque, "
              "%u leaks / %u anomalies suppressed: %s\n",
              live.programs_analyzed, live.sites_analyzed, live.sites_demotable,
              live.opaque_programs, live.leaks_suppressed, live.anomalies_suppressed,
              live.ok() ? "clean" : "DIAGNOSTICS");
  if (!live.ok()) {
    std::fputs(analysis::FormatLifetimeReport(live).c_str(), stdout);
    std::printf("^^^^ FALSE POSITIVE — the booted system is known leak-free\n");
    failures += static_cast<int>(live.leaks.size() + live.anomalies.size());
  }

  std::printf("\n==== seeded lifetime corpus (leak + anomaly flagged, local/consumed not) "
              "====\n");
  SymbolTable& symbols = system.kernel().symbols();
  // Long-lived containers are real objects in the live table so store targets resolve
  // exactly as they would at load time; the programs are analyzed standalone.
  auto make_container = [&](const char* name) {
    auto object = system.memory().CreateObject(system.memory().global_heap(),
                                               SystemType::kGeneric, 16, 2,
                                               rights::kRead | rights::kWrite);
    if (object.ok()) symbols.Name(object.value().index(), name);
    return object;
  };
  auto leak_registry = make_container("leak.registry");
  auto consumed_buffer = make_container("consumed.buffer");
  auto anomaly_cell = make_container("anomaly.cell");
  if (!leak_registry.ok() || !consumed_buffer.ok() || !anomaly_cell.ok()) {
    std::fprintf(stderr, "imax_lint: lifetime corpus container creation failed\n");
    return -1;
  }

  // carrier slot 0 = the allocation SRO (the global heap), slot 1 = the container.
  analysis::SystemEffectGraph graph;
  graph.set_symbols(&symbols);
  std::map<ObjectIndex, analysis::LifetimeSummary> lifetimes;
  ObjectIndex next_key = 1;
  bool carriers_ok = true;
  auto add_program = [&](const Program& program, const AccessDescriptor& container) {
    auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                                SystemType::kGeneric, 16, 2,
                                                rights::kRead | rights::kWrite);
    if (!carrier.ok()) {
      carriers_ok = false;
      return;
    }
    (void)system.machine().addressing().WriteAd(carrier.value(), 0,
                                                system.memory().global_heap());
    (void)system.machine().addressing().WriteAd(carrier.value(), 1, container);
    analysis::EffectOptions options = analysis::EffectOptionsForTable(
        system.machine().table(), carrier.value(), &symbols);
    if (dump) std::fputs(Disassemble(program).c_str(), stdout);
    analysis::ProgramSummary summary = analysis::AnalyzeProgram(program, options);
    graph.AddProgram(next_key, std::move(summary.effects));
    lifetimes[next_key] = std::move(summary.lifetime);
    ++next_key;
  };

  // Context-local allocation: demotable, and never the subject of a diagnostic.
  {
    Assembler a("good.local");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).CreateObject(4, 2, 16).Halt();
    add_program(*a.Build(), AccessDescriptor());
  }
  // Stored into a long-lived buffer that another program loads back: leak retracted.
  {
    Assembler a("good.producer");
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .CreateObject(4, 2, 16)
        .StoreAd(3, 4, 0)
        .Halt();
    add_program(*a.Build(), consumed_buffer.value());
  }
  {
    Assembler a("good.consumer");
    a.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).LoadAd(4, 3, 0).Halt();
    add_program(*a.Build(), consumed_buffer.value());
  }
  // Stored into a registry nobody ever reads back: a leak suspect.
  {
    Assembler a("bad.leak");
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .CreateObject(4, 2, 16)
        .StoreAd(3, 4, 0)
        .Halt();
    add_program(*a.Build(), leak_registry.value());
  }
  // The cell's sole reference is overwritten while no register still holds the object.
  {
    Assembler a("bad.anomaly");
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .CreateObject(4, 2, 16)
        .StoreAd(3, 4, 0)
        .ClearAd(4)
        .CreateObject(5, 2, 16)
        .StoreAd(3, 5, 0)
        .Halt();
    add_program(*a.Build(), anomaly_cell.value());
  }
  if (!carriers_ok) {
    std::fprintf(stderr, "imax_lint: lifetime corpus carrier creation failed\n");
    return -1;
  }

  analysis::LifetimeAnalysisReport report = analysis::AnalyzeLifetimes(graph, lifetimes);
  std::fputs(analysis::FormatLifetimeReport(report).c_str(), stdout);
  int leak_hits = 0, anomaly_hits = 0, good_hits = 0;
  for (const analysis::LeakDiagnostic& leak : report.leaks) {
    if (leak.program == "bad.leak") ++leak_hits;
    if (leak.program.rfind("good.", 0) == 0) ++good_hits;
  }
  for (const analysis::AnomalyDiagnostic& anomaly : report.anomalies) {
    if (anomaly.program == "bad.anomaly") ++anomaly_hits;
    if (anomaly.program.rfind("good.", 0) == 0) ++good_hits;
  }
  if (leak_hits < 1 || anomaly_hits < 1) {
    std::printf("^^^^ MISSED DEFECT — expected >= 1 leak on bad.leak and >= 1 anomaly on "
                "bad.anomaly, got %d / %d\n", leak_hits, anomaly_hits);
    ++failures;
  }
  if (good_hits != 0) {
    std::printf("^^^^ FALSE POSITIVE — %d diagnostic(s) on context-local/consumed "
                "programs\n", good_hits);
    failures += good_hits;
  }
  if (report.sites_demotable < 1) {
    std::printf("^^^^ LOST DEMOTION — good.local's allocation should be demotable\n");
    ++failures;
  }
  if (report.leaks_suppressed < 1) {
    std::printf("^^^^ LOST RETRACTION — good.producer's store should be retracted by the "
                "consumer's read-back\n");
    ++failures;
  }
  std::printf("\nimax_lint: lifetime corpus: %d leak(s), %d anomaly(ies) flagged, "
              "%u demotable, %u retracted; %d failures\n",
              leak_hits, anomaly_hits, report.sites_demotable, report.leaks_suppressed,
              failures);

  // --- Live quickstart: demotion + audit, end to end. ---
  std::printf("\n==== demotion quickstart (lifetime_demote + lifetime_audit) ====\n");
  SystemConfig config;
  config.processors = 1;
  config.verify_on_load = true;
  config.lifetime_demote = true;
  config.lifetime_audit = true;
  System demo(config);
  auto carrier = demo.memory().CreateObject(demo.memory().global_heap(),
                                            SystemType::kGeneric, 8, 1, rights::kAll);
  if (!carrier.ok() ||
      !demo.machine()
           .addressing()
           .WriteAd(carrier.value(), 0, demo.memory().global_heap())
           .ok()) {
    std::fprintf(stderr, "imax_lint: quickstart carrier creation failed\n");
    return failures > 0 ? failures : -1;
  }
  constexpr uint64_t kLoopAllocations = 16;
  Assembler loop_program("quickstart.demoter");
  auto loop = loop_program.NewLabel();
  loop_program.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, kLoopAllocations)
      .Bind(loop)
      .CreateObject(4, 2, 32)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto process = demo.Spawn(loop_program.Build(), options);
  if (!process.ok()) {
    std::fprintf(stderr, "imax_lint: quickstart spawn failed\n");
    return failures > 0 ? failures : -1;
  }
  demo.Run();
  const KernelStats& stats = demo.kernel().stats();
  std::printf("imax_lint: %llu demotions, %llu bulk-reclaimed, %llu violations, "
              "%llu fallbacks\n",
              static_cast<unsigned long long>(stats.demotions),
              static_cast<unsigned long long>(stats.demoted_bulk_reclaimed),
              static_cast<unsigned long long>(stats.lifetime_violations),
              static_cast<unsigned long long>(stats.demote_fallbacks));
  if (stats.demotions < kLoopAllocations || stats.demoted_bulk_reclaimed != stats.demotions) {
    std::printf("^^^^ LOST DEMOTION — expected %llu loop allocations demoted and "
                "bulk-reclaimed\n", static_cast<unsigned long long>(kLoopAllocations));
    ++failures;
  }
  if (stats.lifetime_violations != 0) {
    std::printf("^^^^ AUDIT VIOLATION — a demoted object escaped its context\n");
    failures += static_cast<int>(stats.lifetime_violations);
  }
  return failures;
}

}  // namespace

// --- --filing: journal-integrity pass ----------------------------------------------------
//
// Builds a known-good write-ahead journal, then seeds three corrupt variants of it — torn
// tail, checksum-mismatched record, orphaned commit — and checks that replay detects each
// defect in the right counter, rolls the log back to the surviving prefix (never applying a
// damaged or unsealed transaction), and that a kernel booting from the corrupt device
// recovers without panicking. Returns the number of failed expectations; -1 on setup
// failure.
int RunFilingChecks(bool dump) {
  int failures = 0;

  // The known-good log: three sealed transactions. Every corrupt variant below is stamped
  // from this image, so the "surviving prefix" is exactly the first transaction.
  auto build_healthy = [](StableStore* device) {
    Journal journal(device, nullptr);
    bool ok = true;
    ok = ok && journal.Commit(JournalRecordType::kFileImage, {1, 2, 3}).ok();
    ok = ok && journal.Commit(JournalRecordType::kRemove, {4, 5}).ok();
    ok = ok && journal.Commit(JournalRecordType::kFileComposite, {6, 7, 8, 9}).ok();
    return ok;
  };
  auto replay_count = [](StableStore* device, JournalStats* stats) {
    Journal journal(device, nullptr);
    uint64_t applied = 0;
    Status status = journal.Replay([&applied](JournalRecordType, const std::vector<uint8_t>&) {
      ++applied;
      return Status::Ok();
    });
    *stats = journal.stats();
    return status.ok() ? static_cast<int64_t>(applied) : -1;
  };

  std::printf("\n==== filing journal integrity (seeded corrupt-journal corpus) ====\n");
  StableStore healthy;
  if (!build_healthy(&healthy)) {
    std::fprintf(stderr, "imax_lint: filing corpus journal construction failed\n");
    return -1;
  }
  const std::vector<uint8_t> image = healthy.durable_bytes();
  if (dump) {
    std::printf("healthy log: %zu bytes, 3 sealed transactions\n", image.size());
  }

  JournalStats stats;
  int64_t applied = replay_count(&healthy, &stats);
  bool healthy_ok = applied == 3 && stats.torn_tail_truncations == 0 &&
                    stats.corrupt_records_dropped == 0 && stats.orphan_commits == 0 &&
                    stats.rolled_back_transactions == 0;
  std::printf("healthy log: %lld of 3 transactions replayed, %llu anomalies\n",
              static_cast<long long>(applied),
              static_cast<unsigned long long>(stats.torn_tail_truncations +
                                              stats.corrupt_records_dropped +
                                              stats.orphan_commits +
                                              stats.rolled_back_transactions));
  if (!healthy_ok) {
    std::printf("^^^^ BROKEN REPLAY — a clean journal must replay whole, with zero "
                "anomaly counts\n");
    ++failures;
  }
  AddFinding("filing", "corpus:healthy-log", healthy_ok ? "clean" : "missed-defect");

  // Torn tail: the log ends inside the last transaction's mutation record.
  StableStore torn;
  torn.LoadImage(image);
  torn.TruncateDurable(image.size() - 30);
  applied = replay_count(&torn, &stats);
  bool torn_ok = applied == 2 && stats.torn_tail_truncations == 1 &&
                 stats.corrupt_records_dropped == 0;
  if (!torn_ok) {
    std::printf("^^^^ MISSED TORN TAIL — truncation mid-record must be counted and the "
                "prefix kept (%lld applied)\n",
                static_cast<long long>(applied));
    ++failures;
  }
  AddFinding("filing", "corpus:torn-tail", torn_ok ? "rolled-back" : "missed-defect",
             "log truncated mid-record");

  // Checksum mismatch: a payload bit under the second transaction's CRC flips.
  StableStore rotted;
  rotted.LoadImage(image);
  auto first = Journal::EncodeRecord(1, JournalRecordType::kFileImage, {1, 2, 3});
  auto seal = Journal::EncodeRecord(1, JournalRecordType::kCommit, {});
  rotted.CorruptDurable(first.size() + seal.size() + Journal::kRecordHeaderBytes, 0x08);
  applied = replay_count(&rotted, &stats);
  bool rot_ok = applied == 1 && stats.corrupt_records_dropped == 1;
  if (!rot_ok) {
    std::printf("^^^^ MISSED CHECKSUM MISMATCH — a bit-rotted record must be dropped with "
                "everything after it (%lld applied)\n",
                static_cast<long long>(applied));
    ++failures;
  }
  AddFinding("filing", "corpus:checksum-mismatch", rot_ok ? "rolled-back" : "missed-defect",
             "payload bit flipped under the record CRC");

  // Orphaned commit: a forged seal with no mutation record to seal.
  StableStore forged;
  {
    std::vector<uint8_t> forged_image = image;
    auto orphan = Journal::EncodeRecord(99, JournalRecordType::kCommit, {});
    forged_image.insert(forged_image.end(), orphan.begin(), orphan.end());
    forged.LoadImage(std::move(forged_image));
  }
  applied = replay_count(&forged, &stats);
  bool orphan_ok = applied == 3 && stats.orphan_commits == 1;
  if (!orphan_ok) {
    std::printf("^^^^ MISSED ORPHAN COMMIT — a seal without its mutation must be counted "
                "and skipped (%lld applied)\n",
                static_cast<long long>(applied));
    ++failures;
  }
  AddFinding("filing", "corpus:orphan-commit", orphan_ok ? "detected" : "missed-defect",
             "forged commit record with no mutation");

  // End to end: a kernel booting from the torn device must recover the surviving prefix
  // without panicking (recovery is best-effort, never fatal).
  StableStore crashed;
  crashed.LoadImage(image);
  crashed.TruncateDurable(image.size() - 30);
  SystemConfig config;
  config.processors = 1;
  config.machine.memory_bytes = 96 * 1024;
  config.stable_store = &crashed;
  System recovered(config);
  bool boot_ok = recovered.filing_recovery_status().ok() &&
                 recovered.kernel().stats().panics == 0 &&
                 recovered.journal() != nullptr &&
                 recovered.journal()->stats().torn_tail_truncations == 1;
  std::printf("torn-device boot: recovery %s, %llu panic(s), %llu transactions replayed\n",
              recovered.filing_recovery_status().ok() ? "ok" : "failed",
              static_cast<unsigned long long>(recovered.kernel().stats().panics),
              static_cast<unsigned long long>(
                  recovered.journal()->stats().replayed_transactions));
  if (!boot_ok) {
    std::printf("^^^^ RECOVERY REGRESSION — booting from a torn journal must succeed "
                "quietly with the prefix restored\n");
    ++failures;
  }
  AddFinding("filing", "boot:torn-device", boot_ok ? "recovered" : "missed-defect",
             "kernel boot over the torn corpus");

  std::printf("imax_lint: filing pass: %d failed expectation(s)\n", failures);
  return failures;
}

int main(int argc, char** argv) {
  bool dump = false;
  bool demo_bad = false;
  bool deadlock = false;
  bool races = false;
  bool lifetime = false;
  bool filing = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--demo-bad") == 0) {
      demo_bad = true;
    } else if (std::strcmp(argv[i], "--deadlock") == 0) {
      deadlock = true;
    } else if (std::strcmp(argv[i], "--races") == 0) {
      races = true;
    } else if (std::strcmp(argv[i], "--lifetime") == 0) {
      lifetime = true;
    } else if (std::strcmp(argv[i], "--filing") == 0) {
      filing = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--all") == 0) {
      demo_bad = deadlock = races = lifetime = filing = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fputs(kUsage, stderr);
      return 1;  // bad usage is an infrastructure failure, not a lint finding
    }
  }
  std::vector<JsonFinding> json_findings;
  if (json) g_json_findings = &json_findings;

  // Boot the representative configuration with verify-on-load armed, so every program below
  // passes through the verifier twice: once inside the kernel, once in the sweep.
  SystemConfig config;
  config.processors = 2;
  config.verify_on_load = true;
  System system(config);

  FaultService fault_service(&system.kernel(), FaultPolicy{});
  auto fault_port = fault_service.Spawn();
  SchedulerStats scheduler_stats;
  auto scheduler =
      SpawnPassThroughScheduler(&system.kernel(), &system.process_manager(), &scheduler_stats);
  auto console = DeviceServer::Spawn(&system.kernel(), std::make_unique<ConsoleDevice>());
  if (!fault_port.ok() || !scheduler.ok() || !console.ok()) {
    std::fprintf(stderr, "imax_lint: system services failed to boot\n");
    return 1;
  }

  // A quickstart-style user pair, so the sweep covers ordinary assembled code too.
  auto port = system.kernel().ports().CreatePort(system.memory().global_heap(), 8,
                                                 QueueDiscipline::kFifo);
  if (!port.ok()) {
    return 1;
  }
  Assembler producer("example_producer");
  auto send_loop = producer.NewLabel();
  producer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .LoadImm(0, 0)
      .LoadImm(1, 10)
      .Bind(send_loop)
      .CreateObject(4, 3, 32)
      .StoreData(4, 0, 0, 8)
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, send_loop)
      .Halt();
  Assembler consumer("example_consumer");
  auto recv_loop = consumer.NewLabel();
  consumer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 10)
      .Bind(recv_loop)
      .Receive(4, 2)
      .LoadData(3, 4, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, recv_loop)
      .Halt();
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 16, 2,
                                              rights::kRead | rights::kWrite);
  if (!carrier.ok()) {
    return 1;
  }
  (void)system.machine().addressing().WriteAd(carrier.value(), 0, port.value());
  (void)system.machine().addressing().WriteAd(carrier.value(), 1,
                                              system.memory().global_heap());
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto producer_process = system.Spawn(producer.Build(), options);
  auto consumer_process = system.Spawn(consumer.Build(), options);
  if (!producer_process.ok() || !consumer_process.ok()) {
    std::fprintf(stderr, "imax_lint: verify-on-load rejected an example program\n");
    return 1;
  }

  // A package, the paper's small protection domain: its entry forwards the caller's
  // argument to a private port it reaches only through its own domain (a6), a client calls
  // the entry, and a listener drains the port.
  Kernel& kernel = system.kernel();
  auto package_port =
      kernel.ports().CreatePort(system.memory().global_heap(), 8, QueueDiscipline::kFifo);
  Assembler notify("package.notify");
  notify.LoadAd(2, kDomainAdReg, 1)  // a2 = the package's port (state slot 0)
      .Send(2, kArgAdReg)
      .Return();
  auto notify_segment = kernel.programs().Register(notify.Build());
  if (!package_port.ok() || !notify_segment.ok()) return 1;
  kernel.symbols().Name(package_port.value().index(), "package.port");
  auto package = kernel.CreateDomain({notify_segment.value()}, /*state_slots=*/1);
  auto package_carrier = system.memory().CreateObject(system.memory().global_heap(),
                                                      SystemType::kGeneric, 16, 2,
                                                      rights::kRead | rights::kWrite);
  if (!package.ok() || !package_carrier.ok() ||
      !kernel.SetDomainState(package.value(), 0, package_port.value()).ok()) {
    std::fprintf(stderr, "imax_lint: the package failed to load\n");
    return 1;
  }
  (void)system.machine().addressing().WriteAd(package_carrier.value(), 0, package.value());
  (void)system.machine().addressing().WriteAd(package_carrier.value(), 1,
                                              system.memory().global_heap());
  Assembler client("package.client");
  client.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)                // a2 = the package
      .LoadAd(3, 1, 1)                // a3 = the global heap
      .CreateObject(kArgAdReg, 3, 8)  // a7 = the message
      .Call(2, 0)
      .Halt();
  Assembler listener("package.listener");
  listener.MoveAd(1, kArgAdReg).Receive(2, 1).Halt();
  ProcessOptions client_options;
  client_options.initial_arg = package_carrier.value();
  ProcessOptions listener_options;
  listener_options.initial_arg = package_port.value();
  if (!system.Spawn(client.Build(), client_options).ok() ||
      !system.Spawn(listener.Build(), listener_options).ok()) {
    std::fprintf(stderr, "imax_lint: verify-on-load rejected a package program\n");
    return 1;
  }

  // Sweep every instruction segment now registered in the program store, each as the kind
  // of entry the kernel loaded it as and with an unknown initial argument, which is weaker
  // than what the kernel proved at load time and therefore cannot produce extra rejections.
  std::printf("imax_lint: %u instruction segments registered\n\n",
              static_cast<uint32_t>(system.machine().table().live_count()));
  int errors = 0;
  int programs = 0;
  kernel.programs().ForEach([&](ObjectIndex segment, const Program& program) {
    ++programs;
    analysis::VerifyOptions sweep_options;
    sweep_options.entry = kernel.load_facts(segment).kind;
    int program_errors = LintProgram(program, sweep_options, dump);
    errors += program_errors;
    AddFinding("verifier", program.name(), program_errors == 0 ? "clean" : "rejected",
               program_errors == 0 ? ""
                                   : std::to_string(program_errors) + " verifier error(s)");
  });
  std::printf("\nimax_lint: %d programs, %d errors (kernel verified %llu, rejected %llu)\n",
              programs, errors,
              static_cast<unsigned long long>(system.kernel().stats().programs_verified),
              static_cast<unsigned long long>(system.kernel().stats().programs_rejected));

  int missed = 0;
  if (demo_bad) {
    std::printf("\n==== seeded-bad corpus (every program below must be rejected) ====\n");
    for (const BadProgram& bad : BuildBadCorpus()) {
      std::printf("# %s\n", bad.why);
      int bad_errors = LintProgram(*bad.program, bad.options, dump);
      if (bad_errors == 0) {
        std::printf("^^^^ NOT REJECTED — verifier rule gap\n");
        ++missed;
      }
      AddFinding("demo-bad", bad.program->name(),
                 bad_errors > 0 ? "rejected-as-expected" : "missed-defect", bad.why);
    }
    std::printf("\nimax_lint: %d of %zu bad programs slipped through\n", missed,
                BuildBadCorpus().size());
  }

  // A setup failure in one check must not mask findings from another: run everything that
  // was requested, then let findings (exit 2) take precedence over infrastructure trouble
  // (exit 1).
  bool infrastructure_failed = false;
  // Clamps a pass result (< 0 = setup failure) and records the pass-level JSON finding.
  auto run_pass = [&](const char* name, int result) {
    if (result < 0) {
      infrastructure_failed = true;
      AddFinding(name, "whole-system", "setup-failed");
      return 0;
    }
    AddFinding(name, "whole-system", result == 0 ? "clean" : "findings",
               result == 0 ? "" : std::to_string(result) + " failed expectation(s)");
    return result;
  };
  if (deadlock || races) {
    // Give the quickstart pair's port a name first, so any diagnostic that did involve it
    // would read well.
    system.kernel().symbols().Name(port.value().index(), "example.queue");
  }
  int deadlock_failures = 0;
  if (deadlock) {
    deadlock_failures = run_pass("deadlock", RunDeadlockChecks(system, dump));
  }
  int race_failures = 0;
  if (races) {
    race_failures = run_pass("races", RunRaceChecks(system, dump));
  }
  int lifetime_failures = 0;
  if (lifetime) {
    lifetime_failures = run_pass("lifetime", RunLifetimeChecks(system, dump));
  }
  int filing_failures = 0;
  if (filing) {
    filing_failures = run_pass("filing", RunFilingChecks(dump));
  }

  const int findings = errors + missed + deadlock_failures + race_failures +
                       lifetime_failures + filing_failures;
  const int exit_code = findings > 0 ? 2 : (infrastructure_failed ? 1 : 0);
  std::printf("\nLINT EXIT: %d\n", exit_code);
  if (json) EmitJson(json_findings, exit_code);
  return exit_code;
}
