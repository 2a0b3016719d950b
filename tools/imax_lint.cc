// imax_lint: offline static analysis for iMAX-432 programs.
//
// Boots a representative system configuration — GC daemon, fault service, pass-through
// scheduler, console device server, a quickstart-style producer/consumer pair, and a
// package (a protection domain with a private port, its client and a listener) — then
// sweeps every instruction segment in the program store through the static verifier
// (src/analysis), runs the whole-system deadlock, race and lifetime analyses over the booted
// system, and prints a disassembly-annotated diagnostic report. The programs with known
// verdicts that test the analyzers themselves are ctest suites (labels verifier, deadlock,
// races, lifetime, filing). See --help for the exit-code contract (CI gates on it).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/lifetime/lifetime.h"
#include "src/analysis/races/races.h"
#include "src/analysis/verifier.h"
#include "src/io/devices.h"
#include "src/isa/disassembler.h"
#include "src/os/fault_service.h"
#include "src/os/schedulers.h"
#include "src/os/system.h"

using namespace imax432;

namespace {

constexpr char kUsage[] =
    "usage: imax_lint [--dump] [--json] [--help]\n"
    "\n"
    "Boots a representative iMAX-432 system with verify-on-load armed, sweeps every loaded\n"
    "program through the static capability verifier, and runs the whole-system deadlock,\n"
    "race and lifetime analyses over the booted system.\n"
    "\n"
    "  --dump  also print the full disassembly of every linted program\n"
    "  --json  append a machine-readable findings document as the LAST line of stdout:\n"
    "          one JSON object {\"findings\":[...],\"exit\":N} where each finding carries\n"
    "          pass (which analysis produced it), site (program or whole-system anchor),\n"
    "          verdict, and reason (diagnostic text; empty when none). Human output above\n"
    "          it is unchanged; CI extracts with `tail -1`\n"
    "  --help  print this text and exit 0\n"
    "\n"
    "exit status:\n"
    "  0  clean: every program verified and every whole-system analysis came back clean\n"
    "  1  infrastructure failure (boot error, bad usage)\n"
    "  2  diagnostics found: a verifier error, or a whole-system diagnostic on the booted\n"
    "     system, which is known deadlock-, race- and leak-free. CI gates on this value\n"
    "     (--json mirrors the same value in the document's \"exit\" field)\n";

// --json: main() collects one finding per linted program and per whole-system pass, and
// prints the whole document as the last line of stdout so CI can extract it with `tail -1`
// without parsing the prose.
struct JsonFinding {
  std::string pass;     // which analysis produced it (verifier, deadlock, races, lifetime)
  std::string site;     // program name, or whole-system
  std::string verdict;  // clean / rejected / findings
  std::string reason;   // diagnostic text; empty when none
};

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

// The three whole-system passes. The booted system is known deadlock-, race- and leak-free,
// so every diagnostic is a false positive (zero false positives on shipped programs). Each
// returns its number of diagnostics.
int RunDeadlockChecks(Kernel& kernel) {
  std::printf("\n==== whole-system IPC analysis (booted system) ====\n");
  analysis::SystemAnalysisReport report = kernel.AnalyzeSystem();
  std::printf("imax_lint: %u programs, %u distinct ports, %u opaque: %s\n",
              report.programs_analyzed, report.ports_seen, report.opaque_programs,
              report.ok() ? "clean" : "DIAGNOSTICS");
  if (report.ok()) return 0;
  std::fputs(analysis::FormatReport(report).c_str(), stdout);
  std::printf("^^^^ FALSE POSITIVE — the booted system is known deadlock-free\n");
  return static_cast<int>(report.diagnostics.size());
}

int RunRaceChecks(Kernel& kernel) {
  std::printf("\n==== whole-system race analysis (booted system) ====\n");
  analysis::RaceAnalysisReport report = kernel.AnalyzeRaces();
  std::printf("imax_lint: %u programs, %u shared objects, %u pairs "
              "(%u ordered, %u suppressed): %s\n",
              report.programs_analyzed, report.objects_shared, report.pairs_checked,
              report.pairs_ordered, report.pairs_suppressed,
              report.ok() ? "clean" : "DIAGNOSTICS");
  if (report.ok()) return 0;
  std::fputs(analysis::FormatRaceReport(report).c_str(), stdout);
  std::printf("^^^^ FALSE POSITIVE — the booted system is known race-free\n");
  return static_cast<int>(report.diagnostics.size());
}

// Whole-system opacity from the native daemons suppresses speculation; the suppression
// counters make that silence visible.
int RunLifetimeChecks(Kernel& kernel) {
  std::printf("\n==== whole-system lifetime analysis (booted system) ====\n");
  analysis::LifetimeAnalysisReport report = kernel.AnalyzeLifetimes();
  std::printf("imax_lint: %u programs, %u sites (%u demotable), %u opaque, "
              "%u leaks / %u anomalies suppressed: %s\n",
              report.programs_analyzed, report.sites_analyzed, report.sites_demotable,
              report.opaque_programs, report.leaks_suppressed, report.anomalies_suppressed,
              report.ok() ? "clean" : "DIAGNOSTICS");
  if (report.ok()) return 0;
  std::fputs(analysis::FormatLifetimeReport(report).c_str(), stdout);
  std::printf("^^^^ FALSE POSITIVE — the booted system is known leak-free\n");
  return static_cast<int>(report.leaks.size() + report.anomalies.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fputs(kUsage, stderr);
      return 1;  // bad usage is an infrastructure failure, not a lint finding
    }
  }

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
  Kernel& kernel = system.kernel();
  auto port = kernel.ports().CreatePort(system.memory().global_heap(), 8,
                                        QueueDiscipline::kFifo);
  if (!port.ok()) {
    return 1;
  }
  kernel.symbols().Name(port.value().index(), "example.queue");
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
  std::printf("imax_lint: %zu instruction segments registered\n\n", kernel.programs().size());
  std::vector<JsonFinding> findings;
  int errors = 0;
  kernel.programs().ForEach([&](ObjectIndex segment, const Program& program) {
    analysis::VerifyOptions sweep_options;
    sweep_options.entry = kernel.load_facts(segment).kind;
    int program_errors = LintProgram(program, sweep_options, dump);
    errors += program_errors;
    findings.push_back({"verifier", program.name(), program_errors == 0 ? "clean" : "rejected",
                        program_errors == 0
                            ? ""
                            : std::to_string(program_errors) + " verifier error(s)"});
  });
  std::printf("\nimax_lint: %zu programs, %d errors (kernel verified %llu, rejected %llu)\n",
              findings.size(), errors,
              static_cast<unsigned long long>(kernel.stats().programs_verified),
              static_cast<unsigned long long>(kernel.stats().programs_rejected));

  // Each whole-system pass adds one finding for the booted system.
  auto run_pass = [&findings](const char* pass, int diagnostics) {
    findings.push_back({pass, "whole-system", diagnostics == 0 ? "clean" : "findings",
                        diagnostics == 0 ? "" : std::to_string(diagnostics) + " diagnostic(s)"});
    return diagnostics;
  };
  errors += run_pass("deadlock", RunDeadlockChecks(kernel));
  errors += run_pass("races", RunRaceChecks(kernel));
  errors += run_pass("lifetime", RunLifetimeChecks(kernel));

  const int exit_code = errors > 0 ? 2 : 0;
  std::printf("\nLINT EXIT: %d\n", exit_code);
  if (json) EmitJson(findings, exit_code);
  return exit_code;
}
