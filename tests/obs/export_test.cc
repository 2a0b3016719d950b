#include "src/obs/perfetto.h"

#include <gtest/gtest.h>

#include "src/base/log.h"
#include "src/os/system.h"

namespace imax432 {
namespace {

SystemConfig TraceConfig() {
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 2 * 1024 * 1024;
  config.trace = true;
  return config;
}

// Producer/consumer over a tiny port plus a domain call per item: every major event family
// appears in one run.
void RunTracedWorkload(System& system) {
  auto& kernel = system.kernel();
  auto port = kernel.ports().CreatePort(system.memory().global_heap(), 2,
                                        QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  kernel.symbols().Name(port.value().index(), "test port");

  Assembler leaf("leaf");
  leaf.Compute(64).ClearAd(7).Return();
  auto segment = kernel.programs().Register(leaf.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());

  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 8, 3,
                                              rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  (void)system.machine().addressing().WriteAd(carrier.value(), 0, port.value());
  (void)system.machine().addressing().WriteAd(carrier.value(), 1,
                                              system.memory().global_heap());
  (void)system.machine().addressing().WriteAd(carrier.value(), 2, domain.value());

  Assembler producer("producer");
  auto send_loop = producer.NewLabel();
  producer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .LoadAd(5, 1, 2)
      .LoadImm(0, 0)
      .LoadImm(1, 6)
      .Bind(send_loop)
      .CreateObject(4, 3, 32)
      .Call(5, 0)
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, send_loop)
      .Halt();
  Assembler consumer("consumer");
  auto recv_loop = consumer.NewLabel();
  consumer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 6)
      .Bind(recv_loop)
      .Receive(4, 2)
      .Compute(1024)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, recv_loop)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  ASSERT_TRUE(system.Spawn(consumer.Build(), options).ok());
  ASSERT_TRUE(system.Spawn(producer.Build(), options).ok());
  system.Run();
  ASSERT_TRUE(system.RequestCollection().ok());
  system.Run();
}

// Tracing must be a pure observer: the same workload reaches the same virtual time with
// tracing on and off. (The test lives here, beside the workload it shares.)
TEST(TraceSystemTest, TracingDoesNotPerturbVirtualTime) {
  auto run = [](bool trace) {
    SystemConfig config = TraceConfig();
    config.trace = trace;
    System system(config);
    RunTracedWorkload(system);
    EXPECT_EQ(system.machine().trace().total_emitted() > 0, trace);
    return system.now();
  };
  EXPECT_EQ(run(false), run(true));
}

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ChromeTraceExportTest, ContainsEveryMajorEventFamily) {
  System system(TraceConfig());
  RunTracedWorkload(system);

  std::string json = ExportChromeTrace(system.machine().trace(), &system.kernel().symbols());

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // One named thread track per processor plus the GC and kernel tracks.
  EXPECT_NE(json.find("\"name\":\"GDP 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"GDP 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"GC\""), std::string::npos);
  // Domain calls are complete slices whose duration is the calibrated 65 us switch cost.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"domain call\""), 6u);
  EXPECT_NE(json.find("\"dur\":65.000"), std::string::npos);
  // Port waits are async begin/end pairs.
  EXPECT_NE(json.find("\"ph\":\"b\",\"cat\":\"port-wait\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\",\"cat\":\"port-wait\""), std::string::npos);
  // The collector's phases appear as slices on the GC track.
  EXPECT_NE(json.find("\"name\":\"gc whiten\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gc mark\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gc sweep\""), std::string::npos);
  // Symbol names survive into the timeline.
  EXPECT_NE(json.find("test port"), std::string::npos);
  // Every B has a matching E (close-at-end keeps them balanced).
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), CountOccurrences(json, "\"ph\":\"E\""));
  // JSON structure is balanced.
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ChromeTraceExportTest, TimestampsAreMicrosecondsAtEightMegahertz) {
  std::vector<TraceEvent> events(1);
  events[0].ts = 800;  // 100 us at 8 MHz
  events[0].process = 1;
  events[0].a = 0;
  events[0].b = 0;
  events[0].c = 0;
  events[0].cpu = 0;
  events[0].kind = TraceEventKind::kDispatch;
  std::string json = ExportChromeTrace(events, {}, nullptr);
  EXPECT_NE(json.find("\"ts\":100.000"), std::string::npos);
}

TEST(ChromeTraceExportTest, EscapesNamesFromSymbolTable) {
  SymbolTable symbols;
  symbols.Name(1, "quo\"te\\path");
  std::vector<TraceEvent> events(1);
  events[0].ts = 8;
  events[0].process = 1;
  events[0].a = 0;
  events[0].b = 0;
  events[0].c = 0;
  events[0].cpu = 0;
  events[0].kind = TraceEventKind::kDispatch;
  std::string json = ExportChromeTrace(events, {}, &symbols);
  EXPECT_NE(json.find("quo\\\"te\\\\path"), std::string::npos);
}

TEST(ChromeTraceExportTest, EmptyTraceStillProducesValidSkeleton) {
  TraceRecorder trace;
  std::string json = ExportChromeTrace(trace, nullptr);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("iMAX-432"), std::string::npos);
}

// kTrace interpreter dumps route into the recorder as annotations instead of stderr while
// a system with tracing enabled is alive.
TEST(ChromeTraceExportTest, KTraceLogLinesBecomeAnnotations) {
  LogSeverity saved = GetLogSeverity();
  SetLogSeverity(LogSeverity::kTrace);
  {
    System system(TraceConfig());
    Assembler a("tiny");
    a.Compute(64).Halt();
    ASSERT_TRUE(system.Spawn(a.Build()).ok());
    system.Run();

    const TraceRecorder& trace = system.machine().trace();
    EXPECT_FALSE(trace.annotations().empty());
    // The per-instruction dump line mentions the pc; it must be in the annotations now.
    bool found = false;
    for (const auto& [ts, text] : trace.annotations()) {
      if (text.find("pc") != std::string::npos) found = true;
    }
    EXPECT_TRUE(found);

    // kInstruction events mirror the dump on the timeline.
    bool instruction_event = false;
    for (const TraceEvent& event : trace.Snapshot()) {
      if (event.kind == TraceEventKind::kInstruction) instruction_event = true;
    }
    EXPECT_TRUE(instruction_event);

    std::string json = ExportChromeTrace(trace, nullptr);
    EXPECT_NE(json.find("\"name\":\"log\""), std::string::npos);
  }
  SetLogSeverity(saved);
}

// The sink is uninstalled when the traced system dies: later kTrace lines must not touch
// freed machinery (regression guard for the thunk's lifetime).
TEST(ChromeTraceExportTest, SinkUninstalledAfterSystemDestruction) {
  {
    System system(TraceConfig());
    system.Run();
  }
  LogSeverity saved = GetLogSeverity();
  SetLogSeverity(LogSeverity::kTrace);
  IMAX_LOG_TRACE("dangling sink check %d", 1);  // must hit stderr, not a dead recorder
  SetLogSeverity(saved);
}

}  // namespace
}  // namespace imax432
