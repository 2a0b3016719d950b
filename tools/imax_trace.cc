// imax_trace: run a canned workload with kernel event tracing enabled and export the
// timeline as Chrome trace-event JSON (open in ui.perfetto.dev or chrome://tracing) plus an
// optional metrics snapshot.
//
// Usage:
//   imax_trace [--workload quickstart|pipeline|churn] [--processors N]
//              [--trace-capacity N] [--out trace.json] [--metrics metrics.json]
//
// Every workload run and every --inject campaign reports the AD-translation cache's hit and
// miss counts at exit.
//
// --profile arms the cycle-attribution profiler: every virtual cycle of every GDP is binned
// into an attribution bucket (interpreter, dispatch, bus, port wait, gc, fault recovery,
// idle, halted) with a deterministic hot-site sample of interpreter dispatch. The run
// reports the per-GDP table and fails unless each GDP's buckets sum exactly to its online
// time (the gap-free invariant). --critical-path additionally arms causal span tracing and
// prints the longest request's chain composition plus p50/p99/p999 end-to-end latency.
// --span-export FILE writes the span trees as Chrome trace-event JSON with flow arrows.
// All three are pure observers: virtual time (and the campaign replay fingerprint under
// --inject) is bit-identical with them on or off.
//
// --inject N switches to fault-injection campaign mode: RunFaultCampaign
// (src/os/fault_campaign.h) arms a seeded schedule of N hardware faults (processor
// retirement/stalls, backing-store failures, bit flips, descriptor corruption, bus fault
// windows) against a swapping-memory worker fleet with the patrol daemon and the fault
// service's recovery policy active. The run must end with zero kernel panics — every
// injected fault either recovers or is terminated by policy — and --inject-report writes a
// JSON recovery report. --inject-verify runs the campaign twice and fails unless both runs
// are bit-identical (same virtual end time, same trace fingerprint): the replay contract.
//
// --power-cut-campaign N switches to crash-restart campaign mode: a seeded schedule of N
// events of which --power-cuts K (default 25) are whole-System power cuts. Each cut tears
// the journal's unsynced tail mid-write and destroys the live System; a fresh boot then
// replays the journal and the driver verifies prefix-consistent recovery, zero patrol
// violations, and §7.2 type identity across the restart. --inject-report writes the JSON
// recovery report; --inject-verify double-runs the whole campaign and demands bit-identical
// fingerprints. Exit is nonzero if any epoch fails to recover.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/filing/crash_campaign.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/perfetto.h"
#include "src/os/fault_campaign.h"
#include "src/os/system.h"

using namespace imax432;

namespace {

struct Options {
  std::string workload = "quickstart";
  std::string out = "trace.json";
  std::string metrics;
  int processors = 2;
  uint32_t trace_capacity = TraceRecorder::kDefaultCapacity;
  bool race_sanitize = false;
  bool lifetime_demote = false;
  uint32_t inject_count = 0;  // > 0 selects campaign mode
  uint64_t seed = 432;
  Cycles inject_horizon = 2'000'000;
  std::string inject_report;
  bool inject_verify = false;
  uint32_t power_cut_events = 0;  // > 0 selects crash-restart campaign mode
  uint32_t power_cuts = 25;       // kPowerCut events among --power-cut-campaign's total
  bool profile = false;
  bool critical_path = false;  // implies profile + span tracing
  std::string span_export;     // implies span tracing

  bool spans_armed() const { return critical_path || !span_export.empty(); }
};

void Usage() {
  std::fprintf(stderr,
               "usage: imax_trace [--workload quickstart|pipeline|churn] [--processors N]\n"
               "                  [--trace-capacity N] [--out FILE]\n"
               "                  [--metrics FILE] [--race-sanitize]\n"
               "                  [--lifetime-demote]\n"
               "                  [--inject N] [--seed S]\n"
               "                  [--inject-horizon CYCLES] [--inject-report FILE]\n"
               "                  [--inject-verify] [--power-cut-campaign N]\n"
               "                  [--power-cuts K] [--profile] [--critical-path]\n"
               "                  [--span-export FILE]\n");
}

// The translation cache's counts and the programs the GDPs' step frames fetched.
void PrintXlatStats(const Kernel& kernel) {
  std::fprintf(stderr, "xlat cache: %llu hits (%llu misses), %llu program fetches\n",
               static_cast<unsigned long long>(kernel.xlat_stats().hits),
               static_cast<unsigned long long>(kernel.xlat_stats().misses),
               static_cast<unsigned long long>(kernel.stats().program_fetches));
}

// quickstart: the README workload — a producer/consumer pair over a bounded port, a domain
// the producer calls on every item, and a GC cycle at the end. Exercises dispatch, port,
// domain-call, allocation, and GC-phase events.
std::unique_ptr<System> RunQuickstart(SystemConfig config) {
  auto system = std::make_unique<System>(config);
  auto& kernel = system->kernel();
  auto& memory = system->memory();

  auto port = kernel.ports().CreatePort(memory.global_heap(), 4, QueueDiscipline::kFifo);
  IMAX_CHECK(port.ok());
  kernel.symbols().Name(port.value().index(), "work port");

  // A one-entry domain the producer calls per item; every call is a protection-domain
  // switch and shows up as a ~65 us slice.
  Assembler leaf("stamp");
  leaf.Compute(64).ClearAd(7).Return();
  auto segment = kernel.programs().Register(leaf.Build());
  IMAX_CHECK(segment.ok());
  auto domain = kernel.CreateDomain({segment.value()});
  IMAX_CHECK(domain.ok());
  kernel.symbols().Name(domain.value().index(), "stamp domain");

  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 16, 3,
                                     rights::kRead | rights::kWrite);
  IMAX_CHECK(carrier.ok());
  (void)system->machine().addressing().WriteAd(carrier.value(), 0, port.value());
  (void)system->machine().addressing().WriteAd(carrier.value(), 1, memory.global_heap());
  (void)system->machine().addressing().WriteAd(carrier.value(), 2, domain.value());

  constexpr uint64_t kItems = 12;

  Assembler producer("producer");
  auto send_loop = producer.NewLabel();
  producer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)  // a2 = port
      .LoadAd(3, 1, 1)  // a3 = heap
      .LoadAd(5, 1, 2)  // a5 = domain
      .LoadImm(0, 0)
      .LoadImm(1, kItems)
      .Bind(send_loop)
      .CreateObject(4, 3, 32)
      .StoreData(4, 0, 0, 8)
      .Call(5, 0)  // inter-domain call before every send
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, send_loop)
      .Halt();

  Assembler consumer("consumer");
  auto recv_loop = consumer.NewLabel();
  consumer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, kItems)
      .LoadImm(2, 0)
      .Bind(recv_loop)
      .Receive(4, 2)
      .LoadData(3, 4, 0, 8)
      .Add(2, 2, 3)
      .Compute(512)  // slow consumer: the bounded port backpressures the producer
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, recv_loop)
      .StoreData(1, 2, 0, 8)
      .Halt();

  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto consumer_process = system->Spawn(consumer.Build(), options);
  auto producer_process = system->Spawn(producer.Build(), options);
  IMAX_CHECK(consumer_process.ok() && producer_process.ok());
  kernel.symbols().Name(consumer_process.value().index(), "consumer");
  kernel.symbols().Name(producer_process.value().index(), "producer");

  system->Run();
  (void)system->RequestCollection();
  system->Run();
  return system;
}

// pipeline: a four-stage dataflow across however many GDPs are configured; heavy port
// traffic with backpressure, good for watching processes migrate between processors.
std::unique_ptr<System> RunPipeline(SystemConfig config) {
  constexpr int kStages = 4;
  constexpr uint64_t kItems = 16;
  auto system = std::make_unique<System>(config);
  auto& kernel = system->kernel();
  auto& memory = system->memory();

  std::vector<AccessDescriptor> ports;
  for (int i = 0; i <= kStages; ++i) {
    uint16_t capacity = (i == kStages) ? static_cast<uint16_t>(kItems) : 2;
    auto port =
        kernel.ports().CreatePort(memory.global_heap(), capacity, QueueDiscipline::kFifo);
    IMAX_CHECK(port.ok());
    kernel.symbols().Name(port.value().index(), "stage port " + std::to_string(i));
    ports.push_back(port.value());
  }
  kernel.AddRootProvider([ports](std::vector<AccessDescriptor>* roots) {
    for (const AccessDescriptor& port : ports) {
      roots->push_back(port);
    }
  });

  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8,
                                     kStages + 2, rights::kRead | rights::kWrite);
  IMAX_CHECK(carrier.ok());
  for (int i = 0; i <= kStages; ++i) {
    (void)system->machine().addressing().WriteAd(carrier.value(), static_cast<uint32_t>(i),
                                                 ports[static_cast<size_t>(i)]);
  }
  (void)system->machine().addressing().WriteAd(carrier.value(), kStages + 1,
                                               memory.global_heap());

  Assembler source("source");
  auto source_loop = source.NewLabel();
  source.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, kStages + 1)
      .LoadImm(0, 0)
      .LoadImm(1, kItems)
      .Bind(source_loop)
      .CreateObject(4, 3, 64)
      .StoreData(4, 0, 0, 8)
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, source_loop)
      .Halt();

  ProcessOptions options;
  options.initial_arg = carrier.value();
  for (int stage = 0; stage < kStages; ++stage) {
    Assembler a("stage");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, static_cast<uint32_t>(stage))
        .LoadAd(3, 1, static_cast<uint32_t>(stage + 1))
        .LoadImm(0, 0)
        .LoadImm(1, kItems)
        .Bind(loop)
        .Receive(4, 2)
        .Compute(4000)
        .Send(3, 4)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    auto process = system->Spawn(a.Build(), options);
    IMAX_CHECK(process.ok());
    kernel.symbols().Name(process.value().index(), "stage " + std::to_string(stage));
  }
  auto source_process = system->Spawn(source.Build(), options);
  IMAX_CHECK(source_process.ok());
  kernel.symbols().Name(source_process.value().index(), "source");

  system->Run();
  return system;
}

// churn: an allocation-heavy loop that turns most of its objects into garbage, then a GC
// cycle to reclaim them — a memory-manager and collector stress view.
std::unique_ptr<System> RunChurn(SystemConfig config) {
  auto system = std::make_unique<System>(config);
  auto& memory = system->memory();

  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 16, 1,
                                     rights::kRead | rights::kWrite);
  IMAX_CHECK(carrier.ok());
  (void)system->machine().addressing().WriteAd(carrier.value(), 0, memory.global_heap());

  Assembler churn("churn");
  auto loop = churn.NewLabel();
  churn.MoveAd(1, kArgAdReg)
      .LoadAd(3, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 200)
      .Bind(loop)
      .CreateObject(4, 3, 128)  // each iteration orphans the previous object
      .StoreData(4, 0, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();

  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto process = system->Spawn(churn.Build(), options);
  IMAX_CHECK(process.ok());
  system->kernel().symbols().Name(process.value().index(), "churn");

  system->Run();
  (void)system->RequestCollection();
  system->Run();
  return system;
}

// The switches the workload and campaign modes share: processors, the trace ring's
// capacity, the observers, and GC-load demotion.
SystemConfig ConfigFor(const Options& options) {
  SystemConfig config;
  config.processors = options.processors;
  config.trace_capacity = options.trace_capacity;
  if (options.lifetime_demote) {
    // Demotion verdicts come from the load-time lifetime analysis, so the verifier (and
    // with it the analysis pipeline) must be armed; the auditor rides along to prove every
    // demotion stayed context-local. A campaign must still replay bit-identically with the
    // demote machinery in the loop.
    config.verify_on_load = true;
    config.lifetime_demote = true;
    config.lifetime_audit = true;
  }
  config.profile = options.profile;
  config.span_trace = options.spans_armed();
  return config;
}

std::unique_ptr<System> RunWorkload(const Options& options) {
  SystemConfig config = ConfigFor(options);
  config.machine.memory_bytes = 8 * 1024 * 1024;
  config.trace = true;
  config.race_sanitize = options.race_sanitize;
  if (options.workload == "quickstart") {
    return RunQuickstart(config);
  }
  if (options.workload == "pipeline") {
    return RunPipeline(config);
  }
  if (options.workload == "churn") {
    return RunChurn(config);
  }
  std::fprintf(stderr, "imax_trace: unknown workload '%s'\n", options.workload.c_str());
  return nullptr;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  if (path == "-") {
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "imax_trace: cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(contents.data(), 1, contents.size(), file);
  std::fclose(file);
  return true;
}

// --- Profiler / span reporting (shared by workload and campaign modes) ---

// Flushes the observers at quiescence, prints the per-GDP attribution table, hot sites,
// critical-path report, and span export. Returns nonzero if the gap-free invariant fails:
// every GDP's bucket sums must equal its online time exactly.
int ReportObservers(System& system, const Options& options) {
  int rc = 0;
  Machine& machine = system.machine();
  if (options.profile) {
    CycleProfiler& profiler = machine.profiler();
    profiler.FlushOpenIntervals(machine.now());
    std::fprintf(stderr, "cycle attribution (sample period %u):\n", profiler.sample_period());
    const auto& cpus = profiler.cpus();
    CycleBucketArray totals = profiler.Totals();
    Cycles grand_total = 0;
    for (size_t cpu = 0; cpu < cpus.size(); ++cpu) {
      const CycleProfiler::CpuSlot& slot = cpus[cpu];
      Cycles total = profiler.CpuTotal(static_cast<uint16_t>(cpu));
      Cycles online = machine.now() - slot.epoch_start;
      grand_total += total;
      std::fprintf(stderr, "  GDP %zu: %llu cycles attributed, %llu online%s\n", cpu,
                   static_cast<unsigned long long>(total),
                   static_cast<unsigned long long>(online),
                   total == online ? "" : "  [MISMATCH]");
      if (total != online) {
        rc = 1;
      }
      for (size_t b = 0; b < kCycleBucketCount; ++b) {
        if (slot.buckets[b] == 0) continue;
        std::fprintf(stderr, "    %-14s %12llu (%5.1f%%)\n",
                     CycleBucketName(static_cast<CycleBucket>(b)),
                     static_cast<unsigned long long>(slot.buckets[b]),
                     total == 0 ? 0.0
                                : 100.0 * static_cast<double>(slot.buckets[b]) /
                                      static_cast<double>(total));
      }
    }
    std::fprintf(stderr, "  all GDPs: %llu cycles attributed across %zu buckets\n",
                 static_cast<unsigned long long>(grand_total), totals.size());

    std::vector<std::pair<uint64_t, CycleProfiler::HotSite>> sites(
        profiler.hot_sites().begin(), profiler.hot_sites().end());
    std::sort(sites.begin(), sites.end(), [](const auto& a, const auto& b) {
      if (a.second.cycles != b.second.cycles) return a.second.cycles > b.second.cycles;
      return a.first < b.first;
    });
    size_t top = sites.size() < 10 ? sites.size() : 10;
    std::fprintf(stderr,
                 "  hot sites (%llu samples, %llu dropped, top %zu of %zu):\n",
                 static_cast<unsigned long long>(profiler.samples_taken()),
                 static_cast<unsigned long long>(profiler.samples_dropped()), top,
                 sites.size());
    for (size_t i = 0; i < top; ++i) {
      uint32_t segment = static_cast<uint32_t>(sites[i].first >> 32);
      uint32_t pc = static_cast<uint32_t>(sites[i].first & 0xffffffffu);
      std::string name = "segment " + std::to_string(segment);
      const std::string* symbol = system.kernel().symbols().Find(segment);
      if (symbol != nullptr) name = *symbol;
      std::fprintf(stderr, "    %s pc %u: %llu samples, %llu cycles\n", name.c_str(), pc,
                   static_cast<unsigned long long>(sites[i].second.samples),
                   static_cast<unsigned long long>(sites[i].second.cycles));
    }
    if (rc != 0) {
      std::fprintf(stderr, "FAIL: cycle attribution has unaccounted gaps\n");
    }
  }
  if (options.spans_armed()) {
    machine.spans().FlushOpen();
  }
  if (options.critical_path) {
    CriticalPathReport report = AnalyzeCriticalPath(machine.spans());
    std::fprintf(stderr, "%s", report.ToString().c_str());
  }
  if (!options.span_export.empty()) {
    std::string json = ExportSpanChromeTrace(machine.spans(), &system.kernel().symbols());
    if (!WriteFile(options.span_export, json)) {
      rc = 1;
    } else {
      std::fprintf(stderr, "spans -> %s (%llu spans, %llu roots, %llu dropped)\n",
                   options.span_export.c_str(),
                   static_cast<unsigned long long>(machine.spans().spans_created()),
                   static_cast<unsigned long long>(machine.spans().roots_created()),
                   static_cast<unsigned long long>(machine.spans().dropped()));
    }
  }
  return rc;
}

// --- Fault-injection campaign mode ---

void AppendJsonU64(std::string* out, uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llu", static_cast<unsigned long long>(value));
  *out += buffer;
}

void AppendJsonField(std::string* out, const char* name, uint64_t value, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += name;
  *out += "\":";
  AppendJsonU64(out, value);
}

std::string CampaignReportJson(const Options& options, const FaultCampaignResult& result) {
  System& system = *result.system;
  const KernelStats& kernel = system.kernel().stats();
  const MemoryStats memory = system.memory().stats();
  const PatrolStats& patrol = system.patrol().stats();
  const Bus& bus = system.machine().bus();

  std::string out = "{\"seed\":";
  AppendJsonU64(&out, options.seed);
  out += ",\"requested\":";
  AppendJsonU64(&out, options.inject_count);
  out += ",\"horizon\":";
  AppendJsonU64(&out, options.inject_horizon);
  out += ",\"processors\":";
  AppendJsonU64(&out, static_cast<uint64_t>(options.processors));

  out += ",\"events\":[";
  bool first = true;
  for (const InjectionEvent& event : result.schedule) {
    if (!first) out += ',';
    first = false;
    out += "{\"at\":";
    AppendJsonU64(&out, event.at);
    out += ",\"kind\":\"";
    out += InjectionKindName(event.kind);
    out += "\",\"target\":";
    AppendJsonU64(&out, event.target);
    out += ",\"arg\":";
    AppendJsonU64(&out, event.arg);
    out += '}';
  }
  out += ']';

  out += ",\"injector\":{\"fired\":";
  AppendJsonU64(&out, result.injector.fired);
  out += ",\"skipped\":";
  AppendJsonU64(&out, result.injector.skipped);
  out += ",\"per_kind\":{";
  first = true;
  for (size_t kind = 0; kind < static_cast<size_t>(InjectionKind::kKindCount); ++kind) {
    AppendJsonField(&out, InjectionKindName(static_cast<InjectionKind>(kind)),
                    result.injector.per_kind[kind], &first);
  }
  out += "}}";

  out += ",\"recovery\":{";
  first = true;
  AppendJsonField(&out, "processors_retired", kernel.processors_retired, &first);
  AppendJsonField(&out, "processors_stalled", kernel.processors_stalled, &first);
  AppendJsonField(&out, "retirement_requeues", kernel.retirement_requeues, &first);
  AppendJsonField(&out, "device_retries", memory.device_retries, &first);
  AppendJsonField(&out, "device_errors", memory.device_errors, &first);
  AppendJsonField(&out, "swap_ins", memory.swap_ins, &first);
  AppendJsonField(&out, "swap_outs", memory.swap_outs, &first);
  AppendJsonField(&out, "backing_peak_used", memory.backing_peak_used, &first);
  AppendJsonField(&out, "patrol_sweeps", patrol.sweeps_completed, &first);
  AppendJsonField(&out, "objects_quarantined", patrol.objects_quarantined, &first);
  AppendJsonField(&out, "checksum_failures", patrol.checksum_failures, &first);
  AppendJsonField(&out, "data_crc_failures", patrol.data_crc_failures, &first);
  AppendJsonField(&out, "bus_dropped_transfers", bus.dropped_transfers(), &first);
  AppendJsonField(&out, "bus_duplicated_transfers", bus.duplicated_transfers(), &first);
  const FaultServiceStats& service = result.fault_service->stats();
  out += ",\"fault_service\":{";
  first = true;
  AppendJsonField(&out, "received", service.received, &first);
  AppendJsonField(&out, "retried", service.retried, &first);
  AppendJsonField(&out, "terminated", service.terminated, &first);
  AppendJsonField(&out, "escalated", service.escalated, &first);
  AppendJsonField(&out, "budget_exhausted", service.budget_exhausted, &first);
  out += "}}";

  out += ",\"outcome\":{";
  first = true;
  AppendJsonField(&out, "virtual_cycles", system.now(), &first);
  AppendJsonField(&out, "panics", kernel.panics, &first);
  AppendJsonField(&out, "faults_delivered", kernel.faults_delivered, &first);
  AppendJsonField(&out, "processes_created", kernel.processes_created, &first);
  AppendJsonField(&out, "processes_terminated", kernel.processes_terminated, &first);
  AppendJsonField(&out, "active_processors",
                  static_cast<uint64_t>(system.kernel().active_processor_count()), &first);
  AppendJsonField(&out, "trace_events", system.machine().trace().total_emitted(), &first);
  out += ",\"trace_fingerprint\":\"";
  char fp[20];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(result.fingerprint));
  out += fp;
  out += "\"}}";
  return out;
}

int RunInjectCampaign(const Options& options) {
  auto run = [&options] {
    return RunFaultCampaign(options.seed, options.inject_count, options.inject_horizon,
                            ConfigFor(options));
  };
  FaultCampaignResult result = run();

  if (options.inject_verify) {
    FaultCampaignResult replay = run();
    if (replay.system->now() != result.system->now() ||
        replay.fingerprint != result.fingerprint) {
      std::fprintf(stderr,
                   "FAIL: replay diverged (cycles %llu vs %llu, fingerprint %016llx vs "
                   "%016llx)\n",
                   static_cast<unsigned long long>(result.system->now()),
                   static_cast<unsigned long long>(replay.system->now()),
                   static_cast<unsigned long long>(result.fingerprint),
                   static_cast<unsigned long long>(replay.fingerprint));
      return 1;
    }
    std::fprintf(stderr, "replay verified: %llu cycles, fingerprint %016llx\n",
                 static_cast<unsigned long long>(result.system->now()),
                 static_cast<unsigned long long>(result.fingerprint));
  }

  const KernelStats& kernel = result.system->kernel().stats();
  std::fprintf(stderr,
               "campaign seed %llu: %llu/%u faults fired, %llu retired GDP(s), "
               "%llu device retries, %llu quarantined, %llu panics, %llu virtual cycles\n",
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(result.injector.fired), options.inject_count,
               static_cast<unsigned long long>(kernel.processors_retired),
               static_cast<unsigned long long>(result.system->memory().stats().device_retries),
               static_cast<unsigned long long>(
                   result.system->patrol().stats().objects_quarantined),
               static_cast<unsigned long long>(kernel.panics),
               static_cast<unsigned long long>(result.system->now()));

  if (!options.inject_report.empty() &&
      !WriteFile(options.inject_report, CampaignReportJson(options, result))) {
    return 1;
  }
  // Flush + report the observers before the metrics snapshot so the collected bucket
  // totals include the tail intervals.
  int observers = ReportObservers(*result.system, options);
  if (observers != 0) {
    return observers;
  }
  // Campaigns usually only want the report; export the timeline only when --out was given
  // explicitly (the default trace.json write would be surprising here).
  if (options.out != "trace.json") {
    std::string json =
        ExportChromeTrace(result.system->machine().trace(), &result.system->kernel().symbols());
    if (!WriteFile(options.out, json)) {
      return 1;
    }
  }
  if (!options.metrics.empty()) {
    MetricsRegistry registry(result.system.get());
    if (!WriteFile(options.metrics, registry.Collect().ToJson())) {
      return 1;
    }
  }

  PrintXlatStats(result.system->kernel());

  // The acceptance bar: every injected fault ends in recovery or policy-driven
  // termination. A panic means a fault escaped both.
  if (kernel.panics != 0) {
    std::fprintf(stderr, "FAIL: %llu kernel panic(s) during campaign\n",
                 static_cast<unsigned long long>(kernel.panics));
    return 1;
  }
  return 0;
}

// --- Crash-restart (power-cut) campaign mode ---

std::string CrashReportJson(const CrashCampaignReport& report) {
  std::string out = "{\"config\":{";
  bool first = true;
  AppendJsonField(&out, "seed", report.config.seed, &first);
  AppendJsonField(&out, "events", report.config.events, &first);
  AppendJsonField(&out, "power_cuts", report.config.power_cuts, &first);
  AppendJsonField(&out, "horizon", report.config.horizon, &first);
  AppendJsonField(&out, "processors", static_cast<uint64_t>(report.config.processors),
                  &first);
  AppendJsonField(&out, "checkpoint_interval", kCrashCheckpointInterval, &first);

  out += "},\"campaign\":{";
  first = true;
  AppendJsonField(&out, "epochs", report.epochs, &first);
  AppendJsonField(&out, "power_cuts_fired", report.power_cuts_fired, &first);
  AppendJsonField(&out, "injections_fired", report.injections_fired, &first);
  AppendJsonField(&out, "injections_skipped", report.injections_skipped, &first);
  AppendJsonField(&out, "mutations_applied", report.mutations_applied, &first);
  AppendJsonField(&out, "mutations_durable", report.mutations_durable, &first);
  AppendJsonField(&out, "virtual_cycles", report.virtual_cycles, &first);
  AppendJsonField(&out, "healthy", report.healthy() ? 1 : 0, &first);

  out += "},\"failures\":{";
  first = true;
  AppendJsonField(&out, "recovery_mismatches", report.recovery_mismatches, &first);
  AppendJsonField(&out, "typed_identity_failures", report.typed_identity_failures, &first);
  AppendJsonField(&out, "post_recovery_violations", report.post_recovery_violations,
                  &first);
  AppendJsonField(&out, "panics", report.panics, &first);

  out += "},\"journal\":{";
  first = true;
  for (const auto& [name, value] : CountersFor(report.journal)) {
    AppendJsonField(&out, name.c_str(), value, &first);
  }

  out += "},\"epochs\":[";
  first = true;
  for (const CrashEpochReport& epoch : report.epoch_reports) {
    if (!first) out += ',';
    first = false;
    out += '{';
    bool field = true;
    AppendJsonField(&out, "start", epoch.start, &field);
    AppendJsonField(&out, "virtual_cycles", epoch.end, &field);
    AppendJsonField(&out, "power_cut", epoch.power_cut ? 1 : 0, &field);
    AppendJsonField(&out, "recovery_matched", epoch.recovery_matched ? 1 : 0, &field);
    AppendJsonField(&out, "recovery_prefix", epoch.recovery_prefix, &field);
    AppendJsonField(&out, "durable_floor", epoch.durable_floor, &field);
    AppendJsonField(&out, "mutations_applied", epoch.mutations_applied, &field);
    AppendJsonField(&out, "patrol_violations", epoch.patrol_violations, &field);
    AppendJsonField(&out, "typed_identity_checked", epoch.typed_identity_checked ? 1 : 0,
                    &field);
    AppendJsonField(&out, "typed_identity_ok", epoch.typed_identity_ok ? 1 : 0, &field);
    AppendJsonField(&out, "panics", epoch.panics, &field);
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(epoch.trace_fingerprint));
    out += ",\"trace_fingerprint\":\"";
    out += fp;
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(epoch.store_digest));
    out += "\",\"store_digest\":\"";
    out += fp;
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(epoch.recovered_digest));
    out += "\",\"recovered_digest\":\"";
    out += fp;
    out += "\"}";
  }
  out += "],\"campaign_fingerprint\":\"";
  char fp[20];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(report.campaign_fingerprint));
  out += fp;
  out += "\"}";
  return out;
}

int RunPowerCutCampaign(const Options& options) {
  CrashCampaignConfig config;
  config.seed = options.seed;
  config.events = options.power_cut_events;
  config.power_cuts = std::min(options.power_cuts, options.power_cut_events);
  config.horizon = options.inject_horizon;
  config.processors = options.processors;

  CrashCampaignReport report = RunCrashCampaign(config);

  if (options.inject_verify) {
    CrashCampaignReport replay = RunCrashCampaign(config);
    if (replay.campaign_fingerprint != report.campaign_fingerprint ||
        replay.virtual_cycles != report.virtual_cycles) {
      std::fprintf(stderr,
                   "FAIL: crash campaign replay diverged (cycles %llu vs %llu, "
                   "fingerprint %016llx vs %016llx)\n",
                   static_cast<unsigned long long>(report.virtual_cycles),
                   static_cast<unsigned long long>(replay.virtual_cycles),
                   static_cast<unsigned long long>(report.campaign_fingerprint),
                   static_cast<unsigned long long>(replay.campaign_fingerprint));
      return 1;
    }
    std::fprintf(stderr, "replay verified: %llu virtual cycles, fingerprint %016llx\n",
                 static_cast<unsigned long long>(report.virtual_cycles),
                 static_cast<unsigned long long>(report.campaign_fingerprint));
  }

  std::fprintf(stderr,
               "crash campaign seed %llu: %u epoch(s), %llu power cut(s), "
               "%llu mutations (%llu durable at cuts), %llu replayed / %llu rolled back / "
               "%llu torn tail(s), %llu journal retries\n",
               static_cast<unsigned long long>(config.seed), report.epochs,
               static_cast<unsigned long long>(report.power_cuts_fired),
               static_cast<unsigned long long>(report.mutations_applied),
               static_cast<unsigned long long>(report.mutations_durable),
               static_cast<unsigned long long>(report.journal.replayed_transactions),
               static_cast<unsigned long long>(report.journal.rolled_back_transactions),
               static_cast<unsigned long long>(report.journal.torn_tail_truncations),
               static_cast<unsigned long long>(report.journal.retries));

  if (!options.inject_report.empty() &&
      !WriteFile(options.inject_report, CrashReportJson(report))) {
    return 1;
  }

  // The acceptance bar: every epoch recovers to a valid mutation prefix with zero patrol
  // violations, type identity enforced across every restart, and no kernel panics.
  if (!report.healthy()) {
    std::fprintf(stderr,
                 "FAIL: %llu recovery mismatch(es), %llu identity failure(s), "
                 "%llu patrol violation(s), %llu panic(s)\n",
                 static_cast<unsigned long long>(report.recovery_mismatches),
                 static_cast<unsigned long long>(report.typed_identity_failures),
                 static_cast<unsigned long long>(report.post_recovery_violations),
                 static_cast<unsigned long long>(report.panics));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--out") {
      options.out = value();
    } else if (arg == "--metrics") {
      options.metrics = value();
    } else if (arg == "--processors") {
      options.processors = std::atoi(value());
    } else if (arg == "--trace-capacity") {
      options.trace_capacity = static_cast<uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--inject") {
      options.inject_count = static_cast<uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--inject-horizon") {
      options.inject_horizon = static_cast<Cycles>(std::strtoull(value(), nullptr, 10));
      if (options.inject_horizon == 0) {
        // Injection times are drawn below the horizon, so an empty one has none to draw.
        std::fprintf(stderr, "imax_trace: --inject-horizon must be at least 1 cycle\n");
        Usage();
        return 2;
      }
    } else if (arg == "--inject-report") {
      options.inject_report = value();
    } else if (arg == "--inject-verify") {
      options.inject_verify = true;
    } else if (arg == "--power-cut-campaign") {
      options.power_cut_events = static_cast<uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--power-cuts") {
      options.power_cuts = static_cast<uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--lifetime-demote") {
      options.lifetime_demote = true;
    } else if (arg == "--race-sanitize") {
      options.race_sanitize = true;
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--critical-path") {
      options.critical_path = true;
      options.profile = true;  // the chain composition rides on the profiler's buckets
    } else if (arg == "--span-export") {
      options.span_export = value();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "imax_trace: unknown flag '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (options.power_cut_events > 0) {
    return RunPowerCutCampaign(options);
  }
  if (options.inject_count > 0) {
    return RunInjectCampaign(options);
  }

  auto system = RunWorkload(options);
  if (system == nullptr) {
    return 1;
  }

  const TraceRecorder& trace = system->machine().trace();
  std::string json = ExportChromeTrace(trace, &system->kernel().symbols());
  if (!WriteFile(options.out, json)) {
    return 1;
  }
  std::fprintf(stderr, "%s: %zu events (%llu dropped), %.1f virtual ms -> %s\n",
               options.workload.c_str(), trace.size(),
               static_cast<unsigned long long>(trace.dropped()),
               cycles::ToMicroseconds(system->now()) / 1000.0, options.out.c_str());

  // Flush + report the observers before the metrics snapshot so the collected bucket
  // totals include the tail intervals.
  int observers = ReportObservers(*system, options);
  if (observers != 0) {
    return observers;
  }

  if (!options.metrics.empty()) {
    MetricsRegistry registry(system.get());
    if (!WriteFile(options.metrics, registry.Collect().ToJson())) {
      return 1;
    }
    std::fprintf(stderr, "metrics -> %s\n", options.metrics.c_str());
  }

  if (options.race_sanitize) {
    const analysis::RaceSanitizer* sanitizer = system->kernel().race_sanitizer();
    const analysis::RaceSanitizerStats& stats = sanitizer->stats();
    std::fprintf(stderr,
                 "race sanitizer: %llu accesses checked, %llu messages stamped, "
                 "%llu joins, %llu race(s)\n",
                 static_cast<unsigned long long>(stats.accesses_checked),
                 static_cast<unsigned long long>(stats.messages_stamped),
                 static_cast<unsigned long long>(stats.joins),
                 static_cast<unsigned long long>(stats.races_detected));
    // The canned workloads are race-free by construction; a finding is a real defect (or a
    // sanitizer bug) and must fail the run so CI catches it.
    if (!sanitizer->races().empty()) {
      for (const analysis::RaceRecord& race : sanitizer->races()) {
        std::fprintf(stderr,
                     "  race: object %llu process %llu pc %u vs process %llu pc %u\n",
                     static_cast<unsigned long long>(race.object),
                     static_cast<unsigned long long>(race.first_process), race.first_pc,
                     static_cast<unsigned long long>(race.second_process), race.second_pc);
      }
      return 1;
    }
  }

  if (options.lifetime_demote) {
    const KernelStats& stats = system->kernel().stats();
    std::fprintf(stderr,
                 "lifetime demotion: %llu demotions (%llu bulk-reclaimed, %llu fallbacks, "
                 "%llu demote SROs), %llu violations\n",
                 static_cast<unsigned long long>(stats.demotions),
                 static_cast<unsigned long long>(stats.demoted_bulk_reclaimed),
                 static_cast<unsigned long long>(stats.demote_fallbacks),
                 static_cast<unsigned long long>(stats.demote_sros_created),
                 static_cast<unsigned long long>(stats.lifetime_violations));
    // The canned workloads never leak a demoted object; an audit violation is a real
    // soundness bug in the lifetime analysis and must fail the run so CI catches it.
    if (stats.lifetime_violations != 0) {
      return 1;
    }
  }

  PrintXlatStats(system->kernel());
  return 0;
}
