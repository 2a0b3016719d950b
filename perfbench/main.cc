// imax_perfbench: the repository's end-to-end benchmark (perfbench/README.md).
//
//   imax_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// --trace 0 repeats the untraced workload (fresh System each time) for the given seconds and
// reports the end-to-end metrics: set-up and run host time, host ns per emulated instruction,
// peak RSS, and the virtual throughput and exact latency percentiles. --trace 1 runs the
// host-side layer probes, then alternates untraced and traced runs (profiler and span tracer
// on) and reports the per-layer metrics. Every run checks its outputs; every count must
// repeat exactly across runs and between the traced and untraced runs. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// status is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"

namespace imax432::perfbench {
namespace {

// Safety cap on a run's virtual time; a healthy run quiesces long before.
constexpr Cycles kMaxRunCycles = 400ull * 1000 * 1000 * cycles::kPerMicrosecond;
constexpr double kCyclesPerSecond = 1e6 * cycles::kPerMicrosecond;

// Host run times are thread CPU seconds (ThreadCpuSeconds), reported as the fastest of the
// repeated runs of one invocation. Thread CPU time leaves out time spent descheduled, but
// other tenants of a shared machine still slow the thread through shared cores and caches,
// by up to 2x for seconds at a time; they only ever add time. Over five 10 s invocations
// of request_reply on a shared 4-vCPU VM, the fastest run spread 5% (interquartile range
// over median) and the median run 41%.
double HostTime(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

struct RepResult {
  double setup_s = 0;
  double run_s = 0;
  Counts load;  // after set-up
  Counts end;   // at quiescence
  Counts run;   // work done by the run itself
  uint64_t failed = 0;
  uint64_t latency_samples = 0;
  // Traced runs only.
  bool attribution_exact = true;
  CycleBucketArray cpu_cycles{};
  CycleBucketArray process_cycles{};
  uint64_t spans_created = 0;
};

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

double Pct(double part, double whole) { return 100 * Ratio(part, whole); }

Cycles Sum(const CycleBucketArray& buckets) {
  Cycles total = 0;
  for (Cycles c : buckets) total += c;
  return total;
}

Cycles Bucket(const CycleBucketArray& buckets, CycleBucket bucket) {
  return buckets[static_cast<size_t>(bucket)];
}

// One run on a fresh System: set-up, drive to quiescence, snapshot, verify.
RepResult RunOnce(Workload& workload, bool traced, HostSpans* spans) {
  RepResult r;
  SystemConfig config = workload.Config();
  EnableXlatCache(config);
  config.profile = traced;
  config.span_trace = traced;
  OpLog log(workload.ops());

  const double setup_start = ThreadCpuSeconds();
  std::unique_ptr<System> system;
  {
    HostSpans::Scope span(spans, "boot");
    system = std::make_unique<System>(config);
  }
  {
    HostSpans::Scope span(spans, "load");
    workload.Load(*system, &log, spans);
  }
  r.setup_s = ThreadCpuSeconds() - setup_start;
  r.load = Snapshot(*system, 0, log);

  EventQueue& queue = system->machine().events();
  uint64_t events = 0;
  const double run_start = ThreadCpuSeconds();
  Cycles next = 0;
  while (log.completed < workload.ops() && !queue.idle() && next < kMaxRunCycles) {
    next += workload.tick_cycles();
    {
      HostSpans::Scope span(spans, "run_slice");
      events += queue.RunUntil(next);
    }
    if (log.completed < workload.ops()) {
      workload.OnTick(*system, spans);
    }
  }
  {
    HostSpans::Scope span(spans, "run_slice");
    events += queue.RunUntil(kMaxRunCycles);
  }
  r.run_s = ThreadCpuSeconds() - run_start;

  r.end = Snapshot(*system, events, log);
  r.run = Delta(r.end, r.load);
  r.latency_samples = log.SortedLatencies().size();
  if (traced) {
    CycleProfiler& profiler = system->machine().profiler();
    profiler.FlushOpenIntervals(system->now());
    for (const CycleProfiler::CpuSlot& slot : profiler.cpus()) {
      r.attribution_exact =
          r.attribution_exact && Sum(slot.buckets) == system->now() - slot.epoch_start;
    }
    r.cpu_cycles = profiler.Totals();
    for (const auto& [process, buckets] : profiler.process_buckets()) {
      for (size_t b = 0; b < kCycleBucketCount; ++b) r.process_cycles[b] += buckets[b];
    }
    r.spans_created = system->machine().spans().spans_created();
  }

  uint64_t incomplete = workload.ops() - log.completed;
  if (incomplete > 0) {
    std::fprintf(stderr, "check failed: %llu ops did not complete\n",
                 static_cast<unsigned long long>(incomplete));
  }
  if (!queue.idle()) {
    std::fprintf(stderr, "check failed: the system did not quiesce\n");
  }
  if (r.end.faults + r.end.panics + log.check_failures + log.files_failed > 0) {
    std::fprintf(stderr, "check failed: %llu faults, %llu panics, %llu op checks, %llu files\n",
                 static_cast<unsigned long long>(r.end.faults),
                 static_cast<unsigned long long>(r.end.panics),
                 static_cast<unsigned long long>(log.check_failures),
                 static_cast<unsigned long long>(log.files_failed));
  }
  r.failed = incomplete + (queue.idle() ? 0 : 1) + r.end.faults + r.end.panics +
             log.check_failures + log.files_failed + workload.Verify(*system, log);
  return r;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Drops the translation-cache counters, which are host-side state the observers touch: the
// profiler's hot-site sampler reads each instruction's segment through the addressing unit,
// one extra lookup per instruction. Everything else must match with observers on or off.
Counts WithoutHostCaches(Counts c) {
  c.xlat_hits = 0;
  c.xlat_lookups = 0;
  return c;
}

// Peak resident memory of this process image in MB: VmHWM, the high-water mark of the memory
// map exec created. (getrusage's ru_maxrss also counts the launching process's resident size
// at fork time.) Sampled after an invocation's first run: later runs repeat the workload on a
// fresh System, and how the allocator reuses their freed memory is not the workload's cost.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  double kb = 0;
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    }
    std::fclose(status);
  }
  if (kb == 0) {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    kb = static_cast<double>(usage.ru_maxrss);
  }
  return kb / 1024.0;
}

// Counts that must match the reference run exactly; a mismatch voids the run.
uint64_t CheckRepeats(const Counts& load, const Counts& end, const RepResult& reference,
                      const char* what) {
  if (load == reference.load && end == reference.end) {
    return 0;
  }
  std::fprintf(stderr, "check failed: %s did not repeat the reference run's counts: %s%s\n",
               what, CountsDifference(load, reference.load).c_str(),
               CountsDifference(end, reference.end).c_str());
  return 1;
}

std::vector<Metric> EndToEnd(const std::vector<RepResult>& reps, double peak_rss_mb) {
  std::vector<double> setup, run, ns_per_instr;
  for (const RepResult& r : reps) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    ns_per_instr.push_back(Ratio(r.run_s * 1e9, static_cast<double>(r.run.instructions)));
  }
  const Counts& c = reps.front().run;
  return {
      // Set-up takes well under a millisecond, too short for its fastest instance to be a
      // steady figure (allocator and page state dominate), so it reports the median.
      {"setup_s", Median(setup), "s"},
      {"host_run_s", HostTime(run), "s"},
      {"host_ns_per_instr", HostTime(ns_per_instr), "ns"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"virt_ops_per_s",
       Ratio(static_cast<double>(c.ops_completed),
             static_cast<double>(c.last_completion) / kCyclesPerSecond),
       "ops/s"},
      {"virt_p50_us", cycles::ToMicroseconds(c.p50), "us"},
      {"virt_p99_us", cycles::ToMicroseconds(c.p99), "us"},
  };
}

std::vector<Metric> PerLayer(const std::vector<RepResult>& untraced,
                             const std::vector<RepResult>& traced,
                             const std::vector<HostSpans>& traced_spans, const ProbeResults& probe,
                             uint64_t ops, int processors) {
  const Counts& c = untraced.front().run;
  const RepResult& t = traced.front();
  std::vector<double> untraced_run, traced_run, boot, load, run_self, file_self;
  for (const RepResult& r : untraced) untraced_run.push_back(r.run_s);
  for (const RepResult& r : traced) traced_run.push_back(r.run_s);
  for (const HostSpans& s : traced_spans) {
    boot.push_back(s.TotalSeconds("boot"));
    load.push_back(s.TotalSeconds("load"));
    run_self.push_back(s.SelfSeconds("run_slice"));
    file_self.push_back(s.SelfSeconds("file"));
  }
  const double n = static_cast<double>(ops);
  const double instr = static_cast<double>(c.instructions);
  const double cpu_total = static_cast<double>(Sum(t.cpu_cycles));
  auto cpu_pct = [&](CycleBucket b) {
    return Pct(static_cast<double>(Bucket(t.cpu_cycles, b)), cpu_total);
  };
  const double sent = static_cast<double>(c.msgs_enqueued + c.handoffs);
  const double end = static_cast<double>(c.end_time);
  return {
      {"sim.events_per_instr", Ratio(static_cast<double>(c.events), instr), "1/instr"},
      {"sim.event_ns", probe.event_ns, "ns"},
      {"sim.bus_util_pct", Pct(static_cast<double>(c.bus_busy), end), "%"},
      {"sim.bus_wait_pct", Pct(static_cast<double>(c.bus_wait), end * processors), "%"},
      {"exec.instr_per_op", instr / n, "instr/op"},
      {"exec.interp_cycles_pct", cpu_pct(CycleBucket::kInterpreter), "%"},
      {"exec.slice_ends_per_op", static_cast<double>(c.slice_ends) / n, "1/op"},
      {"exec.run_self_s", HostTime(run_self), "s"},
      {"exec.dispatches_per_op", static_cast<double>(c.dispatches) / n, "1/op"},
      {"exec.blocks_per_op", static_cast<double>(c.blocks) / n, "1/op"},
      {"exec.dispatch_cycles_pct", cpu_pct(CycleBucket::kDispatch), "%"},
      {"arch.xlat_lookups_per_instr", Ratio(static_cast<double>(c.xlat_lookups), instr),
       "1/instr"},
      {"arch.xlat_hit_pct",
       Pct(static_cast<double>(c.xlat_hits), static_cast<double>(c.xlat_lookups)), "%"},
      {"arch.read_data_ns", probe.read_data_ns, "ns"},
      {"arch.write_data_ns", probe.write_data_ns, "ns"},
      {"arch.read_ad_ns", probe.read_ad_ns, "ns"},
      {"arch.write_ad_ns", probe.write_ad_ns, "ns"},
      {"arch.resolve_ns", probe.resolve_ns, "ns"},
      {"memory.creates_per_op", static_cast<double>(c.objects_created) / n, "1/op"},
      {"memory.swap_ins_per_op", static_cast<double>(c.swap_ins) / n, "1/op"},
      {"memory.swap_outs_per_op", static_cast<double>(c.swap_outs) / n, "1/op"},
      {"memory.resident_kb", static_cast<double>(c.resident_bytes) / 1024.0, "KB"},
      {"memory.memory_wait_pct", cpu_pct(CycleBucket::kMemoryWait), "%"},
      {"memory.create_destroy_ns", probe.create_destroy_ns, "ns"},
      {"ipc.msgs_per_op", sent / n, "1/op"},
      {"ipc.handoff_pct", Pct(static_cast<double>(c.handoffs), sent), "%"},
      {"ipc.peak_queue_depth", static_cast<double>(c.peak_queue_depth), "count"},
      {"ipc.port_wait_mean_us",
       cycles::ToMicroseconds(1) * Ratio(static_cast<double>(c.port_wait_sum),
                                         static_cast<double>(c.port_wait_count)),
       "us"},
      {"ipc.port_wait_pct",
       Pct(static_cast<double>(Bucket(t.process_cycles, CycleBucket::kPortWait)),
           static_cast<double>(Sum(t.process_cycles))),
       "%"},
      {"ipc.enqueue_dequeue_ns", probe.enqueue_dequeue_ns, "ns"},
      {"gc.cycles", static_cast<double>(c.gc_cycles), "count"},
      {"gc.work_units_per_op", static_cast<double>(c.gc_work_units) / n, "1/op"},
      {"gc.slots_scanned_per_cycle",
       Ratio(static_cast<double>(c.gc_slots_scanned), static_cast<double>(c.gc_cycles)),
       "1/cycle"},
      {"gc.reclaim_ratio",
       Ratio(static_cast<double>(c.gc_reclaimed), static_cast<double>(c.objects_created)),
       "ratio"},
      {"gc.cycles_pct", cpu_pct(CycleBucket::kGc), "%"},
      {"gc.collect_ns_per_object", probe.collect_ns_per_object, "ns"},
      {"os.domain_call_mean_us",
       cycles::ToMicroseconds(1) * Ratio(static_cast<double>(c.domain_call_sum),
                                         static_cast<double>(c.domain_call_count)),
       "us"},
      {"os.dispatch_latency_mean_us",
       cycles::ToMicroseconds(1) * Ratio(static_cast<double>(c.dispatch_latency_sum),
                                         static_cast<double>(c.dispatch_latency_count)),
       "us"},
      {"filing.mutations_per_op", static_cast<double>(c.journaled) / n, "1/op"},
      {"filing.journal_bytes_per_mutation",
       Ratio(static_cast<double>(c.journal_bytes), static_cast<double>(c.journal_appends)), "B"},
      {"filing.syncs_per_mutation",
       Ratio(static_cast<double>(c.journal_syncs), static_cast<double>(c.journaled)),
       "1/mutation"},
      {"filing.file_self_s", HostTime(file_self), "s"},
      {"filing.file_ns", probe.file_ns, "ns"},
      // Medians, like setup_s, which they split.
      {"setup.boot_s", Median(boot), "s"},
      {"setup.load_s", Median(load), "s"},
      {"obs.trace_overhead_pct",
       Pct(HostTime(traced_run) - HostTime(untraced_run), HostTime(untraced_run)), "%"},
      {"obs.spans", static_cast<double>(t.spans_created), "count"},
  };
}

void PrintCpuShares(const RepResult& traced) {
  const double total = static_cast<double>(Sum(traced.cpu_cycles));
  std::printf("virtual GDP cycle shares (traced run):");
  for (size_t b = 0; b < kCycleBucketCount; ++b) {
    std::printf(" %s=%.2f%%", CycleBucketName(static_cast<CycleBucket>(b)),
                Pct(static_cast<double>(traced.cpu_cycles[b]), total));
  }
  std::printf("\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  std::unique_ptr<Workload> workload;
  if (ParseArgs(argc, argv, &args)) {
    workload = MakeWorkload(args.workload, args.seed);
  }
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: imax_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\nworkloads:");
    for (const std::string& name : WorkloadNames()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const int processors = workload->Config().processors;

  uint64_t failed = 0;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<HostSpans> traced_spans;
  HostSpans probe_spans(args.trace == 1);
  HostSpans off(false);
  ProbeResults probe;
  double peak_rss_mb = 0;
  Clock::time_point start = Clock::now();
  if (args.trace == 0) {
    while (untraced.size() < 3 || SecondsSince(start) < args.seconds) {
      untraced.push_back(RunOnce(*workload, false, &off));
      if (untraced.size() == 1) {
        peak_rss_mb = PeakRssMb();
      }
    }
  } else {
    probe = RunProbes(0.15 * args.seconds, &probe_spans);
    while (traced.size() < 2 || SecondsSince(start) < args.seconds) {
      untraced.push_back(RunOnce(*workload, false, &off));
      traced_spans.emplace_back(true);
      traced.push_back(RunOnce(*workload, true, &traced_spans.back()));
    }
  }

  // Determinism and purity: every run, traced or not, repeats the first run's counts; the
  // profiler accounts for every GDP cycle exactly.
  const RepResult& reference = untraced.front();
  for (const RepResult& r : untraced) {
    failed += r.failed + CheckRepeats(r.load, r.end, reference, "an untraced run");
  }
  RepResult untraced_reference = reference;
  untraced_reference.load = WithoutHostCaches(reference.load);
  untraced_reference.end = WithoutHostCaches(reference.end);
  for (const RepResult& r : traced) {
    failed += r.failed + CheckRepeats(WithoutHostCaches(r.load), WithoutHostCaches(r.end),
                                      untraced_reference, "a traced run");
    if (!r.attribution_exact) {
      std::fprintf(stderr, "check failed: profiler buckets do not sum to online time\n");
      ++failed;
    }
  }
  const uint64_t runs = untraced.size() + traced.size();
  const uint64_t attempted = runs * workload->ops();
  failed = std::min(failed, attempted);

  std::vector<Metric> metrics = args.trace == 0 ? EndToEnd(untraced, peak_rss_mb)
                                                : PerLayer(untraced, traced, traced_spans, probe,
                                                           workload->ops(), processors);
  if (!args.spans_out.empty() && args.trace == 1) {
    bool written =
        probe_spans.WriteJsonLines(args.spans_out, "probes", /*append=*/false) &&
        traced_spans.back().WriteJsonLines(args.spans_out, "traced", /*append=*/true);
    if (!written) {
      std::fprintf(stderr, "warning: could not write spans to %s\n", args.spans_out.c_str());
    }
  }

  const RepResult& first = untraced.front();
  std::printf("workload %s seed %llu: %llu runs (%zu untraced, %zu traced), %llu ops each\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(runs), untraced.size(), traced.size(),
              static_cast<unsigned long long>(workload->ops()));
  std::printf("virtual: %.3f ms to last completion, %llu instructions, latency samples %llu\n",
              cycles::ToMicroseconds(first.run.last_completion) / 1000.0,
              static_cast<unsigned long long>(first.run.instructions),
              static_cast<unsigned long long>(first.latency_samples));
  std::printf("ops_failed_pct %.6f %%\n", Pct(static_cast<double>(failed),
                                              static_cast<double>(attempted)));
  if (!traced.empty()) {
    PrintCpuShares(traced.front());
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace imax432::perfbench

int main(int argc, char** argv) { return imax432::perfbench::Main(argc, argv); }
