// E17 — Cycle-attribution profiler and causal span tracing (DESIGN.md §7).
//
// The observability layer makes three claims this experiment prices and verifies:
//   (1) the profiler, the span tracer and the event trace are pure observers — arming all
//       three must not move the virtual clock by a single cycle, and the host-time
//       overhead must be modest;
//   (2) cycle attribution is gap-free — after FlushOpenIntervals, each GDP's per-bucket
//       sums equal its online time *exactly* (±0), on compute-bound, gc-heavy, and
//       port-heavy shapes alike;
//   (3) the span trees support end-to-end request-latency percentiles and a critical-path
//       chain whose dominant bucket names the serialized resource.
//
// Rows reported:
//   - ProfilerObserver    : 2-stage pipeline, observers off/on — identical virtual
//                           makespan (checked), host_ms_off/on, overhead_pct
//   - AttributionAlloc    : E2-shaped allocation loop — per-bucket composition,
//                           attribution_exact must be 1
//   - AttributionGc       : E6-shaped churn + full collection — kGc bucket must be
//                           populated (the daemon tag rebins collector cycles)
//   - RequestLatency      : multi-process producer/forwarder/consumer pipeline —
//                           p50/p99/p999/max end-to-end latency, roots, spans,
//                           dominant_bucket (index into CycleBucketName order)

#include <chrono>

#include "bench/bench_util.h"
#include "src/obs/critical_path.h"

namespace imax432 {
namespace {

using bench::DefaultConfig;
using bench::MakeCarrier;
using bench::ToUs;

SystemConfig ObserverConfig(int processors, bool observers, bool gc = false) {
  SystemConfig config = DefaultConfig(processors);
  config.profile = observers;
  config.span_trace = observers;
  config.trace = observers;
  config.start_gc_daemon = gc;
  return config;
}

// Flushes the profiler and checks the gap-free identity: every GDP's bucket sums must
// equal its online time exactly. Returns 1.0 when the attribution is exact on every GDP.
double AttributionExact(System& system) {
  CycleProfiler& profiler = system.machine().profiler();
  profiler.FlushOpenIntervals(system.now());
  for (uint16_t cpu = 0; cpu < profiler.cpus().size(); ++cpu) {
    Cycles online = system.now() - profiler.cpus()[cpu].epoch_start;
    if (profiler.CpuTotal(cpu) != online) {
      return 0.0;
    }
  }
  return 1.0;
}

// Reports every populated bucket (as cycles summed over all GDPs) plus the exactness bit.
void ReportBuckets(benchmark::State& state, System& system) {
  state.counters["attribution_exact"] = AttributionExact(system);
  CycleBucketArray totals = system.machine().profiler().Totals();
  Cycles total = 0;
  for (size_t b = 0; b < kCycleBucketCount; ++b) {
    total += totals[b];
    if (totals[b] != 0) {
      state.counters[std::string("cycles_") + CycleBucketName(static_cast<CycleBucket>(b))] =
          static_cast<double>(totals[b]);
    }
  }
  state.counters["cycles_attributed"] = static_cast<double>(total);
  state.counters["virtual_us"] = ToUs(system.now());
}

// Producer -> forwarder -> consumer pipeline: `producers` producers push `per_producer`
// messages each into stage A; one forwarder relays A -> B; one consumer drains B. Every
// message becomes a causal request tree rooted at its producer send.
void SpawnPipeline(System& system, int producers, int per_producer) {
  auto port_a = system.kernel().ports().CreatePort(system.memory().global_heap(), 8,
                                                   QueueDiscipline::kFifo);
  auto port_b = system.kernel().ports().CreatePort(system.memory().global_heap(), 8,
                                                   QueueDiscipline::kFifo);
  IMAX_CHECK(port_a.ok() && port_b.ok());
  AccessDescriptor carrier = MakeCarrier(
      system, {port_a.value(), port_b.value(), system.memory().global_heap()});
  int total = producers * per_producer;

  for (int p = 0; p < producers; ++p) {
    Assembler producer("producer");
    auto loop = producer.NewLabel();
    producer.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 2)
        .CreateObject(4, 3, 32)
        .LoadImm(0, 0)
        .LoadImm(1, static_cast<uint64_t>(per_producer))
        .Bind(loop)
        .Send(2, 4)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier;
    IMAX_CHECK(system.Spawn(producer.Build(), options).ok());
  }

  Assembler forwarder("forwarder");
  auto fwd_loop = forwarder.NewLabel();
  forwarder.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .LoadImm(0, 0)
      .LoadImm(1, static_cast<uint64_t>(total))
      .Bind(fwd_loop)
      .Receive(4, 2)
      .Send(3, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, fwd_loop)
      .Halt();
  ProcessOptions fwd_options;
  fwd_options.initial_arg = carrier;
  IMAX_CHECK(system.Spawn(forwarder.Build(), fwd_options).ok());

  Assembler consumer("consumer");
  auto con_loop = consumer.NewLabel();
  consumer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 1)
      .LoadImm(0, 0)
      .LoadImm(1, static_cast<uint64_t>(total))
      .Bind(con_loop)
      .Receive(4, 2)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, con_loop)
      .Halt();
  ProcessOptions con_options;
  con_options.initial_arg = carrier;
  IMAX_CHECK(system.Spawn(consumer.Build(), con_options).ok());
}

// --- Row 1: pure-observer contract + host overhead --------------------------------------

// One timed pipeline run; returns host microseconds for System::Run and the final cycle.
double TimePipelineOnce(bool observers, Cycles* virtual_now) {
  using Clock = std::chrono::steady_clock;
  System system(ObserverConfig(4, observers));
  SpawnPipeline(system, /*producers=*/3, /*per_producer=*/200);
  auto t0 = Clock::now();
  system.Run();
  auto t1 = Clock::now();
  *virtual_now = system.now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

void BM_ProfilerObserver(benchmark::State& state) {
  // Interleaved best-of-N, same rationale as the E16 cache rows: host load drifts skew
  // both configurations equally.
  constexpr int kRepeats = 7;
  for (auto _ : state) {
    double best_off = 1e300;
    double best_on = 1e300;
    Cycles now_off = 0;
    Cycles now_on = 0;
    for (int i = 0; i < kRepeats; ++i) {
      best_off = std::min(best_off, TimePipelineOnce(false, &now_off));
      best_on = std::min(best_on, TimePipelineOnce(true, &now_on));
    }
    // The observers must not participate in the simulation: identical virtual makespan
    // or the whole experiment is void.
    IMAX_CHECK(now_off == now_on);
    state.counters["host_ms_off"] = best_off / 1000.0;
    state.counters["host_ms_on"] = best_on / 1000.0;
    state.counters["overhead_pct"] = (best_on / best_off - 1.0) * 100.0;
    state.counters["virtual_us"] = ToUs(now_on);
  }
}
BENCHMARK(BM_ProfilerObserver)->Iterations(1);

// --- Row 2: gap-free attribution on a compute/allocation shape --------------------------

void BM_AttributionAlloc(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    System system(ObserverConfig(2, /*observers=*/true));
    AccessDescriptor carrier = MakeCarrier(system, {system.memory().global_heap()});
    Assembler a("alloc");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadImm(0, 0)
        .LoadImm(1, static_cast<uint64_t>(count))
        .Bind(loop)
        .CreateObject(4, 2, 32)
        .StoreData(4, 0, 0, 8)
        .LoadData(3, 4, 0, 8)
        .ClearAd(4)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier;
    IMAX_CHECK(system.Spawn(a.Build(), options).ok());
    system.Run();
    ReportBuckets(state, system);
    state.counters["hot_sites"] =
        static_cast<double>(system.machine().profiler().hot_sites().size());
    state.counters["samples_taken"] =
        static_cast<double>(system.machine().profiler().samples_taken());
  }
  state.counters["allocations"] = count;
}
BENCHMARK(BM_AttributionAlloc)->Arg(4000)->Iterations(1);

// --- Row 3: daemon rebinning on a gc-heavy shape ----------------------------------------

void BM_AttributionGc(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    System system(ObserverConfig(2, /*observers=*/true, /*gc=*/true));
    system.Run();  // the collector daemon starts and parks before the workload spawns
    AccessDescriptor carrier =
        MakeCarrier(system, {system.memory().global_heap(), AccessDescriptor()});
    Assembler a("churn");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadImm(0, 0)
        .LoadImm(1, static_cast<uint64_t>(count))
        .Bind(loop)
        .CreateObject(4, 2, 64)
        .StoreData(4, 0, 0, 8)
        .StoreAd(1, 4, 1)  // orphans the previous iteration's object
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier;
    IMAX_CHECK(system.Spawn(a.Build(), options).ok());
    IMAX_CHECK(system.RequestCollection().ok());
    system.Run();
    // A second collection after the mutator halts reclaims the orphans the first one
    // raced past; its cycles land in the same kGc bucket.
    IMAX_CHECK(system.RequestCollection().ok());
    system.Run();
    ReportBuckets(state, system);
    // The daemon tag must rebin the collector's interpreter cycles: a churn run that
    // reclaims thousands of objects with an idle kGc bucket means the tag is broken.
    IMAX_CHECK(system.machine().profiler().Totals()[static_cast<size_t>(
                   CycleBucket::kGc)] > 0);
    state.counters["objects_reclaimed"] =
        static_cast<double>(system.gc().stats().objects_reclaimed);
  }
  state.counters["churn_objects"] = count;
}
BENCHMARK(BM_AttributionGc)->Arg(3000)->Iterations(1);

// --- Row 4: request-latency percentiles + critical path ---------------------------------

void BM_RequestLatency(benchmark::State& state) {
  int per_producer = static_cast<int>(state.range(0));
  for (auto _ : state) {
    System system(ObserverConfig(4, /*observers=*/true));
    SpawnPipeline(system, /*producers=*/3, per_producer);
    system.Run();
    state.counters["attribution_exact"] = AttributionExact(system);
    SpanTracer& spans = system.machine().spans();
    spans.FlushOpen();
    CriticalPathReport report = AnalyzeCriticalPath(spans);
    state.counters["roots"] = static_cast<double>(report.roots);
    state.counters["spans"] = static_cast<double>(report.spans);
    state.counters["spans_dropped"] = static_cast<double>(report.dropped);
    state.counters["p50_us"] = ToUs(report.p50);
    state.counters["p99_us"] = ToUs(report.p99);
    state.counters["p999_us"] = ToUs(report.p999);
    state.counters["max_us"] = ToUs(report.max_latency);
    state.counters["critical_depth"] = static_cast<double>(report.longest_depth);
    // Index into the CycleBucketName order (0 = interpreter, 2 = bus_transfer, ...).
    state.counters["dominant_bucket"] = static_cast<double>(report.dominant);
    state.counters["virtual_us"] = ToUs(system.now());
  }
  state.counters["messages"] = 3.0 * per_producer;
}
BENCHMARK(BM_RequestLatency)->Arg(120)->Arg(400)->Iterations(1);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
