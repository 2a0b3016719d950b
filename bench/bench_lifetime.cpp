// E15 — Static lifetime analysis and GC-load demotion (DESIGN.md §6.3).
//
// The lifetime pass claims three things worth pricing: (1) the per-program summary is
// cheap enough to ride along with verify-on-load, (2) whole-system composition scales with
// program count, and (3) demotion moves reclamation out of the collector's cycle without
// touching allocation cost or virtual time — the dynamic auditor included, which must be a
// pure observer.
//
// Rows reported:
//   - LifetimeSummary      : per-program Phase 1 cost vs program size (host time)
//   - LifetimeCompose      : AnalyzeLifetimes() vs program count (host time)
//   - DemotionReclaimShift : allocate-heavy run, demote off/on — who reclaims, and the
//                            virtual makespan of each configuration
//   - AuditObserverCost    : same demoted run with the auditor off/on — the virtual-time
//                            delta must be exactly zero

#include "bench/bench_util.h"
#include "src/analysis/lifetime/lifetime.h"

namespace imax432 {
namespace {

using bench::DefaultConfig;
using bench::MakeCarrier;
using bench::ToUs;

constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kContainerBase = 100;

// Phase-1 options mirroring what the kernel seeds at load time: a resolvable carrier whose
// slot 1 is a long-lived container.
analysis::EffectOptions SyntheticOptions(ObjectIndex container) {
  analysis::EffectOptions options;
  options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
  options.slot_reader = [container](ObjectIndex object, uint32_t slot) {
    if (object == kCarrier && slot == 1) {
      return AccessDescriptor(container, 1, rights::kAll);
    }
    return AccessDescriptor();
  };
  return options;
}

// Allocation-site-dense program: every trip allocates, stores into the container, and
// drops the register — exercising sites, heap cells, and the anomaly machinery.
ProgramRef BuildSiteProgram(uint32_t size) {
  Assembler a("sites");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1);
  while (a.here() + 4 < size) {
    a.CreateObject(4, 2, 16).StoreAd(3, 4, 0).ClearAd(4);
  }
  a.Halt();
  return a.Build();
}

void BM_LifetimeSummary(benchmark::State& state) {
  ProgramRef program = BuildSiteProgram(static_cast<uint32_t>(state.range(0)));
  analysis::EffectOptions options = SyntheticOptions(kContainerBase);
  uint64_t instructions = 0;
  for (auto _ : state) {
    analysis::LifetimeSummary summary = analysis::AnalyzeProgram(*program, options).lifetime;
    benchmark::DoNotOptimize(summary);
    instructions += program->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
  state.counters["program_size"] = static_cast<double>(program->size());
}
BENCHMARK(BM_LifetimeSummary)->Arg(16)->Arg(128)->Arg(1024);

// `count` producer programs, each leaking one allocation into its own container; every
// fourth container also gets a reader program, so composition exercises both the leak
// report path and the read-back retraction.
void BM_LifetimeCompose(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  analysis::SystemEffectGraph graph;
  std::map<ObjectIndex, analysis::LifetimeSummary> lifetimes;
  ObjectIndex key = 1;
  for (int i = 0; i < count; ++i) {
    ObjectIndex container = kContainerBase + static_cast<ObjectIndex>(i);
    analysis::EffectOptions options = SyntheticOptions(container);
    Assembler producer("producer");
    producer.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .CreateObject(4, 2, 16)
        .StoreAd(3, 4, 0)
        .Halt();
    ProgramRef program = producer.Build();
    analysis::ProgramSummary summary = analysis::AnalyzeProgram(*program, options);
    graph.AddProgram(key, std::move(summary.effects));
    lifetimes[key] = std::move(summary.lifetime);
    ++key;
    if (i % 4 == 0) {
      Assembler reader("reader");
      reader.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).LoadAd(4, 3, 0).Halt();
      ProgramRef read_program = reader.Build();
      analysis::ProgramSummary read = analysis::AnalyzeProgram(*read_program, options);
      graph.AddProgram(key, std::move(read.effects));
      lifetimes[key] = std::move(read.lifetime);
      ++key;
    }
  }
  uint64_t leaks = 0;
  uint64_t retracted = 0;
  for (auto _ : state) {
    analysis::LifetimeAnalysisReport report = analysis::AnalyzeLifetimes(graph, lifetimes);
    benchmark::DoNotOptimize(report);
    leaks = report.leaks.size();
    retracted = report.leaks_suppressed;
  }
  state.counters["programs"] = static_cast<double>(lifetimes.size());
  state.counters["leaks_reported"] = static_cast<double>(leaks);
  state.counters["leaks_retracted"] = static_cast<double>(retracted);
}
BENCHMARK(BM_LifetimeCompose)->Arg(8)->Arg(64)->Arg(512);

// The demotion-heavy workload used for the reclamation-shift rows: `count` context-local
// allocations, reference dropped each trip, then halt.
Result<AccessDescriptor> SpawnAllocLoop(System& system, int count) {
  AccessDescriptor carrier = MakeCarrier(system, {system.memory().global_heap()});
  Assembler a("alloc-loop");
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, static_cast<uint64_t>(count))
      .Bind(loop)
      .CreateObject(4, 2, 32)
      .ClearAd(4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier;
  return system.Spawn(a.Build(), options);
}

SystemConfig DemoteConfig(bool demote, bool audit) {
  SystemConfig config = DefaultConfig(1);
  config.machine.object_table_capacity = 8192;
  config.start_gc_daemon = true;
  config.verify_on_load = true;
  config.lifetime_demote = demote;
  config.lifetime_audit = audit;
  config.demote_sro_bytes = 512 * 1024;
  return config;
}

// Reclamation shift: without demotion the dropped allocations are collector garbage;
// with demotion every one of them is bulk-reclaimed at context exit and the collector's
// cycle never sees them.
void BM_DemotionReclaimShift(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  double makespan_us[2] = {0, 0};
  uint64_t gc_reclaimed[2] = {0, 0};
  uint64_t bulk_reclaimed[2] = {0, 0};
  for (auto _ : state) {
    for (int demote = 0; demote < 2; ++demote) {
      System system(DemoteConfig(demote != 0, demote != 0));
      system.Run();  // daemon parks
      auto process = SpawnAllocLoop(system, count);
      IMAX_CHECK(process.ok());
      IMAX_CHECK(system.RequestCollection().ok());
      system.Run();
      makespan_us[demote] = ToUs(system.now());
      gc_reclaimed[demote] = system.gc().stats().objects_reclaimed;
      bulk_reclaimed[demote] = system.kernel().stats().demoted_bulk_reclaimed;
      IMAX_CHECK(system.kernel().stats().lifetime_violations == 0);
    }
  }
  state.counters["allocations"] = count;
  state.counters["makespan_full_us"] = makespan_us[0];
  state.counters["makespan_demoted_us"] = makespan_us[1];
  state.counters["gc_reclaimed_full"] = static_cast<double>(gc_reclaimed[0]);
  state.counters["gc_reclaimed_demoted"] = static_cast<double>(gc_reclaimed[1]);
  state.counters["bulk_reclaimed_demoted"] = static_cast<double>(bulk_reclaimed[1]);
}
BENCHMARK(BM_DemotionReclaimShift)->Arg(200)->Arg(800)->Iterations(1);

// The auditor's contract, priced: identical demoted run with the auditor off and on. The
// auditor is host-side bookkeeping only, so the virtual clocks must agree to the cycle.
void BM_AuditObserverCost(benchmark::State& state) {
  constexpr int kAllocations = 400;
  Cycles clock[2] = {0, 0};
  for (auto _ : state) {
    for (int audit = 0; audit < 2; ++audit) {
      System system(DemoteConfig(/*demote=*/true, audit != 0));
      system.Run();
      auto process = SpawnAllocLoop(system, kAllocations);
      IMAX_CHECK(process.ok());
      system.Run();
      clock[audit] = system.now();
    }
    IMAX_CHECK(clock[0] == clock[1]);
  }
  state.counters["virtual_us"] = ToUs(clock[1]);
  state.counters["virtual_delta_cycles"] =
      static_cast<double>(clock[1] > clock[0] ? clock[1] - clock[0] : clock[0] - clock[1]);
}
BENCHMARK(BM_AuditObserverCost)->Iterations(1);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
