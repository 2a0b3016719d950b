// E13 — data-race analysis throughput and sanitizer overhead.
//
// The static passes run on the host at load/analysis time (host wall-clock, like E11/E12):
//   - BM_AccessSummary   : per-program access-summary cost vs program size — the Phase 1
//     extension of the effect summaries, paid once per loaded program
//   - BM_RaceAnalyzeSync : AnalyzeRaces() vs program count over token-synchronized
//     writer/reader pairs — exercises the happens-before proofs (every pair ordered)
//   - BM_RaceAnalyzeRacy : same sweep over unsynchronized pairs — exercises the conflict
//     scan and diagnostic rendering (every pair reported)
//
// The dynamic cross-check costs host time only (virtual time is bit-identical by design):
//   - BM_SanitizerRun    : the same kernel workload with race_sanitize off (arg 0) and on
//     (arg 1); `items_per_second` is simulated instructions per host second, and the
//     off/on ratio is the sanitizer's interpreter-hook overhead. The `virtual_cycles`
//     counter must be identical across the two args.

#include "bench/bench_util.h"

#include <string>
#include <vector>

#include "src/analysis/races/races.h"
#include "src/analysis/races/sanitizer.h"
#include "src/exec/kernel.h"
#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kFirstObject = 1000;
constexpr ObjectIndex kFirstPort = 100;

// `size` instructions of data and access-part traffic through a couple of shared objects:
// stresses the access-site recording and recvs-before/sends-after maintenance.
ProgramRef BuildAccessProgram(uint32_t size) {
  Assembler a("access");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1);
  while (a.here() + 4 < size) {
    a.StoreData(2, 0, 0).LoadData(0, 3, 0).MoveAd(4, 2).MoveAd(2, 4);
  }
  a.Halt();
  return a.Build();
}

void BM_AccessSummary(benchmark::State& state) {
  ProgramRef program = BuildAccessProgram(static_cast<uint32_t>(state.range(0)));
  analysis::EffectOptions options;
  options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
  options.slot_reader = [](ObjectIndex object, uint32_t slot) {
    if (object == kCarrier) {
      return AccessDescriptor(kFirstObject + slot, 1, rights::kAll);
    }
    return AccessDescriptor();
  };
  uint64_t instructions = 0;
  for (auto _ : state) {
    analysis::EffectSummary summary = analysis::AnalyzeProgram(*program, options).effects;
    benchmark::DoNotOptimize(summary);
    instructions += program->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
  state.counters["program_size"] = static_cast<double>(program->size());
}
BENCHMARK(BM_AccessSummary)->Arg(16)->Arg(128)->Arg(1024);

// `count` programs as writer/reader pairs over one shared object each. With `sync` the
// writer provably sends a token the reader receives before reading, so the analysis proves
// every pair ordered; without it every pair is a reported candidate race.
analysis::SystemEffectGraph BuildPairGraph(uint32_t count, bool sync) {
  analysis::SystemEffectGraph graph;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t pair = i / 2;
    const bool is_writer = (i % 2) == 0;
    const ObjectIndex shared = kFirstObject + pair;
    const ObjectIndex port = kFirstPort + pair;
    Assembler a((is_writer ? "w." : "r.") + std::to_string(pair));
    if (is_writer) {
      a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).StoreData(2, 0, 0);
      if (sync) a.LoadAd(3, 1, 1).Send(3, 1);
      a.Halt();
    } else {
      a.MoveAd(1, kArgAdReg);
      if (sync) a.LoadAd(3, 1, 1).Receive(4, 3);
      a.LoadAd(2, 1, 0).LoadData(0, 2, 0).Halt();
    }
    analysis::EffectOptions options;
    options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
    options.slot_reader = [shared, port](ObjectIndex object, uint32_t slot) {
      if (object != kCarrier) return AccessDescriptor();
      return AccessDescriptor(slot == 0 ? shared : port, 1, rights::kAll);
    };
    graph.AddProgram(2000 + i, analysis::AnalyzeProgram(*a.Build(), options).effects);
  }
  return graph;
}

void BM_RaceAnalyzeSync(benchmark::State& state) {
  const uint32_t count = static_cast<uint32_t>(state.range(0));
  analysis::SystemEffectGraph graph = BuildPairGraph(count, /*sync=*/true);
  uint64_t analyzed = 0;
  uint64_t ordered = 0;
  for (auto _ : state) {
    analysis::RaceAnalysisReport report = analysis::AnalyzeRaces(graph);
    benchmark::DoNotOptimize(report);
    analyzed += count;
    ordered = report.pairs_ordered;
  }
  state.SetItemsProcessed(static_cast<int64_t>(analyzed));
  state.counters["programs"] = static_cast<double>(count);
  state.counters["pairs_ordered"] = static_cast<double>(ordered);
}
BENCHMARK(BM_RaceAnalyzeSync)->Arg(8)->Arg(64)->Arg(512);

void BM_RaceAnalyzeRacy(benchmark::State& state) {
  const uint32_t count = static_cast<uint32_t>(state.range(0));
  analysis::SystemEffectGraph graph = BuildPairGraph(count, /*sync=*/false);
  uint64_t analyzed = 0;
  uint64_t reported = 0;
  for (auto _ : state) {
    analysis::RaceAnalysisReport report = analysis::AnalyzeRaces(graph);
    benchmark::DoNotOptimize(report);
    analyzed += count;
    reported = static_cast<uint64_t>(report.diagnostics.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(analyzed));
  state.counters["programs"] = static_cast<double>(count);
  state.counters["diagnostics"] = static_cast<double>(reported);
}
BENCHMARK(BM_RaceAnalyzeRacy)->Arg(8)->Arg(64)->Arg(512);

// Four processes hammering a shared object for a fixed instruction budget, with and without
// the sanitizer observing every access.
void BM_SanitizerRun(benchmark::State& state) {
  const bool sanitize = state.range(0) != 0;
  uint64_t instructions = 0;
  Cycles virtual_end = 0;
  uint64_t races = 0;
  for (auto _ : state) {
    MachineConfig config;
    config.memory_bytes = 4 * 1024 * 1024;
    config.object_table_capacity = 16384;
    Machine machine(config);
    BasicMemoryManager memory(&machine);
    Kernel kernel(&machine, &memory);
    IMAX_CHECK(kernel.AddProcessors(2).ok());
    if (sanitize) kernel.EnableRaceSanitizer();

    auto shared = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 64, 0,
                                      rights::kRead | rights::kWrite);
    auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 16, 1,
                                       rights::kRead | rights::kWrite);
    IMAX_CHECK(shared.ok() && carrier.ok());
    IMAX_CHECK(machine.addressing().WriteAd(carrier.value(), 0, shared.value()).ok());

    for (int p = 0; p < 4; ++p) {
      Assembler a("hammer." + std::to_string(p));
      Assembler::Label loop = a.NewLabel();
      a.MoveAd(1, kArgAdReg)
          .LoadAd(2, 1, 0)
          .LoadImm(0, 0)
          .LoadImm(2, 256)
          .Bind(loop)
          .StoreData(2, 3, 0)
          .LoadData(3, 2, 0)
          .AddImm(0, 0, 1)
          .BranchIfLess(0, 2, loop)
          .Halt();
      ProcessOptions options;
      options.initial_arg = carrier.value();
      auto process = kernel.CreateProcess(a.Build(), options);
      IMAX_CHECK(process.ok());
      IMAX_CHECK(kernel.StartProcess(process.value()).ok());
    }
    kernel.Run();
    instructions += kernel.stats().instructions_executed;
    virtual_end = machine.now();
    races = sanitize ? kernel.race_sanitizer()->stats().races_detected : 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
  state.counters["virtual_cycles"] = static_cast<double>(virtual_end);
  state.counters["races_detected"] = static_cast<double>(races);
  state.counters["sanitize"] = sanitize ? 1.0 : 0.0;
}
BENCHMARK(BM_SanitizerRun)->Arg(0)->Arg(1);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
