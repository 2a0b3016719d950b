// E12 — IPC effect summaries and system deadlock analysis throughput.
//
// Like the verifier (E11), both passes run on the host at load/analysis time, so these
// report host wall-clock, not virtual 432 cycles. Two costs matter in practice:
//   - BM_EffectSummary : per-program summary cost vs program size — paid once per
//     CreateProcess/CreateDomain under verify-on-load (incremental path)
//   - BM_SystemAnalyze : whole-system wait-for graph + SCC pass vs program count — paid per
//     Kernel::AnalyzeSystem() call, over pre-built summaries (rings exercise the cycle
//     detector; pipelines the orphan/starvation scans)
//
// `items_per_second` is summarized instructions (BM_EffectSummary) or analyzed programs
// (BM_SystemAnalyze) per second.

#include "bench/bench_util.h"

#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/effects.h"
#include "src/isa/assembler.h"

namespace imax432 {
namespace {

constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kFirstPort = 100;

// Slot reader for a synthetic world: carrier slot i resolves to port kFirstPort + i.
analysis::EffectOptions SyntheticOptions() {
  analysis::EffectOptions options;
  options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
  options.slot_reader = [](ObjectIndex object, uint32_t slot) {
    if (object == kCarrier) {
      return AccessDescriptor(kFirstPort + slot, 1, rights::kAll);
    }
    return AccessDescriptor();
  };
  return options;
}

// `size` instructions of AD shuffling around a send/receive pair: stresses the abstract-AD
// transfer functions and the must-send set maintenance.
ProgramRef BuildTrafficProgram(uint32_t size) {
  Assembler a("traffic");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1);
  while (a.here() + 4 < size) {
    a.MoveAd(4, 2).Send(3, 4).Receive(5, 2).MoveAd(2, 5);
  }
  a.Halt();
  return a.Build();
}

// One ring member: receives from carrier slot 0, forwards to slot 1.
ProgramRef BuildRingMember(uint32_t i) {
  Assembler a("ring.p" + std::to_string(i));
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1).Receive(4, 2).Send(3, 4).Halt();
  return a.Build();
}

void BM_EffectSummary(benchmark::State& state) {
  ProgramRef program = BuildTrafficProgram(static_cast<uint32_t>(state.range(0)));
  analysis::EffectOptions options = SyntheticOptions();
  uint64_t instructions = 0;
  for (auto _ : state) {
    analysis::EffectSummary summary = analysis::AnalyzeProgram(*program, options).effects;
    benchmark::DoNotOptimize(summary);
    instructions += program->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
  state.counters["program_size"] = static_cast<double>(program->size());
}
BENCHMARK(BM_EffectSummary)->Arg(16)->Arg(128)->Arg(1024);

// `count` programs arranged as rings of 8 (each member's slot reader wires its own/next
// port), so the SCC pass sees count/8 genuine cycles to find and render.
void BM_SystemAnalyzeRings(benchmark::State& state) {
  const uint32_t count = static_cast<uint32_t>(state.range(0));
  analysis::SystemEffectGraph graph;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t ring_base = (i / 8) * 8;
    const ObjectIndex own = kFirstPort + i;
    const ObjectIndex next = kFirstPort + ring_base + ((i + 1) % 8 == 0 ? 0 : (i % 8) + 1);
    analysis::EffectOptions options;
    options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
    options.slot_reader = [own, next](ObjectIndex object, uint32_t slot) {
      if (object != kCarrier) return AccessDescriptor();
      return AccessDescriptor(slot == 0 ? own : next, 1, rights::kAll);
    };
    graph.AddProgram(1000 + i, analysis::AnalyzeProgram(*BuildRingMember(i), options).effects);
  }
  uint64_t analyzed = 0;
  for (auto _ : state) {
    analysis::SystemAnalysisReport report = graph.Analyze();
    benchmark::DoNotOptimize(report);
    analyzed += count;
  }
  state.SetItemsProcessed(static_cast<int64_t>(analyzed));
  state.counters["programs"] = static_cast<double>(count);
}
BENCHMARK(BM_SystemAnalyzeRings)->Arg(8)->Arg(64)->Arg(512);

// A linear pipeline: head feeds p0 -> p1 -> ... -> tail. No cycles; the head port is
// externally fed and the tail port externally drained, so the report is clean and the
// benchmark measures the pure graph-construction + scan cost.
void BM_SystemAnalyzePipeline(benchmark::State& state) {
  const uint32_t count = static_cast<uint32_t>(state.range(0));
  analysis::SystemEffectGraph graph;
  for (uint32_t i = 0; i < count; ++i) {
    const ObjectIndex own = kFirstPort + i;
    const ObjectIndex next = kFirstPort + i + 1;
    analysis::EffectOptions options;
    options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
    options.slot_reader = [own, next](ObjectIndex object, uint32_t slot) {
      if (object != kCarrier) return AccessDescriptor();
      return AccessDescriptor(slot == 0 ? own : next, 1, rights::kAll);
    };
    graph.AddProgram(1000 + i, analysis::AnalyzeProgram(*BuildRingMember(i), options).effects);
  }
  graph.MarkExternalSender(kFirstPort);
  graph.MarkExternalReceiver(kFirstPort + count);
  uint64_t analyzed = 0;
  for (auto _ : state) {
    analysis::SystemAnalysisReport report = graph.Analyze();
    benchmark::DoNotOptimize(report);
    analyzed += count;
  }
  state.SetItemsProcessed(static_cast<int64_t>(analyzed));
  state.counters["programs"] = static_cast<double>(count);
}
BENCHMARK(BM_SystemAnalyzePipeline)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
