// E16 — The epoch-keyed AD-translation cache on the interpreter hot path (DESIGN.md §6).
//
// The cache claims to buy host time on the interpreter hot path without moving virtual time
// by a single cycle. Each row runs the same workload with the cache off and on.
//
// Rows reported:
//   - XlatAllocHotPath : E2-shaped allocation loop, cache off/on — host best-of-N,
//                        speedup_pct, hit rate; virtual makespans must be identical
//   - XlatChurnHotPath : E6-shaped churn-then-collect loop, cache off/on — same contract
//
// Unlike most experiment rows, host time IS the result here: the cache exists to make the
// emulator faster, and the virtual clock is the invariant, not the metric.

#include <chrono>

#include "bench/bench_util.h"

namespace imax432 {
namespace {

using bench::DefaultConfig;
using bench::MakeCarrier;
using bench::ToUs;

// --- Host wall-clock on the interpreter hot path ------------------------------------------

SystemConfig CacheConfig(bool cache, bool gc) {
  SystemConfig config = DefaultConfig(1);
  config.xlat_cache = cache;
  config.start_gc_daemon = gc;  // the churn row requests a collection mid-run
  return config;
}

struct HotPathRun {
  double best_us = 1e300;  // best-of-N host time for System::Run
  Cycles virtual_now = 0;
  XlatCacheStats stats;
};

// Builds a fresh system per repeat, spawns the workload, and times only the interpreter
// run. Host timing on millisecond workloads is noisy; best-of-N discards scheduler
// interference instead of averaging it in.
template <typename SpawnFn>
void TimeHotPathOnce(bool cache, bool gc, SpawnFn&& spawn, HotPathRun* result) {
  using Clock = std::chrono::steady_clock;
  System system(CacheConfig(cache, gc));
  if (gc) {
    system.Run();  // the collector daemon starts and parks before the workload spawns
  }
  spawn(system);
  auto t0 = Clock::now();
  system.Run();
  auto t1 = Clock::now();
  double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  result->best_us = std::min(result->best_us, us);
  result->virtual_now = system.now();
  result->stats = system.kernel().xlat_stats();
}

// Repeats are interleaved off/on so a host-load drift during the run skews both
// configurations equally instead of poisoning one side's best-of-N.
template <typename SpawnFn>
void TimeHotPathPair(int repeats, bool gc, SpawnFn&& spawn, HotPathRun* off, HotPathRun* on) {
  for (int i = 0; i < repeats; ++i) {
    TimeHotPathOnce(/*cache=*/false, gc, spawn, off);
    TimeHotPathOnce(/*cache=*/true, gc, spawn, on);
  }
}

void ReportHotPath(benchmark::State& state, const HotPathRun& off, const HotPathRun& on) {
  // The cache is an observer of virtual time: both configurations must reach the same
  // cycle, or the cache participated in the simulation and the row is void.
  IMAX_CHECK(off.virtual_now == on.virtual_now);
  uint64_t hits = on.stats.hits + on.stats.program_hits;
  uint64_t misses = on.stats.misses + on.stats.program_misses;
  state.counters["host_ms_off"] = off.best_us / 1000.0;
  state.counters["host_ms_on"] = on.best_us / 1000.0;
  state.counters["speedup_pct"] = (off.best_us / on.best_us - 1.0) * 100.0;
  state.counters["hit_rate_pct"] =
      hits + misses > 0 ? 100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0;
  state.counters["epoch_hits"] = static_cast<double>(hits);
  state.counters["virtual_us"] = ToUs(on.virtual_now);
}

// E2-shaped hot path: the allocation loop from bench_allocation — create, initialize, drop,
// repeat. Every instruction pays a program fetch and every operand access a translation.
void BM_XlatAllocHotPath(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  auto spawn = [count](System& system) {
    AccessDescriptor carrier = MakeCarrier(system, {system.memory().global_heap()});
    Assembler a("alloc-hot");
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
  };
  constexpr int kRepeats = 7;
  for (auto _ : state) {
    HotPathRun off;
    HotPathRun on;
    TimeHotPathPair(kRepeats, /*gc=*/false, spawn, &off, &on);
    ReportHotPath(state, off, on);
  }
  state.counters["allocations"] = count;
}
BENCHMARK(BM_XlatAllocHotPath)->Arg(4000)->Iterations(1);

// E6-shaped hot path: the churn loop from bench_gc — create, initialize, read back,
// republish; every store orphans the slot's old occupant, then a full collection reclaims
// the garbage with the mutator parked.
void BM_XlatChurnHotPath(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  auto spawn = [count](System& system) {
    AccessDescriptor carrier =
        MakeCarrier(system, {system.memory().global_heap(), AccessDescriptor()});
    Assembler a("churn-hot");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadImm(0, 0)
        .LoadImm(1, static_cast<uint64_t>(count))
        .Bind(loop)
        .CreateObject(4, 2, 64);
    for (uint32_t off = 0; off < 64; off += 8) {
      a.StoreData(4, 0, off, 8);  // initialize the whole data part before publishing
    }
    a.LoadData(3, 4, 0, 8)
        .StoreAd(1, 4, 1)  // orphans the previous iteration's object
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier;
    IMAX_CHECK(system.Spawn(a.Build(), options).ok());
    IMAX_CHECK(system.RequestCollection().ok());
  };
  constexpr int kRepeats = 7;
  for (auto _ : state) {
    HotPathRun off;
    HotPathRun on;
    TimeHotPathPair(kRepeats, /*gc=*/true, spawn, &off, &on);
    ReportHotPath(state, off, on);
  }
  state.counters["allocations"] = count;
}
BENCHMARK(BM_XlatChurnHotPath)->Arg(3000)->Iterations(1);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
