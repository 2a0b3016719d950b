// E6 — Garbage collection vs local-heap reclamation (paper §5, §8.1).
//
// Claims: "All objects are subject to garbage collection; those allocated from local SRO's
// will be collected more efficiently whenever their ancestral SRO is destroyed." The
// collector runs as "a daemon process that globally scans the system" and "requires only
// minimal synchronization with the rest of the operating system."
//
// Rows reported:
//   - GlobalGcReclaim : us of collector work per reclaimed object (global heap garbage)
//   - LocalHeapBulkDestroy : us per object when the ancestral SRO is destroyed instead
//   - GcScalesWithHeap : cost of a cycle vs live-heap size (mark dominates)
//   - MutatorInterference : mutator slowdown while the daemon collects alongside it

#include "bench/bench_util.h"

namespace imax432 {
namespace {

using bench::DefaultConfig;
using bench::MakeCarrier;
using bench::ToUs;

// Makes `count` garbage objects on the global heap (host-held ADs are not roots).
void MakeGlobalGarbage(System& system, int count) {
  for (int i = 0; i < count; ++i) {
    IMAX_CHECK(system.memory()
                   .CreateObject(system.memory().global_heap(), SystemType::kGeneric, 64, 2,
                                 rights::kAll)
                   .ok());
  }
}

void BM_GlobalGcReclaim(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  double us_per_object = 0;
  uint64_t reclaimed = 0;
  for (auto _ : state) {
    SystemConfig config = DefaultConfig(1);
    config.start_gc_daemon = true;
    // Size the table to the workload: a collection cycle scans the whole table, so a vastly
    // oversized table would bury the per-object costs this experiment isolates.
    config.machine.object_table_capacity = 4096;
    System system(config);
    system.Run();  // daemon parks
    MakeGlobalGarbage(system, count);
    Cycles before = system.now();
    uint64_t reclaimed_before = system.gc().stats().objects_reclaimed;
    IMAX_CHECK(system.RequestCollection().ok());
    system.Run();
    reclaimed = system.gc().stats().objects_reclaimed - reclaimed_before;
    us_per_object = ToUs(system.now() - before) / static_cast<double>(count);
  }
  state.counters["garbage_objects"] = count;
  state.counters["reclaimed"] = static_cast<double>(reclaimed);
  state.counters["gc_us_per_object"] = us_per_object;
}
BENCHMARK(BM_GlobalGcReclaim)->Arg(100)->Arg(400)->Arg(1600)->Iterations(1);

void BM_LocalHeapBulkDestroy(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  double us_per_object = 0;
  for (auto _ : state) {
    System system(DefaultConfig(1));
    AccessDescriptor carrier = MakeCarrier(system, {system.memory().global_heap()});
    // A process that creates a local heap, fills it with `count` objects, then destroys
    // the heap — timing the destroy alone via the GetTime service.
    Assembler a("bulk");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .CreateSro(3, 2, static_cast<uint32_t>(count) * 96 + 8192)
        .LoadImm(0, 0)
        .LoadImm(1, static_cast<uint64_t>(count))
        .Bind(loop)
        .CreateObject(4, 3, 64)
        .ClearAd(4)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .OsCall(os_service::kGetTime)
        .StoreData(1, 7, 0, 8)  // carrier[0] = t0
        .DestroySro(3)
        .OsCall(os_service::kGetTime)
        .StoreData(1, 7, 8, 8)  // carrier[8] = t1
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier;
    auto process = system.Spawn(a.Build(), options);
    IMAX_CHECK(process.ok());
    system.Run();
    uint64_t t0 = system.machine().addressing().ReadData(carrier, 0, 8).value();
    uint64_t t1 = system.machine().addressing().ReadData(carrier, 8, 8).value();
    us_per_object = ToUs(t1 - t0) / static_cast<double>(count);
  }
  state.counters["objects"] = count;
  state.counters["bulk_us_per_object"] = us_per_object;
}
BENCHMARK(BM_LocalHeapBulkDestroy)->Arg(100)->Arg(400)->Arg(1600)->Iterations(1);

void BM_GcScalesWithLiveHeap(benchmark::State& state) {
  int live = static_cast<int>(state.range(0));
  double cycle_us = 0;
  for (auto _ : state) {
    SystemConfig config = DefaultConfig(1);
    config.start_gc_daemon = true;
    config.machine.object_table_capacity = 16384;
    System system(config);
    system.Run();
    // Live objects: chained from a root so they survive; plus a fixed amount of garbage.
    std::vector<AccessDescriptor> keep;
    for (int i = 0; i < live; ++i) {
      auto object = system.memory().CreateObject(system.memory().global_heap(),
                                                 SystemType::kGeneric, 64, 2, rights::kAll);
      IMAX_CHECK(object.ok());
      keep.push_back(object.value());
    }
    system.kernel().AddRootProvider([&keep](std::vector<AccessDescriptor>* roots) {
      for (const AccessDescriptor& ad : keep) {
        roots->push_back(ad);
      }
    });
    MakeGlobalGarbage(system, 100);
    Cycles before = system.now();
    IMAX_CHECK(system.RequestCollection().ok());
    system.Run();
    cycle_us = ToUs(system.now() - before);
  }
  state.counters["live_objects"] = live;
  state.counters["gc_cycle_us"] = cycle_us;
}
BENCHMARK(BM_GcScalesWithLiveHeap)->Arg(0)->Arg(500)->Arg(2000)->Arg(8000)->Iterations(1);

// The on-the-fly property made quantitative: a mutator runs a fixed workload with and
// without the collector cycling alongside on the same single processor. The slowdown is the
// collection's true cost; there are no stop-the-world pauses to measure because there is no
// stop-the-world.
void BM_MutatorInterference(benchmark::State& state) {
  bool collect = state.range(0) != 0;
  double mutator_us = 0;
  for (auto _ : state) {
    SystemConfig config = DefaultConfig(1);
    config.start_gc_daemon = true;
    config.machine.object_table_capacity = 4096;
    System system(config);
    system.Run();

    AccessDescriptor carrier = MakeCarrier(system, {system.memory().global_heap()});
    // The mutator: allocate-and-drop loop (generates garbage while running).
    Assembler mutator("mutator");
    auto loop = mutator.NewLabel();
    mutator.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadImm(0, 0)
        .LoadImm(1, 400)
        .Bind(loop)
        .CreateObject(3, 2, 64)
        .ClearAd(3)
        .Compute(200)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier;
    auto process = system.Spawn(mutator.Build(), options);
    IMAX_CHECK(process.ok());
    // The bench reads the process object after it terminates; collections run in between,
    // so the harness must hold a root for it (host-side ADs are not roots).
    system.kernel().AddRootProvider(
        [ad = process.value()](std::vector<AccessDescriptor>* roots) {
          roots->push_back(ad);
        });
    if (collect) {
      // Keep the collector busy for the whole run.
      for (int i = 0; i < 4; ++i) {
        IMAX_CHECK(system.RequestCollection().ok());
      }
    }
    system.Run();
    mutator_us = ToUs(system.kernel().process_view(process.value()).consumed());
    // Wall-clock completion of the mutator is what interference stretches:
    state.counters["mutator_makespan_us"] = ToUs(system.now());
  }
  state.counters["collector_running"] = collect ? 1 : 0;
  state.counters["mutator_cpu_us"] = mutator_us;
}
BENCHMARK(BM_MutatorInterference)->Arg(0)->Arg(1)->Iterations(1);

// Gray-bit traffic: how often the hardware shades during a pointer-heavy workload. Only
// stores whose target is white shade, so steady-state pointer churn costs one color test.
void BM_GrayBitTraffic(benchmark::State& state) {
  uint64_t shades = 0;
  uint64_t stores = 2000;
  for (auto _ : state) {
    System system(DefaultConfig(1));
    auto container = system.memory().CreateObject(system.memory().global_heap(),
                                                  SystemType::kGeneric, 0, 4, rights::kAll);
    auto target = system.memory().CreateObject(system.memory().global_heap(),
                                               SystemType::kGeneric, 16, 0, rights::kAll);
    IMAX_CHECK(container.ok() && target.ok());
    uint64_t before = system.machine().addressing().shade_count();
    for (uint64_t i = 0; i < stores; ++i) {
      IMAX_CHECK(system.machine().addressing().WriteAd(container.value(), 0, target.value())
                     .ok());
    }
    shades = system.machine().addressing().shade_count() - before;
  }
  state.counters["ad_stores"] = static_cast<double>(stores);
  state.counters["gray_shades"] = static_cast<double>(shades);
  // Only the first store of an already-gray target shades: the gray bit is cheap.
  state.counters["shades_per_store"] = static_cast<double>(shades) / stores;
}
BENCHMARK(BM_GrayBitTraffic)->Iterations(1);

// The paper's deferred extension, evaluated: "It would be possible to perform garbage
// collection on a local basis ... but we have not chosen to do this until we have data that
// suggests that it would be worthwhile." This is that data: a small dirty local heap inside
// a large live system, collected locally vs globally.
void BM_LocalVsGlobalCollection(benchmark::State& state) {
  int live_global = static_cast<int>(state.range(0));
  constexpr int kLocalGarbage = 50;
  uint64_t local_work = 0;
  uint64_t global_work = 0;

  auto build = [&](System& system, std::vector<AccessDescriptor>& keep,
                   AccessDescriptor& local_sro) {
    for (int i = 0; i < live_global; ++i) {
      auto object = system.memory().CreateObject(system.memory().global_heap(),
                                                 SystemType::kGeneric, 32, 2, rights::kAll);
      IMAX_CHECK(object.ok());
      if (!keep.empty()) {
        IMAX_CHECK(
            system.machine().addressing().WriteAd(object.value(), 0, keep.back()).ok());
      }
      keep.push_back(object.value());
    }
    system.kernel().AddRootProvider([&keep](std::vector<AccessDescriptor>* roots) {
      if (!keep.empty()) {
        roots->push_back(keep.back());
      }
    });
    auto sro = system.memory().CreateLocalSro(system.memory().global_heap(), 64 * 1024, 1);
    IMAX_CHECK(sro.ok());
    local_sro = sro.value();
    for (int i = 0; i < kLocalGarbage; ++i) {
      IMAX_CHECK(system.memory()
                     .CreateObject(local_sro, SystemType::kGeneric, 64, 0, rights::kAll)
                     .ok());
    }
  };

  for (auto _ : state) {
    {
      SystemConfig config = DefaultConfig(1);
      config.machine.object_table_capacity = 16384;
      config.start_gc_daemon = false;
      System system(config);
      std::vector<AccessDescriptor> keep;
      AccessDescriptor local_sro;
      build(system, keep, local_sro);
      uint64_t before = system.gc().work_units();
      auto stats = system.gc().CollectLocalNow(local_sro);
      IMAX_CHECK(stats.ok() && stats.value().objects_reclaimed == kLocalGarbage);
      local_work = system.gc().work_units() - before;
    }
    {
      SystemConfig config = DefaultConfig(1);
      config.machine.object_table_capacity = 16384;
      config.start_gc_daemon = false;
      System system(config);
      std::vector<AccessDescriptor> keep;
      AccessDescriptor local_sro;
      build(system, keep, local_sro);
      uint64_t before = system.gc().work_units();
      system.gc().CollectNow();
      global_work = system.gc().work_units() - before;
    }
  }
  state.counters["live_global_objects"] = live_global;
  state.counters["local_pass_work_units"] = static_cast<double>(local_work);
  state.counters["global_pass_work_units"] = static_cast<double>(global_work);
  state.counters["local_advantage"] =
      static_cast<double>(global_work) / static_cast<double>(local_work);
}
BENCHMARK(BM_LocalVsGlobalCollection)->Arg(100)->Arg(1000)->Arg(4000)->Iterations(1);

// Ablation: collector work granularity (units per daemon step). Finer steps interleave with
// mutators more responsively; coarser steps finish cycles sooner. The incremental design
// makes this a pure configuration knob.
void BM_GcStepGranularity(benchmark::State& state) {
  uint32_t units = static_cast<uint32_t>(state.range(0));
  double cycle_ms = 0;
  double mutator_makespan_ms = 0;
  for (auto _ : state) {
    SystemConfig config = DefaultConfig(1);
    config.machine.object_table_capacity = 8192;
    config.start_gc_daemon = true;
    config.gc_units_per_step = units;
    System system(config);
    system.Run();
    MakeGlobalGarbage(system, 500);

    AccessDescriptor carrier = MakeCarrier(system, {system.memory().global_heap()});
    Assembler mutator("mutator");
    auto loop = mutator.NewLabel();
    mutator.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadImm(0, 0)
        .LoadImm(1, 200)
        .Bind(loop)
        .Compute(400)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    ProcessOptions options;
    options.initial_arg = carrier;
    auto process = system.Spawn(mutator.Build(), options);
    IMAX_CHECK(process.ok());

    Cycles before = system.now();
    IMAX_CHECK(system.RequestCollection().ok());
    system.Run();
    cycle_ms = ToUs(system.now() - before) / 1000.0;
    mutator_makespan_ms = cycle_ms;  // shared single processor: same window
  }
  state.counters["units_per_step"] = units;
  state.counters["combined_window_ms"] = cycle_ms;
  (void)mutator_makespan_ms;
}
BENCHMARK(BM_GcStepGranularity)->Arg(32)->Arg(128)->Arg(512)->Arg(4096)->Iterations(1);

// GC-load demotion (E15 companion): a mutator parks on a receive holding a context-local
// chain of `chain` objects live, and the collector runs a full cycle against it. With
// lifetime demotion the whole chain is GC-exempt — the cycle never traces it — so the
// traced-object count drops by the chain's share of the heap. Both configurations run in
// the same iteration and the delta ships in the --json counters.
void BM_DemotionGcLoad(benchmark::State& state) {
  int chain = static_cast<int>(state.range(0));
  uint64_t traced[2] = {0, 0};
  uint64_t demotions = 0;
  uint64_t violations = 0;
  for (auto _ : state) {
    for (int demote = 0; demote < 2; ++demote) {
      SystemConfig config = DefaultConfig(1);
      config.machine.object_table_capacity = 8192;
      config.start_gc_daemon = true;
      config.verify_on_load = true;
      config.lifetime_demote = demote != 0;
      config.lifetime_audit = demote != 0;
      config.demote_sro_bytes = 512 * 1024;
      System system(config);
      system.Run();  // daemon parks
      auto port = system.kernel().ports().CreatePort(system.memory().global_heap(), 4,
                                                     QueueDiscipline::kFifo);
      IMAX_CHECK(port.ok());
      AccessDescriptor carrier =
          MakeCarrier(system, {system.memory().global_heap(), port.value()});
      // The chain: every new object stores its predecessor (a sibling store, so the whole
      // chain stays demotable), then the process blocks on the port with the chain live.
      Assembler a("demotion-chain");
      auto loop = a.NewLabel();
      a.MoveAd(1, kArgAdReg)
          .LoadAd(2, 1, 0)
          .LoadAd(3, 1, 1)
          .CreateObject(4, 2, 16, 1)
          .LoadImm(0, 1)
          .LoadImm(1, static_cast<uint64_t>(chain))
          .Bind(loop)
          .CreateObject(5, 2, 16, 1)
          .StoreAd(5, 4, 0)
          .MoveAd(4, 5)
          .AddImm(0, 0, 1)
          .BranchIfLess(0, 1, loop)
          .Receive(6, 3)
          .Halt();
      ProcessOptions options;
      options.initial_arg = carrier;
      auto process = system.Spawn(a.Build(), options);
      IMAX_CHECK(process.ok());
      system.Run();  // mutator parks on the receive, chain live

      uint64_t before = system.gc().stats().objects_scanned;
      IMAX_CHECK(system.RequestCollection().ok());
      system.Run();  // full cycle against the parked chain
      traced[demote] = system.gc().stats().objects_scanned - before;

      IMAX_CHECK(system.kernel().PostMessage(port.value(), carrier).ok());
      system.Run();  // unblock; context exit bulk-reclaims the demote SRO
      if (demote != 0) {
        demotions = system.kernel().stats().demotions;
        IMAX_CHECK(system.kernel().stats().demote_fallbacks == 0);
      }
      violations += system.kernel().stats().lifetime_violations;
    }
  }
  state.counters["chain_objects"] = chain;
  state.counters["traced_full"] = static_cast<double>(traced[0]);
  state.counters["traced_demoted"] = static_cast<double>(traced[1]);
  state.counters["reduction_pct"] =
      100.0 * static_cast<double>(traced[0] - traced[1]) / static_cast<double>(traced[0]);
  state.counters["demotions"] = static_cast<double>(demotions);
  state.counters["audit_violations"] = static_cast<double>(violations);
}
BENCHMARK(BM_DemotionGcLoad)->Arg(200)->Arg(600)->Iterations(1);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
