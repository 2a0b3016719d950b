#include "perfbench/probes.h"

#include <algorithm>
#include <string>

namespace imax432::perfbench {
namespace {

constexpr uint32_t kProbeObjects = 64;
constexpr uint32_t kLiveObjects = 4096;

volatile uint64_t probe_sink = 0;

// Times `run(batch)` repeatedly for about `budget_s` of wall time (at least five batches,
// after one untimed warm-up batch); `between()` runs untimed after each batch. Returns the
// median thread-CPU nanoseconds per call. The whole probe is one host span named `name`.
template <typename Run, typename Between>
double TimeCalls(HostSpans* spans, const char* name, double budget_s, uint32_t batch, Run&& run,
                 Between&& between) {
  HostSpans::Scope span(spans, name);
  run(batch);
  between();
  std::vector<double> per_call;
  Clock::time_point start = Clock::now();
  while (per_call.size() < 5 || SecondsSince(start) < budget_s) {
    const double t0 = ThreadCpuSeconds();
    run(batch);
    per_call.push_back((ThreadCpuSeconds() - t0) * 1e9 / batch);
    between();
  }
  return Median(per_call);
}

template <typename Run>
double TimeCalls(HostSpans* spans, const char* name, double budget_s, uint32_t batch, Run&& run) {
  return TimeCalls(spans, name, budget_s, batch, run, [] {});
}

// The E2-shaped allocation loop, run once so the interpreter, translation caches and
// physical memory pages are warm before anything is timed.
ProgramRef WarmUpProgram() {
  Assembler a("probe-warm-up");
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 2000)
      .Bind(loop)
      .CreateObject(4, 2, 64)
      .StoreData(4, 0, 0)
      .LoadData(3, 4, 0)
      .DestroyObject(4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  return a.Build();
}

}  // namespace

ProbeResults RunProbes(double budget_s, HostSpans* spans) {
  const double each_s = budget_s / 10;
  StableStore store;
  SystemConfig config;
  config.processors = 1;
  config.start_gc_daemon = false;
  config.machine.memory_bytes = 8 * 1024 * 1024;
  config.stable_store = &store;
  EnableXlatCache(config);
  System system(config);
  MemoryManager& memory = system.memory();
  AddressingUnit& au = system.machine().addressing();
  AccessDescriptor heap = memory.global_heap();

  ProcessOptions options;
  options.initial_arg = MakeCarrier(system, {heap});
  IMAX_CHECK(system.Spawn(WarmUpProgram(), options).ok());
  system.Run();

  // Fixtures: a data object, a container of AD slots and the objects they name, and a
  // rooted population of live objects for the collector to trace.
  AccessDescriptor data = MakeDataObject(system, heap, std::vector<uint64_t>(kProbeObjects, 1));
  std::vector<AccessDescriptor> targets;
  for (uint32_t i = 0; i < kProbeObjects; ++i) {
    targets.push_back(MakeDataObject(system, heap, {i}));
  }
  AccessDescriptor container = MakeCarrier(system, targets);
  std::vector<AccessDescriptor> population;
  for (uint32_t i = 0; i < kLiveObjects; ++i) {
    population.push_back(MakeDataObject(system, heap, {i, i}));
  }
  AccessDescriptor holder = MakeCarrier(system, population);
  system.kernel().AddRootProvider(
      [holder](std::vector<AccessDescriptor>* roots) { roots->push_back(holder); });
  auto port = system.kernel().ports().CreatePort(heap, 64, QueueDiscipline::kFifo);
  IMAX_CHECK(port.ok());
  // Run-time slot order, so no loop below indexes by a compile-time pattern.
  std::vector<uint32_t> order(kProbeObjects);
  for (uint32_t i = 0; i < kProbeObjects; ++i) {
    order[i] = (i * 37u + static_cast<uint32_t>(population.size())) % kProbeObjects;
  }

  ProbeResults r;
  uint64_t sink = 0;
  r.read_data_ns = TimeCalls(spans, "AddressingUnit::ReadData", each_s, 4096, [&](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      sink += au.ReadData(data, order[i % kProbeObjects] * 8, 8).value();
    }
  });
  r.write_data_ns = TimeCalls(spans, "AddressingUnit::WriteData", each_s, 4096, [&](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      sink += au.WriteData(data, order[i % kProbeObjects] * 8, 8, i).ok();
    }
  });
  r.read_ad_ns = TimeCalls(spans, "AddressingUnit::ReadAd", each_s, 4096, [&](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      sink += au.ReadAd(container, order[i % kProbeObjects]).value().index();
    }
  });
  r.write_ad_ns = TimeCalls(spans, "AddressingUnit::WriteAd", each_s, 4096, [&](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t slot = order[i % kProbeObjects];
      sink += au.WriteAd(container, slot, targets[slot]).ok();
    }
  });
  ObjectTable& table = system.machine().table();
  r.resolve_ns = TimeCalls(spans, "ObjectTable::Resolve", each_s, 4096, [&](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      sink += table.Resolve(targets[order[i % kProbeObjects]]).value()->data_length;
    }
  });
  r.create_destroy_ns = TimeCalls(
      spans, "MemoryManager::CreateObject+DestroyObject", each_s, 1024, [&](uint32_t n) {
        for (uint32_t i = 0; i < n; ++i) {
          auto object = memory.CreateObject(heap, SystemType::kGeneric, 64, 0,
                                            rights::kRead | rights::kWrite | rights::kDelete);
          sink += memory.DestroyObject(object.value()).ok();
        }
      });
  PortSubsystem& ports = system.kernel().ports();
  r.enqueue_dequeue_ns =
      TimeCalls(spans, "PortSubsystem::Enqueue+Dequeue", each_s, 1024, [&](uint32_t n) {
        for (uint32_t i = 0; i < n; ++i) {
          sink += ports.Enqueue(port.value(), targets[order[i % kProbeObjects]], 128, 0).ok();
          sink += ports.Dequeue(port.value()).value().index();
        }
      });
  EventQueue& events = system.machine().events();
  uint64_t fired = 0;
  r.event_ns =
      TimeCalls(spans, "EventQueue::ScheduleAfter+RunBounded", each_s, 4096, [&](uint32_t n) {
        for (uint32_t i = 0; i < n; ++i) {
          events.ScheduleAfter(1, [&fired] { ++fired; });
          sink += events.RunBounded(1);
        }
      });
  GarbageCollector& gc = system.gc();
  r.collect_ns_per_object =
      TimeCalls(spans, "GarbageCollector::CollectNow", each_s, 1,
                [&](uint32_t n) {
                  for (uint32_t i = 0; i < n; ++i) {
                    sink += gc.CollectNow().objects_scanned;
                  }
                }) /
      table.live_count();
  ObjectStore& filing = system.filing();
  std::vector<std::string> names;
  for (uint32_t i = 0; i < kProbeObjects; ++i) {
    names.push_back(RecordName(i));
  }
  r.file_ns = TimeCalls(
      spans, "ObjectStore::File", each_s, 256,
      [&](uint32_t n) {
        for (uint32_t i = 0; i < n; ++i) {
          sink += filing.File(names[order[i % kProbeObjects]], population[i]).ok();
        }
      },
      // The journal's syncs are events; drain them between batches, untimed.
      [&] { system.Run(); });
  IMAX_CHECK(fired > 0);
  probe_sink = sink;
  return r;
}

}  // namespace imax432::perfbench
