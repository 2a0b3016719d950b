// pipeline_mp: a four-stage processing pipeline across multiple GDPs.
//
// Demonstrates the multiprocessor story of §3: processes never name a processor; they queue
// at dispatching ports and "ready processes are dispatched on processors automatically by
// the hardware." The same pipeline binary runs unchanged on 1, 2 or 4 processors; only the
// makespan changes. Stages communicate through bounded ports, so backpressure propagates
// exactly as it would in a real dataflow system.

#include <cstdio>

#include "src/os/system.h"

using namespace imax432;

namespace {

constexpr int kStages = 4;
constexpr int kItems = 32;
constexpr Cycles kWorkPerStage = 20000;  // 2.5 ms of computation per item per stage

// Runs the pipeline on `processors` GDPs; returns the virtual makespan in cycles.
Cycles RunPipeline(int processors) {
  SystemConfig config;
  config.processors = processors;
  config.machine.memory_bytes = 4 * 1024 * 1024;
  config.start_gc_daemon = false;  // keep the timing clean for the demo
  System system(config);
  auto& kernel = system.kernel();
  auto& memory = system.memory();

  // Stage i reads from port[i] and writes to port[i+1]; the source injects into port[0]
  // and the host drains port[kStages].
  std::vector<AccessDescriptor> ports;
  for (int i = 0; i <= kStages; ++i) {
    // Inter-stage ports are small (backpressure is part of the demonstration); the sink
    // port holds the full run's output since nothing drains it until the machine idles.
    uint16_t capacity = (i == kStages) ? kItems : 4;
    auto port =
        kernel.ports().CreatePort(memory.global_heap(), capacity, QueueDiscipline::kFifo);
    if (!port.ok()) {
      return 0;
    }
    ports.push_back(port.value());
  }
  kernel.AddRootProvider([&ports](std::vector<AccessDescriptor>* roots) {
    for (const AccessDescriptor& port : ports) {
      roots->push_back(port);
    }
  });

  // Carrier: slots 0..kStages = the ports, slot kStages+1 = global heap.
  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8,
                                     kStages + 2, rights::kRead | rights::kWrite);
  if (!carrier.ok()) {
    return 0;
  }
  for (int i = 0; i <= kStages; ++i) {
    (void)system.machine().addressing().WriteAd(carrier.value(), static_cast<uint32_t>(i),
                                                ports[static_cast<size_t>(i)]);
  }
  (void)system.machine().addressing().WriteAd(carrier.value(), kStages + 1,
                                              memory.global_heap());

  // Source: creates kItems work items and pushes them into the first port.
  Assembler source("source");
  auto source_loop = source.NewLabel();
  source.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)              // a2 = port[0]
      .LoadAd(3, 1, kStages + 1)    // a3 = heap
      .LoadImm(0, 0)
      .LoadImm(1, kItems)
      .Bind(source_loop)
      .CreateObject(4, 3, 64)
      .StoreData(4, 0, 0, 8)        // item.value = sequence number
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, source_loop)
      .Halt();

  // Stage worker: receive from port[i], compute, increment the item's hop count, forward.
  auto make_stage = [&](int stage) {
    Assembler a("stage");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, static_cast<uint32_t>(stage))      // in
        .LoadAd(3, 1, static_cast<uint32_t>(stage + 1))  // out
        .LoadImm(0, 0)
        .LoadImm(1, kItems)
        .Bind(loop)
        .Receive(4, 2)
        .Compute(kWorkPerStage)
        .LoadData(5, 4, 8, 8)
        .AddImm(5, 5, 1)
        .StoreData(4, 5, 8, 8)  // item.hops += 1
        .Send(3, 4)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    return a.Build();
  };

  ProcessOptions options;
  options.initial_arg = carrier.value();
  for (int stage = 0; stage < kStages; ++stage) {
    if (!system.Spawn(make_stage(stage), options).ok()) {
      return 0;
    }
  }
  if (!system.Spawn(source.Build(), options).ok()) {
    return 0;
  }

  system.Run();

  // Drain the sink and verify every item made all hops.
  int delivered = 0;
  bool all_hopped = true;
  while (true) {
    auto item = kernel.ReceiveMessage(ports[kStages]);
    if (!item.ok()) {
      break;
    }
    ++delivered;
    auto hops = system.machine().addressing().ReadData(item.value(), 8, 8);
    all_hopped &= hops.ok() && hops.value() == kStages;
  }
  if (delivered != kItems || !all_hopped) {
    std::printf("  pipeline integrity FAILED (%d/%d items)\n", delivered, kItems);
    return 0;
  }
  return system.now();
}

}  // namespace

int main() {
  std::printf("pipeline: %d stages x %d items, %.1f us of work per stage-item\n\n", kStages,
              kItems, cycles::ToMicroseconds(kWorkPerStage));
  std::printf("%-12s %-16s %-10s\n", "processors", "makespan (ms)", "speedup");

  Cycles baseline = 0;
  for (int processors : {1, 2, 4, 8}) {
    Cycles makespan = RunPipeline(processors);
    if (makespan == 0) {
      return 1;
    }
    if (baseline == 0) {
      baseline = makespan;
    }
    std::printf("%-12d %-16.2f %.2fx\n", processors,
                cycles::ToMicroseconds(makespan) / 1000.0,
                static_cast<double>(baseline) / static_cast<double>(makespan));
  }
  std::printf("\nthe pipeline binary is identical in all runs: processes queue at\n"
              "dispatching ports and the hardware binds them to whatever GDPs exist.\n");
  return 0;
}
