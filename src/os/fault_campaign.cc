#include "src/os/fault_campaign.h"

#include <string>

#include "src/isa/assembler.h"
#include "src/memory/swapping_memory_manager.h"

namespace imax432 {

namespace {

// FNV-1a over the bytes of every recorded trace event. Two campaigns with the same
// {seed, schedule} must produce the same fingerprint: the bit-identical-replay check.
uint64_t FingerprintTrace(const TraceRecorder& trace) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (word >> shift) & 0xFFull;
      hash *= 1099511628211ull;
    }
  };
  for (const TraceEvent& event : trace.Snapshot()) {
    mix(event.ts);
    mix(event.process);
    mix((static_cast<uint64_t>(event.a) << 32) | event.b);
    mix((static_cast<uint64_t>(event.c) << 16) | event.cpu);
    mix(static_cast<uint64_t>(event.kind));
  }
  return hash;
}

}  // namespace

// The workload: six service-level workers over the swapping memory manager, each churning
// 2 KB allocations through a ring of six objects and re-reading the slot it filled on the
// previous iteration. The churn keeps the heap under pressure so evictions put traffic on
// the backing store for the device faults to hit, a re-read is where a swapped-out or
// quarantined object faults, and the fleet gives processor retirement real victims. Seed
// 20260805 with 200 events over 2,000,000 cycles retires one GDP and delivers 36
// kDeviceError faults, six per worker: five are retried and the sixth exhausts the retry
// budget, so all six workers are terminated by policy. It makes no swap-in and quarantines
// nothing; the same seed with 24 events over 600,000 cycles quarantines five objects.
FaultCampaignResult RunFaultCampaign(uint64_t seed, uint32_t events, Cycles horizon,
                                     SystemConfig config) {
  config.machine.memory_bytes = 2 * 1024 * 1024;
  config.memory_manager = MemoryManagerKind::kSwapping;
  config.trace = true;
  config.start_patrol_daemon = true;

  FaultCampaignResult result;
  result.system = std::make_unique<System>(config);
  System& system = *result.system;
  auto& kernel = system.kernel();
  auto& memory = system.memory();

  auto* swap = static_cast<SwappingMemoryManager*>(&memory);
  result.fault_service =
      std::make_unique<FaultService>(&kernel, FaultService::MakeRecoveryPolicy());
  auto fault_port = result.fault_service->Spawn();
  IMAX_CHECK(fault_port.ok());

  FaultInjector injector(&kernel, swap);
  result.schedule = FaultInjector::GenerateSchedule(seed, events, horizon);
  injector.Arm(result.schedule);

  // Periodic GC (reclaims the churn so allocation pressure stays survivable) and patrol
  // sweeps (bounds how long corruption lingers before quarantine) across the window.
  System* sys = &system;
  for (Cycles t = 150'000; t < horizon; t += 150'000) {
    system.machine().events().ScheduleAt(t, [sys] { (void)sys->RequestCollection(); });
  }
  for (Cycles t = 100'000; t < horizon; t += 200'000) {
    system.machine().events().ScheduleAt(t, [sys] { (void)sys->RequestPatrolSweep(); });
  }

  constexpr int kWorkers = 6;
  constexpr uint32_t kRing = 6;
  constexpr uint64_t kIterations = 220;
  constexpr uint32_t kObjectBytes = 2048;
  for (int w = 0; w < kWorkers; ++w) {
    auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 16,
                                       kRing + 1, rights::kRead | rights::kWrite);
    IMAX_CHECK(carrier.ok());
    (void)system.machine().addressing().WriteAd(carrier.value(), 0, memory.global_heap());

    Assembler a("worker");
    auto fill = a.NewLabel();
    auto loop = a.NewLabel();
    auto advanced = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)  // a2 = heap
        .LoadImm(0, 0)    // r0 = iteration counter
        .LoadImm(1, kIterations)
        .LoadImm(2, 0)  // r2 = ring cursor
        .LoadImm(4, kRing)
        .Bind(fill)  // pre-fill the ring so the re-read below never hits a null slot
        .CreateObject(4, 2, kObjectBytes)
        .StoreData(4, 0, 0, 8)
        .StoreAdIndexed(1, 4, 2, 1)
        .AddImm(2, 2, 1)
        .BranchIfLess(2, 4, fill)
        .LoadImm(2, 0)
        .LoadImm(3, 0)  // r3 = slot filled on the previous iteration
        .Bind(loop)
        .CreateObject(4, 2, kObjectBytes)
        .StoreData(4, 0, 0, 8)
        .StoreAdIndexed(1, 4, 2, 1)  // overwrite: orphans the slot's old occupant
        .LoadAdIndexed(5, 1, 3, 1)
        .LoadData(6, 5, 0, 8)  // re-read: a swapped-out or quarantined object faults here
        .Compute(300)
        .Move(3, 2)
        .AddImm(2, 2, 1)
        .BranchIfLess(2, 4, advanced)
        .LoadImm(2, 0)
        .Bind(advanced)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();

    ProcessOptions po;
    po.initial_arg = carrier.value();
    // Services level: injected faults deliver to the fault port instead of panicking —
    // the campaign exercises recovery, not the §7.3 fault-freedom proof obligations.
    po.imax_level = kImaxLevelServices;
    po.fault_port = fault_port.value();
    auto process = system.Spawn(a.Build(), po);
    IMAX_CHECK(process.ok());
    kernel.symbols().Name(process.value().index(), "worker " + std::to_string(w));
  }

  system.Run();
  // A final synchronous sweep so corruption injected near the end still shows up in the
  // quarantine counts.
  system.patrol().SweepNow();

  result.injector = injector.stats();
  result.fingerprint = FingerprintTrace(system.machine().trace());
  return result;
}

}  // namespace imax432
