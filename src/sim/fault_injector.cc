#include "src/sim/fault_injector.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/log.h"
#include "src/base/xorshift.h"
#include "src/exec/kernel.h"
#include "src/memory/swapping_memory_manager.h"

namespace imax432 {

const char* InjectionKindName(InjectionKind kind) {
  switch (kind) {
    case InjectionKind::kProcessorRetire: return "processor-retire";
    case InjectionKind::kProcessorStall: return "processor-stall";
    case InjectionKind::kDeviceTransient: return "device-transient";
    case InjectionKind::kDevicePermanent: return "device-permanent";
    case InjectionKind::kBitFlip: return "bit-flip";
    case InjectionKind::kChecksumCorrupt: return "checksum-corrupt";
    case InjectionKind::kBusDrop: return "bus-drop";
    case InjectionKind::kBusDuplicate: return "bus-duplicate";
    case InjectionKind::kPowerCut: return "power-cut";
    case InjectionKind::kKindCount: break;
  }
  return "unknown";
}

std::vector<InjectionEvent> FaultInjector::GenerateSchedule(uint64_t seed, uint32_t count,
                                                            Cycles horizon) {
  IMAX_CHECK(horizon > 0);
  Xorshift rng(seed);
  std::vector<InjectionEvent> schedule(count);
  for (InjectionEvent& event : schedule) {
    event.at = rng.NextBelow(horizon);
    // Draw from the original eight kinds only: kPowerCut sits just before kKindCount but
    // never appears in an in-run schedule (see the header), and excluding it here keeps
    // every pre-existing {seed, schedule} bit-identical.
    event.kind = static_cast<InjectionKind>(
        rng.NextBelow(static_cast<uint64_t>(InjectionKind::kPowerCut)));
    event.target = static_cast<uint32_t>(rng.Next());
    switch (event.kind) {
      case InjectionKind::kProcessorRetire:
        event.arg = 0;
        break;
      case InjectionKind::kProcessorStall:
        event.arg = static_cast<uint32_t>(rng.NextInRange(1'000, 50'000));
        break;
      case InjectionKind::kDeviceTransient:
        // 1..3 consecutive failures: within the swap layer's retry budget, so these always
        // recover via backoff rather than surfacing kDeviceError.
        event.arg = static_cast<uint32_t>(rng.NextInRange(1, 3));
        break;
      case InjectionKind::kDevicePermanent:
        // Heal delay. Long enough to exhaust retries on an unlucky transfer (surfacing
        // kDeviceError to the fault service), short enough that the campaign recovers.
        event.arg = static_cast<uint32_t>(rng.NextInRange(50'000, 200'000));
        break;
      case InjectionKind::kBitFlip:
      case InjectionKind::kChecksumCorrupt:
        event.arg = static_cast<uint32_t>(rng.Next());
        break;
      case InjectionKind::kBusDrop:
      case InjectionKind::kBusDuplicate:
        event.arg = static_cast<uint32_t>(rng.NextInRange(5'000, 50'000));
        break;
      case InjectionKind::kPowerCut:
      case InjectionKind::kKindCount:
        break;
    }
  }
  // Stable: events drawn earlier fire first on timestamp ties, part of the replay contract.
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const InjectionEvent& a, const InjectionEvent& b) { return a.at < b.at; });
  return schedule;
}

std::vector<InjectionEvent> FaultInjector::GenerateCrashSchedule(uint64_t seed, uint32_t count,
                                                                 uint32_t power_cuts,
                                                                 Cycles horizon) {
  IMAX_CHECK(power_cuts <= count);
  std::vector<InjectionEvent> schedule = GenerateSchedule(seed, count - power_cuts, horizon);
  // An independent stream (seed XOR "PWRC") draws the cuts, so the in-run events above are
  // byte-for-byte the events a cut-free GenerateSchedule(seed, count - power_cuts, horizon)
  // would produce.
  Xorshift rng(seed ^ 0x50575243u);
  for (uint32_t i = 0; i < power_cuts; ++i) {
    InjectionEvent event;
    event.at = rng.NextBelow(horizon);
    event.kind = InjectionKind::kPowerCut;
    event.target = static_cast<uint32_t>(rng.Next());
    event.arg = static_cast<uint32_t>(rng.Next());  // torn-tail selector
    schedule.push_back(event);
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const InjectionEvent& a, const InjectionEvent& b) { return a.at < b.at; });
  return schedule;
}

void FaultInjector::Arm(const std::vector<InjectionEvent>& schedule) {
  EventQueue& events = kernel_->machine().events();
  for (const InjectionEvent& event : schedule) {
    events.ScheduleAt(std::max(events.now(), event.at), [this, event] { Apply(event); });
  }
}

bool FaultInjector::PickProcessor(uint32_t target, bool keep_one_alive, uint16_t* out) const {
  std::vector<uint16_t> candidates;
  for (int i = 0; i < kernel_->processor_count(); ++i) {
    if (!kernel_->processor_retired(i)) {
      candidates.push_back(static_cast<uint16_t>(i));
    }
  }
  // Never retire the last GDP: a dead system recovers nothing. (Stalls are fine — they end.)
  if (candidates.empty() || (keep_one_alive && candidates.size() <= 1)) {
    return false;
  }
  *out = candidates[target % candidates.size()];
  return true;
}

bool FaultInjector::PickGenericObject(uint32_t target, bool needs_data,
                                      ObjectIndex* out) const {
  const ObjectTable& table = kernel_->machine().table();
  const ObjectIndex end = table.capacity();
  std::vector<ObjectIndex> candidates;
  for (ObjectIndex index = table.NextAllocated(0, end); index < end;
       index = table.NextAllocated(index + 1, end)) {
    const ObjectDescriptor& descriptor = table.At(index);
    // Only plain generic objects: corrupting a kernel system object (process, context,
    // port) would model a fault class the 432's checked-against-the-descriptor microcode
    // paths don't survive, and quarantine deliberately applies to generic objects only.
    if (descriptor.type != SystemType::kGeneric || descriptor.quarantined) {
      continue;
    }
    if (needs_data && (descriptor.data_length == 0 || descriptor.swapped_out)) {
      continue;
    }
    candidates.push_back(index);
  }
  if (candidates.empty()) {
    return false;
  }
  *out = candidates[target % candidates.size()];
  return true;
}

bool FaultInjector::Apply(const InjectionEvent& event) {
  Machine& machine = kernel_->machine();
  bool applied = false;
  uint32_t concrete = event.target;  // refined to the chosen target where one is picked

  switch (event.kind) {
    case InjectionKind::kProcessorRetire: {
      uint16_t id = 0;
      if (PickProcessor(event.target, /*keep_one_alive=*/true, &id)) {
        applied = kernel_->RetireProcessor(id).ok();
        concrete = id;
      }
      break;
    }
    case InjectionKind::kProcessorStall: {
      uint16_t id = 0;
      if (PickProcessor(event.target, /*keep_one_alive=*/false, &id)) {
        applied = kernel_->StallProcessor(id, event.arg).ok();
        concrete = id;
      }
      break;
    }
    case InjectionKind::kDeviceTransient:
      if (swap_ != nullptr) {
        swap_->mutable_backing_store().InjectTransientFailures(event.arg == 0 ? 1 : event.arg);
        applied = true;
      }
      break;
    case InjectionKind::kDevicePermanent:
      if (swap_ != nullptr) {
        swap_->mutable_backing_store().SetPermanentFailure(true);
        if (event.arg > 0) {
          SwappingMemoryManager* swap = swap_;
          machine.events().ScheduleAfter(event.arg, [swap] {
            swap->mutable_backing_store().SetPermanentFailure(false);
          });
        }
        applied = true;
      }
      break;
    case InjectionKind::kBitFlip: {
      ObjectIndex index = 0;
      if (PickGenericObject(event.target, /*needs_data=*/true, &index)) {
        const ObjectDescriptor& descriptor = machine.table().At(index);
        uint32_t offset = (event.arg / 8) % descriptor.data_length;
        uint8_t byte = 0;
        IMAX_CHECK(machine.memory().ReadBlock(descriptor.data_base + offset, &byte, 1).ok());
        byte ^= static_cast<uint8_t>(1u << (event.arg % 8));
        IMAX_CHECK(machine.memory().WriteBlock(descriptor.data_base + offset, &byte, 1).ok());
        // No data_epoch bump: this is silent corruption behind the addressing unit's back,
        // exactly the case the patrol's shadow CRC exists to catch.
        concrete = index;
        applied = true;
      }
      break;
    }
    case InjectionKind::kChecksumCorrupt: {
      ObjectIndex index = 0;
      if (PickGenericObject(event.target, /*needs_data=*/false, &index)) {
        machine.table().At(index).checksum ^= (event.arg | 1u);
        concrete = index;
        applied = true;
      }
      break;
    }
    case InjectionKind::kBusDrop:
    case InjectionKind::kBusDuplicate: {
      Cycles window = event.arg == 0 ? 1 : event.arg;
      machine.bus().SetFaultWindow(machine.now(), machine.now() + window,
                                   event.kind == InjectionKind::kBusDrop);
      applied = true;
      break;
    }
    case InjectionKind::kPowerCut:
      // The driver that owns both the System and the stable device applies the cut: it
      // tears the journal tail at event.arg and destroys the System. The injector only
      // brokers the event so stats and the kInjection trace record stay uniform.
      if (power_cut_hook_) {
        applied = power_cut_hook_(event.arg);
      }
      break;
    case InjectionKind::kKindCount:
      break;
  }

  if (applied) {
    ++stats_.fired;
    ++stats_.per_kind[static_cast<size_t>(event.kind)];
    machine.trace().Emit(TraceEventKind::kInjection, machine.now(), kTraceNoProcessor,
                         kTraceNoProcess, static_cast<uint32_t>(event.kind), concrete,
                         event.arg);
    IMAX_LOG_DEBUG("injector: %s target=%u arg=%u", InjectionKindName(event.kind), concrete,
                   event.arg);
  } else {
    ++stats_.skipped;
  }
  return applied;
}

}  // namespace imax432
