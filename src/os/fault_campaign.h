// Seeded fault-injection campaign: the replay contract of the injection harness (§8).
//
// RunFaultCampaign boots a swapping-memory System with the patrol daemon and the recovery
// fault service, spawns a fleet of service-level workers whose faults are delivered to that
// service, arms a seeded injection schedule, schedules periodic GC and patrol sweeps, and
// runs the machine to quiescence. The campaign is a pure function of its arguments: the
// same seed, event count, horizon and configuration end at the same virtual cycle with the
// same trace fingerprint, in one process or across processes. `imax_trace --inject` and the
// `faults` ctest suite run this one campaign; the crash-restart campaign
// (src/filing/crash_campaign.h) partitions its schedule at power cuts around its own
// workload.

#ifndef IMAX432_SRC_OS_FAULT_CAMPAIGN_H_
#define IMAX432_SRC_OS_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/os/fault_service.h"
#include "src/os/system.h"
#include "src/sim/fault_injector.h"

namespace imax432 {

struct FaultCampaignResult {
  // The finished System: run to quiescence, then swept once more by the patrol.
  std::unique_ptr<System> system;
  // The campaign's recovery service. Its daemon is a process of `system` whose native step
  // calls back into this object, so the service lives exactly as long as the System.
  std::unique_ptr<FaultService> fault_service;
  std::vector<InjectionEvent> schedule;
  InjectorStats injector;
  // Byte-wise FNV-1a over every event left in the trace ring: the replay fingerprint.
  uint64_t fingerprint = 0;
};

// Runs `events` injections drawn from `seed` over [0, horizon). `config` supplies the
// processor count, the trace capacity and the observer and demotion switches; the campaign
// sets the memory size, the swapping manager, tracing and the patrol daemon itself.
FaultCampaignResult RunFaultCampaign(uint64_t seed, uint32_t events, Cycles horizon,
                                     SystemConfig config);

}  // namespace imax432

#endif  // IMAX432_SRC_OS_FAULT_CAMPAIGN_H_
