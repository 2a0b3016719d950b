// Host-side layer probes: timed loops of calls into one public function of one layer each,
// run on a warm probe System of their own, outside every end-to-end timing window.

#ifndef IMAX432_PERFBENCH_PROBES_H_
#define IMAX432_PERFBENCH_PROBES_H_

#include "perfbench/harness.h"

namespace imax432::perfbench {

// Median host nanoseconds (thread CPU time) per call over timed batches.
struct ProbeResults {
  double read_data_ns = 0;           // AddressingUnit::ReadData
  double write_data_ns = 0;          // AddressingUnit::WriteData
  double read_ad_ns = 0;             // AddressingUnit::ReadAd
  double write_ad_ns = 0;            // AddressingUnit::WriteAd
  double resolve_ns = 0;             // ObjectTable::Resolve
  double create_destroy_ns = 0;      // MemoryManager::CreateObject + DestroyObject
  double enqueue_dequeue_ns = 0;     // PortSubsystem::Enqueue + Dequeue
  double event_ns = 0;               // EventQueue::ScheduleAfter + RunBounded(1)
  double collect_ns_per_object = 0;  // GarbageCollector::CollectNow / live objects
  double file_ns = 0;                // ObjectStore::File (journaled)
};

// Spends about `budget_s` host seconds in total, split evenly over the ten probes. Each probe
// is recorded as one host span named after the function it times, e.g.
// "AddressingUnit::ReadData" or "PortSubsystem::Enqueue+Dequeue".
ProbeResults RunProbes(double budget_s, HostSpans* spans);

}  // namespace imax432::perfbench

#endif  // IMAX432_PERFBENCH_PROBES_H_
