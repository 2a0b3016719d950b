// Introspection: system census and utilization reporting.
//
// The capability discipline makes *global* inquiries deliberately hard for ordinary software
// (§7.1: "the process manager does not know what all the processes in the system are... it
// is a convenient tenet of the capability approach to protection that they should not" be
// answerable). The object *table*, however, is hardware state, and the 432's debug and
// maintenance tools could walk it. This package is that maintenance view: a privileged,
// read-only census over the descriptor table and the processor objects, for operators,
// examples and benchmarks — not an API that packages can use to find each other's objects
// (it returns aggregate numbers, never ADs).

#ifndef IMAX432_SRC_OS_INTROSPECTION_H_
#define IMAX432_SRC_OS_INTROSPECTION_H_

#include <cstdint>
#include <string>

#include "src/exec/kernel.h"
#include "src/gc/collector.h"

namespace imax432 {

struct ObjectCensus {
  uint32_t live_objects = 0;
  uint32_t table_capacity = 0;
  uint32_t count_by_type[kNumSystemTypes] = {};
  uint64_t data_bytes_by_type[kNumSystemTypes] = {};
  uint32_t swapped_out = 0;
  uint32_t user_typed = 0;            // objects minted through a TDO
  uint64_t total_data_bytes = 0;
  uint64_t total_access_slots = 0;
  uint32_t max_level = 0;
};

struct ProcessorReport {
  uint16_t id = 0;
  ProcessorState state = ProcessorState::kIdle;
  uint64_t busy_cycles = 0;
  uint64_t idle_cycles = 0;
  uint64_t dispatches = 0;
  double utilization = 0.0;           // busy / now
};

struct SystemReport {
  Cycles now = 0;
  ObjectCensus census;
  std::vector<ProcessorReport> processors;
  double bus_utilization = 0.0;
  KernelStats kernel;
  MemoryStats memory;
  PortStats ports;
  // Optional section, filled when a collector is attached to the monitor.
  bool has_gc = false;
  GcStats gc;
};

class Introspection {
 public:
  explicit Introspection(Kernel* kernel) : kernel_(kernel) {}

  // The kernel does not know whether the system assembled a collector on top of it;
  // attaching one here adds its counters to subsequent Report() calls. The pointer must
  // outlive the monitor.
  void AttachGc(const GarbageCollector* gc) { gc_ = gc; }

  ObjectCensus TakeCensus() const;
  SystemReport Report() const;

  // Renders a report as a human-readable multi-line string (used by examples).
  static std::string Format(const SystemReport& report);

 private:
  Kernel* kernel_;
  const GarbageCollector* gc_ = nullptr;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OS_INTROSPECTION_H_
