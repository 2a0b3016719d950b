// The benchmark's three workloads. Each one generates its inputs from the seed once, then
// any number of times: configures a fresh System, loads its programs and inputs, drives the
// system to quiescence, and checks every output against a host-side model of the inputs.

#ifndef IMAX432_PERFBENCH_WORKLOADS_H_
#define IMAX432_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace imax432::perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Operations one run attempts (each one is stamped at issue and completion).
  virtual uint64_t ops() const = 0;

  // The System configuration, called once per run before the System is built (a workload
  // may create per-run devices here that must outlive the System). The run loop adds the
  // translation cache and, for the traced run, the observers.
  virtual SystemConfig Config() = 0;

  // Program assembly, domain creation, input carriers and spawns. Registers the op-log
  // services. Runs inside the timed set-up window.
  virtual void Load(System& system, OpLog* log, HostSpans* spans) = 0;

  // Host action at each run-loop tick of `tick_cycles` virtual cycles while operations are
  // outstanding (the GC request schedule).
  virtual Cycles tick_cycles() const = 0;
  virtual void OnTick(System& system, HostSpans* spans) {
    (void)system;
    (void)spans;
  }

  // Checks outputs after quiescence; returns the number of failed checks, and prints one
  // line per failure to stderr.
  virtual uint64_t Verify(System& system, const OpLog& log) = 0;
};

// Known workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace imax432::perfbench

#endif  // IMAX432_PERFBENCH_WORKLOADS_H_
