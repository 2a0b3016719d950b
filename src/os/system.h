// System: the assembled iMAX-432 system — the library's top-level entry point.
//
// Construction is system initialization: it boots the storage system (choosing one of the
// two memory-manager implementations behind the common specification, §6.2), brings the
// configured number of general data processors online, starts the garbage-collector daemon,
// and wires the destruction-filter and subsystem-cleanup plumbing. Everything a user program
// needs is reachable from here; the individual packages (ports, process manager, type
// manager, schedulers, devices) can also be used à la carte, which is the configurability
// philosophy of §6: "The system is configured by selecting those packages that provide the
// facilities needed in a particular application."

#ifndef IMAX432_SRC_OS_SYSTEM_H_
#define IMAX432_SRC_OS_SYSTEM_H_

#include <memory>

#include "src/exec/kernel.h"
#include "src/filing/object_store.h"
#include "src/filing/stable_store.h"
#include "src/gc/collector.h"
#include "src/memory/basic_memory_manager.h"
#include "src/memory/swapping_memory_manager.h"
#include "src/os/patrol.h"
#include "src/os/ports_api.h"
#include "src/os/process_manager.h"
#include "src/os/type_manager.h"

namespace imax432 {

enum class MemoryManagerKind : uint8_t {
  kNonSwapping,  // first iMAX release
  kSwapping,     // second release
};

struct SystemConfig {
  MachineConfig machine;
  int processors = 2;
  MemoryManagerKind memory_manager = MemoryManagerKind::kNonSwapping;
  bool start_gc_daemon = true;
  uint32_t gc_units_per_step = 512;
  // Arm the lost-process recovery filter ("The first release of iMAX uses this facility
  // only to recover lost process objects"). Recovered process objects appear at
  // lost_process_port().
  bool recover_lost_processes = false;
  // Run the static capability verifier (src/analysis) over every program loaded through
  // CreateProcess / CreateDomain; provably-faulting programs are rejected with
  // Fault::kVerificationFailed instead of being dispatched.
  bool verify_on_load = false;
  // Record cycle-timestamped kernel events (dispatches, port traffic, allocations, GC
  // phases, ...) into the machine's TraceRecorder ring, and route kTrace-level log lines
  // into its annotation channel. Export with ExportChromeTrace (src/obs/perfetto.h) or the
  // imax_trace tool. Off by default: the disabled hooks cost one predicted branch each.
  bool trace = false;
  uint32_t trace_capacity = TraceRecorder::kDefaultCapacity;
  // Run the dynamic data-race sanitizer (src/analysis/races/sanitizer.h): vector clocks
  // over port transfers, checked at every data / access-part touch. Findings surface as
  // kRaceDetected trace events and via kernel().race_sanitizer()->races(). Pure observer:
  // the simulated timeline is bit-identical with it on or off.
  bool race_sanitize = false;
  // Start the object-table patrol daemon (src/os/patrol.h): a low-priority process that
  // validates descriptor checksums, level invariants and data-part CRCs, quarantining
  // corrupt objects. Request sweeps via patrol_request_port(); synchronous sweeps via
  // patrol().SweepNow(). Off by default — the patrol only earns its cycles when faults are
  // being injected (or real corruption is suspected).
  bool start_patrol_daemon = false;
  // GC-load demotion (src/analysis/lifetime): allocations the static lifetime analysis
  // proves context-local are taken from a per-context demote SRO, marked GC-exempt (the
  // collector never traces or sweeps them), and bulk-destroyed at context exit. Requires
  // verify_on_load — without program summaries no site is ever demotable, so the flag is
  // inert. Cycle charges are identical on both allocation paths; the simulated timeline is
  // deterministic per configuration.
  bool lifetime_demote = false;
  // Dynamic cross-check for the demotion verdicts (src/analysis/lifetime/auditor.h): at
  // every demote-SRO bulk destroy, flat-scan the live object table for surviving references
  // into the doomed population. Escapes raise kLifetimeViolation trace events and count in
  // kernel().stats().lifetime_violations. Pure observer: bit-identical timeline on or off.
  bool lifetime_audit = false;
  uint32_t demote_sro_bytes = 16 * 1024;

  // Cycle-attribution profiler (src/obs/profiler.h): bin every virtual cycle of every GDP
  // into a CycleBucket, plus a deterministic 1-in-64 hot-site sample of interpreter dispatch
  // (machine().profiler().Enable(N) before Run picks another period). Pure observer: zero
  // cycle charges, bit-identical virtual time (and replay fingerprint) on or off.
  bool profile = false;
  // Causal span tracing (src/obs/span.h): Dapper-style request trees over port sends,
  // direct handoffs, domain calls and process spawns. Pure observer, same guarantee.
  bool span_trace = false;

  // Stable device backing the filing system's write-ahead journal (src/filing/journal.h).
  // Non-owned: the device outlives the System — that is the whole point. A crash-restart
  // driver hands the same StableStore to successive Systems; each boot replays the journal
  // into filing() before anything else runs (recovery status at filing_recovery_status()).
  // Null leaves filing() purely in-memory, the pre-journal behaviour.
  StableStore* stable_store = nullptr;
  // Journaled mutations between automatic checkpoint compactions (0 = never compact
  // automatically).
  uint32_t filing_checkpoint_interval = 64;
};

class System {
 public:
  explicit System(const SystemConfig& config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- Component access ---
  Machine& machine() { return machine_; }
  MemoryManager& memory() { return *memory_; }
  Kernel& kernel() { return *kernel_; }
  GarbageCollector& gc() { return *gc_; }
  ObjectPatrol& patrol() { return *patrol_; }
  TypeManagerFacility& types() { return *types_; }
  BasicProcessManager& process_manager() { return *process_manager_; }
  UntypedPorts& ports() { return *ports_api_; }
  ObjectStore& filing() { return *filing_; }
  // Null unless a stable_store was configured.
  Journal* journal() { return journal_.get(); }
  // Outcome of the boot-time journal replay (Ok when no stable_store is configured; an
  // unreadable device yields kDeviceError and an empty store, never a boot panic).
  Status filing_recovery_status() const { return filing_recovery_status_; }

  // --- Conveniences ---

  // Creates and starts a user process in one step (null scheduling policy).
  Result<AccessDescriptor> Spawn(ProgramRef program, const ProcessOptions& options = {});

  // Requests one garbage collection cycle from the daemon and returns immediately; the
  // cycle runs in virtual time. (Use gc().CollectNow() for a synchronous host-side cycle.)
  Status RequestCollection();

  // Runs the machine until no event remains.
  void Run() { kernel_->Run(); }
  void RunUntil(Cycles deadline) { kernel_->RunUntil(deadline); }
  Cycles now() const { return machine_.now(); }

  // Where recovered lost processes arrive (null unless configured).
  AccessDescriptor lost_process_port() const { return lost_process_port_; }
  AccessDescriptor gc_request_port() const { return gc_request_port_; }
  AccessDescriptor patrol_request_port() const { return patrol_request_port_; }

  // Requests one patrol sweep from the daemon (kWrongState unless it was started).
  Status RequestPatrolSweep();

 private:
  // Trampoline handed to SetTraceLogSink: lands kTrace log lines in the machine's trace.
  static void TraceLogThunk(void* user, const char* message);

  MachineConfig machine_config_;
  Machine machine_;
  std::unique_ptr<MemoryManager> memory_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<GarbageCollector> gc_;
  std::unique_ptr<ObjectPatrol> patrol_;
  std::unique_ptr<TypeManagerFacility> types_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<ObjectStore> filing_;
  Status filing_recovery_status_;
  std::unique_ptr<BasicProcessManager> process_manager_;
  std::unique_ptr<UntypedPorts> ports_api_;
  AccessDescriptor gc_request_port_;
  AccessDescriptor patrol_request_port_;
  AccessDescriptor lost_process_port_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OS_SYSTEM_H_
