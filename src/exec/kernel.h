// Kernel: the execution engine tying the emulated hardware together.
//
// This layer is the emulator's equivalent of the 432 processor microcode plus the thin parts
// of iMAX that "complete the model of computation supported in the hardware": it interprets
// instruction streams, runs the implicit hardware algorithms (dispatching at dispatching
// ports, time-slice end, send/receive blocking, inter-domain call/return), creates and
// disposes of the complex objects (processes, contexts, domains), and delivers faults to
// fault ports under the iMAX internal-level rules (§7.3).
//
// All activity happens in virtual time on the Machine's event queue. A processor's step is a
// processor event (no closure); after an instruction that leaves its process running, the
// step goes straight on to the next instruction when that one would be the next event
// anyway, and schedules it otherwise (EventQueue::TryContinueAt). Each GDP keeps one step
// frame holding its bound process's pinned objects and program, from one event to the next,
// and revalidates it at the start of each event. Compute cycles are local to the processor;
// bus cycles are serialized on the shared interconnect.

#ifndef IMAX432_SRC_EXEC_KERNEL_H_
#define IMAX432_SRC_EXEC_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/lifetime/auditor.h"
#include "src/analysis/lifetime/lifetime.h"
#include "src/analysis/races/races.h"
#include "src/analysis/races/sanitizer.h"
#include "src/arch/xlat_cache.h"
#include "src/exec/execution_context.h"
#include "src/ipc/port_subsystem.h"
#include "src/isa/disassembler.h"
#include "src/isa/assembler.h"
#include "src/isa/program.h"
#include "src/isa/program_store.h"
#include "src/memory/memory_manager.h"
#include "src/proc/layouts.h"
#include "src/sim/machine.h"

namespace imax432 {

// Events reported to the registered process-event handler (the basic process manager).
enum class ProcessEvent : uint8_t {
  kTerminated,  // ran to completion (halt or top-level return)
  kFaulted,     // fault delivered (process now at its fault port, or terminated)
  kPanicked,    // faulted below iMAX level 3 — a system design-rule violation
  kStopped,     // left the dispatching mix because its stop count became positive
};

struct ProcessOptions {
  uint8_t priority = 128;
  uint8_t imax_level = kImaxLevelUser;
  uint32_t deadline = 0;
  uint32_t stack_bytes = 16 * 1024;       // context (stack) SRO size
  AccessDescriptor allocation_sro;        // SRO the process object is created from;
                                          // null = global heap (level-0 lifetime)
  AccessDescriptor dispatch_port;         // null = kernel default dispatching port
  AccessDescriptor fault_port;            // null = faults terminate the process
  AccessDescriptor scheduler_port;        // null = no scheduler notifications
  AccessDescriptor parent;                // parent process (process tree)
  AccessDescriptor initial_arg;           // placed in AD register a7 of the first context
  uint64_t initial_value = 0;             // placed in data register r7
};

// What the loader knew when it first loaded an instruction segment: whether CreateProcess
// or CreateDomain loaded it, and the concrete AD CreateProcess placed in a7. The per-program
// summaries are computed from these facts, at load time under verify-on-load and on the
// first whole-system analysis otherwise.
struct LoadFacts {
  ProgramKind kind = ProgramKind::kProcess;
  AccessDescriptor initial_arg;
};

struct KernelStats {
  uint64_t instructions_executed = 0;
  uint64_t dispatches = 0;
  uint64_t time_slice_ends = 0;
  uint64_t blocks = 0;             // processes that blocked at a port
  uint64_t faults_delivered = 0;
  uint64_t panics = 0;             // iMAX-level rule violations
  uint64_t processes_created = 0;
  uint64_t processes_terminated = 0;
  uint64_t domain_calls = 0;
  uint64_t local_calls = 0;
  uint64_t swap_faults = 0;        // kSegmentSwapped transparently serviced
  uint64_t programs_verified = 0;  // programs run through the static verifier at load
  uint64_t programs_rejected = 0;  // programs the verifier refused (kVerificationFailed)
  uint64_t effect_summaries = 0;   // IPC effect summaries computed (verify-on-load + lazy)
  uint64_t lifetime_summaries = 0; // object-lifetime summaries computed alongside them
  uint64_t demotions = 0;          // allocations redirected to a per-context demote SRO
  uint64_t demote_fallbacks = 0;   // demotable sites that fell back to the named SRO
  uint64_t demote_sros_created = 0;     // per-context demote SROs lazily created
  uint64_t demoted_bulk_reclaimed = 0;  // demoted objects bulk-destroyed at context exit
  uint64_t lifetime_violations = 0;     // audit hits (kLifetimeViolation events raised)
  uint64_t processors_retired = 0;   // GDPs permanently halted (fault injection / operator)
  uint64_t processors_stalled = 0;   // transient GDP stalls applied
  uint64_t retirement_requeues = 0;  // in-flight processes rescued from a retired GDP
  uint64_t program_fetches = 0;      // programs a GDP's step frame fetched from the store
};

class Kernel {
 public:
  using ServiceFn = std::function<Result<NativeResult>(ExecutionContext&)>;
  using ProcessEventFn = std::function<void(const AccessDescriptor& process, ProcessEvent)>;
  using RootProviderFn = std::function<void(std::vector<AccessDescriptor>*)>;

  Kernel(Machine* machine, MemoryManager* memory);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Configuration (boot time) ---

  // Adds `count` general data processors dispatching from `dispatch_port` (null = default
  // port). "iMAX is fundamentally a multiprocessor operating system": the rest of the system
  // never knows how many processors exist.
  Status AddProcessors(int count, const AccessDescriptor& dispatch_port = {});

  // Registers an OsCall service. Ids below 1024 are reserved for iMAX packages.
  void RegisterService(uint32_t id, ServiceFn fn);

  // Handler invoked on process lifecycle events (used by the basic process manager).
  void SetProcessEventHandler(ProcessEventFn fn) { process_event_handler_ = std::move(fn); }

  // Registers an additional GC root provider (OS packages holding ADs outside any object).
  void AddRootProvider(RootProviderFn fn) { root_providers_.push_back(std::move(fn)); }

  // When enabled, CreateProcess and CreateDomain run the static capability verifier
  // (src/analysis) over each program before accepting it, and fail with
  // Fault::kVerificationFailed when the verifier proves the program faults. Off by default:
  // runtime checks in the AddressingUnit remain authoritative either way.
  void set_verify_on_load(bool enabled) { verify_on_load_ = enabled; }
  bool verify_on_load() const { return verify_on_load_; }

  // When enabled, create_object at a site the lifetime analysis (lifetime/lifetime.h)
  // proved context-local allocates from a lazily-created per-context demote SRO instead of
  // the program-named SRO, is marked GC-exempt (the collector treats it as permanently
  // black and scans its slots as roots), and is bulk-destroyed when its context returns.
  // Only sites with a recorded summary demote, so this is effective under verify_on_load
  // (summaries are computed at load); cycle charges are identical either way, preserving
  // virtual-time determinism.
  void set_lifetime_demote(bool enabled) { lifetime_demote_ = enabled; }
  bool lifetime_demote() const { return lifetime_demote_; }
  // Capacity of each per-context demote SRO; exhaustion falls back to the named SRO.
  void set_demote_sro_bytes(uint32_t bytes) { demote_sro_bytes_ = bytes; }

  // --- Objects ---

  // Creates a process executing `program`. The process is created stopped (kEmbryo);
  // StartProcess places it in the dispatching mix.
  Result<AccessDescriptor> CreateProcess(ProgramRef program, const ProcessOptions& options);

  // Creates a domain object whose entries are the given instruction segments; `state_slots`
  // extra access slots follow the entries for package state. Returns an AD carrying call
  // rights only — holders can invoke the domain but not inspect its contents, which is the
  // "small protection domain" property.
  Result<AccessDescriptor> CreateDomain(const std::vector<AccessDescriptor>& entries,
                                        uint32_t state_slots = 0);

  // Writes a package-state AD into a domain (boot-time privilege of the package creator).
  Status SetDomainState(const AccessDescriptor& domain, uint32_t state_index,
                        const AccessDescriptor& value);

  // --- Process control (used by the process manager packages) ---

  Status StartProcess(const AccessDescriptor& process);
  // Re-enters a faulted or stopped process into the dispatching mix.
  Status ResumeProcess(const AccessDescriptor& process);
  // Marks a process to be held out of the dispatching mix. A ready process is removed when
  // next dispatched; a running process at its next instruction boundary; a blocked process
  // when it unblocks.
  Status MarkStopped(const AccessDescriptor& process);

  // --- Processor failure (fault injection / graceful degradation) ---

  // Permanently retires a GDP, as if it failed its hardware self-test mid-run. Any process
  // it was executing is rescued at its current instruction boundary and re-queued at its
  // dispatching port, so scheduling degrades gracefully to the survivors ("the rest of the
  // system never knows how many processors exist"). Emits kProcessorRetired.
  // Faults: kNotFound (bad id), kWrongState (already retired).
  Status RetireProcessor(uint16_t processor_id);

  // Transiently stalls a GDP: it executes nothing until now() + duration, then resumes
  // exactly where it was. Models a processor dropped off the interconnect and re-arbitrating.
  Status StallProcessor(uint16_t processor_id, Cycles duration);

  bool processor_retired(int index) const { return processors_[index].halted; }
  // GDPs still participating in dispatching.
  int active_processor_count() const;

  // Host code's send and receive (boot code, devices, tests): the kernel's one send and one
  // receive, as the instructions use them, but never blocking. PostMessage faults with
  // kQueueFull or the port's protection fault when the message was neither handed over nor
  // queued; ReceiveMessage faults with kQueueEmpty.
  Status PostMessage(const AccessDescriptor& port, const AccessDescriptor& message);
  Result<AccessDescriptor> ReceiveMessage(const AccessDescriptor& port);

  // --- Running ---

  // Runs until no event remains (all processes terminated, blocked forever, or stopped).
  void Run() { machine_->events().RunUntilIdle(); }
  // Runs events up to the given virtual time.
  void RunUntil(Cycles deadline) { machine_->events().RunUntil(deadline); }
  // Runs at most `max_steps` events and inline-continued instructions; returns the number of
  // events popped.
  uint64_t RunBounded(uint64_t max_steps) { return machine_->events().RunBounded(max_steps); }
  Cycles now() const { return machine_->now(); }

  // --- Introspection ---

  Machine& machine() { return *machine_; }
  MemoryManager& memory() { return *memory_; }
  PortSubsystem& ports() { return ports_; }
  ProgramStore& programs() { return programs_; }
  AccessDescriptor default_dispatch_port() const { return default_dispatch_port_; }
  const KernelStats& stats() const { return stats_; }
  int processor_count() const { return static_cast<int>(processors_.size()); }
  AccessDescriptor processor_object(int index) const { return processors_[index].object; }

  // --- Whole-system IPC analysis (src/analysis/deadlock.h) ---

  // Runs the static deadlock/orphan/starvation analysis over every registered program plus
  // the kernel's concrete port topology. Under verify_on_load the per-program summaries are
  // maintained incrementally as programs register; otherwise (or for programs loaded while
  // verification was off) missing summaries are computed here on demand.
  analysis::SystemAnalysisReport AnalyzeSystem();

  // Runs the static data-race analysis (src/analysis/races/races.h) over the same
  // incrementally-maintained summaries, completing any missing ones first exactly like
  // AnalyzeSystem.
  analysis::RaceAnalysisReport AnalyzeRaces();

  // Runs the whole-system object-lifetime analysis (src/analysis/lifetime/lifetime.h) over
  // the same incrementally-maintained summaries, completing any missing ones first exactly
  // like AnalyzeSystem.
  analysis::LifetimeAnalysisReport AnalyzeLifetimes();

  // The incrementally-maintained summary store. Tests and tools may mark additional
  // external senders/receivers before calling AnalyzeSystem().
  analysis::SystemEffectGraph& effect_graph() { return effect_graph_; }

  // Per-segment lifetime summaries, maintained alongside the effect graph.
  const std::map<ObjectIndex, analysis::LifetimeSummary>& lifetime_summaries() const {
    return lifetime_summaries_;
  }

  // How `segment` was first loaded; a segment no CreateProcess or CreateDomain loaded
  // reads as a process with an unknown argument.
  LoadFacts load_facts(ObjectIndex segment) const {
    auto it = load_facts_.find(segment);
    return it != load_facts_.end() ? it->second : LoadFacts{};
  }

  // Drops all analysis state for a reclaimed or replaced instruction segment (summary + load
  // facts + its diagnostic name + lifetime summary and demotable-site set). Called by the GC
  // reclaim observer and the ProgramStore replace hook.
  void ForgetProgramAnalysis(ObjectIndex segment) {
    effect_graph_.RemoveProgram(segment);
    load_facts_.erase(segment);
    symbols_.Forget(segment);
    lifetime_summaries_.erase(segment);
    demotable_sites_.erase(segment);
  }

  // Turns on the dynamic race sanitizer (analysis/races/sanitizer.h). Pure observer: no
  // virtual-time effect; findings surface as kRaceDetected trace events and via races().
  void EnableRaceSanitizer() {
    if (race_sanitizer_ == nullptr) {
      race_sanitizer_ = std::make_unique<analysis::RaceSanitizer>();
    }
  }
  analysis::RaceSanitizer* race_sanitizer() { return race_sanitizer_.get(); }

  // Turns on the dynamic lifetime auditor (analysis/lifetime/auditor.h): every demoted
  // object is checked to be unreferenced from outside its population at scope exit. Pure
  // observer; findings surface as kLifetimeViolation trace events and via violations().
  void EnableLifetimeAuditor() {
    if (lifetime_auditor_ == nullptr) {
      lifetime_auditor_ = std::make_unique<analysis::LifetimeAuditor>();
    }
  }
  analysis::LifetimeAuditor* lifetime_auditor() { return lifetime_auditor_.get(); }

  // Hit/miss counters of the addressing unit's translation cache, which every processor's
  // accesses go through.
  const XlatCacheStats& xlat_stats() const { return machine_->addressing().xlat().stats(); }

  // Object names used by analysis diagnostics and annotated disassembly. Name ports before
  // the programs using them load: summaries render their disassembly at registration time.
  SymbolTable& symbols() { return symbols_; }

  // Sum of busy cycles over all processors (for utilization metrics).
  Cycles TotalBusyCycles() const;

  // Collects the full GC root set: processor objects, the default dispatching port, shadow
  // roots from the port subsystem, and registered providers.
  void AppendRoots(std::vector<AccessDescriptor>* roots) const;

  // Process helpers shared with OS packages.
  ProcessView process_view(const AccessDescriptor& process) {
    return ProcessView(&machine_->addressing(), process);
  }
  // Makes a ready process runnable: direct handoff to an idle processor, else queue at its
  // dispatching port. Host APIs that return its Status call it; wakers use Wake.
  Status MakeReady(const AccessDescriptor& process);
  // The one wake-up rule, after a transfer, a slice end, a yield, a GDP retirement or a
  // scheduler's admission: MakeReady, whose fault (user code can point its dispatch-port slot
  // at a non-port, or the port can be full) the woken process takes, never its waker. True
  // when it is back in the mix.
  bool Wake(const AccessDescriptor& process);

 private:
  struct ProcessorRec {
    uint16_t id = 0;
    AccessDescriptor object;
    AccessDescriptor dispatch_port;
    AccessDescriptor current;     // current process (mirror of the object slot)
    Cycles idle_since = 0;
    bool waiting = false;         // queued at the dispatching port as an idle receiver
    bool halted = false;
    Cycles stall_until = 0;       // transient stall: no execution before this time
  };

  // Outcome of one interpreted instruction.
  struct StepEffect {
    enum class Kind : uint8_t { kContinue, kBlocked, kTerminated, kYield };
    Kind kind = Kind::kContinue;
    Cycles compute = 0;
    Cycles bus = 0;
  };

  // A GDP's bound process's objects, the descriptors the 432 kept on chip: the pinned process
  // view, the pinned processor view, the pinned view of the process's current context, and
  // the program that context executes, with the segment AD it was fetched through, that
  // segment's descriptor and the descriptor's data_epoch at the fetch. The frame is the only
  // place a program is cached. One per GDP, kept from one event to the next. Another GDP,
  // the collector, the patrol, the fault injector or host code may act between two events,
  // so each event reuses the frame only while every pinned view still passes the checks a
  // new pin makes; otherwise it starts from an empty frame, which the first instruction
  // builds (DESIGN.md §10).
  struct StepFrame {
    ProcessView proc;
    ObjectView processor;
    ContextView ctx;
    const Program* program = nullptr;
    AccessDescriptor segment;
    const ObjectDescriptor* segment_descriptor = nullptr;
    uint32_t segment_epoch = 0;

    bool PinsHold() const { return proc.PinHolds() && processor.PinHolds() && ctx.PinHolds(); }
  };

  // Runs the process bound to the processor: one instruction, then each following one that
  // would be the next event anyway (EventQueue::TryContinueAt); otherwise schedules itself.
  // The GDP's StepFrame is copied in from frames_, emptied unless its pins still hold, shared
  // by every instruction of the event and copied back out (a step may grow frames_ through a
  // service or handler that adds processors).
  void ProcessorStep(uint16_t processor_id);
  // One instruction. An empty frame is built here; every instruction revalidates the frame:
  // a different bound process rebuilds it, a different context AD in the process's context
  // slot re-pins the context and refetches the program, and the program is refetched unless
  // the context's instruction-segment slot still holds the AD it was fetched through, that
  // segment is still live and its data_epoch has not moved (ProgramStore::Replace moves it).
  // Returns true, with its completion time in `*next`, when the process goes on to its next
  // instruction here: a kContinue step inside the time slice. Otherwise the step has already
  // scheduled whatever comes next.
  bool StepInstruction(uint16_t processor_id, StepFrame& frame, Cycles* next);
  // Raises `fault` on the process and has the processor look for other work after the
  // fault-recovery charge.
  void FaultAndFetch(uint16_t processor_id, ProcessView& proc, Fault fault);
  // Tries to bind the next ready process; goes idle if none.
  void ProcessorFetch(uint16_t processor_id);
  // True when an AD dequeued from a dispatching port names a process BindProcess can bind:
  // it resolves to an unquarantined process object in the ready state, and carries the read
  // and write rights BindProcess uses. Anything else is skipped: a stale AD (a queued
  // local-lifetime process whose ancestral SRO died), a quarantined process (its state can
  // no longer be read), and whatever a process holding its own process AD sent to its
  // dispatching port by hand, such as a non-process object or itself while running.
  bool Dispatchable(const AccessDescriptor& ad) const;
  // Schedule the processor's step or fetch as a processor event, whose argument is the
  // processor id shifted left one bit, plus one for a fetch (the handler the constructor
  // installs decodes it).
  void ScheduleStep(Cycles when, uint16_t processor_id) {
    machine_->events().ScheduleProcessorAt(when, uint32_t{processor_id} << 1);
  }
  void ScheduleFetch(Cycles when, uint16_t processor_id) {
    machine_->events().ScheduleProcessorAt(when, uint32_t{processor_id} << 1 | 1);
  }
  // Binds `process` to the processor and schedules its first step after dispatch latency.
  void BindProcess(ProcessorRec& rec, const AccessDescriptor& process);

  Result<StepEffect> Execute(ProcessorRec& rec, ProcessView& proc, ContextView& ctx,
                             const Program& program, const Instruction& instruction);

  // Send/receive bodies shared by the blocking, conditional and native forms. `cpu` is the
  // executing processor, for the event trace.
  Result<StepEffect> DoSend(uint16_t cpu, ProcessView& proc, const AccessDescriptor& port_ad,
                            const AccessDescriptor& message, bool can_block);
  Result<StepEffect> DoReceive(uint16_t cpu, ProcessView& proc, ContextView& ctx,
                               uint8_t dest_adreg, const AccessDescriptor& port_ad,
                               bool can_block);

  // The one send: hands `message` to the first process blocked receiving at `port`, which
  // wakes, or else queues it. `sender` runs on GDP `cpu`, or is null for host code, which
  // queues at priority 128, deadline 0 and is seen only by the span tracer (its handoff is
  // untraced). A receiver whose register store faults takes the fault, and the send is done.
  // Faults with kQueueFull or the port's protection fault when the message was neither
  // handed over nor queued.
  Status Deliver(const AccessDescriptor& port, const AccessDescriptor& message,
                 ProcessView* sender, uint16_t cpu);
  // The one receive: dequeues the next message at `port` into AD register `dest_adreg` of
  // `ctx` for `receiver` (both null for host code), then admits the port's blocked senders
  // in order until one's message is queued; a sender whose message the port refuses takes
  // that fault. A sender leaves the blocked queue only once its send is done or refused.
  // Faults with kQueueEmpty when nothing is queued.
  Result<AccessDescriptor> Take(const AccessDescriptor& port, ProcessView* receiver,
                                ContextView* ctx, uint8_t dest_adreg);
  // The blocking tail of DoSend and DoReceive: marks the process blocked, bumps its epoch,
  // opens its port wait and emits the trace event. Returns `effect` plus the blocking charge.
  StepEffect Block(uint16_t cpu, ProcessView& proc, const AccessDescriptor& port_ad,
                   bool is_send, StepEffect effect);

  // Call/return machinery.
  Result<StepEffect> DoCall(uint16_t cpu, ProcessView& proc, ContextView& ctx,
                            const AccessDescriptor& domain_ad, uint32_t entry);
  Result<StepEffect> DoReturn(uint16_t cpu, ProcessView& proc, ContextView& ctx);
  Result<AccessDescriptor> CreateContext(ProcessView& proc, const AccessDescriptor& segment,
                                         const AccessDescriptor& domain,
                                         const AccessDescriptor& caller, Level level);

  // Forwards one accepted object access to the race sanitizer (no-op when off); a fresh
  // finding is surfaced as a kRaceDetected trace event on the spot.
  void NoteAccess(uint16_t cpu, ProcessView& proc, ContextView& ctx, ObjectIndex object,
                  analysis::ObjectPart part, analysis::AccessKind kind);

  // True when `ad` resolves to a live context object. User code holding a process AD can
  // destroy that process's contexts, so the step frame and DoReturn check before use.
  bool IsLiveContext(const AccessDescriptor& ad) const;

  // Fault delivery per the iMAX internal-level rules.
  void RaiseFault(ProcessView& proc, Fault fault);
  // Finalization of a finished process (reclaims the context stack).
  void TerminateProcess(ProcessView& proc, bool faulted);

  void NotifyEvent(const AccessDescriptor& process, ProcessEvent event);

  // Computes summaries for any program registered while verify-on-load was off (shared by
  // AnalyzeSystem, AnalyzeRaces and AnalyzeLifetimes).
  void EnsureSummaries();

  // Files the load facts of `segment` unless an earlier load already did (the first load
  // wins), and under verify-on-load summarizes the program at once.
  void NoteLoad(const AccessDescriptor& segment, const LoadFacts& facts);

  // Runs the AD-flow pass (analysis/effects.h) over the program from its load facts and
  // stores both halves: the IPC effect summary in the effect graph, and the lifetime summary
  // with its demotable-site set (lifetime/lifetime.h).
  void RecordEffectSummary(ObjectIndex segment, const Program& program);

  // True when the create_object at (segment, pc) was proven context-local.
  bool IsDemotableSite(ObjectIndex segment, uint32_t pc) const;

  // The context's demote SRO, lazily created from the global heap at context level + 1
  // (null AD when creation failed; callers fall back to the named SRO).
  AccessDescriptor DemoteSroFor(ContextView& ctx, Level context_level);

  // Audits (when the auditor is on) and bulk-destroys the context's demote SRO, if any.
  // `cpu` attributes the kLifetimeViolation trace events. Returns the number of demoted
  // objects bulk-reclaimed (0 when the context never demoted an allocation).
  uint32_t ReclaimDemoteSro(uint16_t cpu, ProcessView& proc, ContextView& ctx);

  // Charges `compute` + `bus` starting at now(); returns completion time. The cycles are
  // added to the frame's process (consumed, slice used) and processor (busy) through their
  // pinned views. `bucket` names the attribution bin the compute portion lands in when the
  // profiler or span tracer is armed (bus wait/transfer split out automatically via
  // BusGrant).
  Cycles ChargeCycles(uint16_t cpu, StepFrame& frame, Cycles compute, Cycles bus,
                      CycleBucket bucket = CycleBucket::kInterpreter);

  Machine* machine_;
  MemoryManager* memory_;
  PortSubsystem ports_;
  ProgramStore programs_;
  std::vector<ProcessorRec> processors_;
  std::vector<StepFrame> frames_;  // each GDP's step frame, between its step events
  std::map<uint32_t, ServiceFn> services_;
  ProcessEventFn process_event_handler_;
  std::vector<RootProviderFn> root_providers_;
  AccessDescriptor default_dispatch_port_;
  KernelStats stats_;
  bool verify_on_load_ = false;
  analysis::SystemEffectGraph effect_graph_;
  std::map<ObjectIndex, LoadFacts> load_facts_;  // segment -> how it was first loaded
  SymbolTable symbols_;
  std::unique_ptr<analysis::RaceSanitizer> race_sanitizer_;
  std::unique_ptr<analysis::LifetimeAuditor> lifetime_auditor_;
  bool lifetime_demote_ = false;
  uint32_t demote_sro_bytes_ = 16 * 1024;
  std::map<ObjectIndex, analysis::LifetimeSummary> lifetime_summaries_;
  std::map<ObjectIndex, std::set<uint32_t>> demotable_sites_;  // segment -> demotable pcs

  // Observability bookkeeping (src/obs): open port waits keyed by process index and open
  // domain-call residences keyed by callee context index. Opened in Block / DoCall, closed in
  // MakeReady / DoReturn; reaped on fault and termination so a reused object index can never
  // pair a stale start with a fresh end.
  struct BlockWait {
    Cycles start = 0;
    ObjectIndex port = kInvalidObjectIndex;
    bool is_send = false;  // blocked sender waits sit on the request's critical path;
                           // a receiver's pre-arrival wait does not
  };
  std::map<ObjectIndex, BlockWait> block_waits_;
  std::map<ObjectIndex, Cycles> call_starts_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_EXEC_KERNEL_H_
