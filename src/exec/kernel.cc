#include "src/exec/kernel.h"

#include "src/analysis/effects.h"
#include "src/analysis/verifier.h"
#include "src/base/check.h"
#include "src/base/log.h"

namespace imax432 {

namespace {

constexpr uint16_t kDefaultDispatchCapacity = 1024;

bool ValidReg(uint8_t r) { return r < kNumDataRegs; }
bool ValidAdReg(uint8_t r) { return r < kNumAdRegs; }

// Abstract value the verifier should assume for an AD handed to a fresh program (the initial
// argument in a7). Resolving the descriptor turns the loader's concrete knowledge — type,
// rights, level, sizes — into seeded facts, which makes load-time verification strictly
// stronger than analyzing the program in a vacuum.
analysis::AdAbstract AbstractFromAd(ObjectTable& table, const AccessDescriptor& ad) {
  if (ad.is_null()) {
    return analysis::AdAbstract::Null();
  }
  auto descriptor = table.Resolve(ad);
  if (!descriptor.ok()) {
    return analysis::AdAbstract::Unknown();
  }
  return analysis::AdAbstract::Object(descriptor.value()->type, ad.rights(),
                                      analysis::LevelRange::Exact(descriptor.value()->level),
                                      descriptor.value()->data_length,
                                      descriptor.value()->access_count());
}

}  // namespace

ProcessView ExecutionContext::process() const {
  return ProcessView(&kernel_->machine().addressing(), process_);
}

ContextView ExecutionContext::context() const {
  return ContextView(&kernel_->machine().addressing(), context_);
}

Kernel::Kernel(Machine* machine, MemoryManager* memory)
    : machine_(machine),
      memory_(memory),
      ports_(machine, memory),
      programs_(machine, memory) {
  auto port = ports_.CreatePort(memory_->global_heap(), kDefaultDispatchCapacity,
                                QueueDiscipline::kPriority);
  IMAX_CHECK(port.ok());
  default_dispatch_port_ = port.value();
  // Dispatching traffic is kernel machinery, not program-level IPC: the dispatcher both
  // feeds and drains this port, so it never starves or orphans.
  effect_graph_.MarkExternalSender(default_dispatch_port_.index());
  effect_graph_.MarkExternalReceiver(default_dispatch_port_.index());
  effect_graph_.set_symbols(&symbols_);
  machine_->events().SetProcessorHandler([this](uint32_t arg) {
    const uint16_t processor_id = static_cast<uint16_t>(arg >> 1);
    if ((arg & 1) != 0) {
      ProcessorFetch(processor_id);
    } else {
      ProcessorStep(processor_id);
    }
  });

  // Hot-patching a segment (ProgramStore::Replace) invalidates every summary computed for
  // the old code.
  programs_.SetReplaceHook([this](ObjectIndex segment) { ForgetProgramAnalysis(segment); });

  RegisterService(os_service::kYield, [](ExecutionContext&) -> Result<NativeResult> {
    NativeResult r;
    r.action = NativeResult::Action::kYield;
    return r;
  });
  RegisterService(os_service::kGetTime, [this](ExecutionContext& env) -> Result<NativeResult> {
    env.set_reg(kArgReg, machine_->now());
    return NativeResult{};
  });
  RegisterService(os_service::kSetPriority, [](ExecutionContext& env) -> Result<NativeResult> {
    env.process().set_priority(static_cast<uint8_t>(env.reg(kArgReg)));
    return NativeResult{};
  });
  RegisterService(os_service::kSetDeadline, [](ExecutionContext& env) -> Result<NativeResult> {
    env.process().set_deadline(static_cast<uint32_t>(env.reg(kArgReg)));
    return NativeResult{};
  });
  RegisterService(os_service::kTimedReceive,
                  [this](ExecutionContext& env) -> Result<NativeResult> {
    AccessDescriptor wait_port = env.ad_reg(kArgAdReg);
    Cycles timeout = env.reg(kArgReg);
    AccessDescriptor process = env.process_ad();

    NativeResult r;
    r.action = NativeResult::Action::kBlockReceive;
    r.port = wait_port;
    r.dest_adreg = kArgAdReg;

    // Arm the watchdog. It bites only if the process is still inside the blocking episode
    // the receive below opens: DoReceive bumps the block epoch when (and only when) it
    // actually blocks, so an immediately-satisfied receive, or any later re-block, leaves
    // the timer a no-op.
    uint32_t epoch = process_view(process).block_epoch() + 1;
    machine_->events().ScheduleAfter(timeout, [this, process, wait_port, epoch] {
      if (!Readable(process)) {
        return;
      }
      ProcessView proc = process_view(process);
      if (proc.state() != ProcessState::kBlocked || proc.block_epoch() != epoch) {
        return;
      }
      if (!ports_.RemoveBlockedReceiver(wait_port, process).ok()) {
        return;  // a message won the race
      }
      RaiseFault(proc, Fault::kTimeout);
    });
    return r;
  });
}

Status Kernel::AddProcessors(int count, const AccessDescriptor& dispatch_port) {
  AccessDescriptor port = dispatch_port.is_null() ? default_dispatch_port_ : dispatch_port;
  effect_graph_.MarkExternalSender(port.index());
  effect_graph_.MarkExternalReceiver(port.index());
  for (int i = 0; i < count; ++i) {
    IMAX_ASSIGN_OR_RETURN(
        AccessDescriptor object,
        memory_->CreateObject(memory_->global_heap(), SystemType::kProcessor,
                              ProcessorLayout::kDataBytes, ProcessorLayout::kAccessSlots,
                              rights::kRead | rights::kWrite));
    uint16_t id = static_cast<uint16_t>(processors_.size());
    ObjectView view(&machine_->addressing(), object);
    view.SetField(ProcessorLayout::kOffId, 2, id);
    view.SetField(ProcessorLayout::kOffState, 1,
                  static_cast<uint64_t>(ProcessorState::kIdle));
    view.SetSlot(ProcessorLayout::kSlotDispatchPort, port);

    processors_.push_back(ProcessorRec{id, object, port, AccessDescriptor(), machine_->now(),
                                       false, false, 0});
    frames_.emplace_back();
    machine_->profiler().OnProcessorAdded(id, machine_->now());
    // The processor comes online and immediately looks for work.
    ScheduleFetch(machine_->now(), id);
  }
  return Status::Ok();
}

void Kernel::RegisterService(uint32_t id, ServiceFn fn) { services_[id] = std::move(fn); }

Result<AccessDescriptor> Kernel::CreateProcess(ProgramRef program,
                                               const ProcessOptions& options) {
  AccessDescriptor sro =
      options.allocation_sro.is_null() ? memory_->global_heap() : options.allocation_sro;
  IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* sro_descriptor, machine_->table().Resolve(sro));
  Level base_level = sro_descriptor->level;

  if (verify_on_load_) {
    analysis::VerifyOptions verify_options;
    verify_options.entry = ProgramKind::kProcess;
    // The initial context executes one level below the process ("contexts live one level
    // below the process"), and the loader knows exactly what lands in a7.
    verify_options.entry_level = static_cast<uint32_t>(base_level + 1);
    verify_options.initial_arg = AbstractFromAd(machine_->table(), options.initial_arg);
    analysis::VerifyResult verdict = analysis::Verifier::Verify(*program, verify_options);
    ++stats_.programs_verified;
    if (!verdict.ok()) {
      ++stats_.programs_rejected;
      IMAX_LOG_INFO("kernel: verifier rejected process program:\n%s",
                    analysis::FormatDiagnostics(*program, verdict).c_str());
      return Fault::kVerificationFailed;
    }
  }

  IMAX_ASSIGN_OR_RETURN(AccessDescriptor segment, programs_.Register(std::move(program)));
  // The concrete initial argument is what makes the program's port uses resolvable at all.
  NoteLoad(segment, LoadFacts{ProgramKind::kProcess, options.initial_arg});
  // The kernel itself feeds fault and scheduler ports (RaiseFault / scheduler
  // notifications), so their receivers are never statically starved.
  if (!options.fault_port.is_null()) {
    effect_graph_.MarkExternalSender(options.fault_port.index());
  }
  if (!options.scheduler_port.is_null()) {
    effect_graph_.MarkExternalSender(options.scheduler_port.index());
  }
  if (!options.dispatch_port.is_null()) {
    effect_graph_.MarkExternalSender(options.dispatch_port.index());
    effect_graph_.MarkExternalReceiver(options.dispatch_port.index());
  }

  // The process object.
  IMAX_ASSIGN_OR_RETURN(
      AccessDescriptor process,
      memory_->CreateObject(sro, SystemType::kProcess, ProcessLayout::kDataBytes,
                            ProcessLayout::kAccessSlots,
                            rights::kRead | rights::kWrite | rights::kProcessControl));
  // The context (stack) SRO: contexts live one level below the process.
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor stack,
                        memory_->CreateLocalSro(sro, options.stack_bytes,
                                                static_cast<Level>(base_level + 1)));

  ProcessView proc(&machine_->addressing(), process);
  proc.set_state(ProcessState::kEmbryo);
  proc.SetField(ProcessLayout::kOffImaxLevel, 1, options.imax_level);
  proc.set_priority(options.priority);
  proc.set_deadline(options.deadline);
  proc.SetField(ProcessLayout::kOffBaseLevel, 2, base_level);
  proc.set_stop_count(1);  // created outside the dispatching mix
  proc.SetSlot(ProcessLayout::kSlotDispatchPort,
               options.dispatch_port.is_null() ? default_dispatch_port_
                                               : options.dispatch_port);
  proc.SetSlot(ProcessLayout::kSlotFaultPort, options.fault_port);
  proc.SetSlot(ProcessLayout::kSlotSchedulerPort, options.scheduler_port);
  proc.SetSlot(ProcessLayout::kSlotStackSro, stack);
  proc.SetSlot(ProcessLayout::kSlotParent, options.parent);

  // Link into the parent's child list (tree structure for nested start/stop).
  if (!options.parent.is_null()) {
    ProcessView parent(&machine_->addressing(), options.parent);
    AccessDescriptor first = parent.Slot(ProcessLayout::kSlotFirstChild);
    proc.SetSlot(ProcessLayout::kSlotNextSibling, first);
    parent.SetSlot(ProcessLayout::kSlotFirstChild, process);
  }

  // The initial context.
  IMAX_ASSIGN_OR_RETURN(
      AccessDescriptor context,
      CreateContext(proc, segment, AccessDescriptor(), AccessDescriptor(),
                    static_cast<Level>(base_level + 1)));
  ContextView ctx(&machine_->addressing(), context);
  ctx.set_reg(kArgReg, options.initial_value);
  ctx.set_ad_reg(kArgAdReg, options.initial_arg);
  proc.SetSlot(ProcessLayout::kSlotContext, context);
  proc.set_call_depth(1);

  ++stats_.processes_created;
  if (race_sanitizer_ != nullptr) {
    race_sanitizer_->OnProcessCreated(process.index());
  }
  if (machine_->spans().enabled()) {
    machine_->spans().OnSpawn(
        options.parent.is_null() ? kTraceNoProcess : options.parent.index(),
        process.index());
  }
  return process;
}

Result<AccessDescriptor> Kernel::CreateContext(ProcessView& proc,
                                               const AccessDescriptor& segment,
                                               const AccessDescriptor& domain,
                                               const AccessDescriptor& caller, Level level) {
  IMAX_ASSIGN_OR_RETURN(
      AccessDescriptor context,
      memory_->CreateObject(proc.stack_sro(), SystemType::kContext, ContextLayout::kDataBytes,
                            ContextLayout::kAccessSlots,
                            rights::kRead | rights::kWrite | rights::kDelete));
  // Contexts carry the level of their activation depth ("Each context object within a
  // process has a level one greater than that of its caller"), overriding the stack SRO's
  // fixed allocation level — this is the hardware's stack-allocation mechanism.
  machine_->table().At(context.index()).level = level;
  // The level override is a legitimate identity mutation: re-seal the patrol checksum.
  machine_->table().Seal(context.index());

  ContextView ctx(&machine_->addressing(), context);
  ctx.set_pc(0);
  ctx.SetSlot(ContextLayout::kSlotInstructionSegment, segment);
  ctx.SetSlot(ContextLayout::kSlotDomain, domain);
  ctx.SetSlot(ContextLayout::kSlotCaller, caller);
  ctx.SetSlot(ContextLayout::kSlotProcess, proc.ad());
  if (!domain.is_null()) {
    // The call instruction's amplification: code executing *inside* a domain can read its
    // own domain's access part (that is how a package reaches its private state), even
    // though the caller held only call rights — "providing the proper addressing
    // environment for any invoked subprogram."
    AccessDescriptor inside(domain.index(), domain.generation(),
                            static_cast<RightsMask>(domain.rights() | rights::kRead));
    ctx.set_ad_reg(kDomainAdReg, inside);
  }
  return context;
}

Result<AccessDescriptor> Kernel::CreateDomain(const std::vector<AccessDescriptor>& entries,
                                              uint32_t state_slots) {
  if (verify_on_load_) {
    for (const AccessDescriptor& entry_segment : entries) {
      IMAX_ASSIGN_OR_RETURN(const Program* entry_program, programs_.Fetch(entry_segment));
      analysis::VerifyOptions verify_options;
      verify_options.entry = ProgramKind::kDomainEntry;
      // Domains are called from arbitrary levels with arbitrary arguments, so nothing else
      // can be seeded.
      analysis::VerifyResult verdict = analysis::Verifier::Verify(*entry_program, verify_options);
      ++stats_.programs_verified;
      if (!verdict.ok()) {
        ++stats_.programs_rejected;
        IMAX_LOG_INFO("kernel: verifier rejected domain entry program:\n%s",
                      analysis::FormatDiagnostics(*entry_program, verdict).c_str());
        return Fault::kVerificationFailed;
      }
    }
  }
  IMAX_ASSIGN_OR_RETURN(
      AccessDescriptor domain,
      memory_->CreateObject(memory_->global_heap(), SystemType::kDomain,
                            DomainLayout::kDataBytes,
                            static_cast<uint32_t>(entries.size()) + state_slots,
                            rights::kRead | rights::kWrite | rights::kDomainCall));
  ObjectView view(&machine_->addressing(), domain);
  view.SetField(DomainLayout::kOffEntryCount, 2, entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* descriptor,
                          machine_->table().Resolve(entries[i]));
    if (descriptor->type != SystemType::kInstructionSegment) {
      return Fault::kTypeMismatch;
    }
    view.SetSlot(static_cast<uint32_t>(i), entries[i]);
    // Domain entries take arbitrary caller arguments: no initial-arg seeding.
    NoteLoad(entries[i], LoadFacts{ProgramKind::kDomainEntry, {}});
  }
  // Holders of the returned AD may call the domain but not read or write its contents:
  // the protected-package property.
  return domain.Restricted(rights::kDomainCall);
}

Status Kernel::SetDomainState(const AccessDescriptor& domain, uint32_t state_index,
                              const AccessDescriptor& value) {
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * descriptor, machine_->table().Resolve(domain));
  if (descriptor->type != SystemType::kDomain) {
    return Fault::kTypeMismatch;
  }
  auto count = machine_->memory().Read(descriptor->data_base + DomainLayout::kOffEntryCount, 2);
  if (!count.ok()) {
    return count.fault();
  }
  uint32_t slot = static_cast<uint32_t>(count.value()) + state_index;
  if (slot >= descriptor->access_count()) {
    return Fault::kBoundsViolation;
  }
  return machine_->addressing().WriteAdPrivileged(domain, slot, value);
}

Status Kernel::StartProcess(const AccessDescriptor& process) {
  ProcessView proc = process_view(process);
  if (proc.state() == ProcessState::kTerminated) {
    return Fault::kWrongState;
  }
  int16_t count = proc.stop_count();
  if (count > 0) {
    proc.set_stop_count(static_cast<int16_t>(count - 1));
  }
  if (proc.stop_count() > 0) {
    return Status::Ok();  // still stopped
  }
  if (proc.state() == ProcessState::kEmbryo || proc.state() == ProcessState::kStopped) {
    return MakeReady(process);
  }
  return Status::Ok();
}

Status Kernel::ResumeProcess(const AccessDescriptor& process) {
  ProcessView proc = process_view(process);
  ProcessState state = proc.state();
  if (state == ProcessState::kTerminated || state == ProcessState::kRunning ||
      state == ProcessState::kReady) {
    return Fault::kWrongState;
  }
  return MakeReady(process);
}

Status Kernel::MarkStopped(const AccessDescriptor& process) {
  ProcessView proc = process_view(process);
  proc.set_stop_count(static_cast<int16_t>(proc.stop_count() + 1));
  return Status::Ok();
}

Status Kernel::RetireProcessor(uint16_t processor_id) {
  if (processor_id >= processors_.size()) {
    return Fault::kNotFound;
  }
  ProcessorRec& rec = processors_[processor_id];
  if (rec.halted) {
    return Fault::kWrongState;
  }
  rec.halted = true;
  ++stats_.processors_retired;
  machine_->profiler().OnRetired(processor_id, machine_->now());

  ObjectView processor(&machine_->addressing(), rec.object);
  if (rec.waiting) {
    // Parked at its dispatching port as an idle receiver: pull it out so MakeReady never
    // hands a process to a dead GDP.
    (void)ports_.RemoveWaitingProcessor(rec.dispatch_port, processor_id);
    processor.Increment(ProcessorLayout::kOffIdleCycles, 8, machine_->now() - rec.idle_since);
    rec.waiting = false;
  }
  processor.SetField(ProcessorLayout::kOffState, 1,
                     static_cast<uint64_t>(ProcessorState::kHalted));

  // Rescue the in-flight process. Execution is synchronous per instruction, so at retirement
  // time the process is at a consistent instruction boundary; any pending ProcessorStep
  // event no-ops once rec.current is cleared. A quarantined process is not rescued.
  uint32_t requeued = kTraceNoProcess;
  AccessDescriptor victim = rec.current;
  rec.current = AccessDescriptor();
  processor.SetSlot(ProcessorLayout::kSlotCurrentProcess, AccessDescriptor());
  if (Readable(victim)) {
    ProcessView proc = process_view(victim);
    if (proc.state() == ProcessState::kRunning) {
      proc.set_slice_used(0);
      if (Wake(victim)) {
        requeued = victim.index();
        ++stats_.retirement_requeues;
      }
    }
  }
  machine_->trace().Emit(TraceEventKind::kProcessorRetired, machine_->now(), processor_id,
                         requeued, static_cast<uint32_t>(active_processor_count()));
  IMAX_LOG_INFO("processor %u retired (%d survive)", processor_id, active_processor_count());
  return Status::Ok();
}

Status Kernel::StallProcessor(uint16_t processor_id, Cycles duration) {
  if (processor_id >= processors_.size()) {
    return Fault::kNotFound;
  }
  ProcessorRec& rec = processors_[processor_id];
  if (rec.halted) {
    return Fault::kWrongState;
  }
  Cycles until = machine_->now() + duration;
  if (until > rec.stall_until) {
    rec.stall_until = until;
  }
  ++stats_.processors_stalled;
  // A parked processor re-checks the stall when a process is handed to it (BindProcess
  // schedules ProcessorStep, which defers); a running one defers at its next step.
  return Status::Ok();
}

int Kernel::active_processor_count() const {
  int active = 0;
  for (const ProcessorRec& rec : processors_) {
    if (!rec.halted) ++active;
  }
  return active;
}

Status Kernel::MakeReady(const AccessDescriptor& process) {
  ProcessView proc = process_view(process);
  // If the process was blocked at a port, the blocking episode ends here — whether it goes
  // ready or (stop pending) parks as stopped.
  auto wait = block_waits_.find(process.index());
  if (wait != block_waits_.end()) {
    Cycles waited = machine_->now() - wait->second.start;
    machine_->latency().port_wait.Record(waited);
    machine_->profiler().ChargeProcess(process.index(), CycleBucket::kPortWait, waited);
    if (wait->second.is_send && machine_->spans().enabled()) {
      // Only a blocked *sender's* wait sits on its request's critical path; a receiver's
      // pre-arrival wait belongs to no request.
      machine_->spans().ChargeCurrent(process.index(), CycleBucket::kPortWait, waited,
                                      machine_->now());
    }
    machine_->trace().Emit(TraceEventKind::kUnblock, machine_->now(), kTraceNoProcessor,
                           process.index(), wait->second.port,
                           static_cast<uint32_t>(waited));
    block_waits_.erase(wait);
  }
  if (proc.stop_count() > 0) {
    // Held out of the dispatching mix.
    proc.set_state(ProcessState::kStopped);
    NotifyEvent(process, ProcessEvent::kStopped);
    return Status::Ok();
  }
  proc.set_state(ProcessState::kReady);
  proc.set_slice_used(0);
  AccessDescriptor port = proc.dispatch_port();

  auto idle = ports_.PopWaitingProcessor(port);
  if (idle.ok()) {
    BindProcess(processors_[idle.value()], process);
    return Status::Ok();
  }
  // The hardware dispatching algorithm queues processes of any lifetime level, so this is a
  // privileged (microcode) store; stale ADs are filtered at dequeue.
  return ports_.Enqueue(port, process, proc.priority(), proc.deadline(),
                        /*privileged=*/true);
}

Status Kernel::PostMessage(const AccessDescriptor& port, const AccessDescriptor& message) {
  if (!port.is_null()) {
    // Traffic injected from outside the simulation: the static analysis must not claim this
    // port's receivers block forever.
    effect_graph_.MarkExternalSender(port.index());
  }
  return Deliver(port, message, /*sender=*/nullptr, kTraceNoProcessor);
}

Result<AccessDescriptor> Kernel::ReceiveMessage(const AccessDescriptor& port) {
  return Take(port, /*receiver=*/nullptr, /*ctx=*/nullptr, /*dest_adreg=*/0);
}

void Kernel::BindProcess(ProcessorRec& rec, const AccessDescriptor& process) {
  ProcessView proc = process_view(process);
  if (rec.halted) {
    // Raced with retirement: hand the process back for a surviving processor to claim.
    proc.set_state(ProcessState::kReady);
    (void)ports_.Enqueue(proc.dispatch_port(), process, proc.priority(), proc.deadline(),
                         /*privileged=*/true);
    return;
  }
  machine_->profiler().CloseIdle(rec.id, machine_->now());
  if (proc.stop_count() > 0) {
    // A stop arrived while the process was queued: park it and look again.
    proc.set_state(ProcessState::kStopped);
    NotifyEvent(process, ProcessEvent::kStopped);
    machine_->profiler().ChargeCpu(rec.id, CycleBucket::kDispatch, cycles::kDispatch);
    ScheduleFetch(machine_->now() + cycles::kDispatch, rec.id);
    return;
  }
  ObjectView processor(&machine_->addressing(), rec.object);
  // Close out an idle-wait period if the processor was parked at its dispatching port.
  if (rec.waiting) {
    processor.Increment(ProcessorLayout::kOffIdleCycles, 8, machine_->now() - rec.idle_since);
    rec.waiting = false;
  }
  rec.current = process;
  processor.SetSlot(ProcessorLayout::kSlotCurrentProcess, process);
  processor.SetField(ProcessorLayout::kOffState, 1,
                     static_cast<uint64_t>(ProcessorState::kRunning));
  processor.Increment(ProcessorLayout::kOffDispatches, 8);
  proc.set_state(ProcessState::kRunning);
  ++stats_.dispatches;

  // Dispatch latency: binding a process to a processor is itself a hardware algorithm.
  BusGrant grant;
  Cycles done = machine_->bus().Acquire(machine_->now() + cycles::kDispatch,
                                        cycles::kBusDispatch, &grant);
  if (machine_->profiler().enabled()) {
    CycleProfiler& profiler = machine_->profiler();
    profiler.Charge(rec.id, process.index(), CycleBucket::kDispatch, cycles::kDispatch);
    profiler.Charge(rec.id, process.index(), CycleBucket::kBusWait, grant.wait);
    profiler.Charge(rec.id, process.index(), CycleBucket::kBusTransfer, grant.busy);
  }
  if (machine_->spans().enabled()) {
    SpanTracer& spans = machine_->spans();
    spans.ChargeCurrent(process.index(), CycleBucket::kDispatch, cycles::kDispatch, done);
    spans.ChargeCurrent(process.index(), CycleBucket::kBusWait, grant.wait, done);
    spans.ChargeCurrent(process.index(), CycleBucket::kBusTransfer, grant.busy, done);
  }
  machine_->latency().dispatch_latency.Record(done - machine_->now());
  machine_->trace().Emit(TraceEventKind::kDispatch, machine_->now(), rec.id, process.index(),
                         static_cast<uint32_t>(done - machine_->now()));
  ScheduleStep(done, rec.id);
}

bool Kernel::Wake(const AccessDescriptor& process) {
  Status ready = MakeReady(process);
  if (!ready.ok()) {
    ProcessView proc = process_view(process);
    RaiseFault(proc, ready.fault());
  }
  return ready.ok();
}

bool Kernel::Readable(const AccessDescriptor& process) const {
  auto resolved = machine_->table().Resolve(process);
  return resolved.ok() && !resolved.value()->quarantined;
}

bool Kernel::Dispatchable(const AccessDescriptor& ad) const {
  auto resolved = machine_->table().Resolve(ad);
  if (!resolved.ok() || resolved.value()->quarantined ||
      resolved.value()->type != SystemType::kProcess ||
      !ad.HasRights(rights::kRead | rights::kWrite)) {
    return false;
  }
  // Read from the descriptor in hand: a checked view would resolve the AD a second time.
  auto state =
      machine_->memory().Read(resolved.value()->data_base + ProcessLayout::kOffState, 1);
  return state.ok() && state.value() == static_cast<uint64_t>(ProcessState::kReady);
}

void Kernel::ProcessorFetch(uint16_t processor_id) {
  ProcessorRec& rec = processors_[processor_id];
  if (rec.halted) {
    return;
  }
  if (machine_->now() < rec.stall_until) {
    // Transient stall: come back for work once the processor re-arbitrates.
    machine_->profiler().ChargeCpu(processor_id, CycleBucket::kFaultRecovery,
                                   rec.stall_until - machine_->now());
    ScheduleFetch(rec.stall_until, processor_id);
    return;
  }
  rec.current = AccessDescriptor();
  ObjectView processor(&machine_->addressing(), rec.object);
  processor.SetSlot(ProcessorLayout::kSlotCurrentProcess, AccessDescriptor());

  for (;;) {
    auto next = ports_.Dequeue(rec.dispatch_port);
    if (!next.ok()) {
      break;
    }
    if (Dispatchable(next.value())) {
      BindProcess(rec, next.value());
      return;
    }
  }
  // Nothing ready: the processor idles at its dispatching port.
  processor.SetField(ProcessorLayout::kOffState, 1,
                     static_cast<uint64_t>(ProcessorState::kIdle));
  rec.idle_since = machine_->now();
  rec.waiting = true;
  machine_->trace().Emit(TraceEventKind::kIdle, machine_->now(), processor_id, kTraceNoProcess,
                         rec.dispatch_port.index());
  machine_->profiler().OpenIdle(processor_id);
  ports_.PushWaitingProcessor(rec.dispatch_port, processor_id);
}

Cycles Kernel::ChargeCycles(uint16_t cpu, StepFrame& frame, Cycles compute, Cycles bus,
                            CycleBucket bucket) {
  Cycles start = machine_->now();
  Cycles after_compute = start + compute;
  CycleProfiler& profiler = machine_->profiler();
  SpanTracer& spans = machine_->spans();
  Cycles done;
  if (profiler.enabled() || spans.enabled()) {
    BusGrant grant;
    done = machine_->bus().Acquire(after_compute, bus, &grant);
    uint32_t process = frame.proc.ad().index();
    CycleBucket resolved = profiler.ResolveTag(process, bucket);
    if (profiler.enabled()) {
      profiler.Charge(cpu, process, resolved, compute);
      profiler.Charge(cpu, process, CycleBucket::kBusWait, grant.wait);
      profiler.Charge(cpu, process, CycleBucket::kBusTransfer, grant.busy);
    }
    if (spans.enabled()) {
      spans.ChargeCurrent(process, resolved, compute, done);
      spans.ChargeCurrent(process, CycleBucket::kBusWait, grant.wait, done);
      spans.ChargeCurrent(process, CycleBucket::kBusTransfer, grant.busy, done);
    }
  } else {
    done = machine_->bus().Acquire(after_compute, bus);
  }
  Cycles duration = done - start;
  frame.proc.Increment(ProcessLayout::kOffConsumed, 8, duration);
  frame.proc.Increment(ProcessLayout::kOffSliceUsed, 8, duration);
  frame.processor.Increment(ProcessorLayout::kOffBusyCycles, 8, duration);
  return done;
}

void Kernel::ProcessorStep(uint16_t processor_id) {
  StepFrame frame = frames_[processor_id];
  if (!frame.PinsHold()) {
    // Something between the events freed, reused, quarantined or swapped out a pinned
    // object, or the frame was never built: start empty, for the first instruction to build.
    frame = StepFrame{};
  }
  Cycles next = 0;
  while (StepInstruction(processor_id, frame, &next)) {
    if (!machine_->events().TryContinueAt(next)) {
      ScheduleStep(next, processor_id);
      break;
    }
  }
  frames_[processor_id] = frame;
}

void Kernel::FaultAndFetch(uint16_t processor_id, ProcessView& proc, Fault fault) {
  RaiseFault(proc, fault);
  machine_->profiler().ChargeCpu(processor_id, CycleBucket::kFaultRecovery, cycles::kDispatch);
  ScheduleFetch(machine_->now() + cycles::kDispatch, processor_id);
}

bool Kernel::StepInstruction(uint16_t processor_id, StepFrame& frame, Cycles* next) {
  ProcessorRec& rec = processors_[processor_id];
  if (rec.halted || rec.current.is_null()) {
    return false;
  }
  if (machine_->now() < rec.stall_until) {
    // Transient stall: the bound process resumes exactly here once the stall lifts.
    machine_->profiler().ChargeCpu(processor_id, CycleBucket::kFaultRecovery,
                                   rec.stall_until - machine_->now());
    ScheduleStep(rec.stall_until, processor_id);
    return false;
  }
  AddressingUnit& au = machine_->addressing();
  // The running process's system objects are validated when the frame is built, then read
  // and written through their pinned descriptors while ProcessorStep finds the pins holding
  // (DESIGN.md §10).
  if (frame.proc.ad() != rec.current) {
    frame = StepFrame{};
    frame.proc = ProcessView(&au, rec.current, kPin);
    frame.processor = ObjectView(&au, rec.object, kPin);
    if (!frame.proc.PinHolds()) {
      // Quarantined since it was bound: its state can no longer be read, so it never runs
      // again (the patrol has reported it). Drop it and look for other work.
      ScheduleFetch(machine_->now(), processor_id);
      return false;
    }
  }
  ProcessView& proc = frame.proc;

  // Honor stops at instruction boundaries ("nested stopping and starting of processes").
  if (proc.stop_count() > 0) {
    proc.set_state(ProcessState::kStopped);
    NotifyEvent(rec.current, ProcessEvent::kStopped);
    machine_->profiler().ChargeCpu(processor_id, CycleBucket::kDispatch, cycles::kSimpleOp);
    ScheduleFetch(machine_->now() + cycles::kSimpleOp, processor_id);
    return false;
  }

  // A call or return switches the process's context: pin the new one, if it is still a
  // live context, and fetch its program.
  AccessDescriptor context = proc.context();
  if (frame.program == nullptr || context != frame.ctx.ad()) {
    if (!IsLiveContext(context)) {
      FaultAndFetch(processor_id, proc, Fault::kInvalidAccess);
      return false;
    }
    frame.ctx = ContextView(&au, context, kPin);
    frame.program = nullptr;
  }
  ContextView& ctx = frame.ctx;
  // The program is fetched again unless a fetch would return it unchanged: the context's
  // instruction-segment slot still holds the AD it was fetched through (a StoreAd through a
  // context AD can rewrite the slot), that segment is still live, and its data_epoch has not
  // moved (ProgramStore::Replace moves it).
  AccessDescriptor segment = ctx.instruction_segment();
  if (frame.program == nullptr || segment != frame.segment ||
      !frame.segment_descriptor->allocated ||
      frame.segment_descriptor->generation != segment.generation() ||
      frame.segment_descriptor->data_epoch != frame.segment_epoch) {
    ++stats_.program_fetches;
    auto fetched = programs_.Fetch(segment);
    if (!fetched.ok()) {
      FaultAndFetch(processor_id, proc, fetched.fault());
      return false;
    }
    frame.program = fetched.value();
    frame.segment = segment;
    frame.segment_descriptor = &machine_->table().At(segment.index());
    frame.segment_epoch = frame.segment_descriptor->data_epoch;
  }
  const Program& program = *frame.program;

  uint32_t pc = ctx.pc();
  bool sampled_site = false;
  uint64_t site_segment = 0;
  Result<StepEffect> result = StepEffect{};
  if (pc >= program.size()) {
    // Falling off the end of a subprogram is an implicit return; it faults like any other
    // instruction.
    result = DoReturn(rec.id, proc, ctx);
  } else {
    if (machine_->profiler().enabled()) {
      // Capture the hot-site key before Execute: an explicit Return destroys the context
      // object, so reading the instruction segment afterwards would touch freed state.
      sampled_site = true;
      site_segment = segment.index();
    }
    const Instruction& instruction = program.at(pc);
    // The interpreter's instruction dump: with tracing on, each step lands in the event
    // timeline (and the kTrace log line reaches the recorder's annotation channel through
    // the sink installed by System) instead of spamming stderr.
    if (machine_->trace().enabled() && GetLogSeverity() == LogSeverity::kTrace) {
      machine_->trace().Emit(TraceEventKind::kInstruction, machine_->now(), processor_id,
                             rec.current.index(), pc, static_cast<uint32_t>(instruction.op));
      IMAX_LOG_TRACE("cpu %u process %u pc %u %s", processor_id, rec.current.index(), pc,
                     OpcodeName(instruction.op));
    }
    ctx.set_pc(pc + 1);
    result = Execute(rec, proc, ctx, program, instruction);
  }
  if (!result.ok()) {
    Fault fault = result.fault();
    if (fault == Fault::kSegmentSwapped) {
      // Transparent residency fault: bring the segment in, charge the transfer to this
      // process, and retry the same instruction. User code never observes this — the
      // memory-manager configurability point of §6.2.
      auto cost = memory_->EnsureResident(au.last_swapped_object());
      if (cost.ok()) {
        ctx.set_pc(pc);
        ++stats_.swap_faults;
        Cycles done =
            ChargeCycles(processor_id, frame, cost.value(), 0, CycleBucket::kMemoryWait);
        ScheduleStep(done, processor_id);
        return false;
      }
      fault = cost.fault();
    }
    ctx.set_pc(pc);  // the process faulted *at* this instruction
    FaultAndFetch(processor_id, proc, fault);
    return false;
  }
  StepEffect effect = result.value();

  Cycles done = ChargeCycles(processor_id, frame, effect.compute, effect.bus);
  if (sampled_site) {
    // now() is constant for the duration of this event, so done - now() is the full
    // modeled duration the instruction just charged.
    machine_->profiler().SampleSite(site_segment, pc, done - machine_->now());
  }
  ++stats_.instructions_executed;

  switch (effect.kind) {
    case StepEffect::Kind::kContinue: {
      if (proc.slice_used() >= machine_->config().time_slice) {
        // Time-slice end: implicit hardware rescheduling. The requeue happens at the
        // instruction's completion time so the process cannot overlap itself on another
        // processor.
        ++stats_.time_slice_ends;
        machine_->trace().Emit(TraceEventKind::kPreempt, done, rec.id, rec.current.index());
        proc.set_slice_used(0);
        machine_->events().ScheduleAt(done, [this, process = rec.current] { Wake(process); });
        ScheduleFetch(done, processor_id);
      } else {
        *next = done;
        return true;
      }
      break;
    }
    case StepEffect::Kind::kYield: {
      proc.set_slice_used(0);
      machine_->events().ScheduleAt(done, [this, process = rec.current] { Wake(process); });
      ScheduleFetch(done, processor_id);
      break;
    }
    case StepEffect::Kind::kBlocked: {
      ++stats_.blocks;
      ScheduleFetch(done, processor_id);
      break;
    }
    case StepEffect::Kind::kTerminated: {
      TerminateProcess(proc, /*faulted=*/false);
      NotifyEvent(rec.current, ProcessEvent::kTerminated);
      ScheduleFetch(done, processor_id);
      break;
    }
  }
  return false;
}

void Kernel::NoteAccess(uint16_t cpu, ProcessView& proc, ContextView& ctx, ObjectIndex object,
                        analysis::ObjectPart part, analysis::AccessKind kind) {
  if (race_sanitizer_ == nullptr) return;
  // ProcessorStep advanced the pc before Execute, so the current instruction is pc - 1.
  const uint32_t pc = ctx.pc() - 1;
  const analysis::RaceRecord* record = race_sanitizer_->OnAccess(
      proc.ad().index(), object, part, kind, pc, machine_->now());
  if (record != nullptr) {
    machine_->trace().Emit(TraceEventKind::kRaceDetected, machine_->now(), cpu,
                           record->second_process, record->object, record->second_pc,
                           record->first_process);
  }
}

Result<Kernel::StepEffect> Kernel::Execute(ProcessorRec& rec, ProcessView& proc,
                                           ContextView& ctx, const Program& program,
                                           const Instruction& in) {
  AddressingUnit& au = machine_->addressing();
  StepEffect effect;

  switch (in.op) {
    case Opcode::kCompute:
      effect.compute = in.imm;
      return effect;

    case Opcode::kLoadImm:
      if (!ValidReg(in.a)) return Fault::kRegisterOutOfRange;
      ctx.set_reg(in.a, in.imm64);
      effect.compute = cycles::kSimpleOp;
      return effect;

    case Opcode::kMove:
      if (!ValidReg(in.a) || !ValidReg(in.b)) return Fault::kRegisterOutOfRange;
      ctx.set_reg(in.a, ctx.reg(in.b));
      effect.compute = cycles::kSimpleOp;
      return effect;

    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul: {
      if (!ValidReg(in.a) || !ValidReg(in.b) || !ValidReg(in.c)) {
        return Fault::kRegisterOutOfRange;
      }
      uint64_t lhs = ctx.reg(in.b);
      uint64_t rhs = ctx.reg(in.c);
      uint64_t value = in.op == Opcode::kAdd   ? lhs + rhs
                       : in.op == Opcode::kSub ? lhs - rhs
                                               : lhs * rhs;
      ctx.set_reg(in.a, value);
      effect.compute = cycles::kSimpleOp;
      return effect;
    }

    case Opcode::kAddImm:
      if (!ValidReg(in.a) || !ValidReg(in.b)) return Fault::kRegisterOutOfRange;
      ctx.set_reg(in.a, ctx.reg(in.b) + in.imm);
      effect.compute = cycles::kSimpleOp;
      return effect;

    case Opcode::kLoadData:
    case Opcode::kLoadDataIndexed: {
      if (!ValidReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      uint32_t width = in.op == Opcode::kLoadData ? in.c : 8;
      uint32_t offset = in.imm;
      if (in.op == Opcode::kLoadDataIndexed) {
        if (!ValidReg(in.c)) return Fault::kRegisterOutOfRange;
        offset += static_cast<uint32_t>(ctx.reg(in.c));
      }
      IMAX_ASSIGN_OR_RETURN(uint64_t value, au.ReadData(ctx.ad_reg(in.b), offset, width));
      NoteAccess(rec.id, proc, ctx, ctx.ad_reg(in.b).index(), analysis::ObjectPart::kData,
                 analysis::AccessKind::kRead);
      ctx.set_reg(in.a, value);
      effect.compute = cycles::kDataAccessBase;
      effect.bus = cycles::kBusDataAccess;
      return effect;
    }

    case Opcode::kStoreData:
    case Opcode::kStoreDataIndexed: {
      if (!ValidAdReg(in.a) || !ValidReg(in.b)) return Fault::kRegisterOutOfRange;
      uint32_t width = in.op == Opcode::kStoreData ? in.c : 8;
      uint32_t offset = in.imm;
      if (in.op == Opcode::kStoreDataIndexed) {
        if (!ValidReg(in.c)) return Fault::kRegisterOutOfRange;
        offset += static_cast<uint32_t>(ctx.reg(in.c));
      }
      IMAX_RETURN_IF_FAULT(au.WriteData(ctx.ad_reg(in.a), offset, width, ctx.reg(in.b)));
      NoteAccess(rec.id, proc, ctx, ctx.ad_reg(in.a).index(), analysis::ObjectPart::kData,
                 analysis::AccessKind::kWrite);
      effect.compute = cycles::kDataAccessBase;
      effect.bus = cycles::kBusDataAccess;
      return effect;
    }

    case Opcode::kMoveAd:
      if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      ctx.set_ad_reg(in.a, ctx.ad_reg(in.b));
      effect.compute = cycles::kAdMove;
      effect.bus = cycles::kBusAdMove;
      return effect;

    case Opcode::kClearAd:
      if (!ValidAdReg(in.a)) return Fault::kRegisterOutOfRange;
      ctx.set_ad_reg(in.a, AccessDescriptor());
      effect.compute = cycles::kSimpleOp;
      return effect;

    case Opcode::kLoadAd:
    case Opcode::kLoadAdIndexed: {
      if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      uint32_t slot = in.imm;
      if (in.op == Opcode::kLoadAdIndexed) {
        if (!ValidReg(in.c)) return Fault::kRegisterOutOfRange;
        slot += static_cast<uint32_t>(ctx.reg(in.c));
      }
      IMAX_ASSIGN_OR_RETURN(AccessDescriptor value, au.ReadAd(ctx.ad_reg(in.b), slot));
      NoteAccess(rec.id, proc, ctx, ctx.ad_reg(in.b).index(), analysis::ObjectPart::kAccess,
                 analysis::AccessKind::kRead);
      ctx.set_ad_reg(in.a, value);
      effect.compute = cycles::kAdMove;
      effect.bus = cycles::kBusAdMove;
      return effect;
    }

    case Opcode::kStoreAd:
    case Opcode::kStoreAdIndexed: {
      if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      uint32_t slot = in.imm;
      if (in.op == Opcode::kStoreAdIndexed) {
        if (!ValidReg(in.c)) return Fault::kRegisterOutOfRange;
        slot += static_cast<uint32_t>(ctx.reg(in.c));
      }
      // The checked mutator store: rights, bounds, level rule, gray-bit.
      IMAX_RETURN_IF_FAULT(au.WriteAd(ctx.ad_reg(in.a), slot, ctx.ad_reg(in.b)));
      NoteAccess(rec.id, proc, ctx, ctx.ad_reg(in.a).index(), analysis::ObjectPart::kAccess,
                 analysis::AccessKind::kWrite);
      effect.compute = cycles::kAdMove;
      effect.bus = cycles::kBusAdMove;
      return effect;
    }

    case Opcode::kRestrictRights:
      if (!ValidAdReg(in.a)) return Fault::kRegisterOutOfRange;
      ctx.set_ad_reg(in.a, ctx.ad_reg(in.a).Restricted(static_cast<RightsMask>(in.imm)));
      effect.compute = cycles::kSimpleOp;
      return effect;

    case Opcode::kAdIsNull:
      if (!ValidReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      ctx.set_reg(in.a, ctx.ad_reg(in.b).is_null() ? 1 : 0);
      effect.compute = cycles::kSimpleOp;
      return effect;

    case Opcode::kCreateObject: {
      if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      bool demoted = false;
      if (lifetime_demote_ && !ctx.ad_reg(in.b).is_null()) {
        // The dispatcher advanced pc past this instruction before Execute.
        const uint32_t site_pc = ctx.pc() - 1;
        const ObjectIndex segment = ctx.instruction_segment().index();
        if (IsDemotableSite(segment, site_pc)) {
          Level context_level = machine_->table().At(ctx.ad().index()).level;
          AccessDescriptor demote_sro = DemoteSroFor(ctx, context_level);
          auto local = demote_sro.is_null()
                           ? Result<AccessDescriptor>(Fault::kStorageExhausted)
                           : memory_->CreateObject(
                                 demote_sro, SystemType::kGeneric, in.imm, in.c,
                                 rights::kRead | rights::kWrite | rights::kDelete);
          if (local.ok()) {
            const AccessDescriptor object = local.value();
            // Skip GC registration: exempt objects are permanently black (never whitened,
            // never swept), from birth; their outgoing slots are scanned as roots.
            // Reclamation happens only through the bulk destroy at context exit (see
            // gc/collector.h).
            machine_->table().SetGcExempt(object.index());
            if (lifetime_auditor_ != nullptr) {
              lifetime_auditor_->OnDemoted(object.index(), object.generation(),
                                           demote_sro.index(), segment, site_pc);
            }
            ctx.set_ad_reg(in.a, object);
            ++stats_.demotions;
            demoted = true;
          } else {
            ++stats_.demote_fallbacks;  // demote SRO exhausted or uncreatable
          }
        }
      }
      if (!demoted) {
        IMAX_ASSIGN_OR_RETURN(
            AccessDescriptor object,
            memory_->CreateObject(ctx.ad_reg(in.b), SystemType::kGeneric, in.imm, in.c,
                                  rights::kRead | rights::kWrite | rights::kDelete));
        ctx.set_ad_reg(in.a, object);
      }
      // Identical charge on both paths: demotion must not perturb virtual time.
      effect.compute = cycles::CreateObjectCost(in.imm, in.c);
      effect.bus = cycles::kBusCreateObject;
      return effect;
    }

    case Opcode::kDestroyObject: {
      if (!ValidAdReg(in.a)) return Fault::kRegisterOutOfRange;
      // Destroying the context this instruction runs in would free the register file it
      // writes below. (Contexts are the only system objects minted with delete rights.)
      if (ctx.ad_reg(in.a).SameObject(ctx.ad())) return Fault::kInvalidAccess;
      const ObjectIndex dying = ctx.ad_reg(in.a).index();
      IMAX_RETURN_IF_FAULT(memory_->DestroyObject(ctx.ad_reg(in.a)));
      // Destruction conflicts with any concurrent access to either part; check against the
      // prior epochs before dropping the object's sanitizer state.
      NoteAccess(rec.id, proc, ctx, dying, analysis::ObjectPart::kData,
                 analysis::AccessKind::kWrite);
      NoteAccess(rec.id, proc, ctx, dying, analysis::ObjectPart::kAccess,
                 analysis::AccessKind::kWrite);
      if (race_sanitizer_ != nullptr) race_sanitizer_->OnObjectDestroyed(dying);
      if (lifetime_auditor_ != nullptr) lifetime_auditor_->OnObjectDestroyed(dying);
      ctx.set_ad_reg(in.a, AccessDescriptor());
      effect.compute = cycles::kDestroyObject;
      effect.bus = cycles::kBusCreateObject / 2;
      return effect;
    }

    case Opcode::kCreateSro: {
      if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      Level context_level = machine_->table().At(ctx.ad().index()).level;
      IMAX_ASSIGN_OR_RETURN(
          AccessDescriptor sro,
          memory_->CreateLocalSro(ctx.ad_reg(in.b), in.imm,
                                  static_cast<Level>(context_level + 1)));
      // Record ownership so the local heap dies with this activation.
      bool recorded = false;
      for (uint32_t slot = 0; slot < ContextLayout::kNumOwnedSroSlots; ++slot) {
        if (ctx.Slot(ContextLayout::kSlotOwnedSros + slot).is_null()) {
          ctx.SetSlot(ContextLayout::kSlotOwnedSros + slot, sro);
          recorded = true;
          break;
        }
      }
      if (!recorded) {
        (void)memory_->DestroySro(sro);
        return Fault::kStorageExhausted;  // too many local heaps in one activation
      }
      ctx.set_ad_reg(in.a, sro);
      effect.compute = cycles::kCreateObjectBase;
      effect.bus = cycles::kBusCreateObject;
      return effect;
    }

    case Opcode::kDestroySro: {
      if (!ValidAdReg(in.a)) return Fault::kRegisterOutOfRange;
      AccessDescriptor sro = ctx.ad_reg(in.a);
      IMAX_ASSIGN_OR_RETURN(uint32_t reclaimed, memory_->DestroySro(sro));
      NoteAccess(rec.id, proc, ctx, sro.index(), analysis::ObjectPart::kData,
                 analysis::AccessKind::kWrite);
      NoteAccess(rec.id, proc, ctx, sro.index(), analysis::ObjectPart::kAccess,
                 analysis::AccessKind::kWrite);
      if (race_sanitizer_ != nullptr) race_sanitizer_->OnObjectDestroyed(sro.index());
      // Clear the ownership slot if this was one of ours.
      for (uint32_t slot = 0; slot < ContextLayout::kNumOwnedSroSlots; ++slot) {
        if (ctx.Slot(ContextLayout::kSlotOwnedSros + slot).SameObject(sro)) {
          ctx.SetSlot(ContextLayout::kSlotOwnedSros + slot, AccessDescriptor());
        }
      }
      ctx.set_ad_reg(in.a, AccessDescriptor());
      effect.compute = cycles::kDestroyObject + reclaimed * cycles::kGcFreeObject / 4;
      effect.bus = cycles::kBusCreateObject / 2;
      return effect;
    }

    case Opcode::kSend:
    case Opcode::kCondSend: {
      if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      bool can_block = in.op == Opcode::kSend;
      if (!can_block && !ValidReg(in.c)) return Fault::kRegisterOutOfRange;
      auto sent = DoSend(rec.id, proc, ctx.ad_reg(in.a), ctx.ad_reg(in.b), can_block);
      if (!sent.ok()) {
        if (!can_block && sent.fault() == Fault::kQueueFull) {
          ctx.set_reg(in.c, 0);
          effect.compute = cycles::kSend;
          effect.bus = cycles::kBusSend;
          return effect;
        }
        return sent.fault();
      }
      if (!can_block) {
        ctx.set_reg(in.c, 1);
      }
      return sent.value();
    }

    case Opcode::kReceive:
    case Opcode::kCondReceive: {
      if (!ValidAdReg(in.a) || !ValidAdReg(in.b)) return Fault::kRegisterOutOfRange;
      bool can_block = in.op == Opcode::kReceive;
      if (!can_block && !ValidReg(in.c)) return Fault::kRegisterOutOfRange;
      auto received = DoReceive(rec.id, proc, ctx, in.a, ctx.ad_reg(in.b), can_block);
      if (!received.ok()) {
        if (!can_block && received.fault() == Fault::kQueueEmpty) {
          ctx.set_reg(in.c, 0);
          effect.compute = cycles::kReceive;
          effect.bus = cycles::kBusReceive;
          return effect;
        }
        return received.fault();
      }
      if (!can_block) {
        ctx.set_reg(in.c, 1);
      }
      return received.value();
    }

    case Opcode::kCall:
      if (!ValidAdReg(in.a)) return Fault::kRegisterOutOfRange;
      return DoCall(rec.id, proc, ctx, ctx.ad_reg(in.a), in.imm);

    case Opcode::kCallLocal:
      return DoCall(rec.id, proc, ctx, ctx.domain(), in.imm);

    case Opcode::kReturn:
      return DoReturn(rec.id, proc, ctx);

    case Opcode::kBranch:
      ctx.set_pc(in.imm);
      effect.compute = cycles::kBranch;
      return effect;

    case Opcode::kBranchIfZero:
    case Opcode::kBranchIfNotZero: {
      if (!ValidReg(in.a)) return Fault::kRegisterOutOfRange;
      bool zero = ctx.reg(in.a) == 0;
      if (zero == (in.op == Opcode::kBranchIfZero)) {
        ctx.set_pc(in.imm);
      }
      effect.compute = cycles::kBranch;
      return effect;
    }

    case Opcode::kBranchIfLess:
      if (!ValidReg(in.a) || !ValidReg(in.b)) return Fault::kRegisterOutOfRange;
      if (ctx.reg(in.a) < ctx.reg(in.b)) {
        ctx.set_pc(in.imm);
      }
      effect.compute = cycles::kBranch;
      return effect;

    case Opcode::kHalt:
      effect.kind = StepEffect::Kind::kTerminated;
      effect.compute = cycles::kSimpleOp;
      return effect;

    case Opcode::kNative:
    case Opcode::kOsCall: {
      NativeFn const* fn = nullptr;
      Cycles base_cost = cycles::kSimpleOp;
      if (in.op == Opcode::kNative) {
        fn = program.native(in.imm);
        if (fn == nullptr) {
          return Fault::kInvalidInstruction;
        }
      } else {
        auto it = services_.find(in.imm);
        if (it == services_.end()) {
          return Fault::kNotFound;
        }
        fn = &it->second;
        // An OS call costs what any subprogram call costs — the uniformity point of §4.
        base_cost = cycles::kLocalCall;
      }
      ExecutionContext env(this, rec.id, proc.ad(), ctx.ad());
      IMAX_ASSIGN_OR_RETURN(NativeResult native, (*fn)(env));
      effect.compute = base_cost + native.compute;
      effect.bus = native.bus;
      switch (native.action) {
        case NativeResult::Action::kContinue:
          return effect;
        case NativeResult::Action::kJump:
          ctx.set_pc(native.jump_target);
          return effect;
        case NativeResult::Action::kYield:
          effect.kind = StepEffect::Kind::kYield;
          return effect;
        case NativeResult::Action::kHalt:
          effect.kind = StepEffect::Kind::kTerminated;
          return effect;
        case NativeResult::Action::kBlockReceive: {
          auto received = DoReceive(rec.id, proc, ctx, native.dest_adreg, native.port,
                                    /*can_block=*/true);
          if (!received.ok()) {
            return received.fault();
          }
          effect.kind = received.value().kind;
          effect.compute += received.value().compute;
          effect.bus += received.value().bus;
          return effect;
        }
      }
      return Fault::kInvalidInstruction;
    }
  }
  return Fault::kInvalidInstruction;
}

Result<Kernel::StepEffect> Kernel::DoSend(uint16_t cpu, ProcessView& proc,
                                          const AccessDescriptor& port_ad,
                                          const AccessDescriptor& message, bool can_block) {
  AddressingUnit& au = machine_->addressing();
  auto typed = au.ResolveTyped(port_ad, SystemType::kPort, rights::kPortSend);
  if (!typed.ok()) {
    return typed.fault();
  }
  StepEffect effect;
  effect.compute = cycles::kSend;
  effect.bus = cycles::kBusSend;

  Status sent = Deliver(port_ad, message, &proc, cpu);
  if (sent.ok()) {
    return effect;
  }
  if (sent.fault() != Fault::kQueueFull) {
    return sent.fault();  // protection fault (e.g. level violation) — sender faults
  }
  if (!can_block) {
    return Fault::kQueueFull;
  }
  // Port full: the sender blocks. "If the message queue of the port is full then the calling
  // process will block until a message slot becomes available."
  IMAX_RETURN_IF_FAULT(ports_.PushBlockedSender(port_ad, BlockedSender{proc.ad(), message}));
  return Block(cpu, proc, port_ad, /*is_send=*/true, effect);
}

Result<Kernel::StepEffect> Kernel::DoReceive(uint16_t cpu, ProcessView& proc, ContextView& ctx,
                                             uint8_t dest_adreg,
                                             const AccessDescriptor& port_ad, bool can_block) {
  AddressingUnit& au = machine_->addressing();
  auto typed = au.ResolveTyped(port_ad, SystemType::kPort, rights::kPortReceive);
  if (!typed.ok()) {
    return typed.fault();
  }
  StepEffect effect;
  effect.compute = cycles::kReceive;
  effect.bus = cycles::kBusReceive;

  auto message = Take(port_ad, &proc, &ctx, dest_adreg);
  if (message.ok()) {
    return effect;
  }
  if (message.fault() != Fault::kQueueEmpty) {
    return message.fault();
  }
  if (!can_block) {
    return Fault::kQueueEmpty;
  }
  // "If no message is available the process will block until a message becomes available."
  IMAX_RETURN_IF_FAULT(
      ports_.PushBlockedReceiver(port_ad, BlockedReceiver{proc.ad(), dest_adreg}));
  return Block(cpu, proc, port_ad, /*is_send=*/false, effect);
}

Status Kernel::Deliver(const AccessDescriptor& port, const AccessDescriptor& message,
                       ProcessView* sender, uint16_t cpu) {
  // A receiver already waits: hand the message straight over (the fast path of the hardware
  // port algorithms). A receiver that is no longer Readable is dropped, and the message goes
  // to the next one.
  for (auto receiver = ports_.PopBlockedReceiver(port); receiver.ok();
       receiver = ports_.PopBlockedReceiver(port)) {
    const AccessDescriptor woken = receiver.value().process;
    if (!Readable(woken)) {
      block_waits_.erase(woken.index());
      continue;
    }
    ProcessView recv = process_view(woken);
    ContextView recv_ctx(&machine_->addressing(), recv.context());
    Status stored = machine_->addressing().WriteAd(
        recv_ctx.ad(), ContextLayout::kSlotAdRegs + receiver.value().dest_adreg, message);
    if (!stored.ok()) {
      // The *receive* fails its level check: the receiver takes the fault, and the send is
      // done (the faulting receive consumed the message).
      RaiseFault(recv, stored.fault());
      if (sender != nullptr) {
        sender->Increment(ProcessLayout::kOffMessagesSent, 4);
      }
      return Status::Ok();
    }
    recv.Increment(ProcessLayout::kOffMessagesReceived, 4);
    if (sender == nullptr) {
      machine_->spans().OnExternalHandoff(woken.index(), machine_->now());
    } else {
      sender->Increment(ProcessLayout::kOffMessagesSent, 4);
      if (race_sanitizer_ != nullptr) {
        race_sanitizer_->OnHandoff(sender->ad().index(), woken.index());
      }
      if (machine_->spans().enabled()) {
        machine_->spans().OnHandoff(sender->ad().index(), woken.index(), machine_->now());
      }
      // The message never touches the queue on this path, so Enqueue/Dequeue cannot trace
      // it; emit the transfer pair here (depth 0: a handoff implies an empty queue).
      if (machine_->trace().enabled()) {
        machine_->trace().Emit(TraceEventKind::kSend, machine_->now(), cpu,
                               sender->ad().index(), port.index(), 0, message.index());
        machine_->trace().Emit(TraceEventKind::kReceive, machine_->now(), kTraceNoProcessor,
                               woken.index(), port.index(), 0, message.index());
      }
    }
    Wake(woken);
    return Status::Ok();
  }

  IMAX_RETURN_IF_FAULT(ports_.Enqueue(port, message,
                                      sender != nullptr ? sender->priority() : 128,
                                      sender != nullptr ? sender->deadline() : 0));
  if (sender == nullptr) {
    machine_->spans().OnExternalSend(ports_.last_enqueue_seq());
    return Status::Ok();
  }
  sender->Increment(ProcessLayout::kOffMessagesSent, 4);
  if (race_sanitizer_ != nullptr) {
    race_sanitizer_->OnSend(sender->ad().index(), ports_.last_enqueue_seq());
  }
  machine_->spans().OnSend(sender->ad().index(), ports_.last_enqueue_seq(), machine_->now());
  return Status::Ok();
}

Result<AccessDescriptor> Kernel::Take(const AccessDescriptor& port, ProcessView* receiver,
                                      ContextView* ctx, uint8_t dest_adreg) {
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor message, ports_.Dequeue(port));
  if (receiver != nullptr) {
    ctx->set_ad_reg(dest_adreg, message);
    receiver->Increment(ProcessLayout::kOffMessagesReceived, 4);
    if (race_sanitizer_ != nullptr) {
      race_sanitizer_->OnReceive(receiver->ad().index(), ports_.last_dequeue_seq());
    }
    machine_->spans().OnReceive(receiver->ad().index(), ports_.last_dequeue_seq(),
                                machine_->now());
  }
  // A slot freed up: admit blocked senders, in order, until one's message is queued. A
  // sender leaves the blocked queue only once its send is done or refused: one that finds
  // the slot retaken (an earlier refused sender's fault, delivered to this port as its fault
  // port, took it) stays blocked, first in line.
  for (auto blocked = ports_.PeekBlockedSender(port); blocked.ok();
       blocked = ports_.PeekBlockedSender(port)) {
    if (!Readable(blocked.value().process)) {
      // Dropped, with its message, and the next sender is admitted.
      (void)ports_.PopBlockedSender(port);
      block_waits_.erase(blocked.value().process.index());
      continue;
    }
    ProcessView sending = process_view(blocked.value().process);
    Status sent = Deliver(port, blocked.value().message, &sending, kTraceNoProcessor);
    if (sent.fault() == Fault::kQueueFull) {
      break;
    }
    (void)ports_.PopBlockedSender(port);
    if (sent.ok()) {
      Wake(blocked.value().process);
      break;
    }
    // The deferred send hit a protection fault: it is the sender's fault to take.
    RaiseFault(sending, sent.fault());
  }
  return message;
}

Kernel::StepEffect Kernel::Block(uint16_t cpu, ProcessView& proc,
                                 const AccessDescriptor& port_ad, bool is_send,
                                 StepEffect effect) {
  proc.set_state(ProcessState::kBlocked);
  proc.bump_block_epoch();
  block_waits_[proc.ad().index()] = BlockWait{machine_->now(), port_ad.index(), is_send};
  if (!is_send) {
    machine_->spans().OnBlockReceive(proc.ad().index(), machine_->now());
  }
  if (machine_->trace().enabled()) {
    auto depth = ports_.QueuedCount(port_ad);
    machine_->trace().Emit(
        is_send ? TraceEventKind::kBlockSend : TraceEventKind::kBlockReceive, machine_->now(),
        cpu, proc.ad().index(), port_ad.index(), depth.ok() ? depth.value() : 0);
  }
  effect.kind = StepEffect::Kind::kBlocked;
  effect.compute += cycles::kBlockOnPort;
  return effect;
}

Result<Kernel::StepEffect> Kernel::DoCall(uint16_t cpu, ProcessView& proc, ContextView& ctx,
                                          const AccessDescriptor& domain_ad, uint32_t entry) {
  AddressingUnit& au = machine_->addressing();
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * domain,
                        au.ResolveTyped(domain_ad, SystemType::kDomain, rights::kDomainCall));
  auto entry_count = machine_->memory().Read(domain->data_base + DomainLayout::kOffEntryCount, 2);
  IMAX_CHECK(entry_count.ok());
  if (entry >= entry_count.value()) {
    return Fault::kBoundsViolation;
  }
  // The call instruction dereferences the domain's entry list with microcode privilege: the
  // caller holds only call rights, yet ends up executing the package's code — that *is* the
  // protected-entry mechanism.
  AccessDescriptor segment = domain->access[entry];
  if (segment.is_null()) {
    return Fault::kNullAccess;
  }
  bool local = domain_ad.SameObject(ctx.domain());
  Level level = static_cast<Level>(machine_->table().At(ctx.ad().index()).level + 1);
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor callee,
                        CreateContext(proc, segment, domain_ad, ctx.ad(), level));
  ContextView callee_ctx(&au, callee);
  // Calling convention: r7 / a7 carry the argument; a6 names the current domain.
  callee_ctx.set_reg(kArgReg, ctx.reg(kArgReg));
  callee_ctx.set_ad_reg(kArgAdReg, ctx.ad_reg(kArgAdReg));
  proc.SetSlot(ProcessLayout::kSlotContext, callee);
  proc.set_call_depth(static_cast<uint16_t>(proc.call_depth() + 1));

  StepEffect effect;
  if (local) {
    ++stats_.local_calls;
    effect.compute = cycles::kLocalCall;
    effect.bus = cycles::kBusDomainCall / 2;
    machine_->trace().Emit(TraceEventKind::kLocalCall, machine_->now(), cpu,
                           proc.ad().index(), callee.index());
  } else {
    ++stats_.domain_calls;
    effect.compute = cycles::kDomainCall;
    effect.bus = cycles::kBusDomainCall;
    // The modeled switch cost rides in the payload so the exporter can draw the calibrated
    // ~65 microsecond slice; the residence time is closed out at the matching return.
    call_starts_[callee.index()] = machine_->now();
    machine_->spans().OnDomainCall(proc.ad().index(), machine_->now());
    machine_->trace().Emit(TraceEventKind::kDomainCall, machine_->now(), cpu,
                           proc.ad().index(), callee.index(),
                           static_cast<uint32_t>(cycles::kDomainCall),
                           domain_ad.index());
  }
  return effect;
}

Result<Kernel::StepEffect> Kernel::DoReturn(uint16_t cpu, ProcessView& proc, ContextView& ctx) {
  AddressingUnit& au = machine_->addressing();
  StepEffect effect;

  // The caller must still be a live context before anything is torn down: another process
  // holding this one's AD can destroy it while this activation runs.
  AccessDescriptor caller = ctx.caller();
  if (!caller.is_null() && !IsLiveContext(caller)) {
    return Fault::kInvalidAccess;
  }

  // Demoted allocations die with the activation too — audited first, while every object
  // that could illegally hold one of their ADs is still alive to be caught.
  effect.compute += ReclaimDemoteSro(cpu, proc, ctx) * cycles::kGcFreeObject / 4;

  // Local heaps created by this activation die with it.
  for (uint32_t slot = 0; slot < ContextLayout::kNumOwnedSroSlots; ++slot) {
    AccessDescriptor owned = ctx.Slot(ContextLayout::kSlotOwnedSros + slot);
    if (!owned.is_null()) {
      auto reclaimed = memory_->DestroySro(owned);
      if (reclaimed.ok()) {
        effect.compute += reclaimed.value() * cycles::kGcFreeObject / 4;
      }
      ctx.SetSlot(ContextLayout::kSlotOwnedSros + slot, AccessDescriptor());
    }
  }

  if (caller.is_null()) {
    // Top-level return: the process completes.
    effect.kind = StepEffect::Kind::kTerminated;
    effect.compute += cycles::kLocalReturn;
    return effect;
  }
  ContextView caller_ctx(&au, caller);
  // Return value convention: r7 always copies back; a7 copies back through the *checked*
  // store — returning an AD for an object deeper than the caller's activation is exactly the
  // lifetime escape Ada forbids, and it faults here.
  caller_ctx.set_reg(kArgReg, ctx.reg(kArgReg));
  AccessDescriptor returned = ctx.ad_reg(kArgAdReg);
  if (!returned.is_null()) {
    IMAX_RETURN_IF_FAULT(
        au.WriteAd(caller, ContextLayout::kSlotAdRegs + kArgAdReg, returned));
  }

  bool local = ctx.domain().SameObject(caller_ctx.domain()) ||
               (ctx.domain().is_null() && caller_ctx.domain().is_null());
  AccessDescriptor dying = ctx.ad();
  // Close the domain-call residence opened at DoCall (absent for local calls).
  auto call_start = call_starts_.find(dying.index());
  if (call_start != call_starts_.end()) {
    Cycles residence = machine_->now() - call_start->second;
    machine_->latency().domain_call.Record(residence);
    machine_->spans().OnDomainReturn(proc.ad().index(), machine_->now());
    machine_->trace().Emit(TraceEventKind::kDomainReturn, machine_->now(), cpu,
                           proc.ad().index(), dying.index(),
                           static_cast<uint32_t>(residence));
    call_starts_.erase(call_start);
  } else {
    machine_->trace().Emit(TraceEventKind::kLocalReturn, machine_->now(), cpu,
                           proc.ad().index(), dying.index());
  }
  proc.SetSlot(ProcessLayout::kSlotContext, caller);
  proc.set_call_depth(static_cast<uint16_t>(proc.call_depth() - 1));
  // The context returns to the stack SRO's free list (stack discipline).
  IMAX_RETURN_IF_FAULT(memory_->DestroyObject(dying));

  effect.compute += local ? cycles::kLocalReturn : cycles::kDomainReturn;
  effect.bus = cycles::kBusDomainCall / 2;
  return effect;
}

bool Kernel::IsLiveContext(const AccessDescriptor& ad) const {
  auto resolved = machine_->table().Resolve(ad);
  return resolved.ok() && resolved.value()->type == SystemType::kContext;
}

void Kernel::RaiseFault(ProcessView& proc, Fault fault) {
  proc.set_fault_code(fault);
  proc.Increment(ProcessLayout::kOffFaultCount, 4);
  uint8_t level = proc.imax_level();

  // §7.3: "Processes below level 3 of the system ... are in general not permitted to fault.
  // Processes at level 2 are actually permitted a limited set of timeout faults while those
  // at level 1 are not permitted even these."
  bool permitted =
      level >= kImaxLevelServices || (level == kImaxLevelMemory && fault == Fault::kTimeout);
  // A fault ends any blocking episode (e.g. a timed receive whose watchdog fired) without a
  // completed wait to record.
  block_waits_.erase(proc.ad().index());
  machine_->spans().OnFault(proc.ad().index(), machine_->now());
  machine_->trace().Emit(TraceEventKind::kFault, machine_->now(), kTraceNoProcessor,
                         proc.ad().index(), static_cast<uint32_t>(fault),
                         permitted && !proc.fault_port().is_null() ? 1 : 0);
  if (!permitted) {
    ++stats_.panics;
    IMAX_LOG_ERROR("iMAX design-rule violation: level-%u process faulted with %s", level,
                   FaultName(fault));
    TerminateProcess(proc, /*faulted=*/true);
    NotifyEvent(proc.ad(), ProcessEvent::kPanicked);
    return;
  }

  ++stats_.faults_delivered;
  proc.set_state(ProcessState::kFaulted);
  AccessDescriptor fault_port = proc.fault_port();
  if (!fault_port.is_null()) {
    // "sending them back to software when various fault or scheduling conditions arise":
    // the faulted process object itself is the message.
    Status sent = PostMessage(fault_port, proc.ad());
    if (sent.ok()) {
      NotifyEvent(proc.ad(), ProcessEvent::kFaulted);
      return;
    }
  }
  TerminateProcess(proc, /*faulted=*/true);
  NotifyEvent(proc.ad(), ProcessEvent::kFaulted);
}

void Kernel::TerminateProcess(ProcessView& proc, bool faulted) {
  proc.set_state(ProcessState::kTerminated);
  block_waits_.erase(proc.ad().index());
  machine_->spans().OnTerminate(proc.ad().index(), machine_->now());
  if (race_sanitizer_ != nullptr) race_sanitizer_->OnProcessRetired(proc.ad().index());
  machine_->trace().Emit(TraceEventKind::kTerminate, machine_->now(), kTraceNoProcessor,
                         proc.ad().index(), faulted ? 1 : 0);

  // Dispose of the activation stack: destroy local heaps owned by live contexts, then the
  // stack SRO (which reclaims every context in one sweep — the local-heap efficiency story).
  AccessDescriptor context = proc.context();
  AddressingUnit& au = machine_->addressing();
  while (!context.is_null()) {
    // User code holding its process or context AD can store any object into the context or
    // caller slot; the walk ends at the first AD that is not a live context.
    if (!IsLiveContext(context)) {
      break;
    }
    ContextView ctx(&au, context);
    call_starts_.erase(context.index());
    (void)ReclaimDemoteSro(kTraceNoProcessor, proc, ctx);
    for (uint32_t slot = 0; slot < ContextLayout::kNumOwnedSroSlots; ++slot) {
      AccessDescriptor owned = ctx.Slot(ContextLayout::kSlotOwnedSros + slot);
      if (!owned.is_null()) {
        (void)memory_->DestroySro(owned);
      }
    }
    context = ctx.caller();
  }
  AccessDescriptor stack = proc.stack_sro();
  proc.SetSlot(ProcessLayout::kSlotContext, AccessDescriptor());
  proc.SetSlot(ProcessLayout::kSlotStackSro, AccessDescriptor());
  if (!stack.is_null()) {
    (void)memory_->DestroySro(stack);
  }
  ++stats_.processes_terminated;
}

void Kernel::NotifyEvent(const AccessDescriptor& process, ProcessEvent event) {
  if (process_event_handler_) {
    process_event_handler_(process, event);
  }
}

void Kernel::NoteLoad(const AccessDescriptor& segment, const LoadFacts& facts) {
  if (!load_facts_.emplace(segment.index(), facts).second || !verify_on_load_) return;
  // Incremental whole-system analysis upkeep: summarize now, so demotion verdicts exist the
  // moment the program can run (see AnalyzeSystem).
  auto program = programs_.Fetch(segment);
  if (program.ok()) RecordEffectSummary(segment.index(), *program.value());
}

void Kernel::RecordEffectSummary(ObjectIndex segment, const Program& program) {
  const LoadFacts facts = load_facts(segment);
  analysis::EffectOptions options =
      analysis::EffectOptionsForTable(machine_->table(), facts.initial_arg, &symbols_);
  options.kind = facts.kind;
  analysis::ProgramSummary summary = analysis::AnalyzeProgram(program, options);
  effect_graph_.AddProgram(segment, std::move(summary.effects), facts.kind);
  ++stats_.effect_summaries;

  std::set<uint32_t> demotable;
  for (uint32_t pc : analysis::DemotableSites(summary.lifetime)) demotable.insert(pc);
  demotable_sites_[segment] = std::move(demotable);
  lifetime_summaries_[segment] = std::move(summary.lifetime);
  ++stats_.lifetime_summaries;
}

bool Kernel::IsDemotableSite(ObjectIndex segment, uint32_t pc) const {
  auto it = demotable_sites_.find(segment);
  return it != demotable_sites_.end() && it->second.count(pc) != 0;
}

AccessDescriptor Kernel::DemoteSroFor(ContextView& ctx, Level context_level) {
  AccessDescriptor existing = ctx.Slot(ContextLayout::kSlotDemoteSro);
  if (!existing.is_null()) return existing;
  // Same level as a program-created local heap: objects inside it can reference each other
  // and anything longer-lived, and nothing at a lower level can legally store ADs to them.
  auto sro = memory_->CreateLocalSro(memory_->global_heap(), demote_sro_bytes_,
                                     static_cast<Level>(context_level + 1));
  if (!sro.ok()) return {};
  ctx.SetSlot(ContextLayout::kSlotDemoteSro, sro.value());
  ++stats_.demote_sros_created;
  return sro.value();
}

uint32_t Kernel::ReclaimDemoteSro(uint16_t cpu, ProcessView& proc, ContextView& ctx) {
  AccessDescriptor sro = ctx.Slot(ContextLayout::kSlotDemoteSro);
  if (sro.is_null()) return 0;
  if (lifetime_auditor_ != nullptr) {
    auto violations = lifetime_auditor_->AuditScopeExit(machine_->table(), sro.index(),
                                                        ctx.ad().index());
    for (const analysis::LifetimeViolation& violation : violations) {
      ++stats_.lifetime_violations;
      machine_->trace().Emit(TraceEventKind::kLifetimeViolation, machine_->now(), cpu,
                             proc.ad().index(), violation.object, violation.holder,
                             violation.alloc_pc);
      IMAX_LOG_ERROR(
          "lifetime audit: demoted object %u (segment %u pc %u) still referenced by "
          "object %u slot %u at scope exit",
          violation.object, violation.segment, violation.alloc_pc, violation.holder,
          violation.holder_slot);
    }
  }
  ctx.SetSlot(ContextLayout::kSlotDemoteSro, AccessDescriptor());
  auto reclaimed = memory_->DestroySro(sro);
  if (!reclaimed.ok()) return 0;
  stats_.demoted_bulk_reclaimed += reclaimed.value();
  return reclaimed.value();
}

void Kernel::EnsureSummaries() {
  // Programs loaded while verify_on_load was off have no summary yet; compute them now from
  // the same load facts the incremental path uses. A program no CreateProcess or
  // CreateDomain loaded (registered directly with the store) starts from "any object" in a7
  // — strictly weaker than a loaded one, never wrong.
  programs_.ForEach([this](ObjectIndex segment, const Program& program) {
    if (!effect_graph_.HasProgram(segment)) RecordEffectSummary(segment, program);
  });
}

analysis::SystemAnalysisReport Kernel::AnalyzeSystem() {
  EnsureSummaries();
  return effect_graph_.Analyze();
}

analysis::RaceAnalysisReport Kernel::AnalyzeRaces() {
  EnsureSummaries();
  return analysis::AnalyzeRaces(effect_graph_);
}

analysis::LifetimeAnalysisReport Kernel::AnalyzeLifetimes() {
  EnsureSummaries();
  return analysis::AnalyzeLifetimes(effect_graph_, lifetime_summaries_);
}

Cycles Kernel::TotalBusyCycles() const {
  Cycles total = 0;
  for (const ProcessorRec& rec : processors_) {
    ObjectView view(&const_cast<Machine*>(machine_)->addressing(), rec.object);
    total += view.Field(ProcessorLayout::kOffBusyCycles, 8);
  }
  return total;
}

void Kernel::AppendRoots(std::vector<AccessDescriptor>* roots) const {
  roots->push_back(default_dispatch_port_);
  for (const ProcessorRec& rec : processors_) {
    roots->push_back(rec.object);
  }
  ports_.AppendShadowRoots(roots);
  for (const RootProviderFn& provider : root_providers_) {
    provider(roots);
  }
}

}  // namespace imax432
