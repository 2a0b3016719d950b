#include "src/os/system.h"

#include "src/base/check.h"
#include "src/base/log.h"

namespace imax432 {

System::System(const SystemConfig& config)
    : machine_config_(config.machine), machine_(machine_config_) {
  // Arm tracing before the storage system boots so even the boot allocations are on the
  // timeline.
  if (config.trace) {
    machine_.trace().Enable(config.trace_capacity);
    SetTraceLogSink(&System::TraceLogThunk, this);
  }
  // Arm the observers before anything executes so the boot daemons are attributed too.
  if (config.profile) {
    machine_.profiler().Enable();
  }
  if (config.span_trace) {
    machine_.spans().Enable();
  }
  // §6.2: one memory specification, two implementations; the system is configured by
  // selecting one, and nothing downstream changes.
  switch (config.memory_manager) {
    case MemoryManagerKind::kNonSwapping:
      memory_ = std::make_unique<BasicMemoryManager>(&machine_);
      break;
    case MemoryManagerKind::kSwapping:
      memory_ = std::make_unique<SwappingMemoryManager>(&machine_);
      break;
  }

  kernel_ = std::make_unique<Kernel>(&machine_, memory_.get());
  kernel_->set_verify_on_load(config.verify_on_load);
  if (config.race_sanitize) {
    kernel_->EnableRaceSanitizer();
  }
  kernel_->set_lifetime_demote(config.lifetime_demote);
  kernel_->set_demote_sro_bytes(config.demote_sro_bytes);
  if (config.lifetime_audit) {
    kernel_->EnableLifetimeAuditor();
  }
  gc_ = std::make_unique<GarbageCollector>(kernel_.get());
  patrol_ = std::make_unique<ObjectPatrol>(kernel_.get());
  types_ = std::make_unique<TypeManagerFacility>(kernel_.get());
  filing_ = std::make_unique<ObjectStore>(kernel_.get(), types_.get());
  if (config.stable_store != nullptr) {
    // Journal before anything else runs: boot-time recovery replays the previous
    // incarnation's log into the fresh store. Recovery is best-effort by design — a torn
    // or corrupt journal rolls back, an unreadable device yields an empty store, and in
    // no case does a damaged log panic the boot.
    journal_ = std::make_unique<Journal>(config.stable_store, &machine_);
    filing_->AttachJournal(journal_.get(), config.filing_checkpoint_interval);
    filing_recovery_status_ = filing_->Recover();
    if (!filing_recovery_status_.ok()) {
      IMAX_LOG_WARNING("filing: journal recovery failed (%s); starting with an empty store",
                       FaultName(filing_recovery_status_.fault()));
    }
  }
  process_manager_ = std::make_unique<BasicProcessManager>(kernel_.get());
  ports_api_ = std::make_unique<UntypedPorts>(kernel_.get());

  // Subsystem shadow state dies with the objects it shadows.
  gc_->AddReclaimObserver([this](ObjectIndex index, const ObjectDescriptor& descriptor) {
    if (descriptor.type == SystemType::kPort) {
      kernel_->ports().Forget(index);
    } else if (descriptor.type == SystemType::kInstructionSegment) {
      kernel_->programs().Forget(index);
      // Keep the whole-system IPC analysis in step: a reclaimed segment's summary must not
      // keep feeding the wait-for graph.
      kernel_->ForgetProgramAnalysis(index);
    }
    if (kernel_->race_sanitizer() != nullptr) {
      // A reclaimed index may be reused; stale epochs would fabricate races against the
      // next object that lands there.
      kernel_->race_sanitizer()->OnObjectDestroyed(index);
    }
    if (kernel_->lifetime_auditor() != nullptr) {
      // Same reuse hazard: a tracked demoted object reclaimed through any other path must
      // not leave a stale audit entry behind.
      kernel_->lifetime_auditor()->OnObjectDestroyed(index);
    }
    // Drop the patrol's CRC baseline: the index may be reused (the generation key would
    // catch it anyway, but the entry is dead weight).
    patrol_->Forget(index);
  });

  IMAX_CHECK(kernel_->AddProcessors(config.processors).ok());

  if (config.recover_lost_processes) {
    auto port = kernel_->ports().CreatePort(memory_->global_heap(), 64,
                                            QueueDiscipline::kFifo);
    IMAX_CHECK(port.ok());
    lost_process_port_ = port.value();
    gc_->SetSystemTypeFilter(SystemType::kProcess, lost_process_port_);
    kernel_->AddRootProvider([port = lost_process_port_](
                                 std::vector<AccessDescriptor>* roots) {
      roots->push_back(port);
    });
  }

  if (config.start_gc_daemon) {
    auto request_port = gc_->SpawnDaemon(config.gc_units_per_step);
    IMAX_CHECK(request_port.ok());
    gc_request_port_ = request_port.value();
  }

  if (config.start_patrol_daemon) {
    auto request_port = patrol_->SpawnDaemon();
    IMAX_CHECK(request_port.ok());
    patrol_request_port_ = request_port.value();
  }
}

System::~System() {
  if (machine_.trace().enabled()) {
    SetTraceLogSink(nullptr, nullptr);
  }
}

void System::TraceLogThunk(void* user, const char* message) {
  System* system = static_cast<System*>(user);
  system->machine_.trace().Annotate(system->machine_.now(), message);
}

Result<AccessDescriptor> System::Spawn(ProgramRef program, const ProcessOptions& options) {
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor process,
                        process_manager_->Create(std::move(program), options));
  IMAX_RETURN_IF_FAULT(process_manager_->Start(process));
  return process;
}

Status System::RequestCollection() {
  if (gc_request_port_.is_null()) {
    return Fault::kWrongState;
  }
  // Any message works as a request; the collector replies only if it is a port. Reuse the
  // global heap AD as a cheap, always-live token.
  return kernel_->PostMessage(gc_request_port_, memory_->global_heap());
}

Status System::RequestPatrolSweep() {
  if (patrol_request_port_.is_null()) {
    return Fault::kWrongState;
  }
  return kernel_->PostMessage(patrol_request_port_, memory_->global_heap());
}

}  // namespace imax432
