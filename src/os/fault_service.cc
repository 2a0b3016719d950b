#include "src/os/fault_service.h"

#include "src/base/log.h"

namespace imax432 {

FaultPolicy FaultService::MakeRecoveryPolicy() {
  FaultPolicy policy;
  policy.actions[Fault::kDeviceError] = FaultAction::kRetry;
  policy.actions[Fault::kTimeout] = FaultAction::kRetry;
  policy.actions[Fault::kStorageExhausted] = FaultAction::kRetry;
  policy.actions[Fault::kObjectQuarantined] = FaultAction::kTerminate;
  policy.retry_budgets[Fault::kDeviceError] = 5;
  policy.retry_budgets[Fault::kTimeout] = 5;
  policy.retry_budgets[Fault::kStorageExhausted] = 2;
  return policy;
}

uint32_t FaultService::BudgetFor(Fault fault) const {
  if (fault == Fault::kObjectQuarantined) {
    return 0;  // corrupt is corrupt: no retry can un-quarantine the object
  }
  auto it = policy_.retry_budgets.find(fault);
  return it != policy_.retry_budgets.end() ? it->second : policy_.retry_budget;
}

Result<AccessDescriptor> FaultService::Spawn(const AccessDescriptor& escalation_port) {
  escalation_port_ = escalation_port;
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor fault_port,
                        kernel_->ports().CreatePort(kernel_->memory().global_heap(), 64,
                                                    QueueDiscipline::kFifo));
  kernel_->AddRootProvider([fault_port, escalation_port](
                               std::vector<AccessDescriptor>* roots) {
    roots->push_back(fault_port);
    if (!escalation_port.is_null()) {
      roots->push_back(escalation_port);
    }
  });

  Assembler a("fault-service");
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Native([fault_port](ExecutionContext&) -> Result<NativeResult> {
    NativeResult r;
    r.action = NativeResult::Action::kBlockReceive;
    r.port = fault_port;
    r.dest_adreg = 3;
    r.compute = cycles::kReceive;
    return r;
  });
  a.Native([this](ExecutionContext& env) -> Result<NativeResult> {
    AccessDescriptor faulted = env.ad_reg(3);
    env.set_ad_reg(3, AccessDescriptor());
    if (!faulted.is_null()) {
      Handle(faulted);
    }
    NativeResult r;
    r.compute = cycles::kSimpleOp * 16;
    return r;
  });
  a.Branch(loop);

  ProcessOptions options;
  options.priority = 245;  // fault handling outranks ordinary work
  options.imax_level = kImaxLevelServices;
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor daemon, kernel_->CreateProcess(a.Build(), options));
  // Fault-handling daemon cycles bin under fault recovery, not interpreter work.
  kernel_->machine().profiler().TagProcess(daemon.index(), CycleBucket::kFaultRecovery);
  IMAX_RETURN_IF_FAULT(kernel_->StartProcess(daemon));
  return fault_port;
}

void FaultService::Handle(const AccessDescriptor& process) {
  if (!kernel_->Readable(process)) {
    return;  // already reclaimed, or quarantined: its state can no longer be read
  }
  ++stats_.received;
  ProcessView proc = kernel_->process_view(process);
  Fault fault = proc.fault_code();

  auto it = policy_.actions.find(fault);
  FaultAction action = it != policy_.actions.end() ? it->second : policy_.default_action;

  if (action == FaultAction::kRetry) {
    uint32_t& used = retries_[{process.index(), fault}];
    if (used >= BudgetFor(fault)) {
      ++stats_.budget_exhausted;
      action = FaultAction::kTerminate;
    } else {
      ++used;
    }
  }

  switch (action) {
    case FaultAction::kRetry:
      ++stats_.retried;
      // The faulting instruction's pc was preserved at fault time; resuming re-executes it.
      if (!kernel_->ResumeProcess(process).ok()) {
        ++stats_.terminated;
      }
      return;
    case FaultAction::kDeliver:
      if (!escalation_port_.is_null() &&
          kernel_->PostMessage(escalation_port_, process).ok()) {
        ++stats_.escalated;
        return;
      }
      [[fallthrough]];
    case FaultAction::kTerminate:
      ++stats_.terminated;
      IMAX_LOG_DEBUG("fault service: terminating process %u after %s", process.index(),
                     FaultName(fault));
      // The process stays kFaulted but is never resumed; its resources are already
      // reclaimed by fault-time disposal or will be collected once unreferenced. Mark it
      // terminated so observers see a terminal state.
      proc.set_state(ProcessState::kTerminated);
      return;
  }
}

}  // namespace imax432
