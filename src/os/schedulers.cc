#include "src/os/schedulers.h"

namespace imax432 {

namespace {

// Builds the daemon skeleton shared by the port-served schedulers: loop { block-receive a
// process at the scheduler port; run `decide` on it }.
// True when a process the scheduler received is waiting to be admitted into the mix.
bool AwaitingAdmission(const ProcessView& proc) {
  ProcessState state = proc.state();
  return proc.stop_count() <= 0 &&
         (state == ProcessState::kEmbryo || state == ProcessState::kStopped);
}

Result<SchedulerInstance> SpawnPortScheduler(
    Kernel* kernel, const char* name,
    std::function<void(ExecutionContext&, const AccessDescriptor&)> decide) {
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor port,
                        kernel->ports().CreatePort(kernel->memory().global_heap(), 64,
                                                   QueueDiscipline::kFifo));
  // The scheduler port is referenced only from this package (and from its processes'
  // scheduler slots); report it as a root so it outlives quiet periods.
  kernel->AddRootProvider(
      [port](std::vector<AccessDescriptor>* roots) { roots->push_back(port); });
  Assembler a(name);
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Native([port](ExecutionContext&) -> Result<NativeResult> {
    NativeResult r;
    r.action = NativeResult::Action::kBlockReceive;
    r.port = port;
    r.dest_adreg = 3;
    r.compute = cycles::kReceive;
    return r;
  });
  a.Native([decide = std::move(decide)](ExecutionContext& env) -> Result<NativeResult> {
    AccessDescriptor process = env.ad_reg(3);
    env.set_ad_reg(3, AccessDescriptor());
    if (!process.is_null()) {
      decide(env, process);
    }
    NativeResult r;
    r.compute = cycles::kSimpleOp * 8;
    return r;
  });
  a.Branch(loop);

  ProcessOptions options;
  options.priority = 250;  // schedulers outrank the processes they manage
  options.imax_level = kImaxLevelServices;
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor daemon, kernel->CreateProcess(a.Build(), options));
  IMAX_RETURN_IF_FAULT(kernel->StartProcess(daemon));
  return SchedulerInstance{port, daemon};
}

}  // namespace

Result<SchedulerInstance> SpawnPassThroughScheduler(Kernel* kernel,
                                                    BasicProcessManager* manager,
                                                    SchedulerStats* stats) {
  return SpawnPortScheduler(
      kernel, "sched-passthrough",
      [kernel, manager, stats](ExecutionContext&, const AccessDescriptor& process) {
        ProcessView proc = kernel->process_view(process);
        if (AwaitingAdmission(proc)) {
          ++stats->admitted;
          manager->Admit(process);
        }
        // Processes arriving because they *left* the mix need no action under this policy.
      });
}

Result<SchedulerInstance> SpawnFairShareScheduler(Kernel* kernel, BasicProcessManager* manager,
                                                  SchedulerStats* stats, uint8_t base_priority,
                                                  uint64_t cycles_per_priority_step) {
  return SpawnPortScheduler(
      kernel, "sched-fairshare",
      [kernel, manager, stats, base_priority,
       cycles_per_priority_step](ExecutionContext&, const AccessDescriptor& process) {
        ProcessView proc = kernel->process_view(process);
        if (!AwaitingAdmission(proc)) {
          return;
        }
        // Rewrite the hardware dispatching parameter: heavier consumers sink in priority.
        uint64_t penalty = proc.consumed() / cycles_per_priority_step;
        uint8_t priority =
            penalty >= base_priority ? 1 : static_cast<uint8_t>(base_priority - penalty);
        proc.set_priority(priority);
        ++stats->adjusted;
        ++stats->admitted;
        manager->Admit(process);
      });
}

BatchScheduler::BatchScheduler(Kernel* kernel, BasicProcessManager* manager,
                               uint32_t max_concurrent)
    : kernel_(kernel), manager_(manager), max_concurrent_(max_concurrent) {}

Result<SchedulerInstance> BatchScheduler::Spawn() {
  // Processes parked in waiting_ are referenced only from this package's C++ state, so they
  // must be reported to the collector as roots.
  kernel_->AddRootProvider([this](std::vector<AccessDescriptor>* roots) {
    for (const AccessDescriptor& process : waiting_) {
      roots->push_back(process);
    }
  });
  return SpawnPortScheduler(
      kernel_, "sched-batch", [this](ExecutionContext&, const AccessDescriptor& process) {
        ProcessView proc = kernel_->process_view(process);
        if (!AwaitingAdmission(proc)) {
          return;
        }
        waiting_.push_back(process);
        TryAdmit();
      });
}

void BatchScheduler::TryAdmit() {
  while (running_ < max_concurrent_ && !waiting_.empty()) {
    AccessDescriptor process = waiting_.front();
    waiting_.erase(waiting_.begin());
    if (!kernel_->machine().table().Resolve(process).ok()) {
      continue;
    }
    ++running_;
    ++stats_.admitted;
    manager_->Admit(process);
  }
}

void BatchScheduler::NotifyTermination(const AccessDescriptor& process) {
  (void)process;
  if (running_ > 0) {
    --running_;
  }
  TryAdmit();
}

}  // namespace imax432
