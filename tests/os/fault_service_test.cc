#include "src/os/fault_service.h"

#include <gtest/gtest.h>

#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

class FaultServiceTest : public ::testing::Test {
 protected:
  FaultServiceTest()
      : machine_(MakeConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {
    EXPECT_TRUE(kernel_.AddProcessors(1).ok());
  }

  static MachineConfig MakeConfig() {
    MachineConfig config;
    config.memory_bytes = 512 * 1024;
    config.object_table_capacity = 2048;
    return config;
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
};

TEST_F(FaultServiceTest, RetryPolicyRecoversTransientFault) {
  // The process faults on a null a1; a helper event fixes a1 between fault and retry, so
  // the first retry succeeds — the transient-fault recovery pattern.
  FaultPolicy policy;
  policy.actions[Fault::kNullAccess] = FaultAction::kRetry;
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();  // daemon parks

  auto target = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                     rights::kRead | rights::kWrite);
  ASSERT_TRUE(target.ok());

  Assembler a("transient");
  a.LoadData(0, 1, 0, 8)  // a1 null: faults the first time
      .Halt();
  ProcessOptions options;
  options.fault_port = fault_port.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  kernel_.AddRootProvider([ad = process.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(ad);
  });

  // Intercede once the fault has landed: a repeating fix-up poller (standing in for the
  // external condition clearing) gives the process a valid a1 the first time it observes
  // the faulted state; the service's Resume then re-executes the instruction successfully.
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  // `fixer` outlives kernel_.Run(), so the event lambdas capture it by reference; a
  // self-owning shared_ptr capture would cycle and leak.
  std::function<void(int)> fixer;
  fixer = [this, process = process.value(), target = target.value(), &fixer](int remaining) {
    ProcessView proc = kernel_.process_view(process);
    if (proc.state() == ProcessState::kFaulted) {
      ContextView ctx(&machine_.addressing(), proc.context());
      ctx.set_ad_reg(1, target);
      return;  // condition cleared; no more polling
    }
    if (proc.state() != ProcessState::kTerminated && remaining > 0) {
      machine_.events().ScheduleAfter(200, [&fixer, remaining] { fixer(remaining - 1); });
    }
  };
  machine_.events().ScheduleAfter(1, [&fixer] { fixer(100); });
  kernel_.Run();
  EXPECT_EQ(kernel_.process_view(process.value()).state(), ProcessState::kTerminated);
  EXPECT_GE(service.stats().retried, 1u);
  EXPECT_LE(service.stats().retried, policy.retry_budget);
  EXPECT_EQ(service.stats().terminated, 0u);
}

TEST_F(FaultServiceTest, RetryBudgetStopsFaultLoops) {
  // A process that faults forever: the service retries `retry_budget` times, then gives up.
  FaultPolicy policy;
  policy.actions[Fault::kNullAccess] = FaultAction::kRetry;
  policy.retry_budget = 3;
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  Assembler a("loop-fault");
  a.LoadData(0, 1, 0, 8).Halt();  // a1 stays null: faults on every retry
  ProcessOptions options;
  options.fault_port = fault_port.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  kernel_.AddRootProvider([ad = process.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(ad);
  });
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  kernel_.Run();
  EXPECT_EQ(service.stats().retried, 3u);
  EXPECT_EQ(service.stats().budget_exhausted, 1u);
  EXPECT_EQ(service.stats().terminated, 1u);
  EXPECT_EQ(kernel_.process_view(process.value()).state(), ProcessState::kTerminated);
}

TEST_F(FaultServiceTest, DefaultActionTerminates) {
  FaultPolicy policy;  // nothing listed: everything terminates
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  Assembler a("doomed");
  a.LoadData(0, 1, 0, 8).Halt();
  ProcessOptions options;
  options.fault_port = fault_port.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  kernel_.AddRootProvider([ad = process.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(ad);
  });
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  kernel_.Run();
  EXPECT_EQ(service.stats().terminated, 1u);
  EXPECT_EQ(service.stats().retried, 0u);
  EXPECT_EQ(kernel_.process_view(process.value()).state(), ProcessState::kTerminated);
}

// A quarantined process that reaches the fault port can no longer be read: the service
// skips it, as the dispatcher does, instead of reading its fault code through a checked
// view, which would abort the host. The next faulted process is handled as usual.
TEST_F(FaultServiceTest, AQuarantinedProcessIsSkipped) {
  FaultPolicy policy;  // nothing listed: everything terminates
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  Assembler idle("never-started");
  idle.Halt();
  auto quarantined = kernel_.CreateProcess(idle.Build(), ProcessOptions{});
  ASSERT_TRUE(quarantined.ok());
  machine_.table().At(quarantined.value().index()).quarantined = true;
  ASSERT_TRUE(kernel_.PostMessage(fault_port.value(), quarantined.value()).ok());
  kernel_.Run();
  EXPECT_EQ(service.stats().received, 0u);
  EXPECT_EQ(service.stats().terminated, 0u);

  Assembler a("doomed");
  a.LoadData(0, 1, 0, 8).Halt();
  ProcessOptions options;
  options.fault_port = fault_port.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  kernel_.AddRootProvider([ad = process.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(ad);
  });
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  kernel_.Run();
  EXPECT_EQ(service.stats().received, 1u);
  EXPECT_EQ(service.stats().terminated, 1u);
  EXPECT_EQ(kernel_.process_view(process.value()).state(), ProcessState::kTerminated);
}

TEST_F(FaultServiceTest, EscalationForwardsTheProcessObject) {
  auto escalation =
      kernel_.ports().CreatePort(memory_.global_heap(), 8, QueueDiscipline::kFifo);
  ASSERT_TRUE(escalation.ok());
  FaultPolicy policy;
  policy.actions[Fault::kRightsViolation] = FaultAction::kDeliver;
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn(escalation.value());
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  Assembler a("rights-fault");
  a.MoveAd(1, kArgAdReg).RestrictRights(1, rights::kNone).LoadData(0, 1, 0, 8).Halt();
  auto object = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                     rights::kRead);
  ASSERT_TRUE(object.ok());
  ProcessOptions options;
  options.fault_port = fault_port.value();
  options.initial_arg = object.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  kernel_.Run();

  EXPECT_EQ(service.stats().escalated, 1u);
  auto forwarded = kernel_.ports().Dequeue(escalation.value());
  ASSERT_TRUE(forwarded.ok());
  EXPECT_TRUE(forwarded.value().SameObject(process.value()));
  EXPECT_EQ(kernel_.process_view(process.value()).fault_code(), Fault::kRightsViolation);
}

TEST_F(FaultServiceTest, DeliverWithoutEscalationPortTerminates) {
  // kDeliver is only as good as the smarter handler behind it: spawned with no escalation
  // port, the service falls back to termination instead of leaving the process in limbo.
  FaultPolicy policy;
  policy.actions[Fault::kNullAccess] = FaultAction::kDeliver;
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();  // no escalation port
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  Assembler a("undeliverable");
  a.LoadData(0, 1, 0, 8).Halt();
  ProcessOptions options;
  options.fault_port = fault_port.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  kernel_.AddRootProvider([ad = process.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(ad);
  });
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  kernel_.Run();

  EXPECT_EQ(service.stats().escalated, 0u);
  EXPECT_EQ(service.stats().terminated, 1u);
  EXPECT_EQ(kernel_.process_view(process.value()).state(), ProcessState::kTerminated);
}

TEST_F(FaultServiceTest, PerFaultCodeBudgetOverridesTheGlobalBudget) {
  // The global budget is 1 but kNullAccess carries an override of 4: the mid-retry-loop
  // exhaustion must trip at the override, not the default.
  FaultPolicy policy;
  policy.actions[Fault::kNullAccess] = FaultAction::kRetry;
  policy.retry_budget = 1;
  policy.retry_budgets[Fault::kNullAccess] = 4;
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  Assembler a("loop-fault");
  a.LoadData(0, 1, 0, 8).Halt();  // a1 stays null: faults on every retry
  ProcessOptions options;
  options.fault_port = fault_port.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  kernel_.AddRootProvider([ad = process.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(ad);
  });
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  kernel_.Run();

  EXPECT_EQ(service.stats().retried, 4u);
  EXPECT_EQ(service.stats().budget_exhausted, 1u);
  EXPECT_EQ(service.stats().terminated, 1u);
  EXPECT_EQ(kernel_.process_view(process.value()).state(), ProcessState::kTerminated);
}

TEST_F(FaultServiceTest, QuarantinedFaultBudgetIsForcedToZero) {
  // Even a policy that asks for generous retries on kObjectQuarantined gets none: retrying
  // an access to a corrupt object can never succeed, so the service refuses the first one.
  FaultPolicy policy;
  policy.actions[Fault::kObjectQuarantined] = FaultAction::kRetry;
  policy.retry_budgets[Fault::kObjectQuarantined] = 5;
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  auto object = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                     rights::kRead | rights::kWrite);
  ASSERT_TRUE(object.ok());
  machine_.table().At(object.value().index()).quarantined = true;

  Assembler a("touch-quarantined");
  a.MoveAd(1, kArgAdReg).LoadData(0, 1, 0, 8).Halt();
  ProcessOptions options;
  options.fault_port = fault_port.value();
  options.initial_arg = object.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  kernel_.Run();

  EXPECT_EQ(service.stats().retried, 0u);
  EXPECT_EQ(service.stats().budget_exhausted, 1u);
  EXPECT_EQ(service.stats().terminated, 1u);
  EXPECT_EQ(kernel_.process_view(process.value()).fault_code(), Fault::kObjectQuarantined);
  EXPECT_EQ(kernel_.process_view(process.value()).state(), ProcessState::kTerminated);
}

TEST_F(FaultServiceTest, MixedFleetUnderOnePolicy) {
  FaultPolicy policy;
  policy.actions[Fault::kNullAccess] = FaultAction::kRetry;
  policy.retry_budget = 1;
  FaultService service(&kernel_, policy);
  auto fault_port = service.Spawn();
  ASSERT_TRUE(fault_port.ok());
  kernel_.Run();

  std::vector<AccessDescriptor> fleet;
  kernel_.AddRootProvider([&fleet](std::vector<AccessDescriptor>* roots) {
    for (const AccessDescriptor& ad : fleet) {
      roots->push_back(ad);
    }
  });
  for (int i = 0; i < 6; ++i) {
    Assembler a(i % 2 == 0 ? "healthy" : "faulty");
    if (i % 2 == 0) {
      a.Compute(500).Halt();
    } else {
      a.LoadData(0, 1, 0, 8).Halt();
    }
    ProcessOptions options;
    options.fault_port = fault_port.value();
    auto process = kernel_.CreateProcess(a.Build(), options);
    ASSERT_TRUE(process.ok());
    fleet.push_back(process.value());
    ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());
  }
  kernel_.Run();
  // All six end terminal; the three faulty ones consumed one retry each then terminated.
  for (const AccessDescriptor& process : fleet) {
    EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kTerminated);
  }
  EXPECT_EQ(service.stats().retried, 3u);
  EXPECT_EQ(service.stats().terminated, 3u);
}

}  // namespace
}  // namespace imax432
