#include "src/exec/kernel.h"

#include <gtest/gtest.h>

#include <functional>

#include "src/memory/basic_memory_manager.h"
#include "src/memory/swapping_memory_manager.h"
#include "src/os/patrol.h"
#include "src/os/system.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : machine_(SmallConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {}

  AccessDescriptor Spawn(ProgramRef program, ProcessOptions options = {}) {
    auto process = kernel_.CreateProcess(std::move(program), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    EXPECT_TRUE(kernel_.StartProcess(process.value()).ok());
    return process.value();
  }

  ProcessView View(const AccessDescriptor& process) { return kernel_.process_view(process); }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
};

TEST_F(KernelTest, SimpleProgramRunsToHalt) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("simple");
  a.LoadImm(0, 40).LoadImm(1, 2).Add(2, 0, 1).Halt();
  AccessDescriptor process = Spawn(a.Build());
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_GE(kernel_.stats().instructions_executed, 4u);
  EXPECT_EQ(kernel_.stats().processes_terminated, 1u);
}

TEST_F(KernelTest, FallingOffTheEndTerminates) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("no-halt");
  a.LoadImm(0, 1);
  AccessDescriptor process = Spawn(a.Build());
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
}

TEST_F(KernelTest, LoopComputesAndStoresToObject) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  // Sum 1..10 into r2, create an object and store the sum at offset 0.
  Assembler a("loop");
  auto loop = a.NewLabel();
  a.LoadImm(0, 1)        // i
      .LoadImm(1, 11)    // bound
      .LoadImm(2, 0)     // sum
      .Bind(loop)
      .Add(2, 2, 0)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .CreateObject(0, 1, 64)  // a1 must hold an SRO: pass via initial arg
      .StoreData(0, 2, 0, 8)
      .Halt();
  ProcessOptions options;
  options.initial_arg = memory_.global_heap();
  // The program expects the SRO in a1; copy from a7 first. Rebuild with the move up front.
  Assembler b("loop2");
  auto loop2 = b.NewLabel();
  b.MoveAd(1, kArgAdReg)
      .LoadImm(0, 1)
      .LoadImm(1 + 0, 11)  // r1 bound (note: data regs independent of AD regs)
      .LoadImm(2, 0)
      .Bind(loop2)
      .Add(2, 2, 0)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop2)
      .CreateObject(0, 1, 64)
      .StoreData(0, 2, 0, 8)
      .Halt();
  AccessDescriptor process = Spawn(b.Build(), options);
  kernel_.Run();
  ASSERT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(memory_.stats().objects_created > 0, true);
}

TEST_F(KernelTest, CreateObjectChargesCalibratedCost) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("alloc");
  a.MoveAd(1, kArgAdReg).CreateObject(0, 1, 64).Halt();
  ProcessOptions options;
  options.initial_arg = memory_.global_heap();
  AccessDescriptor process = Spawn(a.Build(), options);
  Cycles before = machine_.now();
  kernel_.Run();
  (void)before;
  // The create-object instruction costs 640 cycles = 80 us at 8 MHz (the paper's number).
  EXPECT_EQ(cycles::CreateObjectCost(64, 0), 640u);
  EXPECT_EQ(cycles::ToMicroseconds(cycles::CreateObjectCost(64, 0)), 80.0);
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
}

TEST_F(KernelTest, MessagePassingBetweenProcesses) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  // Producer: creates an object, writes 777 into it, sends it.
  Assembler producer("producer");
  producer.MoveAd(1, kArgAdReg)       // a1 = port (passed as arg)
      .LoadAd(2, 1, 0)                // a2 = SRO stashed in the port? No: use two args.
      .Halt();
  // Simpler: pass the port as arg and use the global heap via a second mechanism — stash the
  // SRO AD inside a carrier object. Build a carrier with slots: 0=port, 1=sro.
  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, port.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, memory_.global_heap()).ok());

  Assembler send_program("sender");
  send_program.MoveAd(1, kArgAdReg)  // a1 = carrier
      .LoadAd(2, 1, 0)               // a2 = port
      .LoadAd(3, 1, 1)               // a3 = sro
      .CreateObject(4, 3, 32)        // a4 = message object
      .LoadImm(0, 777)
      .StoreData(4, 0, 0, 8)
      .Send(2, 4)
      .Halt();

  Assembler receive_program("receiver");
  receive_program.MoveAd(1, kArgAdReg)  // a1 = carrier
      .LoadAd(2, 1, 0)                  // a2 = port
      .Receive(4, 2)                    // a4 = message
      .LoadData(0, 4, 0, 8)             // r0 = payload
      .StoreData(1, 0, 0, 8)            // write it into the carrier so the test can see it
      .Halt();

  ProcessOptions options;
  options.initial_arg = carrier.value();
  AccessDescriptor receiver = Spawn(receive_program.Build(), options);
  AccessDescriptor sender = Spawn(send_program.Build(), options);
  kernel_.Run();

  EXPECT_EQ(View(sender).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(receiver).state(), ProcessState::kTerminated);
  auto observed = machine_.addressing().ReadData(carrier.value(), 0, 8);
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(observed.value(), 777u);
}

TEST_F(KernelTest, ReceiveBlocksUntilSendArrives) {
  ASSERT_TRUE(kernel_.AddProcessors(2).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 2, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());

  Assembler receiver_program("rx");
  receiver_program.MoveAd(1, kArgAdReg).Receive(2, 1).Halt();
  ProcessOptions options;
  options.initial_arg = port.value();
  AccessDescriptor receiver = Spawn(receiver_program.Build(), options);

  // Run: the receiver must block (no sender yet).
  kernel_.Run();
  EXPECT_EQ(View(receiver).state(), ProcessState::kBlocked);
  EXPECT_GE(kernel_.stats().blocks, 1u);

  // Now post a message from outside; the receiver wakes and finishes.
  auto message = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 0,
                                      rights::kRead);
  ASSERT_TRUE(message.ok());
  ASSERT_TRUE(kernel_.PostMessage(port.value(), message.value()).ok());
  kernel_.Run();
  EXPECT_EQ(View(receiver).state(), ProcessState::kTerminated);
}

TEST_F(KernelTest, SenderBlocksOnFullPortAndResumes) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 1, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, port.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, memory_.global_heap()).ok());

  // Sender sends twice into a capacity-1 port: the second send must block.
  Assembler sender_program("sender2");
  sender_program.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .CreateObject(4, 3, 16)
      .Send(2, 4)
      .CreateObject(5, 3, 16)
      .Send(2, 5)
      .LoadImm(0, 1)
      .StoreData(1, 0, 0, 8)  // mark completion in the carrier
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  AccessDescriptor sender = Spawn(sender_program.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(sender).state(), ProcessState::kBlocked);
  EXPECT_EQ(machine_.addressing().ReadData(carrier.value(), 0, 8).value(), 0u);

  // Drain one message: the blocked sender's message enters the port and the sender finishes.
  Assembler drain_program("drain");
  drain_program.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Receive(3, 2).Halt();
  AccessDescriptor drainer = Spawn(drain_program.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(drainer).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(sender).state(), ProcessState::kTerminated);
  EXPECT_EQ(machine_.addressing().ReadData(carrier.value(), 0, 8).value(), 1u);
  // The port still holds the deferred second message.
  EXPECT_EQ(kernel_.ports().QueuedCount(port.value()).value(), 1u);
}

TEST_F(KernelTest, CondSendReportsFullWithoutBlocking) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 1, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 2,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, port.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, memory_.global_heap()).ok());

  Assembler a("condsend");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .CreateObject(4, 3, 16)
      .CondSend(2, 4, 0)        // should succeed -> r0 = 1
      .CreateObject(5, 3, 16)
      .CondSend(2, 5, 1)        // port now full -> r1 = 0
      .StoreData(1, 0, 0, 8)
      .StoreData(1, 1, 8, 8)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  AccessDescriptor process = Spawn(a.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(machine_.addressing().ReadData(carrier.value(), 0, 8).value(), 1u);
  EXPECT_EQ(machine_.addressing().ReadData(carrier.value(), 8, 8).value(), 0u);
}

TEST_F(KernelTest, DomainCallAndReturn) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  // Callee: r7 = r7 * 2 + 1; return.
  Assembler callee("double-plus-one");
  callee.LoadImm(0, 2).Mul(7, 7, 0).AddImm(7, 7, 1).Return();
  auto segment = kernel_.programs().Register(callee.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel_.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());
  // The caller may call but not read the domain.
  EXPECT_TRUE(domain.value().HasRights(rights::kDomainCall));
  EXPECT_FALSE(domain.value().HasRights(rights::kRead));

  Assembler caller("caller");
  caller.MoveAd(1, kArgAdReg)  // a1 = domain (passed as arg)
      .LoadImm(7, 20)
      .Call(1, 0)
      .Halt();
  ProcessOptions options;
  options.initial_arg = domain.value();
  AccessDescriptor process = Spawn(caller.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().domain_calls, 1u);
  // 20 * 2 + 1 = 41 came back in r7... but the context is gone. Verify via consumed cycles:
  // the call must have charged at least kDomainCall = 520 cycles = 65 us.
  EXPECT_GE(View(process).consumed(), cycles::kDomainCall);
}

TEST_F(KernelTest, DomainCallReturnValueObservable) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler callee("add-seven");
  callee.AddImm(7, 7, 7).Return();
  auto segment = kernel_.programs().Register(callee.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel_.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());

  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 1,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, domain.value()).ok());

  Assembler caller("caller");
  caller.MoveAd(1, kArgAdReg)  // a1 = carrier
      .LoadAd(2, 1, 0)         // a2 = domain
      .LoadImm(7, 35)
      .Call(2, 0)
      .StoreData(1, 7, 0, 8)   // result visible to the test
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  Spawn(caller.Build(), options);
  kernel_.Run();
  EXPECT_EQ(machine_.addressing().ReadData(carrier.value(), 0, 8).value(), 42u);
}

TEST_F(KernelTest, CallRightsEnforced) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler callee("noop");
  callee.Return();
  auto segment = kernel_.programs().Register(callee.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel_.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());

  Assembler caller("bad-caller");
  caller.MoveAd(1, kArgAdReg)
      .RestrictRights(1, rights::kNone)  // drop call rights
      .Call(1, 0)
      .Halt();
  ProcessOptions options;
  options.initial_arg = domain.value();
  AccessDescriptor process = Spawn(caller.Build(), options);
  kernel_.Run();
  // No fault port: the process dies with the rights violation recorded.
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(process).fault_code(), Fault::kRightsViolation);
}

TEST_F(KernelTest, LevelRuleFaultsEscapingStore) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  // Program: create a local SRO, allocate an object from it, attempt to store its AD into a
  // global container -> kLevelViolation.
  auto container = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                        rights::kRead | rights::kWrite);
  ASSERT_TRUE(container.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(container.value(), 0, memory_.global_heap()).ok());

  Assembler a("escape");
  a.MoveAd(1, kArgAdReg)   // a1 = container
      .LoadAd(2, 1, 0)     // a2 = global heap
      .CreateSro(3, 2, 4096)
      .CreateObject(4, 3, 32)
      .StoreAd(1, 4, 1)    // store local object into global container: must fault
      .Halt();
  ProcessOptions options;
  options.initial_arg = container.value();
  AccessDescriptor process = Spawn(a.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(process).fault_code(), Fault::kLevelViolation);
}

TEST_F(KernelTest, FaultDeliveredToFaultPort) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());

  Assembler a("faulter");
  a.LoadData(0, 1, 0, 8).Halt();  // a1 is null -> kNullAccess
  ProcessOptions options;
  options.fault_port = fault_port.value();
  AccessDescriptor process = Spawn(a.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kFaulted);
  EXPECT_EQ(View(process).fault_code(), Fault::kNullAccess);
  // The faulted process object itself is queued at the fault port as a message.
  auto queued = kernel_.ports().Dequeue(fault_port.value());
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(queued.value().SameObject(process));
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
}

TEST_F(KernelTest, FaultedProcessCanBeResumed) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());

  // Faulting instruction at pc 1; a handler fixes a1 then resumes; the retry succeeds.
  auto target = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                     rights::kRead | rights::kWrite);
  ASSERT_TRUE(target.ok());
  Assembler a("recoverable");
  a.LoadImm(0, 5)
      .LoadData(1, 1, 0, 8)  // faults first time (a1 null)
      .Halt();
  ProcessOptions options;
  options.fault_port = fault_port.value();
  AccessDescriptor process = Spawn(a.Build(), options);
  kernel_.Run();
  ASSERT_EQ(View(process).state(), ProcessState::kFaulted);

  // Handler (the test, acting as a fault-service process): give the process a valid a1 and
  // resume it at the faulting instruction.
  ContextView ctx(&machine_.addressing(), View(process).context());
  ctx.set_ad_reg(1, target.value());
  ASSERT_TRUE(kernel_.ResumeProcess(process).ok());
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
}

TEST_F(KernelTest, LowLevelProcessFaultPanics) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("core-fault");
  a.LoadData(0, 1, 0, 8).Halt();
  ProcessOptions options;
  options.imax_level = kImaxLevelCore;  // level 1: no faults permitted
  AccessDescriptor process = Spawn(a.Build(), options);
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().panics, 1u);
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
}

TEST_F(KernelTest, Level2TimeoutPermittedOtherFaultsPanic) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());

  // Level-2 process with a non-timeout fault: panic.
  Assembler bad("memory-fault");
  bad.LoadData(0, 1, 0, 8).Halt();
  ProcessOptions options;
  options.imax_level = kImaxLevelMemory;
  options.fault_port = fault_port.value();
  Spawn(bad.Build(), options);
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().panics, 1u);
}

TEST_F(KernelTest, TimeSlicingInterleavesProcesses) {
  // A tiny slice forces alternation between two long-running processes on one processor.
  MachineConfig config = SmallConfig();
  config.time_slice = 2000;
  Machine machine(config);
  BasicMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  ASSERT_TRUE(kernel.AddProcessors(1).ok());

  auto make_spinner = [&](const char* name) {
    Assembler a(name);
    auto loop = a.NewLabel();
    a.LoadImm(0, 0).LoadImm(1, 50).Bind(loop).Compute(100).AddImm(0, 0, 1).BranchIfLess(
        0, 1, loop);
    a.Halt();
    return a.Build();
  };
  auto p1 = kernel.CreateProcess(make_spinner("spin1"), {});
  auto p2 = kernel.CreateProcess(make_spinner("spin2"), {});
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(kernel.StartProcess(p1.value()).ok());
  ASSERT_TRUE(kernel.StartProcess(p2.value()).ok());
  kernel.Run();
  EXPECT_EQ(kernel.process_view(p1.value()).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel.process_view(p2.value()).state(), ProcessState::kTerminated);
  EXPECT_GT(kernel.stats().time_slice_ends, 2u);
}

TEST_F(KernelTest, TwoProcessorsRunInParallel) {
  // The same two spinners on 1 vs 2 processors: the 2-processor makespan must be close to
  // half (pure compute, negligible bus traffic).
  auto make_spinner = [] {
    Assembler a("spin");
    auto loop = a.NewLabel();
    a.LoadImm(0, 0).LoadImm(1, 100).Bind(loop).Compute(1000).AddImm(0, 0, 1).BranchIfLess(
        0, 1, loop);
    a.Halt();
    return a.Build();
  };

  auto run_with = [&](int processors) -> Cycles {
    Machine machine(SmallConfig());
    BasicMemoryManager memory(&machine);
    Kernel kernel(&machine, &memory);
    EXPECT_TRUE(kernel.AddProcessors(processors).ok());
    for (int i = 0; i < 2; ++i) {
      auto p = kernel.CreateProcess(make_spinner(), {});
      EXPECT_TRUE(p.ok());
      EXPECT_TRUE(kernel.StartProcess(p.value()).ok());
    }
    kernel.Run();
    return machine.now();
  };

  Cycles serial = run_with(1);
  Cycles parallel = run_with(2);
  EXPECT_LT(parallel, serial * 6 / 10);  // comfortably under 60%
}

TEST_F(KernelTest, StopParksRunningProcess) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("long");
  auto loop = a.NewLabel();
  a.LoadImm(0, 0).LoadImm(1, 1000000).Bind(loop).Compute(50).AddImm(0, 0, 1).BranchIfLess(
      0, 1, loop);
  a.Halt();
  AccessDescriptor process = Spawn(a.Build());
  // Let it run a little, then stop it.
  kernel_.RunUntil(machine_.now() + 10000);
  ASSERT_TRUE(kernel_.MarkStopped(process).ok());
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kStopped);
  uint64_t consumed_at_stop = View(process).consumed();

  // Restart: it picks up where it left off.
  ASSERT_TRUE(kernel_.StartProcess(process).ok());
  kernel_.RunUntil(machine_.now() + 10000);
  EXPECT_GT(View(process).consumed(), consumed_at_stop);
}

TEST_F(KernelTest, NestedStopsRequireMatchingStarts) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("spin");
  auto loop = a.NewLabel();
  a.LoadImm(0, 0).LoadImm(1, 100000).Bind(loop).Compute(50).AddImm(0, 0, 1).BranchIfLess(
      0, 1, loop);
  a.Halt();
  AccessDescriptor process = Spawn(a.Build());
  kernel_.RunUntil(machine_.now() + 5000);
  ASSERT_TRUE(kernel_.MarkStopped(process).ok());
  ASSERT_TRUE(kernel_.MarkStopped(process).ok());
  kernel_.Run();
  ASSERT_EQ(View(process).state(), ProcessState::kStopped);
  // One start is not enough (stop count 2 -> 1).
  ASSERT_TRUE(kernel_.StartProcess(process).ok());
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kStopped);
  // The second start releases it.
  ASSERT_TRUE(kernel_.StartProcess(process).ok());
  kernel_.RunUntil(machine_.now() + 5000);
  EXPECT_NE(View(process).state(), ProcessState::kStopped);
}

TEST_F(KernelTest, LocalHeapAutoDestroyedOnReturn) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  // Callee creates a local SRO + objects and returns without cleanup.
  Assembler callee("leaky");
  callee.MoveAd(1, kArgAdReg)  // a1 = global heap
      .CreateSro(2, 1, 4096)
      .CreateObject(3, 2, 64)
      .CreateObject(4, 2, 64)
      .ClearAd(7)  // do not return anything
      .Return();
  auto segment = kernel_.programs().Register(callee.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel_.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());

  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, domain.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, memory_.global_heap()).ok());

  Assembler caller("caller");
  caller.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)       // a2 = domain
      .LoadAd(7, 1, 1)       // a7 = global heap (argument to callee)
      .Call(2, 0)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();

  uint64_t sros_before = memory_.stats().sros_created;
  AccessDescriptor process = Spawn(caller.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  MemoryStats stats = memory_.stats();
  // The callee's local SRO was created and automatically destroyed, reclaiming its objects.
  EXPECT_GT(stats.sros_created, sros_before);
  EXPECT_GE(stats.bulk_reclaimed_objects, 2u);
}

TEST_F(KernelTest, StaleAdAfterSroDestructionFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  // Create an object in a local heap, destroy the heap, then use the stale AD.
  Assembler a("dangling");
  a.MoveAd(1, kArgAdReg)
      .CreateSro(2, 1, 4096)
      .CreateObject(3, 2, 64)
      .DestroySro(2)
      .LoadData(0, 3, 0, 8)  // a3 is now a dangling reference: must fault kInvalidAccess
      .Halt();
  ProcessOptions options;
  options.initial_arg = memory_.global_heap();
  AccessDescriptor process = Spawn(a.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(process).fault_code(), Fault::kInvalidAccess);
}

TEST_F(KernelTest, OsCallServicesWork) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  Assembler a("oscall");
  a.MoveAd(1, kArgAdReg)
      .OsCall(os_service::kGetTime)
      .StoreData(1, 7, 0, 8)  // r7 = time
      .LoadImm(7, 17)
      .OsCall(os_service::kSetPriority)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  AccessDescriptor process = Spawn(a.Build(), options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_GT(machine_.addressing().ReadData(carrier.value(), 0, 8).value(), 0u);
  EXPECT_EQ(View(process).priority(), 17);
}

TEST_F(KernelTest, NativeStepsExecute) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  int counter = 0;
  Assembler a("native");
  a.Native([&counter](ExecutionContext& env) -> Result<NativeResult> {
    ++counter;
    env.set_reg(0, 99);
    NativeResult r;
    r.compute = 50;
    return r;
  });
  a.Halt();
  AccessDescriptor process = Spawn(a.Build());
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(counter, 1);
}

TEST_F(KernelTest, NativeBlockingReceive) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  int received = 0;
  Assembler a("daemon");
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Native([&, port_ad = port.value()](ExecutionContext&) -> Result<NativeResult> {
    NativeResult r;
    r.action = NativeResult::Action::kBlockReceive;
    r.port = port_ad;
    r.dest_adreg = 3;
    r.compute = 20;
    return r;
  });
  a.Native([&](ExecutionContext& env) -> Result<NativeResult> {
    if (!env.ad_reg(3).is_null()) {
      ++received;
    }
    return NativeResult{};
  });
  a.Branch(loop);
  AccessDescriptor daemon = Spawn(a.Build());
  kernel_.Run();
  EXPECT_EQ(View(daemon).state(), ProcessState::kBlocked);

  auto message = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 0,
                                      rights::kRead);
  ASSERT_TRUE(message.ok());
  ASSERT_TRUE(kernel_.PostMessage(port.value(), message.value()).ok());
  kernel_.Run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(View(daemon).state(), ProcessState::kBlocked);  // looped back to waiting
}

TEST_F(KernelTest, PriorityDisciplineOrdersDispatch) {
  // Three ready processes with different priorities on one processor: the higher-priority
  // process must finish first (the default dispatching port is priority-disciplined).
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 32, 0,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());

  auto make_marker = [&](uint32_t slot_offset) {
    Assembler a("marker");
    a.MoveAd(1, kArgAdReg)
        .OsCall(os_service::kGetTime)
        .StoreData(1, 7, slot_offset, 8)
        .Halt();
    return a.Build();
  };

  ProcessOptions low;
  low.priority = 1;
  low.initial_arg = carrier.value();
  ProcessOptions high;
  high.priority = 200;
  high.initial_arg = carrier.value();

  auto p_low = kernel_.CreateProcess(make_marker(0), low);
  auto p_high = kernel_.CreateProcess(make_marker(8), high);
  ASSERT_TRUE(p_low.ok() && p_high.ok());
  // Start low first so FIFO order would favor it; priority must win instead.
  ASSERT_TRUE(kernel_.StartProcess(p_low.value()).ok());
  ASSERT_TRUE(kernel_.StartProcess(p_high.value()).ok());
  kernel_.Run();
  uint64_t t_low = machine_.addressing().ReadData(carrier.value(), 0, 8).value();
  uint64_t t_high = machine_.addressing().ReadData(carrier.value(), 8, 8).value();
  EXPECT_LT(t_high, t_low);
}

TEST_F(KernelTest, SwapFaultsServicedTransparently) {
  // Same machine but with the swapping manager and tight memory: a program touching many
  // large objects keeps running, with swap faults serviced invisibly.
  MachineConfig config;
  config.memory_bytes = 96 * 1024;
  config.object_table_capacity = 1024;
  Machine machine(config);
  SwappingMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  ASSERT_TRUE(kernel.AddProcessors(1).ok());

  // Make 8 x 16 KB objects (128 KB > 96 KB of memory), then read each one.
  auto holder = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 8,
                                    rights::kRead | rights::kWrite);
  ASSERT_TRUE(holder.ok());
  Assembler a("toucher");
  a.MoveAd(1, kArgAdReg);  // a1 = holder
  a.LoadAd(2, 1, 7);       // slot 7 holds the SRO — set below
  for (int i = 0; i < 7; ++i) {
    a.CreateObject(3, 2, 16 * 1024);
    a.StoreAd(1, 3, static_cast<uint32_t>(i));
    a.LoadImm(0, static_cast<uint64_t>(i + 1));
    a.StoreData(3, 0, 0, 8);
  }
  // Read them all back.
  for (int i = 0; i < 7; ++i) {
    a.LoadAd(3, 1, static_cast<uint32_t>(i));
    a.LoadData(0, 3, 0, 8);
  }
  a.Halt();
  ASSERT_TRUE(machine.addressing().WriteAd(holder.value(), 7, memory.global_heap()).ok());

  ProcessOptions options;
  options.initial_arg = holder.value();
  auto process = kernel.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(kernel.StartProcess(process.value()).ok());
  kernel.Run();
  EXPECT_EQ(kernel.process_view(process.value()).state(), ProcessState::kTerminated);
  EXPECT_GT(kernel.stats().swap_faults, 0u);
  EXPECT_GT(memory.stats().swap_ins, 0u);
}

TEST_F(KernelTest, ProcessEventHandlerObservesLifecycle) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  std::vector<ProcessEvent> events;
  kernel_.SetProcessEventHandler(
      [&](const AccessDescriptor&, ProcessEvent event) { events.push_back(event); });
  Assembler a("simple");
  a.Compute(10).Halt();
  Spawn(a.Build());
  kernel_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], ProcessEvent::kTerminated);
}

TEST_F(KernelTest, ConsumedCyclesAccounted) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("work");
  a.Compute(8000).Halt();  // 1 ms of work at 8 MHz
  AccessDescriptor process = Spawn(a.Build());
  kernel_.Run();
  // Consumed covers the compute plus instruction overheads.
  EXPECT_GE(View(process).consumed(), 8000u);
  EXPECT_LT(View(process).consumed(), 9000u);
}

TEST_F(KernelTest, RunBoundedCountsInstructionsContinuedInline) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("straight-line");
  auto loop = a.NewLabel();
  a.Bind(loop);
  for (int i = 0; i < 64; ++i) {
    a.AddImm(0, 0, 1);
  }
  a.Branch(loop);
  AccessDescriptor process = Spawn(a.Build());
  ASSERT_EQ(kernel_.RunBounded(1), 1u);  // the processor fetches and binds the process
  ASSERT_EQ(kernel_.stats().instructions_executed, 0u);
  ContextView ctx(&machine_.addressing(), View(process).context());

  // One step is popped from the queue and the rest continue inline; each is one step of the
  // bound.
  EXPECT_EQ(kernel_.RunBounded(40), 1u);
  EXPECT_EQ(kernel_.stats().instructions_executed, 40u);
  EXPECT_EQ(ctx.pc(), 40u);
  EXPECT_EQ(ctx.reg(0), 40u);
  EXPECT_EQ(kernel_.RunBounded(7), 1u);
  EXPECT_EQ(ctx.pc(), 47u);
}

// --- The step frame: a GDP's bound process's pinned objects and program ---

// An OsCall service hot-patches the running segment. The instruction after the call is
// continued inline in the same event, and the frame refetches on the segment's moved
// data_epoch, so it already runs the new code.
TEST(KernelStepFrameTest, SelfReplaceRunsTheNewCodeOnTheNextInlineInstruction) {
  Machine machine(SmallConfig());
  BasicMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  ASSERT_TRUE(kernel.AddProcessors(1).ok());
  constexpr uint32_t kPatchService = 1024;
  auto marker = [](uint64_t value) {
    Assembler a("self-replace");
    a.OsCall(kPatchService).LoadImm(0, value).Halt();
    return a.Build();
  };
  kernel.RegisterService(kPatchService, [&](ExecutionContext& env) -> Result<NativeResult> {
    IMAX_RETURN_IF_FAULT(
        kernel.programs().Replace(env.context().instruction_segment(), marker(2)));
    return NativeResult{};
  });
  auto process = kernel.CreateProcess(marker(1), {});
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(kernel.StartProcess(process.value()).ok());

  // Fetch-and-bind, then one step event: the call and one instruction continued inline.
  EXPECT_EQ(kernel.RunBounded(3), 2u);
  EXPECT_EQ(kernel.stats().instructions_executed, 2u);
  ContextView ctx(&machine.addressing(), kernel.process_view(process.value()).context());
  EXPECT_EQ(ctx.pc(), 2u);
  EXPECT_EQ(ctx.reg(0), 2u);  // 1 would be the replaced program's LoadImm
}

// A process holding its own process AD stores another segment into its current context's
// instruction-segment slot. The instruction after the store is continued inline in the same
// event, and the frame refetches through the changed slot, so it already runs the other
// segment's code.
TEST(KernelStepFrameTest, StoringTheSegmentSlotRunsTheNewCodeOnTheNextInlineInstruction) {
  Machine machine(SmallConfig());
  BasicMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  ASSERT_TRUE(kernel.AddProcessors(1).ok());
  auto marker = [](uint64_t value) {
    Assembler a("segment-store");
    a.MoveAd(1, kArgAdReg)                            // a1 = carrier
        .LoadAd(2, 1, 0)                              // a2 = this process
        .LoadAd(3, 2, ProcessLayout::kSlotContext)    // a3 = its current context
        .LoadAd(4, 1, 1)                              // a4 = the other segment
        .StoreAd(3, 4, ContextLayout::kSlotInstructionSegment)
        .LoadImm(0, value)
        .Halt();
    return a.Build();
  };
  auto other = kernel.programs().Register(marker(2));
  ASSERT_TRUE(other.ok());
  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 2,
                                     rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto process = kernel.CreateProcess(marker(1), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(machine.addressing().WriteAd(carrier.value(), 0, process.value()).ok());
  ASSERT_TRUE(machine.addressing().WriteAd(carrier.value(), 1, other.value()).ok());
  ASSERT_TRUE(kernel.StartProcess(process.value()).ok());
  ASSERT_EQ(kernel.RunBounded(1), 1u);  // the processor fetches and binds the process

  // One step event: the five instructions through the store and one continued after it.
  EXPECT_EQ(kernel.RunBounded(6), 1u);
  EXPECT_EQ(kernel.stats().instructions_executed, 6u);
  ContextView ctx(&machine.addressing(), kernel.process_view(process.value()).context());
  EXPECT_EQ(ctx.instruction_segment(), other.value());
  EXPECT_EQ(ctx.pc(), 6u);
  EXPECT_EQ(ctx.reg(0), 2u);  // 1 would be the first segment's LoadImm
}

// An OsCall service destroys the running segment without the collector, so the store keeps
// its program. The frame sees the dead segment descriptor, and the next instruction's fetch
// faults with kInvalidAccess, as a fetch through a dead AD does.
TEST(KernelStepFrameTest, DestroyingTheRunningSegmentFaultsTheNextInlineInstruction) {
  Machine machine(SmallConfig());
  BasicMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  ASSERT_TRUE(kernel.AddProcessors(1).ok());
  constexpr uint32_t kDestroyService = 1025;
  kernel.RegisterService(kDestroyService, [&](ExecutionContext& env) -> Result<NativeResult> {
    IMAX_ASSIGN_OR_RETURN(
        AccessDescriptor segment,
        machine.table().MintAd(env.context().instruction_segment().index(), rights::kDelete));
    IMAX_RETURN_IF_FAULT(memory.DestroyObject(segment));
    return NativeResult{};
  });
  Assembler a("self-destroy");
  a.OsCall(kDestroyService).LoadImm(0, 1).Halt();
  auto process = kernel.CreateProcess(a.Build(), {});
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(kernel.StartProcess(process.value()).ok());
  const size_t programs = kernel.programs().size();

  kernel.Run();
  EXPECT_EQ(kernel.programs().size(), programs);
  EXPECT_EQ(kernel.stats().instructions_executed, 1u);
  ProcessView view = kernel.process_view(process.value());
  EXPECT_EQ(view.state(), ProcessState::kTerminated);
  EXPECT_EQ(view.fault_code(), Fault::kInvalidAccess);
  EXPECT_EQ(kernel.stats().faults_delivered, 1u);
}

// A GDP keeps its step frame from one event to the next. Between two step events of a loop
// alone on its GDP, host code frees the loop's current context, and with `reuse` hands the
// table slot to a new object at the next generation. The process's context slot still holds
// the old AD and the frame a pinned view of the old context. The next event finds that pin
// no longer holds and starts from an empty frame, so the process faults with kInvalidAccess
// at its instruction boundary, as a frame built in that event does (the context no longer
// resolves), and nothing is read through the stale pin.
void FreeTheContextBetweenEvents(bool reuse) {
  Machine machine(SmallConfig());
  BasicMemoryManager memory(&machine);
  Kernel kernel(&machine, &memory);
  ASSERT_TRUE(kernel.AddProcessors(1).ok());
  auto fault_port = kernel.ports().CreatePort(memory.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());
  Assembler a("spin");
  auto loop = a.NewLabel();
  a.Bind(loop).AddImm(0, 0, 1).Branch(loop);
  ProcessOptions options;
  options.fault_port = fault_port.value();
  auto process = kernel.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(kernel.StartProcess(process.value()).ok());

  kernel.RunUntil(5000);  // mid-loop: the next step is a pending event
  ProcessView view = kernel.process_view(process.value());
  ASSERT_EQ(view.state(), ProcessState::kRunning);
  const AccessDescriptor context = view.context();
  const uint64_t executed = kernel.stats().instructions_executed;
  ASSERT_GT(executed, 100u);

  auto doomed = machine.table().MintAd(context.index(), rights::kDelete);
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(memory.DestroyObject(doomed.value()).ok());
  if (reuse) {
    auto tenant = memory.CreateObject(memory.global_heap(), SystemType::kContext,
                                      ContextLayout::kDataBytes, ContextLayout::kAccessSlots,
                                      rights::kRead | rights::kWrite);
    ASSERT_TRUE(tenant.ok());
    ASSERT_EQ(tenant.value().index(), context.index());
    ASSERT_NE(tenant.value().generation(), context.generation());
  }

  kernel.Run();
  EXPECT_EQ(view.state(), ProcessState::kFaulted);
  EXPECT_EQ(view.fault_code(), Fault::kInvalidAccess);
  EXPECT_EQ(kernel.stats().faults_delivered, 1u);
  EXPECT_EQ(kernel.stats().instructions_executed, executed);
  auto queued = kernel.ports().Dequeue(fault_port.value());
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(queued.value().SameObject(process.value()));
}

TEST(KernelStepFrameTest, AContextFreedBetweenEventsFaultsAsAFreshFrameDoes) {
  FreeTheContextBetweenEvents(/*reuse=*/false);
}

TEST(KernelStepFrameTest, AContextSlotReusedBetweenEventsFaultsAsAFreshFrameDoes) {
  FreeTheContextBetweenEvents(/*reuse=*/true);
}

// A frame kept across events serves the next event without a rebuild only while its pins
// hold; whatever breaks a pin between events is caught by the same checks a pinned access
// makes.
TEST(KernelStepFrameTest, PinHoldsOnlyWhileThePinChecksPass) {
  Machine machine(SmallConfig());
  BasicMemoryManager memory(&machine);
  auto object = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 16, 1,
                                    rights::kRead | rights::kWrite | rights::kDelete);
  ASSERT_TRUE(object.ok());
  ObjectDescriptor& descriptor = machine.table().At(object.value().index());
  ObjectView pinned(&machine.addressing(), object.value(), kPin);
  EXPECT_TRUE(pinned.PinHolds());
  EXPECT_FALSE(ObjectView(&machine.addressing(), object.value()).PinHolds());  // not pinned
  EXPECT_FALSE(ObjectView().PinHolds());

  descriptor.quarantined = true;
  EXPECT_FALSE(pinned.PinHolds());
  descriptor.quarantined = false;
  descriptor.swapped_out = true;
  EXPECT_FALSE(pinned.PinHolds());
  descriptor.swapped_out = false;
  EXPECT_TRUE(pinned.PinHolds());

  ASSERT_TRUE(memory.DestroyObject(object.value()).ok());
  EXPECT_FALSE(pinned.PinHolds());
  auto tenant = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 16, 1,
                                    rights::kRead | rights::kWrite);
  ASSERT_TRUE(tenant.ok());
  ASSERT_EQ(tenant.value().index(), object.value().index());
  EXPECT_FALSE(pinned.PinHolds());  // allocated again, at another generation
  EXPECT_TRUE(ObjectView(&machine.addressing(), tenant.value(), kPin).PinHolds());
}

// A GDP's step frame is the only place a program is cached, so KernelStats::program_fetches
// counts every time a frame had to go back to the store. A loop alone on its GDP keeps its
// frame across its slice ends and fetches once. Two loops sharing a GDP in short slices
// fetch once per dispatch: each binds the other process, whose frame is rebuilt. A loop
// making N domain calls fetches 1 + 2N times: the callee's program at each call, the
// caller's again at each return.
TEST(KernelStepFrameTest, FetchesOnlyWhenAnotherProcessOrContextIsBound) {
  struct Outcome {
    KernelStats stats;
    bool all_terminated = true;
  };
  // Runs `count` processes of `program` on one GDP with a short time slice; a non-null
  // `callee` is first registered as the sole entry of a domain passed to each in a7.
  auto run = [](const ProgramRef& program, int count, const ProgramRef& callee = nullptr) {
    MachineConfig config = SmallConfig();
    config.time_slice = 2000;
    Machine machine(config);
    BasicMemoryManager memory(&machine);
    Kernel kernel(&machine, &memory);
    EXPECT_TRUE(kernel.AddProcessors(1).ok());
    ProcessOptions options;
    if (callee != nullptr) {
      auto segment = kernel.programs().Register(callee);
      EXPECT_TRUE(segment.ok());
      auto domain = kernel.CreateDomain({segment.value()});
      EXPECT_TRUE(domain.ok());
      options.initial_arg = domain.value();
    }
    std::vector<AccessDescriptor> processes;
    for (int i = 0; i < count; ++i) {
      auto process = kernel.CreateProcess(program, options);
      EXPECT_TRUE(process.ok());
      EXPECT_TRUE(kernel.StartProcess(process.value()).ok());
      processes.push_back(process.value());
    }
    kernel.Run();
    Outcome outcome{kernel.stats()};
    for (const AccessDescriptor& process : processes) {
      outcome.all_terminated &=
          kernel.process_view(process).state() == ProcessState::kTerminated;
    }
    return outcome;
  };
  auto loop = [](uint32_t iters, bool call) {
    Assembler a(call ? "call-loop" : "loop");
    auto top = a.NewLabel();
    a.MoveAd(1, kArgAdReg).LoadImm(0, 0).LoadImm(3, iters).Bind(top);
    if (call) a.Call(1, 0);
    a.AddImm(0, 0, 1).BranchIfLess(0, 3, top).Halt();
    return a.Build();
  };

  Outcome alone = run(loop(1000, false), 1);
  EXPECT_TRUE(alone.all_terminated);
  EXPECT_GT(alone.stats.time_slice_ends, 0u);
  EXPECT_EQ(alone.stats.dispatches, alone.stats.time_slice_ends + 1);
  EXPECT_EQ(alone.stats.program_fetches, 1u);

  Outcome shared = run(loop(1000, false), 2);
  EXPECT_TRUE(shared.all_terminated);
  EXPECT_GT(shared.stats.dispatches, 4u);
  EXPECT_EQ(shared.stats.program_fetches, shared.stats.dispatches);

  constexpr uint32_t kCalls = 5;
  Assembler callee("callee");
  callee.AddImm(7, 7, 1).Return();
  Outcome calls = run(loop(kCalls, true), 1, callee.Build());
  EXPECT_TRUE(calls.all_terminated);
  EXPECT_EQ(calls.stats.domain_calls, kCalls);
  EXPECT_EQ(calls.stats.faults_delivered, 0u);
  EXPECT_EQ(calls.stats.program_fetches, 1 + 2 * kCalls);
}

// A domain call and its return switch the process's context twice inside one event: the
// frame re-pins the callee's context and program, then the caller's, and every instruction
// after the first continues inline.
TEST_F(KernelTest, CallAndReturnContinueInlineInOneEvent) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler callee("add-seven");
  callee.AddImm(7, 7, 7).Return();
  auto segment = kernel_.programs().Register(callee.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel_.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());

  Assembler caller("caller");
  caller.MoveAd(1, kArgAdReg)  // a1 = domain
      .LoadImm(7, 35)
      .Call(1, 0)
      .Move(0, kArgReg)        // the caller's first instruction after the return
      .Halt();
  ProcessOptions options;
  options.initial_arg = domain.value();
  AccessDescriptor process = Spawn(caller.Build(), options);
  ASSERT_EQ(kernel_.RunBounded(1), 1u);  // the processor fetches and binds the process
  AccessDescriptor caller_ctx = View(process).context();
  const uint16_t caller_depth = View(process).call_depth();

  // MoveAd, LoadImm, Call | AddImm, Return | Move: six instructions, one event.
  EXPECT_EQ(kernel_.RunBounded(6), 1u);
  EXPECT_EQ(kernel_.stats().instructions_executed, 6u);
  EXPECT_EQ(kernel_.stats().domain_calls, 1u);
  EXPECT_EQ(View(process).state(), ProcessState::kRunning);
  EXPECT_EQ(View(process).call_depth(), caller_depth);
  EXPECT_EQ(View(process).context(), caller_ctx);
  ContextView ctx(&machine_.addressing(), caller_ctx);
  EXPECT_EQ(ctx.pc(), 4u);
  EXPECT_EQ(ctx.reg(kArgReg), 42u);
  EXPECT_EQ(ctx.reg(0), 42u);

  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().instructions_executed, 7u);
}

// --- User programs that reach a broken context chain fault the process, not the host ---

// A fault handler destroys the faulted process's context, then the process is resumed: the
// frame's context no longer resolves, so the resume faults with kInvalidAccess.
TEST_F(KernelTest, ResumingAProcessWhoseContextWasDestroyedFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());

  Assembler faulter("faulter");
  faulter.LoadData(0, 1, 0, 8).Halt();  // a1 is null -> kNullAccess
  ProcessOptions faulter_options;
  faulter_options.fault_port = fault_port.value();
  AccessDescriptor process = Spawn(faulter.Build(), faulter_options);

  Assembler handler("context-destroyer");
  handler.Receive(2, kArgAdReg)  // a2 = the faulted process
      .LoadAd(3, 2, ProcessLayout::kSlotContext)
      .DestroyObject(3)
      .Halt();
  ProcessOptions handler_options;
  handler_options.initial_arg = fault_port.value();
  AccessDescriptor handler_process = Spawn(handler.Build(), handler_options);
  kernel_.Run();
  ASSERT_EQ(View(handler_process).state(), ProcessState::kTerminated);
  ASSERT_EQ(View(process).state(), ProcessState::kFaulted);
  ASSERT_EQ(kernel_.stats().faults_delivered, 1u);
  ASSERT_FALSE(machine_.table().Resolve(View(process).context()).ok());

  ASSERT_TRUE(kernel_.ResumeProcess(process).ok());
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kFaulted);
  EXPECT_EQ(View(process).fault_code(), Fault::kInvalidAccess);
  EXPECT_EQ(kernel_.stats().faults_delivered, 2u);
  auto queued = kernel_.ports().Dequeue(fault_port.value());
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(queued.value().SameObject(process));
}

// A called subprogram falls off its end while a7 holds an AD into a local heap it owns. The
// implicit return destroys the heap, then faults copying the dead AD back, exactly as an
// explicit Return does.
TEST_F(KernelTest, ImplicitReturnOfADeadLocalAdFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler callee("leaks-a-local");
  callee.CreateSro(2, kArgAdReg, 4096)  // a7 carries the global heap in
      .CreateObject(kArgAdReg, 2, 16);   // no Return: falls off the end
  auto segment = kernel_.programs().Register(callee.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel_.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());

  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, domain.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, memory_.global_heap()).ok());
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());

  Assembler caller("caller");
  caller.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)          // a2 = domain
      .LoadAd(kArgAdReg, 1, 1)  // a7 = global heap
      .Call(2, 0)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  options.fault_port = fault_port.value();
  AccessDescriptor process = Spawn(caller.Build(), options);
  const uint16_t caller_depth = View(process).call_depth();
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kFaulted);
  EXPECT_EQ(View(process).fault_code(), Fault::kInvalidAccess);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  EXPECT_EQ(View(process).call_depth(), caller_depth + 1);  // faulted in the callee's end
}

// A process blocks inside a domain call. Another process holding its process AD walks to the
// callee's caller, destroys that context and wakes the process: its return faults with
// kInvalidAccess before tearing anything down, and with no fault port the process ends.
TEST_F(KernelTest, ReturningToADestroyedCallerFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  Assembler callee("wait-then-return");
  callee.Receive(2, kArgAdReg).Return();  // a7 = the wake-up port
  auto segment = kernel_.programs().Register(callee.Build());
  ASSERT_TRUE(segment.ok());
  auto domain = kernel_.CreateDomain({segment.value()});
  ASSERT_TRUE(domain.ok());

  auto victim_carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8,
                                             2, rights::kRead | rights::kWrite);
  ASSERT_TRUE(victim_carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(victim_carrier.value(), 0, domain.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(victim_carrier.value(), 1, port.value()).ok());
  Assembler victim("victim");
  victim.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)          // a2 = domain
      .LoadAd(kArgAdReg, 1, 1)  // a7 = port
      .Call(2, 0)
      .Halt();
  ProcessOptions victim_options;
  victim_options.initial_arg = victim_carrier.value();
  AccessDescriptor process = Spawn(victim.Build(), victim_options);
  const uint16_t caller_depth = View(process).call_depth();
  kernel_.Run();
  ASSERT_EQ(View(process).state(), ProcessState::kBlocked);
  ASSERT_EQ(View(process).call_depth(), caller_depth + 1);

  auto message = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 0,
                                      rights::kRead);
  ASSERT_TRUE(message.ok());
  auto killer_carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8,
                                             3, rights::kRead | rights::kWrite);
  ASSERT_TRUE(killer_carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(killer_carrier.value(), 0, process).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(killer_carrier.value(), 1, port.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(killer_carrier.value(), 2, message.value()).ok());
  Assembler killer("caller-killer");
  killer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)                               // a2 = the victim process
      .LoadAd(3, 2, ProcessLayout::kSlotContext)     // a3 = its callee context
      .LoadAd(4, 3, ContextLayout::kSlotCaller)      // a4 = the caller context
      .DestroyObject(4)
      .LoadAd(5, 1, 1)
      .LoadAd(6, 1, 2)
      .Send(5, 6)                                    // wake the victim
      .Halt();
  ProcessOptions killer_options;
  killer_options.initial_arg = killer_carrier.value();
  AccessDescriptor killer_process = Spawn(killer.Build(), killer_options);
  kernel_.Run();
  EXPECT_EQ(View(killer_process).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(process).fault_code(), Fault::kInvalidAccess);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
}

// A process whose carrier holds its own process AD (read+write from CreateProcess) and a
// generic object, and `port` when one is given. Its program loads them into a2, a3 and a4,
// then runs `body`.
AccessDescriptor SpawnHoldingItsProcess(Machine& machine, BasicMemoryManager& memory,
                                        Kernel& kernel,
                                        const std::function<void(Assembler&)>& body,
                                        ProcessOptions options = {},
                                        const AccessDescriptor& port = {}) {
  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8,
                                     port.is_null() ? 2 : 3, rights::kRead | rights::kWrite);
  auto bogus = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 0,
                                   rights::kRead | rights::kWrite);
  EXPECT_TRUE(carrier.ok() && bogus.ok());
  Assembler a("holds-its-process");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)   // a2 = this process
      .LoadAd(3, 1, 1);  // a3 = a generic object
  if (!port.is_null()) {
    a.LoadAd(4, 1, 2);  // a4 = the port
    EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 2, port).ok());
  }
  body(a);
  options.initial_arg = carrier.value();
  auto process = kernel.CreateProcess(a.Build(), options);
  EXPECT_TRUE(process.ok());
  EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 0, process.value()).ok());
  EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 1, bogus.value()).ok());
  EXPECT_TRUE(kernel.StartProcess(process.value()).ok());
  return process.value();
}

// The process stores the generic object into its dispatch-port slot. Requeueing it at the
// end of its time slice or after a yield fails with kTypeMismatch, which is raised on the
// process instead of aborting the host.
TEST_F(KernelTest, SliceEndWithANonPortDispatchPortFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  AccessDescriptor process =
      SpawnHoldingItsProcess(machine_, memory_, kernel_, [](Assembler& a) {
        auto loop = a.NewLabel();
        a.StoreAd(2, 3, ProcessLayout::kSlotDispatchPort).Bind(loop).Compute(1000).Branch(loop);
      });
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().time_slice_ends, 1u);
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);  // no fault port
  EXPECT_EQ(View(process).fault_code(), Fault::kTypeMismatch);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
}

TEST_F(KernelTest, YieldWithANonPortDispatchPortFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());
  ProcessOptions options;
  options.fault_port = fault_port.value();
  AccessDescriptor process = SpawnHoldingItsProcess(
      machine_, memory_, kernel_,
      [](Assembler& a) {
        a.StoreAd(2, 3, ProcessLayout::kSlotDispatchPort).OsCall(os_service::kYield).Halt();
      },
      options);
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kFaulted);
  EXPECT_EQ(View(process).fault_code(), Fault::kTypeMismatch);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  auto queued = kernel_.ports().Dequeue(fault_port.value());
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(queued.value().SameObject(process));
}

// The process stores the generic object into its context slot. The next instruction faults
// with kInvalidAccess, and with no fault port the teardown walks a context chain that starts
// at a non-context: it stops there instead of aborting the host.
TEST_F(KernelTest, TerminatingWithANonContextInTheContextSlotStops) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  AccessDescriptor process =
      SpawnHoldingItsProcess(machine_, memory_, kernel_, [](Assembler& a) {
        a.StoreAd(2, 3, ProcessLayout::kSlotContext).Halt();
      });
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(process).fault_code(), Fault::kInvalidAccess);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  EXPECT_EQ(kernel_.stats().processes_terminated, 1u);
}

// The process stores the generic object into its current context's caller slot and halts:
// the teardown's walk up the caller chain stops at the non-context.
TEST_F(KernelTest, TerminatingWithANonContextCallerStops) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  AccessDescriptor process =
      SpawnHoldingItsProcess(machine_, memory_, kernel_, [](Assembler& a) {
        a.LoadAd(4, 2, ProcessLayout::kSlotContext)  // a4 = the current context
            .StoreAd(4, 3, ContextLayout::kSlotCaller)
            .Halt();
      });
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().faults_delivered, 0u);
  EXPECT_EQ(kernel_.stats().processes_terminated, 1u);
}

// The process loads its current context's AD from its process object and destroys it. The
// instruction faults with kInvalidAccess and destroys nothing: the context holds the
// register file the instruction would write next.
TEST_F(KernelTest, DestroyingTheRunningContextFaults) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(fault_port.ok());
  ProcessOptions options;
  options.fault_port = fault_port.value();
  AccessDescriptor process = SpawnHoldingItsProcess(
      machine_, memory_, kernel_,
      [](Assembler& a) {
        a.LoadAd(4, 2, ProcessLayout::kSlotContext).DestroyObject(4).Halt();
      },
      options);
  AccessDescriptor context = View(process).context();
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kFaulted);
  EXPECT_EQ(View(process).fault_code(), Fault::kInvalidAccess);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  EXPECT_TRUE(machine_.table().Resolve(context).ok());
  EXPECT_TRUE(View(process).context().SameObject(context));
}

// The process reads its dispatching port from its process object and sends the generic
// object there, then halts. The processor, looking for work, dequeues a resolvable AD that
// names no process: it skips it, as it skips a stale one, instead of binding it.
TEST_F(KernelTest, ANonProcessAtTheDispatchPortIsSkipped) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  AccessDescriptor process =
      SpawnHoldingItsProcess(machine_, memory_, kernel_, [](Assembler& a) {
        a.LoadAd(4, 2, ProcessLayout::kSlotDispatchPort).Send(4, 3).Halt();
      });
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().dispatches, 1u);
  EXPECT_EQ(kernel_.stats().faults_delivered, 0u);
  EXPECT_EQ(kernel_.stats().processes_terminated, 1u);
}

// On two GDPs, the running process sends its own AD to its dispatching port, finishes a
// loop and halts. A processor that dequeues the AD finds a process that is not ready (it is
// running, or has terminated) and skips it: the process is dispatched once and ends once.
TEST_F(KernelTest, ARunningProcessAtItsDispatchPortIsNotBoundAgain) {
  ASSERT_TRUE(kernel_.AddProcessors(2).ok());
  AccessDescriptor process =
      SpawnHoldingItsProcess(machine_, memory_, kernel_, [](Assembler& a) {
        auto loop = a.NewLabel();
        a.LoadAd(4, 2, ProcessLayout::kSlotDispatchPort)
            .Send(4, 2)
            .LoadImm(0, 0)
            .LoadImm(1, 50)
            .Bind(loop)
            .AddImm(0, 0, 1)
            .BranchIfLess(0, 1, loop)
            .Halt();
      });
  kernel_.Run();
  EXPECT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().dispatches, 1u);
  EXPECT_EQ(kernel_.stats().faults_delivered, 0u);
  EXPECT_EQ(kernel_.stats().processes_terminated, 1u);
}

// A process sends twice into a capacity-1 port and blocks on the second send. The host's
// receive goes through the kernel's one receive, as the receive instruction does: it admits
// the blocked sender, whose message takes the freed slot, and the sender runs to its end.
TEST_F(KernelTest, HostReceiveAdmitsABlockedSender) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 1, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  AccessDescriptor sender = SpawnHoldingItsProcess(
      machine_, memory_, kernel_, [](Assembler& a) { a.Send(4, 3).Send(4, 2).Halt(); }, {},
      port.value());
  kernel_.Run();
  ASSERT_EQ(View(sender).state(), ProcessState::kBlocked);

  UntypedPorts ports(&kernel_);
  auto received = ports.Receive(Port{port.value()});
  ASSERT_TRUE(received.ok());
  kernel_.Run();
  EXPECT_EQ(View(sender).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(sender).fault_code(), Fault::kNone);
  EXPECT_EQ(View(sender).Field(ProcessLayout::kOffMessagesSent, 4), 2u);
  auto queued = kernel_.ports().Dequeue(port.value());
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(queued.value().SameObject(sender));  // the second message
}

// R stores a generic object into its own dispatch-port slot and receives; S's send hands
// it the message. Waking R fails with kTypeMismatch, and R takes that fault: S's send
// succeeded, and S halts.
TEST_F(KernelTest, AWokenReceiverTakesItsOwnRequeueFault) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  AccessDescriptor receiver = SpawnHoldingItsProcess(
      machine_, memory_, kernel_,
      [](Assembler& a) {
        a.StoreAd(2, 3, ProcessLayout::kSlotDispatchPort).Receive(5, 4).Halt();
      },
      {}, port.value());
  AccessDescriptor sender = SpawnHoldingItsProcess(
      machine_, memory_, kernel_, [](Assembler& a) { a.Send(4, 3).Halt(); }, {},
      port.value());
  kernel_.Run();
  EXPECT_EQ(View(receiver).state(), ProcessState::kTerminated);  // no fault port
  EXPECT_EQ(View(receiver).fault_code(), Fault::kTypeMismatch);
  EXPECT_EQ(View(receiver).Field(ProcessLayout::kOffMessagesReceived, 4), 1u);
  EXPECT_EQ(View(sender).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(sender).fault_code(), Fault::kNone);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  EXPECT_EQ(kernel_.stats().processes_terminated, 2u);
}

// The same receiver, with the host posting the message: the post succeeds, and the
// receiver takes the fault of waking it.
TEST_F(KernelTest, PostMessageToAReceiverThatCannotWakeSucceeds) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  AccessDescriptor receiver = SpawnHoldingItsProcess(
      machine_, memory_, kernel_,
      [](Assembler& a) {
        a.StoreAd(2, 3, ProcessLayout::kSlotDispatchPort).Receive(5, 4).Halt();
      },
      {}, port.value());
  kernel_.Run();
  ASSERT_EQ(View(receiver).state(), ProcessState::kBlocked);

  EXPECT_TRUE(kernel_.PostMessage(port.value(), memory_.global_heap()).ok());
  kernel_.Run();
  EXPECT_EQ(View(receiver).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(receiver).fault_code(), Fault::kTypeMismatch);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
}

// The mirror image: S stores a generic object into its own dispatch-port slot and blocks
// sending into a full capacity-1 port. R's receive admits S's message, and waking S fails:
// S takes that fault, and R's receive, which succeeded, goes on to halt.
TEST_F(KernelTest, AnAdmittedSenderTakesItsOwnRequeueFault) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 1, QueueDiscipline::kFifo);
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok() && fault_port.ok());
  ASSERT_TRUE(kernel_.PostMessage(port.value(), memory_.global_heap()).ok());
  AccessDescriptor sender = SpawnHoldingItsProcess(
      machine_, memory_, kernel_,
      [](Assembler& a) {
        a.StoreAd(2, 3, ProcessLayout::kSlotDispatchPort).Send(4, 3).Halt();
      },
      {}, port.value());
  kernel_.Run();
  ASSERT_EQ(View(sender).state(), ProcessState::kBlocked);

  ProcessOptions options;
  options.fault_port = fault_port.value();
  AccessDescriptor receiver = SpawnHoldingItsProcess(
      machine_, memory_, kernel_, [](Assembler& a) { a.Receive(5, 4).Halt(); }, options,
      port.value());
  kernel_.Run();
  EXPECT_EQ(View(receiver).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(receiver).fault_code(), Fault::kNone);
  EXPECT_EQ(View(receiver).Field(ProcessLayout::kOffMessagesReceived, 4), 1u);
  EXPECT_EQ(View(sender).state(), ProcessState::kTerminated);  // no fault port
  EXPECT_EQ(View(sender).fault_code(), Fault::kTypeMismatch);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  EXPECT_EQ(kernel_.ports().QueuedCount(port.value()).value(), 1u);  // S's message
  EXPECT_EQ(kernel_.ports().QueuedCount(fault_port.value()).value(), 0u);
}

// The host fills a capacity-1 port. S1 sends an object from a local heap it created, S2 and
// S3 a global object each, and all three block in that order; S1's fault port is the port
// itself when `s1_faults_to_the_port`, else it has none. Then R receives twice.
struct RefusedSenderRun {
  AccessDescriptor port, s1, s2, s3, receiver;
};
RefusedSenderRun RunRefusedSender(Machine& machine, BasicMemoryManager& memory,
                                  Kernel& kernel, bool s1_faults_to_the_port) {
  RefusedSenderRun run;
  auto port = kernel.ports().CreatePort(memory.global_heap(), 1, QueueDiscipline::kFifo);
  auto carrier = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 8, 2,
                                     rights::kRead | rights::kWrite);
  EXPECT_TRUE(port.ok() && carrier.ok());
  run.port = port.value();
  EXPECT_TRUE(kernel.PostMessage(run.port, memory.global_heap()).ok());
  EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 0, run.port).ok());
  EXPECT_TRUE(machine.addressing().WriteAd(carrier.value(), 1, memory.global_heap()).ok());
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto spawn = [&](Assembler& a, const ProcessOptions& spawn_options) {
    auto process = kernel.CreateProcess(a.Build(), spawn_options);
    EXPECT_TRUE(process.ok() && kernel.StartProcess(process.value()).ok());
    return process.value();
  };

  Assembler local_sender("local-sender");
  local_sender.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)  // a2 = port
      .LoadAd(3, 1, 1)  // a3 = global heap
      .CreateSro(4, 3, 1024)
      .CreateObject(5, 4, 16)
      .Send(2, 5)
      .Halt();
  Assembler global_sender("global-sender");
  global_sender.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1).CreateObject(5, 3, 16)
      .Send(2, 5)
      .Halt();
  Assembler receive_twice("receive-twice");
  receive_twice.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).Receive(4, 2).Receive(5, 2).Halt();

  ProcessOptions s1_options = options;
  if (s1_faults_to_the_port) {
    s1_options.fault_port = run.port;
  }
  run.s1 = spawn(local_sender, s1_options);
  run.s2 = spawn(global_sender, options);
  run.s3 = spawn(global_sender, options);
  kernel.Run();
  EXPECT_EQ(kernel.process_view(run.s1).state(), ProcessState::kBlocked);
  EXPECT_EQ(kernel.process_view(run.s2).state(), ProcessState::kBlocked);
  EXPECT_EQ(kernel.process_view(run.s3).state(), ProcessState::kBlocked);
  run.receiver = spawn(receive_twice, options);
  kernel.Run();
  return run;
}

// R's first receive admits S1's message, which the level rule refuses: S1 takes
// kLevelViolation, and the admission goes on to S2, whose message takes the free slot. R's
// second receive gets it and admits S3, and S2, S3 and R halt.
TEST_F(KernelTest, AReceiveAdmitsTheNextSenderAfterARefusedOne) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  RefusedSenderRun run =
      RunRefusedSender(machine_, memory_, kernel_, /*s1_faults_to_the_port=*/false);
  EXPECT_EQ(View(run.s1).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(run.s1).fault_code(), Fault::kLevelViolation);
  EXPECT_EQ(View(run.s2).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(run.s2).fault_code(), Fault::kNone);
  EXPECT_EQ(View(run.s3).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(run.s3).fault_code(), Fault::kNone);
  EXPECT_EQ(View(run.receiver).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(run.receiver).Field(ProcessLayout::kOffMessagesReceived, 4), 2u);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  EXPECT_EQ(kernel_.stats().processes_terminated, 4u);
}

// The same, with the port as S1's fault port: S1's faulted process AD takes the slot, so the
// admission stops and S2 stays blocked, first in line and without a fault, until R's second
// receive (which gets S1) admits it ahead of S3. Each sender's wait counts once.
TEST_F(KernelTest, AnAdmissionStopsWhenARefusedSendersFaultFillsThePort) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  RefusedSenderRun run =
      RunRefusedSender(machine_, memory_, kernel_, /*s1_faults_to_the_port=*/true);
  EXPECT_EQ(View(run.s1).state(), ProcessState::kFaulted);
  EXPECT_EQ(View(run.s1).fault_code(), Fault::kLevelViolation);
  EXPECT_EQ(View(run.s2).state(), ProcessState::kTerminated);
  EXPECT_EQ(View(run.s2).fault_code(), Fault::kNone);
  EXPECT_EQ(View(run.s3).state(), ProcessState::kBlocked);
  EXPECT_EQ(View(run.receiver).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().faults_delivered, 1u);
  EXPECT_EQ(ObjectView(&machine_.addressing(), run.port).Field(PortLayout::kOffSendBlocks, 4),
            3u);
  auto queued = kernel_.ports().Dequeue(run.port);  // S2's message
  ASSERT_TRUE(queued.ok());
  EXPECT_FALSE(queued.value().SameObject(run.s1));
}

// A 200-iteration Compute(1000) loop: two of them on one GDP share it by time slices.
ProgramRef ComputeLoop() {
  Assembler a("loop");
  auto loop = a.NewLabel();
  a.LoadImm(0, 0).LoadImm(1, 200).Bind(loop).Compute(1000).AddImm(0, 0, 1);
  a.BranchIfLess(0, 1, loop).Halt();
  return a.Build();
}

// Two loops share one GDP. While the first is bound, the second, queued at the dispatching
// port, is quarantined: its state can no longer be read, so the dispatcher skips it, as it
// skips a stale AD, and the first loop runs to its end.
TEST_F(KernelTest, AQuarantinedQueuedProcessIsNotDispatched) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  AccessDescriptor bound = Spawn(ComputeLoop());
  AccessDescriptor queued = Spawn(ComputeLoop());
  kernel_.RunUntil(10);
  machine_.table().At(queued.index()).quarantined = true;
  kernel_.Run();
  EXPECT_EQ(View(bound).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().processes_terminated, 1u);
}

// The same two loops, with the bound one quarantined: its next step cannot read it, so the
// GDP drops it and runs the other loop to its end.
TEST_F(KernelTest, AProcessQuarantinedWhileBoundIsDropped) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  AccessDescriptor bound = Spawn(ComputeLoop());
  AccessDescriptor queued = Spawn(ComputeLoop());
  kernel_.RunUntil(10);
  machine_.table().At(bound.index()).quarantined = true;
  kernel_.Run();
  EXPECT_EQ(View(queued).state(), ProcessState::kTerminated);
  EXPECT_EQ(kernel_.stats().processes_terminated, 1u);
}

TEST(KernelPinningTest, PatrolSweepsDuringATwoGdpLoopFindNothing) {
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 1024 * 1024;
  config.machine.object_table_capacity = 2048;
  config.start_patrol_daemon = true;
  System system(config);
  std::vector<AccessDescriptor> counters;
  std::vector<AccessDescriptor> contexts;
  for (int i = 0; i < 2; ++i) {
    Assembler a("bump-forever");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .Bind(loop)
        .LoadData(0, 1, 0, 8)
        .AddImm(0, 0, 1)
        .StoreData(1, 0, 0, 8)
        .Branch(loop);
    auto counter = system.memory().CreateObject(system.memory().global_heap(),
                                                SystemType::kGeneric, 8, 0,
                                                rights::kRead | rights::kWrite);
    ASSERT_TRUE(counter.ok());
    ProcessOptions options;
    options.initial_arg = counter.value();
    options.priority = 1;  // below the patrol daemon, so a slice end hands it a GDP
    auto process = system.Spawn(a.Build(), options);
    ASSERT_TRUE(process.ok());
    counters.push_back(counter.value());
    contexts.push_back(system.kernel().process_view(process.value()).context());
  }
  system.RunUntil(200000);  // both loops are running, one per GDP
  ObjectTable& table = system.machine().table();
  uint64_t epochs_before = 0;
  for (const AccessDescriptor& context : contexts) {
    epochs_before += table.At(context.index()).data_epoch;
  }
  uint64_t counted_before = 0;
  for (const AccessDescriptor& counter : counters) {
    counted_before += system.machine().addressing().ReadData(counter, 0, 8).value();
  }

  ASSERT_TRUE(system.RequestPatrolSweep().ok());
  ASSERT_TRUE(system.RequestPatrolSweep().ok());
  for (int slice = 0; slice < 1000 && system.patrol().stats().sweeps_completed < 2; ++slice) {
    system.RunUntil(system.now() + 10000);
  }
  const PatrolStats& stats = system.patrol().stats();
  ASSERT_EQ(stats.sweeps_completed, 2u);
  EXPECT_EQ(stats.objects_quarantined, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_EQ(stats.invariant_failures, 0u);
  EXPECT_EQ(stats.data_crc_failures, 0u);

  // The loops kept running while the patrol swept, and every instruction's pc update, a
  // pinned write, bumped its context's data epoch.
  uint64_t epochs_after = 0;
  for (const AccessDescriptor& context : contexts) {
    epochs_after += table.At(context.index()).data_epoch;
  }
  uint64_t counted_after = 0;
  for (const AccessDescriptor& counter : counters) {
    counted_after += system.machine().addressing().ReadData(counter, 0, 8).value();
  }
  EXPECT_GT(counted_after, counted_before);
  EXPECT_GE(epochs_after - epochs_before, 4 * (counted_after - counted_before));
}

using KernelDeathTest = KernelTest;

TEST_F(KernelDeathTest, PinnedViewOfADestroyedContextAborts) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  Assembler a("short");
  a.LoadImm(0, 1).Halt();
  AccessDescriptor process = Spawn(a.Build());
  ContextView ctx(&machine_.addressing(), View(process).context(), kPin);
  ctx.set_reg(1, 5);
  EXPECT_EQ(ctx.reg(1), 5u);
  kernel_.Run();  // termination destroys the stack SRO and every context in it
  ASSERT_EQ(View(process).state(), ProcessState::kTerminated);
  EXPECT_DEATH((void)ctx.reg(1), "pinned access to a dead object");
  EXPECT_DEATH(ctx.set_pc(0), "pinned access to a dead object");
  EXPECT_DEATH((void)ctx.ad_reg(0), "pinned access to a dead object");
}

}  // namespace
}  // namespace imax432
