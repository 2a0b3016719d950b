#include <gtest/gtest.h>

#include "src/exec/kernel.h"
#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

class TimedReceiveTest : public ::testing::Test {
 protected:
  TimedReceiveTest() : machine_(MakeConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {
    EXPECT_TRUE(kernel_.AddProcessors(1).ok());
  }

  static MachineConfig MakeConfig() {
    MachineConfig config;
    config.memory_bytes = 512 * 1024;
    config.object_table_capacity = 2048;
    return config;
  }

  // A process that does a timed receive (port in a7, timeout in r7), then halts.
  AccessDescriptor SpawnTimedReceiver(const AccessDescriptor& port, Cycles timeout,
                                      uint8_t imax_level = kImaxLevelUser,
                                      const AccessDescriptor& fault_port = {}) {
    Assembler a("timed-receiver");
    a.MoveAd(kArgAdReg, kArgAdReg)  // a7 already holds the port (initial_arg)
        .LoadImm(kArgReg, timeout)
        .OsCall(os_service::kTimedReceive)
        .Halt();
    ProcessOptions options;
    options.initial_arg = port;
    options.imax_level = imax_level;
    options.fault_port = fault_port;
    auto process = kernel_.CreateProcess(a.Build(), options);
    EXPECT_TRUE(process.ok());
    EXPECT_TRUE(kernel_.StartProcess(process.value()).ok());
    return process.value();
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
};

TEST_F(TimedReceiveTest, ExpiryFaultsWithTimeout) {
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  AccessDescriptor process = SpawnTimedReceiver(port.value(), /*timeout=*/10000);
  kernel_.Run();
  ProcessView view = kernel_.process_view(process);
  EXPECT_EQ(view.state(), ProcessState::kTerminated);  // no fault port: terminated
  EXPECT_EQ(view.fault_code(), Fault::kTimeout);
  // The process is no longer queued at the port.
  EXPECT_FALSE(kernel_.ports().HasBlockedReceiver(port.value()));
}

// A process quarantined while it waits in a timed receive can no longer be read: when the
// timeout expires, the watchdog leaves it alone instead of reading its state through a
// checked view, which would abort the host.
TEST_F(TimedReceiveTest, ExpiryLeavesAQuarantinedReceiverAlone) {
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  AccessDescriptor process = SpawnTimedReceiver(port.value(), /*timeout=*/10000);
  kernel_.RunUntil(machine_.now() + 5000);
  ASSERT_EQ(kernel_.process_view(process).state(), ProcessState::kBlocked);
  machine_.table().At(process.index()).quarantined = true;
  kernel_.Run();  // the watchdog fires
  EXPECT_EQ(kernel_.stats().processes_terminated, 0u);
  machine_.table().At(process.index()).quarantined = false;  // to read it here
  ProcessView view = kernel_.process_view(process);
  EXPECT_EQ(view.state(), ProcessState::kBlocked);
  EXPECT_EQ(view.fault_code(), Fault::kNone);
}

TEST_F(TimedReceiveTest, MessageBeforeExpiryDeliversNormally) {
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  // Pre-load the port: the timed receive succeeds immediately, no block, no timer bite.
  ASSERT_TRUE(kernel_.PostMessage(port.value(), memory_.global_heap()).ok());
  AccessDescriptor process = SpawnTimedReceiver(port.value(), /*timeout=*/10000);
  kernel_.Run();
  ProcessView view = kernel_.process_view(process);
  EXPECT_EQ(view.state(), ProcessState::kTerminated);
  EXPECT_EQ(view.fault_code(), Fault::kNone);
}

TEST_F(TimedReceiveTest, LateMessageRaceIsBenign) {
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  AccessDescriptor process = SpawnTimedReceiver(port.value(), /*timeout=*/200000);
  // Let it block, deliver the message well before expiry, then drain past the timer.
  kernel_.RunUntil(machine_.now() + 50000);
  ASSERT_TRUE(kernel_.PostMessage(port.value(), memory_.global_heap()).ok());
  kernel_.Run();
  ProcessView view = kernel_.process_view(process);
  EXPECT_EQ(view.state(), ProcessState::kTerminated);
  EXPECT_EQ(view.fault_code(), Fault::kNone);  // the stale timer was a no-op
}

TEST_F(TimedReceiveTest, TimeoutFaultDeliveredToFaultPort) {
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok() && fault_port.ok());
  AccessDescriptor process =
      SpawnTimedReceiver(port.value(), 10000, kImaxLevelUser, fault_port.value());
  kernel_.Run();
  EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kFaulted);
  auto delivered = kernel_.ports().Dequeue(fault_port.value());
  ASSERT_TRUE(delivered.ok());
  EXPECT_TRUE(delivered.value().SameObject(process));
}

TEST_F(TimedReceiveTest, Level2ProcessMayTimeoutFault) {
  // §7.3: "Processes at level 2 are actually permitted a limited set of timeout faults."
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  auto fault_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok() && fault_port.ok());
  AccessDescriptor process =
      SpawnTimedReceiver(port.value(), 10000, kImaxLevelMemory, fault_port.value());
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().panics, 0u);  // permitted: no design-rule violation
  EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kFaulted);
  EXPECT_EQ(kernel_.process_view(process).fault_code(), Fault::kTimeout);
}

TEST_F(TimedReceiveTest, Level1ProcessTimeoutPanics) {
  // "...while those at level 1 are not permitted even these."
  auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  AccessDescriptor process = SpawnTimedReceiver(port.value(), 10000, kImaxLevelCore);
  kernel_.Run();
  EXPECT_EQ(kernel_.stats().panics, 1u);
  EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kTerminated);
}

TEST_F(TimedReceiveTest, ReblockingDoesNotTripStaleTimer) {
  // Process does a LONG timed receive satisfied quickly, then an untimed receive on another
  // port. When the first timer fires, the process is blocked again — but in a new episode,
  // so the stale timer must not fault it.
  auto port_a = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  auto port_b = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(port_a.ok() && port_b.ok());

  auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 8, 2,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, port_a.value()).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, port_b.value()).ok());

  Assembler a("reblocker");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(kArgAdReg, 1, 0)          // a7 = port A
      .LoadImm(kArgReg, 400000)         // long timeout
      .OsCall(os_service::kTimedReceive)
      .LoadAd(2, 1, 1)                  // a2 = port B
      .Receive(3, 2)                    // block indefinitely on B
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto process = kernel_.CreateProcess(a.Build(), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(kernel_.StartProcess(process.value()).ok());

  kernel_.RunUntil(machine_.now() + 20000);  // blocked on A
  ASSERT_TRUE(kernel_.PostMessage(port_a.value(), memory_.global_heap()).ok());
  kernel_.Run();  // now blocked on B; port A's timer fires during this drain
  ProcessView view = kernel_.process_view(process.value());
  EXPECT_EQ(view.state(), ProcessState::kBlocked);  // still healthy, waiting on B
  EXPECT_EQ(view.fault_code(), Fault::kNone);
}

}  // namespace
}  // namespace imax432
