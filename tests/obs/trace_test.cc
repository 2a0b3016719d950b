#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include "src/os/system.h"

namespace imax432 {
namespace {

TEST(TraceRecorderTest, DisabledModeAllocatesNothing) {
  TraceRecorder trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(trace.capacity(), 0u);
  // Emit must be a harmless no-op while disabled.
  trace.Emit(TraceEventKind::kDispatch, 100, 0, 1);
  trace.Annotate(100, "ignored");
  EXPECT_EQ(trace.capacity(), 0u);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_emitted(), 0u);
  EXPECT_TRUE(trace.Snapshot().empty());
  EXPECT_TRUE(trace.annotations().empty());
}

TEST(TraceRecorderTest, RecordsInOrder) {
  TraceRecorder trace;
  trace.Enable(16);
  EXPECT_TRUE(trace.enabled());
  EXPECT_EQ(trace.capacity(), 16u);
  for (uint32_t i = 0; i < 5; ++i) {
    trace.Emit(TraceEventKind::kSend, i * 10, 0, 7, i);
  }
  auto events = trace.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].ts, i * 10);
    EXPECT_EQ(events[i].a, i);
    EXPECT_EQ(events[i].process, 7u);
    EXPECT_EQ(events[i].kind, TraceEventKind::kSend);
  }
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorderTest, WraparoundKeepsNewestEvents) {
  TraceRecorder trace;
  trace.Enable(8);
  for (uint32_t i = 0; i < 20; ++i) {
    trace.Emit(TraceEventKind::kReceive, i, 0, 0, i);
  }
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.total_emitted(), 20u);
  EXPECT_EQ(trace.dropped(), 12u);
  auto events = trace.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The ring holds exactly the last 8 emissions, oldest first.
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].a, 12 + i);
  }
}

TEST(TraceRecorderTest, ReenableSameCapacityKeepsEvents) {
  TraceRecorder trace;
  trace.Enable(8);
  trace.Emit(TraceEventKind::kSend, 1, 0, 0);
  trace.Enable(8);  // idempotent
  EXPECT_EQ(trace.size(), 1u);
  trace.Enable(32);  // different capacity reallocates and clears
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_emitted(), 0u);
  EXPECT_EQ(trace.capacity(), 32u);
}

TEST(TraceRecorderTest, DisableStopsRecordingWithoutLosingHistory) {
  TraceRecorder trace;
  trace.Enable(8);
  trace.Emit(TraceEventKind::kSend, 1, 0, 0);
  trace.Disable();
  trace.Emit(TraceEventKind::kSend, 2, 0, 0);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.Snapshot().size(), 1u);
}

TEST(TraceRecorderTest, ClearResetsCountersAndAnnotations) {
  TraceRecorder trace;
  trace.Enable(4);
  trace.Emit(TraceEventKind::kSend, 1, 0, 0);
  trace.Annotate(1, "line");
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_emitted(), 0u);
  EXPECT_TRUE(trace.annotations().empty());
  EXPECT_TRUE(trace.enabled());  // Clear does not disable
}

TEST(TraceRecorderTest, AnnotationsAreBounded) {
  TraceRecorder trace;
  trace.Enable(4);
  for (size_t i = 0; i < TraceRecorder::kMaxAnnotations + 10; ++i) {
    trace.Annotate(i, "m" + std::to_string(i));
  }
  EXPECT_EQ(trace.annotations().size(), TraceRecorder::kMaxAnnotations);
  // Oldest were dropped: the first surviving annotation is number 10.
  EXPECT_EQ(trace.annotations().front().first, 10u);
}

TEST(TraceRecorderTest, ZeroCapacityIsClampedToOne) {
  TraceRecorder trace;
  trace.Enable(0);
  EXPECT_EQ(trace.capacity(), 1u);
  trace.Emit(TraceEventKind::kSend, 1, 0, 0);
  trace.Emit(TraceEventKind::kSend, 2, 0, 0);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.Snapshot()[0].ts, 2u);
}

// End-to-end: a multi-GDP system run with tracing enabled produces a coherent timeline.
TEST(TraceSystemTest, MultiProcessorRunProducesCoherentTimeline) {
  SystemConfig config;
  config.processors = 4;
  config.machine.memory_bytes = 2 * 1024 * 1024;
  config.trace = true;
  System system(config);

  auto port = system.kernel().ports().CreatePort(system.memory().global_heap(), 4,
                                                 QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 8, 2,
                                              rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  (void)system.machine().addressing().WriteAd(carrier.value(), 0, port.value());
  (void)system.machine().addressing().WriteAd(carrier.value(), 1,
                                              system.memory().global_heap());

  Assembler producer("producer");
  auto send_loop = producer.NewLabel();
  producer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .LoadImm(0, 0)
      .LoadImm(1, 8)
      .Bind(send_loop)
      .CreateObject(4, 3, 32)
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, send_loop)
      .Halt();
  Assembler consumer("consumer");
  auto recv_loop = consumer.NewLabel();
  consumer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 8)
      .Bind(recv_loop)
      .Receive(4, 2)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, recv_loop)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  ASSERT_TRUE(system.Spawn(consumer.Build(), options).ok());
  ASSERT_TRUE(system.Spawn(producer.Build(), options).ok());
  system.Run();

  const TraceRecorder& trace = system.machine().trace();
  auto events = trace.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(trace.dropped(), 0u);

  Cycles last_ts = 0;
  uint64_t dispatches = 0;
  uint64_t sends = 0;
  uint64_t receives = 0;
  uint64_t terminates = 0;
  for (const TraceEvent& event : events) {
    // Virtual time never runs backwards.
    EXPECT_GE(event.ts, last_ts);
    last_ts = event.ts;
    // Processor ids are either the sentinel or a real GDP.
    if (event.cpu != kTraceNoProcessor) {
      EXPECT_LT(event.cpu, 4);
    }
    // Message events carry the port index in payload a; count only our port's traffic
    // (the dispatching and daemon ports also send and receive).
    switch (event.kind) {
      case TraceEventKind::kDispatch: ++dispatches; break;
      case TraceEventKind::kSend:
        if (event.a == port.value().index()) ++sends;
        break;
      case TraceEventKind::kReceive:
        if (event.a == port.value().index()) ++receives;
        break;
      case TraceEventKind::kTerminate: ++terminates; break;
      default: break;
    }
  }
  EXPECT_EQ(dispatches, system.kernel().stats().dispatches);
  EXPECT_EQ(sends, 8u);
  EXPECT_EQ(receives, 8u);
  EXPECT_EQ(terminates, 2u);

  // The always-on histograms agree with the trace.
  EXPECT_EQ(system.machine().latency().dispatch_latency.count(),
            system.kernel().stats().dispatches);
}

}  // namespace
}  // namespace imax432
