#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace imax432 {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(30, [&] { order.push_back(3); });
  queue.ScheduleAt(10, [&] { order.push_back(1); });
  queue.ScheduleAt(20, [&] { order.push_back(2); });
  queue.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueueTest, EqualTimesRunInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  queue.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CallbacksMayScheduleMore) {
  EventQueue queue;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) {
      queue.ScheduleAfter(10, tick);
    }
  };
  queue.ScheduleAt(0, tick);
  queue.RunUntilIdle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(queue.now(), 40u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue queue;
  int ran = 0;
  queue.ScheduleAt(10, [&] { ++ran; });
  queue.ScheduleAt(20, [&] { ++ran; });
  queue.ScheduleAt(30, [&] { ++ran; });
  EXPECT_EQ(queue.RunUntil(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.RunUntilIdle(), 1u);
  EXPECT_EQ(ran, 3);
}

TEST(EventQueueTest, RunBoundedLimitsWork) {
  EventQueue queue;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    queue.ScheduleAfter(1, forever);
  };
  queue.ScheduleAt(0, forever);
  EXPECT_EQ(queue.RunBounded(100), 100u);
  EXPECT_EQ(count, 100);
}

TEST(EventQueueTest, ClockNeverGoesBackward) {
  EventQueue queue;
  Cycles last = 0;
  bool monotone = true;
  for (int i = 0; i < 50; ++i) {
    queue.ScheduleAt(static_cast<Cycles>((i * 7) % 23 + 1), [&, i] {
      if (queue.now() < last) {
        monotone = false;
      }
      last = queue.now();
      (void)i;
    });
  }
  queue.RunUntilIdle();
  EXPECT_TRUE(monotone);
}

// Takes steps `period` cycles apart until `*steps` reaches `limit`: inline whenever the
// queue allows it, as the kernel's processor step does, and as a scheduled event otherwise.
void Step(EventQueue& queue, Cycles period, int limit, int* steps) {
  do {
    ++*steps;
  } while (*steps < limit && queue.TryContinueAt(queue.now() + period));
  if (*steps < limit) {
    queue.ScheduleAfter(period,
                        [&queue, period, limit, steps] { Step(queue, period, limit, steps); });
  }
}

TEST(EventQueueTest, ContinuationIsRefusedAtOrAfterAPendingEvent) {
  EventQueue queue;
  std::vector<bool> allowed;
  queue.ScheduleAt(0, [&] {
    allowed.push_back(queue.TryContinueAt(20));  // a tie: the pending event runs first
    allowed.push_back(queue.TryContinueAt(30));
    allowed.push_back(queue.TryContinueAt(19));
    allowed.push_back(queue.now() == 19);
  });
  queue.ScheduleAt(20, [] {});
  EXPECT_EQ(queue.RunUntilIdle(), 2u);
  EXPECT_EQ(allowed, (std::vector<bool>{false, false, true, true}));
}

TEST(EventQueueTest, ContinuationIsRefusedPastTheRunUntilDeadline) {
  EventQueue queue;
  bool past = true;
  bool at = false;
  queue.ScheduleAt(0, [&] {
    past = queue.TryContinueAt(101);
    at = queue.TryContinueAt(100);
  });
  EXPECT_EQ(queue.RunUntil(100), 1u);
  EXPECT_FALSE(past);
  EXPECT_TRUE(at);
  EXPECT_EQ(queue.now(), 100u);
}

TEST(EventQueueTest, ContinuationIsRefusedOutsideAnyRun) {
  EventQueue queue;
  EXPECT_FALSE(queue.TryContinueAt(0));
  queue.ScheduleAt(5, [] {});
  queue.RunUntilIdle();
  EXPECT_FALSE(queue.TryContinueAt(10));  // a finished run leaves no bounds behind
  EXPECT_EQ(queue.now(), 5u);
}

TEST(EventQueueTest, ContinuationsCountAgainstTheRunBoundedLimit) {
  EventQueue queue;
  int steps = 0;
  queue.ScheduleAt(0, [&] { Step(queue, 1, 1000, &steps); });
  EXPECT_EQ(queue.RunBounded(100), 1u);  // one pop, then 99 continuations
  EXPECT_EQ(steps, 100);
  EXPECT_EQ(queue.now(), 99u);
  EXPECT_EQ(queue.pending(), 1u);  // the refused next step was scheduled instead
  EXPECT_EQ(queue.RunBounded(50), 1u);
  EXPECT_EQ(steps, 150);
}

TEST(EventQueueTest, ContinuationsAreNotCountedInTheReturnValue) {
  EventQueue queue;
  int steps = 0;
  queue.ScheduleAt(0, [&] { Step(queue, 1, 10, &steps); });
  queue.ScheduleAt(5, [] {});  // the step due at 5 queues behind this event
  EXPECT_EQ(queue.RunUntil(100), 3u);  // the first step, the event at 5, the step at 5
  EXPECT_EQ(steps, 10);
  EXPECT_EQ(queue.now(), 9u);
}

// --- Processor events ---------------------------------------------------------------------

// Records every processor event as its negated argument minus one, so the two kinds share
// one log: closures log non-negative ids, processor event `arg` logs -(arg + 1).
void LogProcessorEvents(EventQueue& queue, std::vector<int>* order) {
  queue.SetProcessorHandler(
      [order](uint32_t arg) { order->push_back(-static_cast<int>(arg) - 1); });
}

TEST(EventQueueTest, ProcessorAndClosureEventsAtEqualTimesRunInSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  LogProcessorEvents(queue, &order);
  queue.ScheduleProcessorAt(5, 0);
  queue.ScheduleAt(5, [&] { order.push_back(1); });
  queue.ScheduleProcessorAt(5, 7);
  queue.ScheduleAt(5, [&] { order.push_back(2); });
  queue.ScheduleProcessorAt(3, 2);  // earlier, scheduled last: still first
  EXPECT_EQ(queue.RunUntilIdle(), 5u);
  EXPECT_EQ(order, (std::vector<int>{-3, -1, 1, -8, 2}));
  EXPECT_EQ(queue.now(), 5u);
}

TEST(EventQueueTest, EachKindMayScheduleTheOther) {
  EventQueue queue;
  std::vector<int> order;
  int rounds = 0;
  // The processor event schedules a closure at its own time; the closure schedules the next
  // processor event one cycle later, for three rounds.
  queue.SetProcessorHandler([&](uint32_t arg) {
    order.push_back(-static_cast<int>(arg) - 1);
    queue.ScheduleAt(queue.now(), [&] {
      order.push_back(rounds);
      if (++rounds < 3) {
        queue.ScheduleProcessorAt(queue.now() + 1, static_cast<uint32_t>(rounds));
      }
    });
  });
  queue.ScheduleAt(0, [&] { queue.ScheduleProcessorAt(0, 0); });
  EXPECT_EQ(queue.RunUntilIdle(), 7u);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, -2, 1, -3, 2}));
  EXPECT_EQ(queue.now(), 2u);
  EXPECT_TRUE(queue.idle());
}

TEST(EventQueueTest, ReusedClosureSlotsKeepSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  LogProcessorEvents(queue, &order);
  for (int round = 0; round < 50; ++round) {
    // Every round reuses the slots the last one freed, in the reverse of their freeing
    // order, with one more closure than before so the slot vector also grows. Runs must
    // follow (time, scheduling order), never slot order.
    order.clear();
    const Cycles at = queue.now() + 10;
    for (int i = 0; i <= round; ++i) {
      queue.ScheduleAt(at, [&order, i] { order.push_back(i); });
      if (i == round / 2) queue.ScheduleProcessorAt(at, static_cast<uint32_t>(round));
    }
    EXPECT_EQ(queue.RunUntilIdle(), static_cast<uint64_t>(round) + 2);
    std::vector<int> expected;
    for (int i = 0; i <= round; ++i) {
      expected.push_back(i);
      if (i == round / 2) expected.push_back(-round - 1);
    }
    ASSERT_EQ(order, expected) << "round " << round;
  }
}

TEST(EventQueueTest, ContinuationIsRefusedAtOrAfterAPendingProcessorEvent) {
  EventQueue queue;
  std::vector<int> order;
  LogProcessorEvents(queue, &order);
  std::vector<bool> allowed;
  queue.ScheduleAt(0, [&] {
    queue.ScheduleProcessorAt(20, 4);
    allowed.push_back(queue.TryContinueAt(20));  // a tie: the processor event runs first
    allowed.push_back(queue.TryContinueAt(25));
    allowed.push_back(queue.TryContinueAt(19));
    allowed.push_back(queue.now() == 19);
  });
  EXPECT_EQ(queue.RunUntilIdle(), 2u);
  EXPECT_EQ(allowed, (std::vector<bool>{false, false, true, true}));
  EXPECT_EQ(order, (std::vector<int>{-5}));
  EXPECT_EQ(queue.now(), 20u);
}

}  // namespace
}  // namespace imax432
