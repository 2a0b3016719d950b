// EventQueue: the discrete-event engine that gives the emulator its virtual time base.
//
// Everything that "happens" in the machine — dispatches, device completions, GC daemon
// quanta, and the instruction steps the kernel cannot continue inline — is an event at a
// cycle timestamp. Events at equal times run in scheduling order (a monotone sequence number
// breaks ties), so simulations are bit-for-bit reproducible regardless of host scheduling.
// "Parallel" processors are interleaved in virtual time at instruction granularity, which is
// exactly the tightly-coupled shared-memory model the 432 exposes to software.
//
// A running callback that would schedule its own follow-on may instead continue inline
// (TryContinueAt). That is allowed only when the follow-on would have been the very next
// event popped, so the order of everything that happens is the same either way; only the
// heap traffic goes away (DESIGN.md §10).

#ifndef IMAX432_SRC_SIM_EVENT_QUEUE_H_
#define IMAX432_SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/arch/types.h"
#include "src/base/check.h"

namespace imax432 {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Schedules `fn` to run at absolute virtual time `when` (>= now()).
  void ScheduleAt(Cycles when, Callback fn) {
    IMAX_CHECK(when >= now_);
    heap_.push_back(Event{when, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // Schedules `fn` to run `delay` cycles from now.
  void ScheduleAfter(Cycles delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Runs events until the queue drains. Returns the number of events popped.
  uint64_t RunUntilIdle() { return RunUntil(~Cycles{0}); }

  // Runs events with time <= deadline; the clock never passes an event it did not run.
  // Returns the number of events popped; continuations are not counted.
  uint64_t RunUntil(Cycles deadline) { return Run(deadline, ~uint64_t{0}); }

  // Runs at most `limit` steps, counting both popped events and continuations (safety valve
  // for tests of potentially-divergent programs). Returns the number of events popped.
  uint64_t RunBounded(uint64_t limit) { return Run(~Cycles{0}, limit); }

  // Lets the running callback take its follow-on step at `when` directly instead of
  // scheduling it, advancing the clock to `when`. Allowed only when that step would have
  // been the next event popped anyway: `when` is strictly earlier than every pending event
  // (an equal-time event was scheduled first, so it would run first), no later than the
  // active RunUntil deadline, and within RunBounded's limit, which the continuation uses
  // up. Refused outside any run. On false the caller schedules the step as usual.
  bool TryContinueAt(Cycles when) {
    if (budget_ == 0 || when > deadline_ || (!heap_.empty() && heap_.front().time <= when)) {
      return false;
    }
    IMAX_DCHECK(when >= now_);
    --budget_;
    now_ = when;
    return true;
  }

  Cycles now() const { return now_; }
  bool idle() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    Cycles time;
    uint64_t seq;
    Callback fn;
  };

  // The std heap algorithms keep the greatest element at the front, so "greater" is later.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  uint64_t Run(Cycles deadline, uint64_t limit) {
    // A run started inside a callback gets its own bounds and gives back the outer ones.
    const Cycles outer_deadline = deadline_;
    const uint64_t outer_budget = budget_;
    deadline_ = deadline;
    budget_ = limit;
    uint64_t processed = 0;
    while (budget_ > 0 && !heap_.empty() && heap_.front().time <= deadline_) {
      // Move out before the callback runs so it may schedule new events freely.
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Event event = std::move(heap_.back());
      heap_.pop_back();
      IMAX_DCHECK(event.time >= now_);
      --budget_;
      now_ = event.time;
      event.fn();
      ++processed;
    }
    deadline_ = outer_deadline;
    budget_ = outer_budget;
    return processed;
  }

  std::vector<Event> heap_;
  Cycles now_ = 0;
  uint64_t next_seq_ = 0;
  // Bounds of the active run. Outside any run the budget is zero, which refuses every
  // continuation.
  Cycles deadline_ = 0;
  uint64_t budget_ = 0;
};

}  // namespace imax432

#endif  // IMAX432_SRC_SIM_EVENT_QUEUE_H_
