// EventQueue: the discrete-event engine that gives the emulator its virtual time base.
//
// Everything that "happens" in the machine — dispatches, device completions, GC daemon
// quanta, and the instruction steps the kernel cannot continue inline — is an event at a
// cycle timestamp. Events at equal times run in scheduling order (a monotone sequence number
// breaks ties), so simulations are bit-for-bit reproducible regardless of host scheduling.
// "Parallel" processors are interleaved in virtual time at instruction granularity, which is
// exactly the tightly-coupled shared-memory model the 432 exposes to software.
//
// There are two kinds of event. A processor event (a GDP's instruction step or its look for
// work) carries only a 31-bit argument and runs the one processor handler the kernel
// installs; it is the most frequent event by far and costs no allocation. Every other event
// is a closure, held in a slot vector whose free slots are reused. A heap entry is the same
// trivially copyable {time, seq, target} for both, and `seq` comes from one counter, so the
// kind of an event never changes when it runs.
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
  using ProcessorHandler = std::function<void(uint32_t arg)>;

  // Installs the handler every processor event runs: the kernel's, once per machine.
  void SetProcessorHandler(ProcessorHandler handler) {
    IMAX_CHECK(processor_handler_ == nullptr);
    processor_handler_ = std::move(handler);
  }

  // Schedules `fn` to run at absolute virtual time `when` (>= now()).
  void ScheduleAt(Cycles when, Callback fn) {
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(closures_.size());
      IMAX_CHECK(slot < kProcessorEvent);
      closures_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      closures_[slot] = std::move(fn);
    }
    Push(when, slot);
  }

  // Schedules `fn` to run `delay` cycles from now.
  void ScheduleAfter(Cycles delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Schedules a processor event: the processor handler runs with `arg` (< 2^31) at `when`.
  void ScheduleProcessorAt(Cycles when, uint32_t arg) {
    IMAX_DCHECK(arg < kProcessorEvent && processor_handler_ != nullptr);
    Push(when, kProcessorEvent | arg);
  }

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
  // A target with this bit set is a processor event and the rest is its argument; without
  // it, the target is the index of a closure slot.
  static constexpr uint32_t kProcessorEvent = uint32_t{1} << 31;

  struct Entry {
    Cycles time;
    uint64_t seq;
    uint32_t target;
  };

  // The std heap algorithms keep the greatest element at the front, so "greater" is later.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  void Push(Cycles when, uint32_t target) {
    IMAX_CHECK(when >= now_);
    heap_.push_back(Entry{when, next_seq_++, target});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  uint64_t Run(Cycles deadline, uint64_t limit) {
    // A run started inside a callback gets its own bounds and gives back the outer ones.
    const Cycles outer_deadline = deadline_;
    const uint64_t outer_budget = budget_;
    deadline_ = deadline;
    budget_ = limit;
    uint64_t processed = 0;
    while (budget_ > 0 && !heap_.empty() && heap_.front().time <= deadline_) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Entry entry = heap_.back();
      heap_.pop_back();
      IMAX_DCHECK(entry.time >= now_);
      --budget_;
      now_ = entry.time;
      if ((entry.target & kProcessorEvent) != 0) {
        processor_handler_(entry.target & ~kProcessorEvent);
      } else {
        // Move the closure out and free its slot before it runs, so it may schedule new
        // events freely.
        Callback fn = std::move(closures_[entry.target]);
        free_slots_.push_back(entry.target);
        fn();
      }
      ++processed;
    }
    deadline_ = outer_deadline;
    budget_ = outer_budget;
    return processed;
  }

  std::vector<Entry> heap_;
  Cycles now_ = 0;
  uint64_t next_seq_ = 0;
  // Bounds of the active run. Outside any run the budget is zero, which refuses every
  // continuation.
  Cycles deadline_ = 0;
  uint64_t budget_ = 0;
  std::vector<Callback> closures_;
  std::vector<uint32_t> free_slots_;
  ProcessorHandler processor_handler_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_SIM_EVENT_QUEUE_H_
