// BasicProcessManager: the iMAX basic process management package (§6.1).
//
// "The basic process manager of iMAX completes the model of processes embedded in the
// hardware ... It does not arbitrate conflicting requests on the processor resource,
// however. It makes directly available to the user the dispatching parameters of the
// hardware and users are free to overcommit or otherwise misuse these parameters."
//
// Responsibilities reproduced here:
//   - process creation with tree linkage (parent / first-child / next-sibling in the
//     process objects themselves — there is deliberately *no central table of processes*;
//     §7.1 explains why such a table would defeat garbage collection);
//   - nested start/stop over whole trees: "Each process has a count of the number of stops
//     or starts outstanding against it which determines if it is currently running. Since
//     starts and stops apply to entire trees, a user wishing to control a computation need
//     not be aware of the internal structure of that process";
//   - scheduler mediation: "Whenever an individual process would enter or leave the
//     dispatching mix as the result of start or stop requests, it will be sent to its
//     process scheduler" — processes with a scheduler port transition through it; processes
//     without one (the *null policy*) go straight to the hardware dispatching mix.

#ifndef IMAX432_SRC_OS_PROCESS_MANAGER_H_
#define IMAX432_SRC_OS_PROCESS_MANAGER_H_

#include "src/exec/kernel.h"

namespace imax432 {

struct ProcessManagerStats {
  uint64_t created = 0;
  uint64_t tree_starts = 0;         // Start() requests (roots)
  uint64_t tree_stops = 0;          // Stop() requests (roots)
  uint64_t transitions = 0;         // individual processes entering/leaving the mix
  uint64_t scheduler_notifications = 0;  // transitions routed via a scheduler port
};

class BasicProcessManager {
 public:
  explicit BasicProcessManager(Kernel* kernel) : kernel_(kernel) {}

  // Creates a process; `options.parent` links it into a tree. The new process is stopped;
  // Start() admits it (and any descendants it creates before then keep their own counts).
  Result<AccessDescriptor> Create(ProgramRef program, const ProcessOptions& options);

  // Applies one start to `process` and its entire subtree. A process whose stop count
  // reaches zero transitions into the dispatching mix — directly, or via its scheduler port
  // when one is set.
  Status Start(const AccessDescriptor& process);

  // Applies one stop to the subtree. Running processes leave the mix at their next
  // instruction boundary; ready ones when next dispatched; blocked ones when they unblock.
  Status Stop(const AccessDescriptor& process);

  // Admits a process the scheduler has decided to run (schedulers call this after receiving
  // the process at their scheduler port), by the kernel's wake-up rule: a process that cannot
  // be made ready takes that fault itself.
  void Admit(const AccessDescriptor& process) { kernel_->Wake(process); }

  // True when the process's stop count is zero (it is in, or eligible for, the mix).
  Result<bool> IsRunnable(const AccessDescriptor& process) const;

  // Walks the subtree rooted at `process`, invoking `fn` for each node (preorder). Exposed
  // because "this structure may be examined by the scheduler if desired".
  Status VisitTree(const AccessDescriptor& process,
                   const std::function<void(const AccessDescriptor&)>& fn) const;

  // Counts the processes in a subtree.
  Result<uint32_t> TreeSize(const AccessDescriptor& process) const;

  const ProcessManagerStats& stats() const { return stats_; }

 private:
  // One start/stop step applied to a single process; routes dispatching-mix transitions.
  Status StartOne(const AccessDescriptor& process);
  Status StopOne(const AccessDescriptor& process);

  Kernel* kernel_;
  ProcessManagerStats stats_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OS_PROCESS_MANAGER_H_
