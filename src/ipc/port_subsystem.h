// PortSubsystem: the hardware port mechanism (queueing structure + blocked queues).
//
// "The hardware defines a communications port object which functions as a queueing structure
// for interprocess communications. There are machine instructions available for sending and
// receiving messages via these objects."
//
// A port's queued message ADs live in the port object's access part (so they are protected,
// GC-visible, and subject to the level rule: a port can only carry messages at least as
// long-lived as itself — which is exactly the paper's constraint that "objects passed through
// these ports are of a type whose scope is no less global than the scope of the port").
// Dequeue *order* under the non-FIFO service disciplines, and the queues of processes blocked
// at the port, are kept in shadow state; the blocked-process ADs in shadow are reported to
// the GC as roots (on the real machine they were chained through carrier objects — the
// shadow queue is this emulator's carrier chain).
//
// Dispatching ports reuse this mechanism verbatim: a dispatching port is a port whose
// messages are process ADs and whose "receivers" are processors — the paper's description of
// hardware dispatch ("ready processes are dispatched on processors automatically by the
// hardware via algorithms that involve processor, process, and dispatching port objects").

#ifndef IMAX432_SRC_IPC_PORT_SUBSYSTEM_H_
#define IMAX432_SRC_IPC_PORT_SUBSYSTEM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/arch/access_descriptor.h"
#include "src/memory/memory_manager.h"
#include "src/proc/layouts.h"
#include "src/sim/machine.h"

namespace imax432 {

// A process waiting to deposit a message into a full port.
struct BlockedSender {
  AccessDescriptor process;
  AccessDescriptor message;
};

// A process waiting for a message at an empty port.
struct BlockedReceiver {
  AccessDescriptor process;
  uint8_t dest_adreg = 0;  // context AD register the message lands in
};

struct PortStats {
  uint64_t ports_created = 0;
  uint64_t messages_enqueued = 0;
  uint64_t messages_dequeued = 0;
  uint64_t direct_handoffs = 0;  // messages passed straight to a blocked receiver
  uint64_t peak_queue_depth = 0;  // deepest any single port's queue ever got
};

class PortSubsystem {
 public:
  static constexpr uint16_t kMaxMessageCount = 4096;

  PortSubsystem(Machine* machine, MemoryManager* memory) : machine_(machine), memory_(memory) {}

  // Creates a port object from `sro_ad` with the given queue size and service discipline.
  // This is the operation that on the real system only the Untyped_Ports package body could
  // perform ("The 432 protection structures guarantee that only this package has the
  // necessary access environment to create port objects").
  Result<AccessDescriptor> CreatePort(const AccessDescriptor& sro_ad, uint16_t message_count,
                                      QueueDiscipline discipline);

  // The raw queue: Enqueue and Dequeue wake no one (no handoff to a blocked receiver, no
  // admission of a blocked sender). Messages go through the kernel's one send and one
  // receive (Kernel::Deliver, Kernel::Take); the dispatcher, micro-benchmarks and post-run
  // inspections call these directly. Ordering keys (sender priority / deadline) are supplied
  // by the caller, read from the sending process object.
  // Enqueue faults with kQueueFull when no slot is free, and propagates protection faults
  // (notably kLevelViolation) from the access-part store. `privileged` selects the microcode
  // store path: the hardware dispatching algorithm queues *processes of any level* at
  // dispatching ports, so those enqueues bypass the level rule (a stale process AD left by a
  // destroyed local process is caught by the generation check at dequeue). Software message
  // traffic must never pass privileged=true.
  Status Enqueue(const AccessDescriptor& port_ad, const AccessDescriptor& message,
                 uint8_t sender_priority, uint32_t sender_deadline, bool privileged = false);
  // Dequeue faults with kQueueEmpty when nothing is queued.
  Result<AccessDescriptor> Dequeue(const AccessDescriptor& port_ad);

  // Blocked-process queues (FIFO).
  Status PushBlockedSender(const AccessDescriptor& port_ad, const BlockedSender& sender);
  Result<BlockedSender> PopBlockedSender(const AccessDescriptor& port_ad);
  // The sender PopBlockedSender would pop next, left in place.
  Result<BlockedSender> PeekBlockedSender(const AccessDescriptor& port_ad) const;
  Status PushBlockedReceiver(const AccessDescriptor& port_ad, const BlockedReceiver& receiver);
  Result<BlockedReceiver> PopBlockedReceiver(const AccessDescriptor& port_ad);
  // Removes a specific process from the port's blocked-receiver queue (timed receive whose
  // timer expired). Faults with kNotFound if the process is no longer waiting there (a
  // message arrived first — the benign race of any timeout mechanism).
  Status RemoveBlockedReceiver(const AccessDescriptor& port_ad,
                               const AccessDescriptor& process);
  bool HasBlockedReceiver(const AccessDescriptor& port_ad) const;

  // Idle-processor queue (dispatching ports only).
  void PushWaitingProcessor(const AccessDescriptor& port_ad, uint16_t processor_id);
  Result<uint16_t> PopWaitingProcessor(const AccessDescriptor& port_ad);
  // Removes a specific parked processor (processor retirement); kNotFound if absent.
  Status RemoveWaitingProcessor(const AccessDescriptor& port_ad, uint16_t processor_id);

  // Queue inspection.
  Result<uint16_t> QueuedCount(const AccessDescriptor& port_ad) const;

  // GC support: every AD held only in shadow state (blocked senders' processes and messages,
  // blocked receivers' processes) is a root.
  void AppendShadowRoots(std::vector<AccessDescriptor>* roots) const;

  // Drops the shadow state of a reclaimed port (called by the GC).
  void Forget(ObjectIndex index) { states_.erase(index); }

  const PortStats& stats() const { return stats_; }

  // Transfer sequence numbers of the most recent successful Enqueue / Dequeue. The race
  // sanitizer keys in-flight message clocks by these, matching each dequeue to the exact
  // enqueue that produced the message even when one object is queued repeatedly.
  uint64_t last_enqueue_seq() const { return last_enqueue_seq_; }
  uint64_t last_dequeue_seq() const { return last_dequeue_seq_; }

 private:
  struct QueueEntry {
    uint16_t slot;
    uint64_t key;   // discipline-dependent sort key (lower dequeues first)
    uint64_t seq;   // FIFO tiebreak
  };

  struct PortShadow {
    std::vector<QueueEntry> queue;       // kept in arrival order; dequeue scans for min key
    std::vector<uint16_t> free_slots;
    std::deque<BlockedSender> blocked_senders;
    std::deque<BlockedReceiver> blocked_receivers;
    std::deque<uint16_t> waiting_processors;
  };

  Result<PortShadow*> ResolveShadow(const AccessDescriptor& port_ad);
  Result<const PortShadow*> ResolveShadow(const AccessDescriptor& port_ad) const;

  Machine* machine_;
  MemoryManager* memory_;
  std::map<ObjectIndex, PortShadow> states_;
  PortStats stats_;
  uint64_t next_seq_ = 0;
  uint64_t last_enqueue_seq_ = 0;
  uint64_t last_dequeue_seq_ = 0;
};

}  // namespace imax432

#endif  // IMAX432_SRC_IPC_PORT_SUBSYSTEM_H_
