#include "src/ipc/port_subsystem.h"

#include <algorithm>

#include "src/base/check.h"

namespace imax432 {

Result<AccessDescriptor> PortSubsystem::CreatePort(const AccessDescriptor& sro_ad,
                                                   uint16_t message_count,
                                                   QueueDiscipline discipline) {
  if (message_count == 0 || message_count > kMaxMessageCount) {
    return Fault::kInvalidArgument;
  }
  IMAX_ASSIGN_OR_RETURN(
      AccessDescriptor ad,
      memory_->CreateObject(sro_ad, SystemType::kPort, PortLayout::kDataBytes, message_count,
                            rights::kRead | rights::kWrite | rights::kPortSend |
                                rights::kPortReceive));
  ObjectView port(&machine_->addressing(), ad);
  port.SetField(PortLayout::kOffCapacity, 2, message_count);
  port.SetField(PortLayout::kOffCount, 2, 0);
  port.SetField(PortLayout::kOffDiscipline, 1, static_cast<uint64_t>(discipline));

  PortShadow& shadow = states_[ad.index()];
  shadow.free_slots.reserve(message_count);
  for (uint16_t slot = message_count; slot > 0; --slot) {
    shadow.free_slots.push_back(static_cast<uint16_t>(slot - 1));
  }
  ++stats_.ports_created;
  return ad;
}

Result<PortSubsystem::PortShadow*> PortSubsystem::ResolveShadow(
    const AccessDescriptor& port_ad) {
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * descriptor,
                        machine_->table().Resolve(port_ad));
  if (descriptor->type != SystemType::kPort) {
    return Fault::kTypeMismatch;
  }
  auto it = states_.find(port_ad.index());
  if (it == states_.end()) {
    return Fault::kNotFound;
  }
  return &it->second;
}

Result<const PortSubsystem::PortShadow*> PortSubsystem::ResolveShadow(
    const AccessDescriptor& port_ad) const {
  auto result = const_cast<PortSubsystem*>(this)->ResolveShadow(port_ad);
  if (!result.ok()) {
    return result.fault();
  }
  return static_cast<const PortShadow*>(result.value());
}

Status PortSubsystem::Enqueue(const AccessDescriptor& port_ad, const AccessDescriptor& message,
                              uint8_t sender_priority, uint32_t sender_deadline,
                              bool privileged) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  if (shadow->free_slots.empty()) {
    return Fault::kQueueFull;
  }
  uint16_t slot = shadow->free_slots.back();

  // Store the message AD into the port's access part. This is where the protection system
  // bites: rights on the port AD, slot bounds, and the level rule for the message. The
  // privileged path is the microcode's own queueing (dispatching ports).
  if (privileged) {
    IMAX_RETURN_IF_FAULT(machine_->addressing().WriteAdPrivileged(port_ad, slot, message));
  } else {
    IMAX_RETURN_IF_FAULT(machine_->addressing().WriteAd(port_ad, slot, message));
  }
  shadow->free_slots.pop_back();

  ObjectView port(&machine_->addressing(), port_ad);
  auto discipline = static_cast<QueueDiscipline>(port.Field(PortLayout::kOffDiscipline, 1));
  uint64_t key = 0;
  switch (discipline) {
    case QueueDiscipline::kFifo:
      key = 0;  // seq alone decides
      break;
    case QueueDiscipline::kPriority:
      key = 255u - sender_priority;  // higher priority dequeues first
      break;
    case QueueDiscipline::kDeadline:
      key = sender_deadline;  // earlier deadline dequeues first
      break;
  }
  last_enqueue_seq_ = next_seq_;
  shadow->queue.push_back(QueueEntry{slot, key, next_seq_++});
  if (shadow->queue.size() > stats_.peak_queue_depth) {
    stats_.peak_queue_depth = shadow->queue.size();
  }

  port.SetField(PortLayout::kOffCount, 2, shadow->queue.size());
  port.Increment(PortLayout::kOffSendsTotal, 8);
  ++stats_.messages_enqueued;
  machine_->trace().Emit(TraceEventKind::kSend, machine_->now(), kTraceNoProcessor,
                         kTraceNoProcess, port_ad.index(),
                         static_cast<uint32_t>(shadow->queue.size()), message.index());
  return Status::Ok();
}

Result<AccessDescriptor> PortSubsystem::Dequeue(const AccessDescriptor& port_ad) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  if (shadow->queue.empty()) {
    return Fault::kQueueEmpty;
  }
  // Select the minimal (key, seq) entry. Queues are short in practice; linear scan keeps the
  // structure trivially consistent with the slots.
  size_t best = 0;
  for (size_t i = 1; i < shadow->queue.size(); ++i) {
    const QueueEntry& e = shadow->queue[i];
    const QueueEntry& b = shadow->queue[best];
    if (e.key < b.key || (e.key == b.key && e.seq < b.seq)) {
      best = i;
    }
  }
  uint16_t slot = shadow->queue[best].slot;
  last_dequeue_seq_ = shadow->queue[best].seq;
  shadow->queue.erase(shadow->queue.begin() + static_cast<ptrdiff_t>(best));
  ++stats_.messages_dequeued;

  IMAX_ASSIGN_OR_RETURN(AccessDescriptor message, machine_->addressing().ReadAd(port_ad, slot));
  // Clear the slot so the port does not keep the message alive after delivery.
  IMAX_RETURN_IF_FAULT(machine_->addressing().WriteAd(port_ad, slot, AccessDescriptor()));
  shadow->free_slots.push_back(slot);

  ObjectView port(&machine_->addressing(), port_ad);
  port.SetField(PortLayout::kOffCount, 2, shadow->queue.size());
  port.Increment(PortLayout::kOffReceivesTotal, 8);
  machine_->trace().Emit(TraceEventKind::kReceive, machine_->now(), kTraceNoProcessor,
                         kTraceNoProcess, port_ad.index(),
                         static_cast<uint32_t>(shadow->queue.size()), message.index());
  return message;
}

Status PortSubsystem::PushBlockedSender(const AccessDescriptor& port_ad,
                                        const BlockedSender& sender) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  shadow->blocked_senders.push_back(sender);
  ObjectView(&machine_->addressing(), port_ad).Increment(PortLayout::kOffSendBlocks, 4);
  return Status::Ok();
}

Result<BlockedSender> PortSubsystem::PopBlockedSender(const AccessDescriptor& port_ad) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  if (shadow->blocked_senders.empty()) {
    return Fault::kQueueEmpty;
  }
  BlockedSender sender = shadow->blocked_senders.front();
  shadow->blocked_senders.pop_front();
  return sender;
}

Result<BlockedSender> PortSubsystem::PeekBlockedSender(const AccessDescriptor& port_ad) const {
  IMAX_ASSIGN_OR_RETURN(const PortShadow* shadow, ResolveShadow(port_ad));
  if (shadow->blocked_senders.empty()) {
    return Fault::kQueueEmpty;
  }
  return shadow->blocked_senders.front();
}

Status PortSubsystem::PushBlockedReceiver(const AccessDescriptor& port_ad,
                                          const BlockedReceiver& receiver) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  shadow->blocked_receivers.push_back(receiver);
  ObjectView(&machine_->addressing(), port_ad).Increment(PortLayout::kOffReceiveBlocks, 4);
  return Status::Ok();
}

Result<BlockedReceiver> PortSubsystem::PopBlockedReceiver(const AccessDescriptor& port_ad) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  if (shadow->blocked_receivers.empty()) {
    return Fault::kQueueEmpty;
  }
  BlockedReceiver receiver = shadow->blocked_receivers.front();
  shadow->blocked_receivers.pop_front();
  ++stats_.direct_handoffs;
  return receiver;
}

Status PortSubsystem::RemoveBlockedReceiver(const AccessDescriptor& port_ad,
                                            const AccessDescriptor& process) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  for (auto it = shadow->blocked_receivers.begin(); it != shadow->blocked_receivers.end();
       ++it) {
    if (it->process.SameObject(process)) {
      shadow->blocked_receivers.erase(it);
      return Status::Ok();
    }
  }
  return Fault::kNotFound;
}

bool PortSubsystem::HasBlockedReceiver(const AccessDescriptor& port_ad) const {
  auto shadow = ResolveShadow(port_ad);
  return shadow.ok() && !shadow.value()->blocked_receivers.empty();
}

void PortSubsystem::PushWaitingProcessor(const AccessDescriptor& port_ad,
                                         uint16_t processor_id) {
  auto shadow = ResolveShadow(port_ad);
  IMAX_CHECK(shadow.ok());
  shadow.value()->waiting_processors.push_back(processor_id);
}

Result<uint16_t> PortSubsystem::PopWaitingProcessor(const AccessDescriptor& port_ad) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  if (shadow->waiting_processors.empty()) {
    return Fault::kQueueEmpty;
  }
  uint16_t id = shadow->waiting_processors.front();
  shadow->waiting_processors.pop_front();
  return id;
}

Status PortSubsystem::RemoveWaitingProcessor(const AccessDescriptor& port_ad,
                                             uint16_t processor_id) {
  IMAX_ASSIGN_OR_RETURN(PortShadow * shadow, ResolveShadow(port_ad));
  for (auto it = shadow->waiting_processors.begin(); it != shadow->waiting_processors.end();
       ++it) {
    if (*it == processor_id) {
      shadow->waiting_processors.erase(it);
      return Status::Ok();
    }
  }
  return Fault::kNotFound;
}

Result<uint16_t> PortSubsystem::QueuedCount(const AccessDescriptor& port_ad) const {
  IMAX_ASSIGN_OR_RETURN(const PortShadow* shadow, ResolveShadow(port_ad));
  return static_cast<uint16_t>(shadow->queue.size());
}

void PortSubsystem::AppendShadowRoots(std::vector<AccessDescriptor>* roots) const {
  for (const auto& [index, shadow] : states_) {
    for (const BlockedSender& sender : shadow.blocked_senders) {
      roots->push_back(sender.process);
      roots->push_back(sender.message);
    }
    for (const BlockedReceiver& receiver : shadow.blocked_receivers) {
      roots->push_back(receiver.process);
    }
  }
}

}  // namespace imax432
