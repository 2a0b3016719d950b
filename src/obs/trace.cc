#include "src/obs/trace.h"

namespace imax432 {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kDispatch: return "dispatch";
    case TraceEventKind::kPreempt: return "preempt";
    case TraceEventKind::kIdle: return "idle";
    case TraceEventKind::kBlockSend: return "block-send";
    case TraceEventKind::kBlockReceive: return "block-receive";
    case TraceEventKind::kUnblock: return "unblock";
    case TraceEventKind::kSend: return "send";
    case TraceEventKind::kReceive: return "receive";
    case TraceEventKind::kAllocate: return "allocate";
    case TraceEventKind::kDestroy: return "destroy";
    case TraceEventKind::kSwapOut: return "swap-out";
    case TraceEventKind::kSwapIn: return "swap-in";
    case TraceEventKind::kDomainCall: return "domain-call";
    case TraceEventKind::kDomainReturn: return "domain-return";
    case TraceEventKind::kLocalCall: return "local-call";
    case TraceEventKind::kLocalReturn: return "local-return";
    case TraceEventKind::kFault: return "fault";
    case TraceEventKind::kGcPhase: return "gc-phase";
    case TraceEventKind::kTerminate: return "terminate";
    case TraceEventKind::kInstruction: return "instruction";
    case TraceEventKind::kRaceDetected: return "race-detected";
    case TraceEventKind::kProcessorRetired: return "processor-retired";
    case TraceEventKind::kObjectQuarantined: return "object-quarantined";
    case TraceEventKind::kDeviceRetry: return "device-retry";
    case TraceEventKind::kInjection: return "injection";
    case TraceEventKind::kPatrolSweep: return "patrol-sweep";
    case TraceEventKind::kLifetimeViolation: return "lifetime-violation";
    case TraceEventKind::kFilingOp: return "filing-op";
  }
  return "unknown";
}

const char* FilingOpKindName(FilingOpKind kind) {
  switch (kind) {
    case FilingOpKind::kFile: return "file";
    case FilingOpKind::kFileComposite: return "file-composite";
    case FilingOpKind::kRetrieve: return "retrieve";
    case FilingOpKind::kRetrieveComposite: return "retrieve-composite";
    case FilingOpKind::kRemove: return "remove";
    case FilingOpKind::kJournalRetry: return "journal-retry";
    case FilingOpKind::kJournalCheckpoint: return "journal-checkpoint";
    case FilingOpKind::kJournalReplay: return "journal-replay";
  }
  return "unknown";
}

const char* GcTracePhaseName(GcTracePhase phase) {
  switch (phase) {
    case GcTracePhase::kIdle: return "idle";
    case GcTracePhase::kWhiten: return "whiten";
    case GcTracePhase::kMark: return "mark";
    case GcTracePhase::kSweep: return "sweep";
  }
  return "unknown";
}

void TraceRecorder::Enable(uint32_t capacity) {
  if (capacity == 0) capacity = 1;
  if (capacity_ != capacity) {
    ring_ = std::make_unique_for_overwrite<TraceEvent[]>(capacity);
    capacity_ = capacity;
    head_ = 0;
    size_ = 0;
    total_emitted_ = 0;
  }
  enabled_ = true;
}

void TraceRecorder::Annotate(Cycles ts, std::string text) {
  if (!enabled_) return;
  if (annotations_.size() >= kMaxAnnotations) annotations_.pop_front();
  annotations_.emplace_back(ts, std::move(text));
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  if (size_ == 0) return out;
  // Oldest event sits at head_ when the ring has wrapped, at 0 otherwise.
  size_t start = (size_ == capacity_) ? head_ : 0;
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void TraceRecorder::Clear() {
  head_ = 0;
  size_ = 0;
  total_emitted_ = 0;
  annotations_.clear();
}

}  // namespace imax432
