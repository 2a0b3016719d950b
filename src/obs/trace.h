// TraceRecorder: a cycle-timestamped ring buffer of kernel events.
//
// The paper argues entirely in quantified behaviour ("a domain switch takes about 65
// microseconds"), but aggregate *Stats structs cannot show *when* a process blocked on a
// port or how a GC phase overlapped a mutator. The recorder gives the simulator a timeline:
// every interesting kernel transition emits one fixed-size POD TraceEvent stamped with the
// virtual clock. Events live in a fixed-capacity ring (oldest overwritten first), so tracing
// a long run is bounded-memory. When disabled — the default — Emit() is a single branch and
// the buffer is never allocated, so instrumented hot paths cost nothing measurable.
//
// This header is deliberately dependency-light (arch/types.h only) so that sim/machine.h can
// own a TraceRecorder without include cycles.

#ifndef IMAX432_SRC_OBS_TRACE_H_
#define IMAX432_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/types.h"

namespace imax432 {

// The event taxonomy. One kind per kernel transition worth plotting on a timeline; payload
// word meanings are documented per kind (and in DESIGN.md section 7).
enum class TraceEventKind : uint8_t {
  kDispatch = 0,    // process bound to a processor; a = dispatch latency in cycles
  kPreempt,         // time-slice end; process returned to its dispatching port
  kIdle,            // processor found no ready process; a = dispatching port index
  kBlockSend,       // process blocked sending; a = port index, b = queue depth
  kBlockReceive,    // process blocked receiving; a = port index, b = queue depth
  kUnblock,         // blocked process made ready again; a = port index, b = wait cycles
  kSend,            // message enqueued; a = port index, b = queue depth after
  kReceive,         // message dequeued; a = port index, b = queue depth after
  kAllocate,        // object created; a = object index, b = bytes, c = access slots
  kDestroy,         // object destroyed; a = object index
  kSwapOut,         // segment evicted to backing store; a = object index, b = bytes
  kSwapIn,          // segment brought back; a = object index, b = bytes
  kDomainCall,      // inter-domain call; a = callee context index, b = modeled cost cycles
  kDomainReturn,    // return across domains; a = returning context index, b = residence
  kLocalCall,       // intra-domain call; a = callee context index
  kLocalReturn,     // intra-domain return; a = returning context index
  kFault,           // fault raised; a = fault code, b = 1 if delivered to a fault port
  kGcPhase,         // collector phase transition; a = new phase (GcTracePhase)
  kTerminate,       // process terminated; a = 1 if by fault
  kInstruction,     // instruction-level event (kTrace logging); a = pc, b = opcode
  kRaceDetected,    // dynamic race sanitizer finding; a = object index, b = pc,
                    // c = the other process's object index
  kProcessorRetired,  // GDP retired; process = re-queued process (or kTraceNoProcess),
                      // a = surviving processor count
  kObjectQuarantined,  // patrol quarantined a corrupt object; a = object index,
                       // b = integrity check that failed (ObjectPatrol::CheckKind)
  kDeviceRetry,     // backing-store transfer retried; a = object index, b = attempt number,
                    // c = backoff cycles charged
  kInjection,       // fault injector fired; a = injection kind, b = concrete target, c = arg
  kPatrolSweep,     // patrol sweep completed; a = descriptors scanned, b = quarantined total
  kLifetimeViolation,  // demoted object escaped its context; a = object index,
                       // b = holding object index, c = allocation-site pc
  // Both replay fingerprints hash the numeric kind, so a kind's number never changes:
  // numbers 27 and 28 stay unused, and new kinds take explicit numbers from 30 up.
  kFilingOp = 29,   // filing-layer operation; a = FilingOpKind, b = payload bytes or
                    // record count, c = FNV-1a hash of the filed name (0 if none)
};

static_assert(static_cast<int>(TraceEventKind::kFilingOp) == 29,
              "trace kinds are hashed by number into the replay fingerprints");

// Payload word `a` of kFilingOp events (see src/filing/object_store.h).
enum class FilingOpKind : uint8_t {
  kFile = 0,           // plain image filed; b = image bytes
  kFileComposite,      // composite filed; b = node count
  kRetrieve,           // plain image retrieved; b = image bytes
  kRetrieveComposite,  // composite retrieved; b = node count
  kRemove,             // name removed; b = 0
  kJournalRetry,       // journal append retried after a device error; b = attempt,
                       // c = backoff cycles charged
  kJournalCheckpoint,  // journal checkpointed/compacted; b = bytes after compaction
  kJournalReplay,      // recovery replay finished; b = transactions applied,
                       // c = records rolled back or dropped
};

// GC phase payload for kGcPhase (mirrors gc/collector.h Phase without depending on it).
enum class GcTracePhase : uint8_t { kIdle = 0, kWhiten, kMark, kSweep };

const char* TraceEventKindName(TraceEventKind kind);
const char* GcTracePhaseName(GcTracePhase phase);
const char* FilingOpKindName(FilingOpKind kind);

// Sentinels for events with no processor / process association.
inline constexpr uint16_t kTraceNoProcessor = 0xffff;
inline constexpr uint32_t kTraceNoProcess = 0xffffffff;

// One timeline sample. POD with no default initializers so the ring can be allocated
// without touching its pages (Enable() would otherwise zero-fill megabytes up front).
struct TraceEvent {
  Cycles ts;           // virtual clock at emission
  uint32_t process;    // process object index, or kTraceNoProcess
  uint32_t a;          // payload words; meaning depends on kind
  uint32_t b;
  uint32_t c;
  uint16_t cpu;        // processor id, or kTraceNoProcessor
  TraceEventKind kind;
};

static_assert(sizeof(TraceEvent) <= 32, "TraceEvent must stay small and POD");

class TraceRecorder {
 public:
  TraceRecorder() = default;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Allocates the ring and starts recording. Idempotent; re-enabling with a different
  // capacity reallocates and clears.
  void Enable(uint32_t capacity = kDefaultCapacity);
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }
  uint32_t capacity() const { return capacity_; }

  // The hot path: one predictable branch when disabled, one ring store when enabled.
  void Emit(TraceEventKind kind, Cycles ts, uint16_t cpu, uint32_t process, uint32_t a = 0,
            uint32_t b = 0, uint32_t c = 0) {
    if (!enabled_) return;
    TraceEvent& slot = ring_[head_];
    slot.ts = ts;
    slot.process = process;
    slot.a = a;
    slot.b = b;
    slot.c = c;
    slot.cpu = cpu;
    slot.kind = kind;
    head_ = (head_ + 1 == capacity_) ? 0 : head_ + 1;
    if (size_ < capacity_) ++size_;
    ++total_emitted_;
  }

  // Free-text side channel for kTrace-level log lines (bounded; oldest dropped first).
  void Annotate(Cycles ts, std::string text);

  // Events currently held, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  const std::deque<std::pair<Cycles, std::string>>& annotations() const {
    return annotations_;
  }

  size_t size() const { return size_; }
  uint64_t total_emitted() const { return total_emitted_; }
  // Events pushed out of the ring by later ones.
  uint64_t dropped() const { return total_emitted_ - size_; }

  void Clear();

  static constexpr uint32_t kDefaultCapacity = 1u << 16;
  static constexpr size_t kMaxAnnotations = 4096;

 private:
  bool enabled_ = false;
  // Null until Enable(): disabled mode allocates nothing. Deliberately uninitialized
  // storage (make_unique_for_overwrite) so enabling reserves address space but only the
  // pages events actually land on are ever touched.
  std::unique_ptr<TraceEvent[]> ring_;
  uint32_t capacity_ = 0;
  size_t head_ = 0;               // next slot to write
  size_t size_ = 0;               // events currently held (<= capacity_)
  uint64_t total_emitted_ = 0;
  std::deque<std::pair<Cycles, std::string>> annotations_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OBS_TRACE_H_
