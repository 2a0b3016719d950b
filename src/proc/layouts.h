// Architectural layouts of the hardware-recognized system objects, and typed views over them.
//
// Each system object's state lives in its segment (data part scalars, access part ADs) so it
// is visible to the GC, subject to the protection rules, and inspectable by programs on the
// machine — there is deliberately no C++-side copy of any field that the paper describes as
// being in the object; a pinned view holds the object's descriptor, never its fields. Views
// are used by kernel-trusted code holding full-rights ADs; protection violations inside a
// view indicate a kernel bug and CHECK-fail rather than fault.

#ifndef IMAX432_SRC_PROC_LAYOUTS_H_
#define IMAX432_SRC_PROC_LAYOUTS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/arch/addressing_unit.h"
#include "src/base/check.h"
#include "src/isa/program.h"

namespace imax432 {

// ---------------------------------------------------------------------------
// Process objects.
// "the hardware defines a process object which contains the information for scheduling
// processes, dispatching them on any one of several potentially available processors, and
// sending them back to software when various fault or scheduling conditions arise."
// ---------------------------------------------------------------------------

enum class ProcessState : uint8_t {
  kEmbryo = 0,   // created, never started
  kReady,        // queued at a dispatching port
  kRunning,      // bound to a processor
  kBlocked,      // waiting at a communication port
  kStopped,      // stop count > 0; out of the dispatching mix
  kFaulted,      // fault delivered; waiting at its fault port for service
  kTerminated,   // final
};

const char* ProcessStateName(ProcessState state);

// iMAX internal levels (§7.3): level 1 may not fault at all, level 2 may only timeout-fault,
// level 3 and above may fault freely. Application processes run at level 4.
inline constexpr uint8_t kImaxLevelCore = 1;
inline constexpr uint8_t kImaxLevelMemory = 2;
inline constexpr uint8_t kImaxLevelServices = 3;
inline constexpr uint8_t kImaxLevelUser = 4;

struct ProcessLayout {
  // Data part.
  static constexpr uint32_t kOffState = 0;             // u8  (ProcessState)
  static constexpr uint32_t kOffImaxLevel = 1;         // u8
  static constexpr uint32_t kOffPriority = 2;          // u8  (higher runs first)
  static constexpr uint32_t kOffPendingAction = 3;     // u8  (deferred stop marker)
  static constexpr uint32_t kOffStopCount = 4;         // i16 (>0 means stopped)
  static constexpr uint32_t kOffBaseLevel = 6;         // u16 (lifetime level of the process)
  static constexpr uint32_t kOffDeadline = 8;          // u32 (deadline discipline key)
  static constexpr uint32_t kOffFaultCode = 12;        // u8  (last Fault)
  static constexpr uint32_t kOffCallDepth = 14;        // u16
  static constexpr uint32_t kOffConsumed = 16;         // u64 (total cycles executed)
  static constexpr uint32_t kOffSliceUsed = 24;        // u64 (cycles in current slice)
  static constexpr uint32_t kOffFaultCount = 32;       // u32
  static constexpr uint32_t kOffMessagesSent = 36;     // u32
  static constexpr uint32_t kOffMessagesReceived = 40; // u32
  static constexpr uint32_t kOffBlockEpoch = 44;       // u32 (bumped on every port block;
                                                       //      timed waits match against it)
  static constexpr uint32_t kDataBytes = 48;

  // Access part.
  static constexpr uint32_t kSlotContext = 0;       // current (innermost) context
  static constexpr uint32_t kSlotDispatchPort = 1;  // where this process queues when ready
  static constexpr uint32_t kSlotFaultPort = 2;     // faulted processes are sent here
  static constexpr uint32_t kSlotSchedulerPort = 3; // start/stop transitions are sent here
  static constexpr uint32_t kSlotStackSro = 4;      // context allocation SRO
  static constexpr uint32_t kSlotParent = 5;        // parent process (tree structure)
  static constexpr uint32_t kSlotFirstChild = 6;
  static constexpr uint32_t kSlotNextSibling = 7;
  static constexpr uint32_t kAccessSlots = 8;
};

// ---------------------------------------------------------------------------
// Processor objects: one per GDP.
// ---------------------------------------------------------------------------

enum class ProcessorState : uint8_t {
  kIdle = 0,     // waiting at its dispatching port
  kRunning,      // executing a process
  kHalted,       // taken offline
};

struct ProcessorLayout {
  static constexpr uint32_t kOffId = 0;             // u16
  static constexpr uint32_t kOffState = 2;          // u8 (ProcessorState)
  static constexpr uint32_t kOffBusyCycles = 8;     // u64
  static constexpr uint32_t kOffIdleCycles = 16;    // u64
  static constexpr uint32_t kOffDispatches = 24;    // u64
  static constexpr uint32_t kDataBytes = 32;

  static constexpr uint32_t kSlotDispatchPort = 0;
  static constexpr uint32_t kSlotCurrentProcess = 1;
  static constexpr uint32_t kAccessSlots = 2;
};

// ---------------------------------------------------------------------------
// Context objects (activation records).
// "Each context object (i.e., activation record) within a process has a level one greater
// than that of its caller."
// ---------------------------------------------------------------------------

struct ContextLayout {
  static constexpr uint32_t kOffPc = 0;        // u32
  static constexpr uint32_t kOffRegs = 8;      // u64 x kNumDataRegs
  static constexpr uint32_t kDataBytes = 8 + 8 * 8;

  // Access part: slots [0, 8) are the AD registers.
  static constexpr uint32_t kSlotAdRegs = 0;
  static constexpr uint32_t kSlotInstructionSegment = 8;
  static constexpr uint32_t kSlotDomain = 9;
  static constexpr uint32_t kSlotCaller = 10;
  static constexpr uint32_t kSlotProcess = 11;
  // Local heaps created by this activation; destroyed automatically on return ("This SRO
  // will be destroyed automatically when the process returns above the call depth to which
  // it corresponds").
  static constexpr uint32_t kSlotOwnedSros = 12;
  static constexpr uint32_t kNumOwnedSroSlots = 4;
  // Demote SRO: the kernel-created local heap holding allocations the lifetime analysis
  // proved context-local (lifetime/lifetime.h). Lazily created at the first demoted
  // allocation; audited and destroyed when the activation returns. Separate from the owned
  // slots so demotion never consumes one of the program's four local heaps.
  static constexpr uint32_t kSlotDemoteSro = 16;
  static constexpr uint32_t kAccessSlots = 17;
};

// ---------------------------------------------------------------------------
// Domain objects.
// "the 432 supports small protection domains with domain objects. ... They are a structure
// for grouping and restricting accesses to the implementation of a module." Entry i of the
// access part holds the instruction segment of subprogram i; the tail slots hold the
// package's private state, reachable only through ADs minted for the domain's own code.
// ---------------------------------------------------------------------------

struct DomainLayout {
  static constexpr uint32_t kOffEntryCount = 0;  // u16
  static constexpr uint32_t kDataBytes = 8;
  // Access part: [0, entry_count) = instruction segments; [entry_count, ...) = package state.
};

// ---------------------------------------------------------------------------
// Port objects.
// "The hardware defines a communications port object which functions as a queueing structure
// for interprocess communications."
// ---------------------------------------------------------------------------

enum class QueueDiscipline : uint8_t {
  kFifo = 0,
  kPriority,   // by sending process priority, descending; FIFO among equals
  kDeadline,   // by sending process deadline, ascending; FIFO among equals
};

struct PortLayout {
  static constexpr uint32_t kOffCapacity = 0;      // u16 (message_count)
  static constexpr uint32_t kOffCount = 2;         // u16 (messages queued now)
  static constexpr uint32_t kOffDiscipline = 4;    // u8 (QueueDiscipline)
  static constexpr uint32_t kOffSendsTotal = 8;    // u64
  static constexpr uint32_t kOffReceivesTotal = 16;// u64
  static constexpr uint32_t kOffSendBlocks = 24;   // u32 (senders that had to wait)
  static constexpr uint32_t kOffReceiveBlocks = 28;// u32 (receivers that had to wait)
  static constexpr uint32_t kDataBytes = 32;
  // Access part: slots [0, capacity) hold queued message ADs.
};

// ---------------------------------------------------------------------------
// Type definition objects (TDOs).
// ---------------------------------------------------------------------------

struct TdoLayout {
  static constexpr uint32_t kOffTypeId = 0;       // u32 (user type identity)
  static constexpr uint32_t kOffHasFilter = 4;    // u8  (destruction filter armed?)
  static constexpr uint32_t kOffCreated = 8;      // u64 (objects minted)
  static constexpr uint32_t kOffFinalized = 16;   // u64 (objects seen by the filter)
  static constexpr uint32_t kDataBytes = 24;
  static constexpr uint32_t kSlotFilterPort = 0;  // destruction filter port
  static constexpr uint32_t kAccessSlots = 1;
};

// ---------------------------------------------------------------------------
// Typed field access helpers.
// ---------------------------------------------------------------------------

// Selects the pinned ObjectView constructor.
struct PinTag {};
inline constexpr PinTag kPin{};

// Reads/writes one scalar field of a system object through the addressing unit, CHECKing
// success: callers are kernel code holding known-good full-rights ADs.
//
// A pinned view (constructed with kPin) holds its object's descriptor the way the 432 GDP
// held the running process's on chip. The descriptor is validated once, at construction:
// allocated, matching generation, not quarantined, resident, read+write rights. Fields are
// then read and written through it with no table resolve and no translation probe; the
// kernel's step frame keeps the running process's views pinned from one step event to the
// next, for as long as PinHolds() (DESIGN.md §10). Every access still checks liveness and
// bounds, so touching a pinned view of a destroyed object aborts like any other view; every
// data write bumps data_epoch as the checked path does; and slot writes still go through
// WriteAdPrivileged, which shades the moved AD gray. The liveness check is one 8-byte load
// of the descriptor's liveness word and one compare (DescriptorLiveness), and a pinned
// Increment is one access: one check, one load, one store, one data_epoch bump. A view that
// fails validation takes the checked path. The pinned paths are forced inline, so at a call
// site with a constant width a field access compiles to its checks plus one fixed-width
// load or store. So are the named accessors the interpreter reads or writes on every
// instruction (the process's context, stop count and slice used, the context's pc and
// instruction segment), which would otherwise be left out of line in
// Kernel::StepInstruction.
class ObjectView {
 public:
  ObjectView() = default;  // a null view, for a frame not yet built
  ObjectView(AddressingUnit* unit, const AccessDescriptor& ad) : unit_(unit), ad_(ad) {}
  ObjectView(AddressingUnit* unit, const AccessDescriptor& ad, PinTag)
      : unit_(unit), ad_(ad), pinned_(Pinnable(unit, ad)) {}

  __attribute__((always_inline)) uint64_t Field(uint32_t offset, uint32_t width) const {
    if (pinned_ == nullptr) {
      return CheckedField(offset, width);
    }
    uint64_t value = 0;
    std::memcpy(&value, PinnedData(offset, width), width);
    return value;
  }
  __attribute__((always_inline)) void SetField(uint32_t offset, uint32_t width,
                                               uint64_t value) {
    if (pinned_ == nullptr) {
      CheckedSetField(offset, width, value);
      return;
    }
    std::memcpy(PinnedData(offset, width), &value, width);
    ++pinned_->data_epoch;
  }
  __attribute__((always_inline)) void Increment(uint32_t offset, uint32_t width,
                                                uint64_t delta = 1) {
    if (pinned_ == nullptr) {
      CheckedSetField(offset, width, CheckedField(offset, width) + delta);
      return;
    }
    uint8_t* field = PinnedData(offset, width);
    uint64_t value = 0;
    std::memcpy(&value, field, width);
    value += delta;
    std::memcpy(field, &value, width);
    ++pinned_->data_epoch;
  }

  __attribute__((always_inline)) AccessDescriptor Slot(uint32_t slot) const {
    if (pinned_ == nullptr) {
      return CheckedSlot(slot);
    }
    CheckPinned(slot < pinned_->access_count(), slot, 0);
    return pinned_->access[slot];
  }
  // Views write slots through the privileged (microcode) store: system-object linkage and
  // register files are exempt from the level rule; mutator stores (kStoreAd and message
  // enqueue) go through the checked AddressingUnit::WriteAd path.
  void SetSlot(uint32_t slot, const AccessDescriptor& value) {
    IMAX_CHECK(unit_->WriteAdPrivileged(ad_, slot, value).ok());
  }

  const AccessDescriptor& ad() const { return ad_; }
  AddressingUnit* unit() const { return unit_; }

  // True when the view is pinned and its descriptor still passes the checks the pin made:
  // allocated at the view's generation, not quarantined, resident (the AD's rights cannot
  // change). All four are one compare of the descriptor's liveness word. Every pinned access
  // requires it; the step frame asks before reusing a view in a later event.
  __attribute__((always_inline)) bool PinHolds() const {
    return pinned_ != nullptr &&
           pinned_->Word() == DescriptorLiveness::LiveWord(ad_.generation());
  }

 private:
  // The addressing-unit paths, kept out of line so the pinned paths inline at every call.
  __attribute__((noinline)) uint64_t CheckedField(uint32_t offset, uint32_t width) const {
    auto value = unit_->ReadData(ad_, offset, width);
    if (!value.ok()) {
      std::fprintf(stderr, "ObjectView::Field fault %s: object %u offset %u width %u\n",
                   FaultName(value.fault()), ad_.index(), offset, width);
      IMAX_CHECK(value.ok());
    }
    return value.value();
  }
  __attribute__((noinline)) void CheckedSetField(uint32_t offset, uint32_t width,
                                                 uint64_t value) {
    Status status = unit_->WriteData(ad_, offset, width, value);
    if (!status.ok()) {
      std::fprintf(stderr, "ObjectView::SetField fault %s: object %u offset %u width %u\n",
                   FaultName(status.fault()), ad_.index(), offset, width);
      IMAX_CHECK(status.ok());
    }
  }
  __attribute__((noinline)) AccessDescriptor CheckedSlot(uint32_t slot) const {
    auto ad = unit_->ReadAd(ad_, slot);
    IMAX_CHECK(ad.ok());
    return ad.value();
  }

  // The descriptor behind `ad` if a view may pin it, else null.
  static ObjectDescriptor* Pinnable(AddressingUnit* unit, const AccessDescriptor& ad) {
    if (!ad.HasRights(rights::kRead | rights::kWrite)) {
      return nullptr;
    }
    auto resolved = unit->table().Resolve(ad);
    if (!resolved.ok() || resolved.value()->quarantined || resolved.value()->swapped_out) {
      return nullptr;
    }
    return resolved.value();
  }

  // Aborts unless the pin still holds and the access is `in_bounds`.
  __attribute__((always_inline)) void CheckPinned(bool in_bounds, uint32_t offset,
                                                  uint32_t width) const {
    if (!in_bounds || !PinHolds()) {
      PinnedAccessFailed(offset, width);
    }
  }
  [[noreturn]] __attribute__((noinline, cold)) void PinnedAccessFailed(uint32_t offset,
                                                                       uint32_t width) const {
    std::fprintf(stderr,
                 "ObjectView: pinned access to a dead object or out of bounds: object %u "
                 "offset %u width %u\n",
                 ad_.index(), offset, width);
    std::abort();
  }

  // Host address of a pinned data-part field, after the per-access checks.
  __attribute__((always_inline)) uint8_t* PinnedData(uint32_t offset, uint32_t width) const {
    CheckPinned(width <= 8 && static_cast<uint64_t>(offset) + width <= pinned_->data_length,
                offset, width);
    return unit_->memory().at(pinned_->data_base + offset);
  }

  AddressingUnit* unit_ = nullptr;
  AccessDescriptor ad_;
  ObjectDescriptor* pinned_ = nullptr;  // set only by the kPin constructor
};

// Process view with named accessors.
class ProcessView : public ObjectView {
 public:
  using ObjectView::ObjectView;

  ProcessState state() const {
    return static_cast<ProcessState>(Field(ProcessLayout::kOffState, 1));
  }
  void set_state(ProcessState state) {
    SetField(ProcessLayout::kOffState, 1, static_cast<uint64_t>(state));
  }
  uint8_t imax_level() const { return static_cast<uint8_t>(Field(ProcessLayout::kOffImaxLevel, 1)); }
  uint8_t priority() const { return static_cast<uint8_t>(Field(ProcessLayout::kOffPriority, 1)); }
  void set_priority(uint8_t priority) { SetField(ProcessLayout::kOffPriority, 1, priority); }
  __attribute__((always_inline)) int16_t stop_count() const {
    return static_cast<int16_t>(Field(ProcessLayout::kOffStopCount, 2));
  }
  void set_stop_count(int16_t count) {
    SetField(ProcessLayout::kOffStopCount, 2, static_cast<uint16_t>(count));
  }
  uint32_t deadline() const { return static_cast<uint32_t>(Field(ProcessLayout::kOffDeadline, 4)); }
  void set_deadline(uint32_t deadline) { SetField(ProcessLayout::kOffDeadline, 4, deadline); }
  uint64_t consumed() const { return Field(ProcessLayout::kOffConsumed, 8); }
  __attribute__((always_inline)) uint64_t slice_used() const {
    return Field(ProcessLayout::kOffSliceUsed, 8);
  }
  __attribute__((always_inline)) void set_slice_used(uint64_t used) {
    SetField(ProcessLayout::kOffSliceUsed, 8, used);
  }
  Fault fault_code() const { return static_cast<Fault>(Field(ProcessLayout::kOffFaultCode, 1)); }
  void set_fault_code(Fault fault) {
    SetField(ProcessLayout::kOffFaultCode, 1, static_cast<uint64_t>(fault));
  }
  uint16_t call_depth() const {
    return static_cast<uint16_t>(Field(ProcessLayout::kOffCallDepth, 2));
  }
  void set_call_depth(uint16_t depth) { SetField(ProcessLayout::kOffCallDepth, 2, depth); }
  uint32_t block_epoch() const {
    return static_cast<uint32_t>(Field(ProcessLayout::kOffBlockEpoch, 4));
  }
  void bump_block_epoch() { Increment(ProcessLayout::kOffBlockEpoch, 4); }

  __attribute__((always_inline)) AccessDescriptor context() const {
    return Slot(ProcessLayout::kSlotContext);
  }
  AccessDescriptor dispatch_port() const { return Slot(ProcessLayout::kSlotDispatchPort); }
  AccessDescriptor fault_port() const { return Slot(ProcessLayout::kSlotFaultPort); }
  AccessDescriptor scheduler_port() const { return Slot(ProcessLayout::kSlotSchedulerPort); }
  AccessDescriptor stack_sro() const { return Slot(ProcessLayout::kSlotStackSro); }
};

// Context view.
class ContextView : public ObjectView {
 public:
  using ObjectView::ObjectView;

  __attribute__((always_inline)) uint32_t pc() const {
    return static_cast<uint32_t>(Field(ContextLayout::kOffPc, 4));
  }
  __attribute__((always_inline)) void set_pc(uint32_t pc) {
    SetField(ContextLayout::kOffPc, 4, pc);
  }
  uint64_t reg(uint8_t index) const {
    IMAX_CHECK(index < kNumDataRegs);
    return Field(ContextLayout::kOffRegs + index * 8u, 8);
  }
  void set_reg(uint8_t index, uint64_t value) {
    IMAX_CHECK(index < kNumDataRegs);
    SetField(ContextLayout::kOffRegs + index * 8u, 8, value);
  }
  AccessDescriptor ad_reg(uint8_t index) const {
    IMAX_CHECK(index < kNumAdRegs);
    return Slot(ContextLayout::kSlotAdRegs + index);
  }
  void set_ad_reg(uint8_t index, const AccessDescriptor& value) {
    IMAX_CHECK(index < kNumAdRegs);
    SetSlot(ContextLayout::kSlotAdRegs + index, value);
  }
  __attribute__((always_inline)) AccessDescriptor instruction_segment() const {
    return Slot(ContextLayout::kSlotInstructionSegment);
  }
  AccessDescriptor domain() const { return Slot(ContextLayout::kSlotDomain); }
  AccessDescriptor caller() const { return Slot(ContextLayout::kSlotCaller); }
};

static_assert(ContextLayout::kDataBytes >= ContextLayout::kOffRegs + 8 * kNumDataRegs,
              "context data part must hold the full data register file");
static_assert(ContextLayout::kSlotInstructionSegment >= kNumAdRegs,
              "AD register file must not overlap the context linkage slots");

}  // namespace imax432

#endif  // IMAX432_SRC_PROC_LAYOUTS_H_
