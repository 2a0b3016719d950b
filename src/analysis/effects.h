// The per-program AD-flow pass: one forward dataflow over a program's AD registers that
// yields two summaries from one abstract state.
//
//   EffectSummary   — the program's communication and memory footprint: every send / receive
//                     / cond_send / cond_receive site with the resolved port (or flagged
//                     unresolved), every data and access-part read or write of a resolved
//                     object, annotated with must-send-after / must-receive-before port facts,
//                     and every domain call. The whole-system deadlock detector (deadlock.h)
//                     and race detector (races/races.h) compose these across programs.
//   LifetimeSummary — one record per create_object site: where the fresh object's AD flows
//                     (stores into pre-existing objects or sibling sites, sends, call
//                     arguments, returns, destroys), plus retention-anomaly candidates. The
//                     whole-system lifetime phase (lifetime/lifetime.h) composes these.
//
// The capability verifier (verifier.h) proves per-instruction facts inside one program; this
// pass computes the complementary *interface* facts. The abstract value per AD register is
// the set of concrete objects the register may name plus the allocation sites it may name.
// Resolution is seeded from what the loader knows — the initial argument in a7 and, at a
// domain entry, "any object" in a6 (the call amplified a6 to the callee's own domain, and one
// segment may serve several domains) — and chased through move_ad / load_ad chains by reading
// the live machine's access parts via a slot-reader callback. A load through a register that
// may hold a fresh object may yield any object: the fresh object holds whatever the program
// stored into it.
//
// Soundness posture (see DESIGN.md §6): this is a *may* analysis over the ISA stream.
// Native steps and unknown OS services havoc the register file and mark the summaries opaque —
// their C++ bodies can talk to any port without appearing here. Known AD-free OS services
// (yield, get-time, set-priority/deadline) are modeled precisely, and the timed-receive
// service is modeled as a guarded receive through a7. Access-part stores performed by the
// program itself dirty the stored-into objects: later load_ad chains through a dirtied
// object resolve to "unknown" rather than to the boot-time snapshot the slot reader sees.

#ifndef IMAX432_SRC_ANALYSIS_EFFECTS_H_
#define IMAX432_SRC_ANALYSIS_EFFECTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/arch/access_descriptor.h"
#include "src/arch/types.h"
#include "src/isa/program.h"

namespace imax432 {

class ObjectTable;
class SymbolTable;  // disassembler.h

namespace analysis {

// Sentinel port identity for a send/receive whose AD chain could not be followed.
inline constexpr ObjectIndex kUnresolvedPort = kInvalidObjectIndex;

enum class PortOp : uint8_t { kSend, kReceive };

// One send/receive site in a program.
struct PortUse {
  PortOp op = PortOp::kSend;
  uint32_t pc = 0;
  // Resolved port object, or kUnresolvedPort. A site whose register resolves to several
  // concrete objects produces one PortUse per candidate.
  ObjectIndex port = kUnresolvedPort;
  // False for cond_send / cond_receive: the op has a fallback and never blocks the process.
  bool blocking = true;
  // Ports this program has provably sent to on *every* path from entry to this site
  // (must-analysis). The deadlock detector uses it to recognize primed request/reply
  // cycles: a receive preceded by a guaranteed send into the cycle cannot be the first
  // blocker.
  std::vector<ObjectIndex> sends_before;
  // Ports this program has provably *completed a blocking receive from* on every path to
  // this site. The race detector chains happens-before through relay processes with it: a
  // relay that only sends after receiving extends the ordering its input port carries.
  std::vector<ObjectIndex> recvs_before;
  // Disassembly of the site, for diagnostics ("receive a4, port=a2 ; port 12 'ring.0'").
  std::string disasm;
};

enum class AccessKind : uint8_t { kRead, kWrite };

// Which half of an object an access touches. Data reads/writes never conflict with
// access-part (AD slot) reads/writes: the two parts are disjoint storage.
enum class ObjectPart : uint8_t { kData, kAccess };

// One memory access site: a data or access-part read/write of a resolved abstract object.
// load_data / store_data touch the data part; load_ad / store_ad touch the access part;
// destroy_object writes both. A site whose object register resolves to several candidates
// produces one ObjectAccess per candidate; fresh objects (create_object results) and
// definitely-null registers produce none.
struct ObjectAccess {
  AccessKind kind = AccessKind::kRead;
  ObjectPart part = ObjectPart::kData;
  uint32_t pc = 0;
  ObjectIndex object = kInvalidObjectIndex;
  // Must-analysis context for message-passing happens-before (DESIGN.md §6.2):
  //   sends_after  — ports provably sent to (blocking send, unique target) on every path
  //                  from this site to program exit. A write followed by a guaranteed send
  //                  happens-before reads after the matching receive.
  //   recvs_before — ports a blocking receive provably completed from on every path from
  //                  entry to this site. A read after a guaranteed receive happens-after
  //                  writes before the matching send.
  std::vector<ObjectIndex> sends_after;
  std::vector<ObjectIndex> recvs_before;
  // Disassembly of the site, for diagnostics.
  std::string disasm;
};

// One inter-domain (or local) call site.
struct DomainCall {
  uint32_t pc = 0;
  uint32_t entry = 0;
  // Resolved instruction-segment object the call lands in, or kInvalidObjectIndex. The
  // system analysis composes callee summaries into callers through this edge.
  ObjectIndex callee_segment = kInvalidObjectIndex;
};

struct EffectSummary {
  std::string program_name;
  std::vector<PortUse> uses;          // every send/receive site, ascending pc
  std::vector<ObjectAccess> accesses; // every resolved data/AD access site, ascending pc
  std::vector<DomainCall> calls;      // every call / call_local site
  bool has_native = false;            // opaque native / unknown OS-call steps present
  bool has_unresolved_send = false;   // some send's port chain did not resolve
  bool has_unresolved_receive = false;
  bool has_unresolved_access = false; // some access's object chain did not resolve
  // The CFG has a reachable cycle (or opaque code): the program may never terminate, so
  // its sends may repeat without bound.
  bool may_not_terminate = false;

  bool SendsTo(ObjectIndex port) const;
  bool ReceivesFrom(ObjectIndex port) const;
  bool Reads(ObjectIndex object, ObjectPart part = ObjectPart::kData) const;
  bool Writes(ObjectIndex object, ObjectPart part = ObjectPart::kData) const;
};

// Slot sentinel for a store whose slot index is computed at run time (store_ad_indexed).
inline constexpr uint32_t kUnknownSlot = 0xFFFFFFFFu;

// One store of a site's AD into a resolved pre-existing object.
struct HeapStore {
  ObjectIndex container = kInvalidObjectIndex;
  uint32_t slot = kUnknownSlot;
  uint32_t pc = 0;
};

// Everything known about one `create_object` instruction. All escape facts are monotone
// may-facts accumulated to a fixpoint; a site with no fact set at all is context-local.
struct AllocationSite {
  uint32_t pc = 0;
  uint32_t data_bytes = 0;
  uint32_t access_slots = 0;
  std::string disasm;

  std::vector<HeapStore> heap_stores;        // stores into pre-existing objects
  std::vector<uint16_t> stored_into_sites;   // stores into sibling allocation sites
  bool sent = false;                         // payload of a send / cond_send
  bool passed_to_call = false;               // in a7 at a call / call_local
  bool returned = false;                     // in a7 at a return
  bool destroyed = false;                    // destroy_object may target it
  bool unresolved = false;                   // stored through an unresolvable container
};

// One provable last-reference kill: the store at `overwrite_pc` replaces the contents of
// access slot `slot` of `container` — the only place the site's AD was ever stored — while
// no register or other tracked cell still names the site.
struct RetentionAnomaly {
  uint16_t site = 0;           // index into LifetimeSummary::sites
  uint32_t store_pc = 0;       // the store that put the sole AD into the cell
  uint32_t overwrite_pc = 0;   // the store that kills it
  ObjectIndex container = kInvalidObjectIndex;
  uint32_t slot = 0;
  std::string disasm;          // disassembly of the overwrite site
};

struct LifetimeSummary {
  std::string program_name;
  std::vector<AllocationSite> sites;       // ascending pc
  std::vector<RetentionAnomaly> anomalies; // per-program candidates; phase 2 suppresses
  bool opaque = false;          // native steps or unknown OS services present
  bool sent_unknown = false;    // some send's payload chain did not resolve
  bool stored_top = false;      // some store's value did not resolve (voids anomaly claims)
  bool cells_overflowed = false;  // abstract heap-cell bound hit (voids anomaly claims)
};

struct EffectOptions {
  // How the program is entered. A domain entry's a6 starts at "any object"; a process's is
  // null.
  ProgramKind kind = ProgramKind::kProcess;
  // Concrete AD in a7 at entry. Null = unknown entry argument (domain entries, offline
  // analysis): a7 starts at "any object" and nothing resolves through it.
  AccessDescriptor initial_arg;
  // Reads access slot `slot` of live object `index`; returns a null AD when the object or
  // slot does not exist. Without it no load_ad chain resolves.
  std::function<AccessDescriptor(ObjectIndex index, uint32_t slot)> slot_reader;
  // Optional names for resolved port operands in the per-site disassembly.
  const SymbolTable* symbols = nullptr;
};

// Both summaries of one program.
struct ProgramSummary {
  EffectSummary effects;
  LifetimeSummary lifetime;
};

// Computes both summaries to a fixpoint over the program's CFG.
ProgramSummary AnalyzeProgram(const Program& program, const EffectOptions& options = {});

// Options whose slot reader chases chains through a live object table. The table must
// outlive the AnalyzeProgram call (it is consulted synchronously, never stored).
EffectOptions EffectOptionsForTable(const ObjectTable& table,
                                    const AccessDescriptor& initial_arg,
                                    const SymbolTable* symbols = nullptr);

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_EFFECTS_H_
