#include "src/analysis/effects.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/arch/object_descriptor.h"
#include "src/arch/object_table.h"
#include "src/isa/disassembler.h"

namespace imax432 {
namespace analysis {
namespace {

// Widening bound on the concrete-object set per register; beyond this the value goes to top.
constexpr size_t kMaxAdSet = 8;
// Bound on tracked abstract heap cells per state; past it anomaly claims are voided.
constexpr size_t kMaxCells = 32;

// Abstract AD value: the pre-existing objects the register may name (top = any of them)
// plus the allocation sites it may name. No objects, no sites and not top = definitely null.
// The site component stays exact even under top: sites enter a value only at their
// create_object and flow only through moves, so a value widened to top cannot silently
// carry a site — any site reachable through an untracked path (a load from a dirtied
// container, a receive, a call return) was already marked escaped when it entered that
// path. That invariant is what makes per-site facts sound.
struct AbsVal {
  bool top = false;
  std::vector<ObjectIndex> objs;   // sorted, deduped, size <= kMaxAdSet
  std::vector<uint16_t> sites;     // sorted, deduped

  static AbsVal Top() {
    AbsVal v;
    v.top = true;
    return v;
  }

  void AddObj(ObjectIndex index) {
    if (top || index == kInvalidObjectIndex) return;
    auto it = std::lower_bound(objs.begin(), objs.end(), index);
    if (it != objs.end() && *it == index) return;
    objs.insert(it, index);
    if (objs.size() > kMaxAdSet) {
      top = true;
      objs.clear();
    }
  }

  void AddSite(uint16_t site) {
    auto it = std::lower_bound(sites.begin(), sites.end(), site);
    if (it == sites.end() || *it != site) sites.insert(it, site);
  }

  bool HasSite(uint16_t site) const {
    return std::binary_search(sites.begin(), sites.end(), site);
  }

  // Least upper bound; returns true when this value changed.
  bool Join(const AbsVal& other) {
    bool changed = false;
    if (!top) {
      if (other.top) {
        top = true;
        objs.clear();
        changed = true;
      } else {
        const size_t before = objs.size();
        for (ObjectIndex index : other.objs) AddObj(index);
        changed |= top || objs.size() != before;
      }
    }
    const size_t sites_before = sites.size();
    for (uint16_t site : other.sites) AddSite(site);
    changed |= sites.size() != sites_before;
    return changed;
  }

  bool DefinitelyNull() const { return !top && objs.empty() && sites.empty(); }
  // True when the value names exactly one pre-existing object.
  bool UniqueObj() const { return !top && objs.size() == 1; }
};

// Must-have-sent set: ports provably sent to on every path reaching the current point.
// `top` is the lattice identity at join (entry of a not-yet-visited block).
struct MustSent {
  bool top = true;
  std::vector<ObjectIndex> ports;  // sorted

  void Add(ObjectIndex index) {
    if (top) return;
    auto it = std::lower_bound(ports.begin(), ports.end(), index);
    if (it == ports.end() || *it != index) ports.insert(it, index);
  }

  // Path intersection; returns true when this value changed.
  bool Join(const MustSent& other) {
    if (other.top) return false;
    if (top) {
      top = false;
      ports = other.ports;
      return true;
    }
    std::vector<ObjectIndex> kept;
    std::set_intersection(ports.begin(), ports.end(), other.ports.begin(), other.ports.end(),
                          std::back_inserter(kept));
    const bool changed = kept.size() != ports.size();
    ports = std::move(kept);
    return changed;
  }

  std::vector<ObjectIndex> Facts() const { return top ? std::vector<ObjectIndex>{} : ports; }
};

// One tracked access slot of a pre-existing object.
using Cell = std::pair<ObjectIndex, uint32_t>;  // (container, slot)

struct AbstractState {
  AbsVal regs[kNumAdRegs];
  // Ports a blocking send (resp. receive) has provably completed to (from) on every path.
  // Feed PortUse::sends_before and PortUse/ObjectAccess::recvs_before.
  MustSent sent;
  MustSent received;
  // What each stored-to cell may currently hold. Absent = still the boot-time value, which
  // names no site. Weak updates (ambiguous container) join; strong updates (unique
  // container, constant slot) replace — the replacement point is where anomalies surface.
  std::map<Cell, AbsVal> cells;

  bool Join(const AbstractState& other) {
    bool changed = false;
    for (uint8_t r = 0; r < kNumAdRegs; ++r) changed |= regs[r].Join(other.regs[r]);
    changed |= sent.Join(other.sent);
    changed |= received.Join(other.received);
    for (const auto& [cell, val] : other.cells) {
      auto [it, inserted] = cells.emplace(cell, val);
      changed |= inserted || it->second.Join(val);
    }
    return changed;
  }
};

struct Analyzer {
  const Program& program;
  const EffectOptions& options;
  const ControlFlowGraph cfg;
  EffectSummary effects;
  LifetimeSummary lifetime;

  std::map<uint32_t, uint16_t> site_of_pc;  // create_object pc -> site index

  // Objects whose access parts this program may overwrite: a load_ad chain through a dirty
  // object must not trust the slot reader's (boot-time) view. Monotone across the fixpoint.
  std::set<ObjectIndex> dirty;
  bool dirty_all = false;

  std::set<std::pair<uint16_t, uint32_t>> reported_anomalies;  // (site, overwrite_pc)

  Analyzer(const Program& p, const EffectOptions& o)
      : program(p), options(o), cfg(ControlFlowGraph::Build(p)) {
    effects.program_name = lifetime.program_name = program.name();
    // Site identities must be stable across the fixpoint: one pre-pass assigns them.
    for (uint32_t pc = 0; pc < program.size(); ++pc) {
      const Instruction& in = program.at(pc);
      if (in.op != Opcode::kCreateObject) continue;
      AllocationSite site;
      site.pc = pc;
      site.data_bytes = in.imm;
      site.access_slots = in.c;
      site.disasm = SiteDisasm(pc);
      site_of_pc.emplace(pc, static_cast<uint16_t>(lifetime.sites.size()));
      lifetime.sites.push_back(std::move(site));
    }
  }

  // "pc  disassembly" for diagnostics, naming `port` when one resolved.
  std::string SiteDisasm(uint32_t pc, ObjectIndex port = kInvalidObjectIndex) const {
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "%04u  ", pc);
    return prefix + DisassembleInstruction(program.at(pc), port, options.symbols);
  }

  AbstractState EntryState() const {
    AbstractState state;
    state.sent.top = false;      // entry: nothing sent yet
    state.received.top = false;  // entry: nothing received yet
    if (!options.initial_arg.is_null()) {
      state.regs[kArgAdReg].AddObj(options.initial_arg.index());
    } else {
      state.regs[kArgAdReg] = AbsVal::Top();
    }
    if (options.kind == ProgramKind::kDomainEntry) {
      // The call amplified a6 to the callee's own domain, which one segment cannot name.
      state.regs[kDomainAdReg] = AbsVal::Top();
    }
    return state;
  }

  // The state a native jump can land in: unknown registers, no guaranteed sends or receives.
  static AbstractState HavocState() {
    AbstractState state;
    HavocRegs(state);
    state.sent.top = false;
    state.received.top = false;
    return state;
  }

  static void HavocRegs(AbstractState& state) {
    for (uint8_t r = 0; r < kNumAdRegs; ++r) state.regs[r] = AbsVal::Top();
  }

  bool IsDirty(ObjectIndex container) const {
    return dirty_all || dirty.count(container) != 0;
  }

  // Resolves `load_ad dst, container[slot]`. A container that may be a fresh object yields
  // any object: it holds whatever the program stored into it, which no snapshot shows. A
  // definitely-null container faults at run time, so its empty result is never observed.
  // Loaded values carry no sites: a site can only be loaded back out of a container it was
  // stored into, and that container is either a site or dirtied by the store (see AbsVal).
  AbsVal LoadSlot(const AbsVal& container, uint32_t slot) const {
    if (container.top || !container.sites.empty() || !options.slot_reader) {
      return container.DefinitelyNull() ? AbsVal() : AbsVal::Top();
    }
    AbsVal out;
    for (ObjectIndex obj : container.objs) {
      if (IsDirty(obj)) return AbsVal::Top();
      const AccessDescriptor slot_ad = options.slot_reader(obj, slot);
      if (!slot_ad.is_null()) out.AddObj(slot_ad.index());
    }
    return out;
  }

  void MarkStoreInto(const AbsVal& container) {
    if (container.top) {
      dirty_all = true;
      return;
    }
    for (ObjectIndex obj : container.objs) dirty.insert(obj);
  }

  // Native code or an unknown service: may move any AD anywhere, talk to any port, rewrite
  // any tracked cell and jump anywhere.
  void Opaque(AbstractState& state) {
    effects.has_native = true;
    lifetime.opaque = true;
    HavocRegs(state);
    dirty_all = true;
    for (auto& [cell, val] : state.cells) val = AbsVal::Top();
  }

  // Applies one block's instructions to `state`. Lifetime escape facts are recorded on every
  // pass (they are monotone and deduplicated); effect sites and retention anomalies only in
  // the reporting pass, against the fixpoint states.
  void ApplyBlock(uint32_t block, AbstractState& state, bool report) {
    const BasicBlock& bb = cfg.block(block);
    for (uint32_t pc = bb.begin; pc < bb.end; ++pc) Transfer(pc, state, report);
  }

  void Transfer(uint32_t pc, AbstractState& state, bool report) {
    const Instruction& in = program.at(pc);
    switch (in.op) {
      case Opcode::kMoveAd:
        state.regs[in.a] = state.regs[in.b];
        break;
      case Opcode::kClearAd:
        state.regs[in.a] = AbsVal();
        break;
      case Opcode::kLoadData:
      case Opcode::kLoadDataIndexed:
        RecordAccess(pc, AccessKind::kRead, ObjectPart::kData, state.regs[in.b], state, report);
        break;
      case Opcode::kStoreData:
      case Opcode::kStoreDataIndexed:
        RecordAccess(pc, AccessKind::kWrite, ObjectPart::kData, state.regs[in.a], state,
                     report);
        break;
      case Opcode::kLoadAd:
        RecordAccess(pc, AccessKind::kRead, ObjectPart::kAccess, state.regs[in.b], state,
                     report);
        state.regs[in.a] = LoadSlot(state.regs[in.b], in.imm);
        break;
      case Opcode::kLoadAdIndexed:
        // Run-time slot index: any slot of the container could be loaded.
        RecordAccess(pc, AccessKind::kRead, ObjectPart::kAccess, state.regs[in.b], state,
                     report);
        state.regs[in.a] = state.regs[in.b].DefinitelyNull() ? AbsVal() : AbsVal::Top();
        break;
      case Opcode::kStoreAd:
      case Opcode::kStoreAdIndexed: {
        const uint32_t slot = in.op == Opcode::kStoreAd ? in.imm : kUnknownSlot;
        const AbsVal& container = state.regs[in.a];
        const AbsVal& value = state.regs[in.b];
        RecordAccess(pc, AccessKind::kWrite, ObjectPart::kAccess, container, state, report);
        NoteStoreFacts(container, slot, value, pc);
        StoreCells(pc, state, container, slot, value, report);
        MarkStoreInto(container);
        break;
      }
      case Opcode::kRestrictRights:
      case Opcode::kAdIsNull:
        break;  // object identity unchanged / data result only
      case Opcode::kCreateObject: {
        // Allocation itself mutates only manager metadata, which the kernel serializes, so
        // no access is recorded for the source SRO.
        AbsVal fresh;
        fresh.AddSite(site_of_pc.at(pc));
        state.regs[in.a] = std::move(fresh);
        break;
      }
      case Opcode::kCreateSro:
        state.regs[in.a] = AbsVal();  // fresh SRO: never a port, not a tracked site
        break;
      case Opcode::kDestroyObject:
      case Opcode::kDestroySro:
        // Destruction invalidates both halves of the object for every other holder.
        RecordAccess(pc, AccessKind::kWrite, ObjectPart::kData, state.regs[in.a], state,
                     report);
        RecordAccess(pc, AccessKind::kWrite, ObjectPart::kAccess, state.regs[in.a], state,
                     report);
        if (in.op == Opcode::kDestroyObject) {
          for (uint16_t site : state.regs[in.a].sites) lifetime.sites[site].destroyed = true;
        }
        break;
      case Opcode::kSend:
      case Opcode::kCondSend: {
        const bool blocking = in.op == Opcode::kSend;
        RecordUse(pc, PortOp::kSend, state.regs[in.a], blocking, state, report);
        // Only a provably-unique target is a guaranteed send.
        if (blocking && state.regs[in.a].UniqueObj()) state.sent.Add(state.regs[in.a].objs[0]);
        for (uint16_t site : state.regs[in.b].sites) lifetime.sites[site].sent = true;
        if (state.regs[in.b].top) lifetime.sent_unknown = true;
        break;
      }
      case Opcode::kReceive:
      case Opcode::kCondReceive: {
        const bool blocking = in.op == Opcode::kReceive;
        RecordUse(pc, PortOp::kReceive, state.regs[in.b], blocking, state, report);
        // Completing a blocking receive from a provably-unique port is a guaranteed join
        // with whoever sent there. Guarded variants complete without a message.
        if (blocking && state.regs[in.b].UniqueObj()) {
          state.received.Add(state.regs[in.b].objs[0]);
        }
        state.regs[in.a] = AbsVal::Top();
        break;
      }
      case Opcode::kCall:
      case Opcode::kCallLocal:
        RecordCall(pc, state.regs[in.op == Opcode::kCall ? in.a : kDomainAdReg], in.imm,
                   report);
        for (uint16_t site : state.regs[kArgAdReg].sites) {
          lifetime.sites[site].passed_to_call = true;
        }
        state.regs[kArgAdReg] = AbsVal::Top();  // callee return value
        break;
      case Opcode::kReturn:
        for (uint16_t site : state.regs[kArgAdReg].sites) lifetime.sites[site].returned = true;
        break;
      case Opcode::kOsCall:
        switch (in.imm) {
          case os_service::kYield:
          case os_service::kGetTime:
          case os_service::kSetPriority:
          case os_service::kSetDeadline:
            break;  // data-only services, no AD effect
          case os_service::kTimedReceive:
            // Receives into a7 from the port in a7. Blocking up to the timeout: for deadlock
            // purposes a bounded wait is a guarded wait, so not blocking.
            RecordUse(pc, PortOp::kReceive, state.regs[kArgAdReg], /*blocking=*/false, state,
                      report);
            state.regs[kArgAdReg] = AbsVal::Top();
            break;
          default:
            Opaque(state);  // unknown / package service
            break;
        }
        break;
      case Opcode::kNative:
        Opaque(state);
        break;
      default:
        break;  // data / branch / halt: no AD effect
    }
  }

  // --- Effect sites (reporting pass only) ---

  void RecordAccess(uint32_t pc, AccessKind kind, ObjectPart part, const AbsVal& object,
                    const AbstractState& state, bool report) {
    if (!report) return;
    if (object.top) {
      // The site may touch any object at all; the race analysis counts this program's
      // unresolved sites but never reports them.
      effects.has_unresolved_access = true;
      return;
    }
    // Null registers fault and touch nothing; fresh objects are not yet shared with any
    // other summary. Only pre-existing objects are reported.
    if (object.objs.empty()) return;
    const std::vector<ObjectIndex> recvs_before = state.received.Facts();
    const std::string disasm = SiteDisasm(pc);
    for (ObjectIndex obj : object.objs) {
      ObjectAccess access;
      access.kind = kind;
      access.part = part;
      access.pc = pc;
      access.object = obj;
      access.recvs_before = recvs_before;
      access.disasm = disasm;
      effects.accesses.push_back(std::move(access));
    }
  }

  void RecordUse(uint32_t pc, PortOp op, const AbsVal& port, bool blocking,
                 const AbstractState& state, bool report) {
    if (!report) return;
    const std::vector<ObjectIndex> sends_before = state.sent.Facts();
    const std::vector<ObjectIndex> recvs_before = state.received.Facts();
    auto emit = [&](ObjectIndex resolved) {
      PortUse use;
      use.op = op;
      use.pc = pc;
      use.port = resolved;
      use.blocking = blocking;
      use.sends_before = sends_before;
      use.recvs_before = recvs_before;
      use.disasm = SiteDisasm(pc, resolved);
      effects.uses.push_back(std::move(use));
    };
    if (port.top) {
      emit(kUnresolvedPort);
      if (op == PortOp::kSend) effects.has_unresolved_send = true;
      if (op == PortOp::kReceive) effects.has_unresolved_receive = true;
      return;
    }
    // Null port registers fault at run time and communicate with nothing (the verifier
    // reports those), and a fresh object is never a port: no use is recorded for either.
    for (ObjectIndex obj : port.objs) emit(obj);
  }

  void RecordCall(uint32_t pc, const AbsVal& domain, uint32_t entry, bool report) {
    if (!report) return;
    auto emit = [&](ObjectIndex callee) {
      DomainCall call;
      call.pc = pc;
      call.entry = entry;
      call.callee_segment = callee;
      effects.calls.push_back(call);
    };
    if (domain.top || domain.objs.empty() || !options.slot_reader) {
      emit(kInvalidObjectIndex);
      return;
    }
    for (ObjectIndex obj : domain.objs) {
      // Domain entries are the leading access slots of the domain object.
      const AccessDescriptor segment =
          IsDirty(obj) ? AccessDescriptor() : options.slot_reader(obj, entry);
      emit(segment.is_null() ? kInvalidObjectIndex : segment.index());
    }
  }

  // --- Lifetime facts ---

  void NoteHeapStore(uint16_t site, ObjectIndex container, uint32_t slot, uint32_t pc) {
    auto& stores = lifetime.sites[site].heap_stores;
    for (const HeapStore& s : stores) {
      if (s.container == container && s.slot == slot && s.pc == pc) return;
    }
    stores.push_back(HeapStore{container, slot, pc});
  }

  void NoteSiteStore(uint16_t site, uint16_t target) {
    auto& targets = lifetime.sites[site].stored_into_sites;
    if (std::find(targets.begin(), targets.end(), target) == targets.end()) {
      targets.push_back(target);
    }
  }

  // Records the escape facts of storing `value` into `container` at `pc` (slot may be
  // kUnknownSlot for indexed stores).
  void NoteStoreFacts(const AbsVal& container, uint32_t slot, const AbsVal& value,
                      uint32_t pc) {
    if (value.top) lifetime.stored_top = true;
    for (uint16_t site : value.sites) {
      if (container.top) lifetime.sites[site].unresolved = true;
      for (ObjectIndex obj : container.objs) NoteHeapStore(site, obj, slot, pc);
      for (uint16_t target : container.sites) NoteSiteStore(site, target);
    }
  }

  // True when the site's facts allow a sole-referent claim anchored at one cell: its only
  // escapes are heap stores, and all of them target exactly (container, slot).
  bool SoleCellSite(uint16_t index, ObjectIndex container, uint32_t slot) const {
    const AllocationSite& site = lifetime.sites[index];
    if (site.sent || site.passed_to_call || site.returned || site.destroyed ||
        site.unresolved || !site.stored_into_sites.empty() || site.heap_stores.empty()) {
      return false;
    }
    for (const HeapStore& s : site.heap_stores) {
      if (s.container != container || s.slot != slot) return false;
    }
    return true;
  }

  // Strong update of (container, slot): the old value dies. Any site the old value named
  // that the new one does not, that no register or other tracked cell still names, and
  // whose every escape was a store into exactly this cell, has just lost its last AD.
  void CheckOverwrite(uint32_t pc, const AbstractState& state, const Cell& cell,
                      const AbsVal& old_value, const AbsVal& new_value, bool report) {
    if (!report || old_value.sites.empty()) return;
    // Unresolved machinery anywhere voids the flow-sensitive argument: a top value or an
    // overflowed cell set could be hiding the AD.
    if (lifetime.opaque || lifetime.cells_overflowed || lifetime.stored_top || dirty_all) {
      return;
    }
    for (uint8_t r = 0; r < kNumAdRegs; ++r) {
      if (state.regs[r].top) return;  // a top register may hold any heap-stored site
    }
    for (const auto& [other, val] : state.cells) {
      if (other != cell && val.top) return;
    }
    for (uint16_t site : old_value.sites) {
      if (new_value.HasSite(site)) continue;  // re-stored, not killed
      if (!SoleCellSite(site, cell.first, cell.second)) continue;
      bool held_elsewhere = false;
      for (uint8_t r = 0; r < kNumAdRegs && !held_elsewhere; ++r) {
        held_elsewhere = state.regs[r].HasSite(site);
      }
      for (const auto& [other, val] : state.cells) {
        if (held_elsewhere) break;
        if (other != cell) held_elsewhere = val.HasSite(site);
      }
      if (held_elsewhere) continue;
      if (!reported_anomalies.emplace(site, pc).second) continue;
      RetentionAnomaly anomaly;
      anomaly.site = site;
      anomaly.store_pc = lifetime.sites[site].heap_stores.front().pc;
      anomaly.overwrite_pc = pc;
      anomaly.container = cell.first;
      anomaly.slot = cell.second;
      anomaly.disasm = SiteDisasm(pc);
      lifetime.anomalies.push_back(std::move(anomaly));
    }
  }

  // Applies one access-part store to the tracked cells. Constant slot + unique container =
  // strong update; everything else joins weakly (the store may or may not hit each cell).
  void StoreCells(uint32_t pc, AbstractState& state, const AbsVal& container, uint32_t slot,
                  const AbsVal& value, bool report) {
    if (lifetime.cells_overflowed) return;
    if (container.top) {
      // Could hit any tracked cell.
      for (auto& [cell, val] : state.cells) val.Join(value);
      return;
    }
    for (ObjectIndex obj : container.objs) {
      if (slot == kUnknownSlot) {
        for (auto& [cell, val] : state.cells) {
          if (cell.first == obj) val.Join(value);
        }
        continue;
      }
      const Cell cell{obj, slot};
      auto it = state.cells.find(cell);
      if (container.objs.size() == 1 && container.sites.empty()) {
        if (it != state.cells.end()) {
          CheckOverwrite(pc, state, cell, it->second, value, report);
          it->second = value;
        } else {
          state.cells.emplace(cell, value);
        }
      } else if (it != state.cells.end()) {
        it->second.Join(value);
      } else {
        state.cells.emplace(cell, value);
      }
    }
    if (state.cells.size() > kMaxCells) {
      lifetime.cells_overflowed = true;
      state.cells.clear();
    }
  }

  bool HasReachableCycle() const {
    // Iterative DFS over static CFG edges; a back edge to an on-stack block is a loop.
    enum : uint8_t { kWhite, kGray, kBlack };
    std::vector<uint8_t> color(cfg.size(), kWhite);
    std::vector<std::pair<uint32_t, size_t>> stack;  // block id, next-successor cursor
    stack.emplace_back(0, 0);
    color[0] = kGray;
    while (!stack.empty()) {
      auto& [block, cursor] = stack.back();
      const auto& succs = cfg.block(block).successors;
      if (cursor == succs.size()) {
        color[block] = kBlack;
        stack.pop_back();
        continue;
      }
      const uint32_t next = succs[cursor++];
      if (color[next] == kGray) return true;
      if (color[next] == kWhite) {
        color[next] = kGray;
        stack.emplace_back(next, 0);
      }
    }
    return false;
  }

  ProgramSummary Run() {
    if (program.size() != 0) {
      // Fixpoint. The dirty set only grows; when it does, resolved loads may need to weaken,
      // so the driver sends every visited block round again.
      const std::vector<std::optional<AbstractState>> entry = ForwardFixpoint(
          cfg, EntryState(), HavocState(), [this](uint32_t block, AbstractState& state) {
            const size_t dirty_before = dirty.size();
            const bool dirty_all_before = dirty_all;
            ApplyBlock(block, state, /*report=*/false);
            return dirty.size() != dirty_before || dirty_all != dirty_all_before;
          });

      // Reporting pass: replay each analyzed block once, in program order. All escape facts
      // are final by now, so the sole-cell anomaly test sees the whole program's stores.
      for (uint32_t b = 0; b < cfg.size(); ++b) {
        if (!entry[b]) continue;
        AbstractState state = *entry[b];
        ApplyBlock(b, state, /*report=*/true);
      }
      FillSendsAfter(entry);
      effects.may_not_terminate = effects.has_native || HasReachableCycle();
    }
    return ProgramSummary{std::move(effects), std::move(lifetime)};
  }

  // Backward must-send pass filling ObjectAccess::sends_after: the ports a blocking send
  // with a provably-unique target reaches on *every* path from the access to program exit.
  // The race analysis only trusts these facts for acyclic, native-free programs (each site
  // then executes at most once), so the pass is skipped for opaque programs.
  void FillSendsAfter(const std::vector<std::optional<AbstractState>>& seen) {
    if (effects.has_native || effects.accesses.empty()) return;

    // Unique blocking-send target per pc. A site whose register resolves to several
    // candidates (several PortUse rows at one pc) or to nothing certain is excluded.
    std::map<uint32_t, ObjectIndex> send_at;
    std::set<uint32_t> ambiguous;
    for (const PortUse& use : effects.uses) {
      if (use.op != PortOp::kSend || !use.blocking) continue;
      if (use.port == kUnresolvedPort || ambiguous.count(use.pc) != 0 ||
          send_at.count(use.pc) != 0) {
        send_at.erase(use.pc);
        ambiguous.insert(use.pc);
        continue;
      }
      send_at.emplace(use.pc, use.port);
    }

    // Greatest-fixpoint intersection over reversed CFG edges. out[b] = sends guaranteed
    // after the *end* of block b; exit blocks guarantee nothing.
    std::vector<MustSent> out(cfg.size());  // top = not yet constrained
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t b = cfg.size(); b-- > 0;) {
        if (!seen[b]) continue;
        const BasicBlock& bb = cfg.block(b);
        MustSent next;
        if (bb.successors.empty()) {
          next.top = false;
        } else {
          for (uint32_t succ : bb.successors) {
            MustSent in_succ = out[succ];
            if (!in_succ.top) {
              for (uint32_t pc = cfg.block(succ).begin; pc < cfg.block(succ).end; ++pc) {
                auto it = send_at.find(pc);
                if (it != send_at.end()) in_succ.Add(it->second);
              }
            }
            next.Join(in_succ);
          }
        }
        if (next.top != out[b].top || next.ports != out[b].ports) {
          out[b] = std::move(next);
          changed = true;
        }
      }
    }

    // Per access: later same-block sends plus out[block].
    for (ObjectAccess& access : effects.accesses) {
      const uint32_t b = cfg.block_of(access.pc);
      MustSent after = out[b];
      if (after.top) {
        // Every path from this block loops forever; nothing is guaranteed (and the race
        // analysis would discard the fact anyway via may_not_terminate).
        after.top = false;
        after.ports.clear();
      }
      for (uint32_t pc = access.pc + 1; pc < cfg.block(b).end; ++pc) {
        auto it = send_at.find(pc);
        if (it != send_at.end()) after.Add(it->second);
      }
      access.sends_after = std::move(after.ports);
    }
  }
};

}  // namespace

bool EffectSummary::SendsTo(ObjectIndex port) const {
  for (const PortUse& use : uses) {
    if (use.op == PortOp::kSend && use.port == port) return true;
  }
  return false;
}

bool EffectSummary::ReceivesFrom(ObjectIndex port) const {
  for (const PortUse& use : uses) {
    if (use.op == PortOp::kReceive && use.port == port) return true;
  }
  return false;
}

bool EffectSummary::Reads(ObjectIndex object, ObjectPart part) const {
  for (const ObjectAccess& access : accesses) {
    if (access.kind == AccessKind::kRead && access.object == object && access.part == part) {
      return true;
    }
  }
  return false;
}

bool EffectSummary::Writes(ObjectIndex object, ObjectPart part) const {
  for (const ObjectAccess& access : accesses) {
    if (access.kind == AccessKind::kWrite && access.object == object && access.part == part) {
      return true;
    }
  }
  return false;
}

ProgramSummary AnalyzeProgram(const Program& program, const EffectOptions& options) {
  return Analyzer(program, options).Run();
}

EffectOptions EffectOptionsForTable(const ObjectTable& table,
                                    const AccessDescriptor& initial_arg,
                                    const SymbolTable* symbols) {
  EffectOptions options;
  options.initial_arg = initial_arg;
  options.symbols = symbols;
  options.slot_reader = [&table](ObjectIndex index, uint32_t slot) -> AccessDescriptor {
    if (index >= table.capacity()) return {};
    const ObjectDescriptor& descriptor = table.At(index);
    if (!descriptor.allocated || slot >= descriptor.access_count()) return {};
    return descriptor.access[slot];
  };
  return options;
}

}  // namespace analysis
}  // namespace imax432
