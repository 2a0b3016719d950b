// ProgramStore: instruction segments.
//
// Code on the 432 lives in instruction-segment objects referenced from domains and contexts.
// The emulator keeps the decoded instruction vector in a side table keyed by the instruction
// segment's object index; the object itself (type kInstructionSegment) carries the
// architectural identity — rights, level, GC reachability — while the store carries content.

#ifndef IMAX432_SRC_ISA_PROGRAM_STORE_H_
#define IMAX432_SRC_ISA_PROGRAM_STORE_H_

#include <functional>
#include <map>

#include "src/isa/program.h"
#include "src/memory/memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {

class ProgramStore {
 public:
  ProgramStore(Machine* machine, MemoryManager* memory) : machine_(machine), memory_(memory) {}

  // Creates an instruction-segment object for `program` and returns an AD for it. The data
  // part holds the instruction count (read-only metadata for diagnostics).
  Result<AccessDescriptor> Register(ProgramRef program) {
    IMAX_ASSIGN_OR_RETURN(
        AccessDescriptor ad,
        memory_->CreateObject(memory_->global_heap(), SystemType::kInstructionSegment,
                              /*data_bytes=*/8, /*access_slots=*/0, rights::kRead));
    IMAX_RETURN_IF_FAULT(machine_->memory().Write(
        machine_->table().At(ad.index()).data_base, 4, program->size()));
    programs_[ad.index()] = std::move(program);
    ++version_;
    return ad;
  }

  // Looks up the program behind an instruction-segment AD.
  Result<ProgramRef> Fetch(const AccessDescriptor& ad) const {
    IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* descriptor,
                          machine_->table().Resolve(ad));
    if (descriptor->type != SystemType::kInstructionSegment) {
      return Fault::kTypeMismatch;
    }
    auto it = programs_.find(ad.index());
    if (it == programs_.end()) {
      return Fault::kNotFound;
    }
    return it->second;
  }

  // Replaces the program behind a live instruction segment in place (hot-patching a loaded
  // program without changing its architectural identity). Staleness contract: bumps BOTH
  // invalidation keys the translation cache consults — the store version() (program
  // payloads key on it) and the segment descriptor's data_epoch (the per-object content
  // witness) — plus rewrites the instruction-count metadata. Missing either bump would let
  // a cached translation keep serving the old code.
  Status Replace(const AccessDescriptor& ad, ProgramRef program) {
    IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * descriptor, machine_->table().Resolve(ad));
    if (descriptor->type != SystemType::kInstructionSegment) {
      return Fault::kTypeMismatch;
    }
    auto it = programs_.find(ad.index());
    if (it == programs_.end()) {
      return Fault::kNotFound;
    }
    IMAX_RETURN_IF_FAULT(
        machine_->memory().Write(descriptor->data_base, 4, program->size()));
    it->second = std::move(program);
    ++version_;
    ++descriptor->data_epoch;
    // Static analysis summarized the OLD code: let the owner retract it (the kernel wires
    // this to ForgetProgramAnalysis, which drops the stale effect and lifetime summaries).
    if (replace_hook_) replace_hook_(ad.index());
    return Status::Ok();
  }

  // Called after every successful Replace with the segment's object index.
  void SetReplaceHook(std::function<void(ObjectIndex)> hook) {
    replace_hook_ = std::move(hook);
  }

  // Drops the program content of a reclaimed instruction segment (called by the GC).
  void Forget(ObjectIndex index) {
    if (programs_.erase(index) != 0) ++version_;
  }

  // Raw pointer lookup for the kernel's translation-cache fill path: no Resolve, no
  // shared_ptr traffic. The pointer stays valid until Forget or Replace drops the program —
  // both bump version(), killing every cache entry that captured it.
  const Program* Find(ObjectIndex index) const {
    auto it = programs_.find(index);
    return it == programs_.end() ? nullptr : it->second.get();
  }

  // Bumped on every Register, successful Replace and successful Forget. Translation-cache
  // program payloads are keyed on it: any store mutation invalidates them wholesale.
  uint64_t version() const { return version_; }

  size_t size() const { return programs_.size(); }

  // Visits every registered program as (segment object index, program) — offline tools like
  // imax_lint use this to sweep all code loaded into a running system.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [index, program] : programs_) {
      fn(index, *program);
    }
  }

 private:
  Machine* machine_;
  MemoryManager* memory_;
  std::map<ObjectIndex, ProgramRef> programs_;
  uint64_t version_ = 0;
  std::function<void(ObjectIndex)> replace_hook_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ISA_PROGRAM_STORE_H_
