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
    return ad;
  }

  // Looks up the program behind an instruction-segment AD: the one lookup, with the checks
  // a fetch makes (the AD resolves, the object is an instruction segment, the store holds
  // its content). The pointer stays valid until Replace or Forget drops the program. Kept
  // out of line: a GDP's step frame calls it only when it fetches again, and inlined into
  // Kernel::StepInstruction it cost 1-2.6% of perfbench's host time per instruction
  // (interp_alloc and request_reply, 4-core x86-64 container host).
  __attribute__((noinline)) Result<const Program*> Fetch(const AccessDescriptor& ad) const {
    IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* descriptor,
                          machine_->table().Resolve(ad));
    if (descriptor->type != SystemType::kInstructionSegment) {
      return Fault::kTypeMismatch;
    }
    auto it = programs_.find(ad.index());
    if (it == programs_.end()) {
      return Fault::kNotFound;
    }
    return it->second.get();
  }

  // Replaces the program behind a live instruction segment in place (hot-patching a loaded
  // program without changing its architectural identity). Staleness contract: bumps the
  // segment descriptor's data_epoch, the one key a GDP's step frame fetches again on, and
  // rewrites the instruction-count metadata. Without the bump a frame that already fetched
  // the segment would keep running the old code. Register needs no key (it fills a newly
  // allocated slot, so the generation differs), nor does Forget (it runs after the
  // descriptor is freed).
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
  void Forget(ObjectIndex index) { programs_.erase(index); }

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
  std::function<void(ObjectIndex)> replace_hook_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ISA_PROGRAM_STORE_H_
