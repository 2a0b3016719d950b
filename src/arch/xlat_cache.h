// The AD-translation cache.
//
// Every checked access through the AddressingUnit funnels through ObjectTable::Resolve — a
// capacity check plus allocated/generation validation per access. The running process's own
// context, process and processor objects bypass it (each GDP's step frame keeps their
// descriptors pinned while the process stays bound; see Kernel::StepFrame and ObjectView in
// proc/layouts.h), and the frame is also where the program is cached, so what reaches this
// cache per instruction is the operand objects the instruction touches. Each 432 processor
// kept the hot descriptors in an on-chip cache that every access went through; this class
// is that structure for the emulator, one direct-mapped array of descriptor pointers owned
// by the AddressingUnit and probed by every access from every processor and from host code.
// A miss falls back to ObjectTable::Resolve.
//
// Every entry is epoch-keyed. A hit still revalidates the descriptor's `allocated` bit and
// generation against the presented AD (exactly the checks ObjectTable::Resolve performs), so
// a freed or reallocated slot can never serve stale; what the hit skips is the call, the
// capacity test, and the Result plumbing. No kernel event needs to clear the cache: every
// change to what an AD translates to fails one of these compares, which is also why one
// cache can serve every processor: an entry another processor filled is revalidated like
// any other.
//
// Downstream checks are NOT cached: rights, bounds, quarantine, and swap state are examined
// per access by the AddressingUnit on the descriptor a hit returns, and `data_base` is
// re-read on every data access (so swap-in relocation needs no invalidation). The cache
// holds host-side state only and charges no cycles, so virtual time is what the
// authoritative Resolve alone would give.

#ifndef IMAX432_SRC_ARCH_XLAT_CACHE_H_
#define IMAX432_SRC_ARCH_XLAT_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/arch/types.h"

namespace imax432 {

struct ObjectDescriptor;

struct XlatEntry {
  ObjectIndex index = kInvalidObjectIndex;
  uint32_t generation = 0;
  // Descriptor slot pointer. Stable for the table's lifetime (slots are never reallocated);
  // liveness is revalidated per hit.
  ObjectDescriptor* descriptor = nullptr;
};

struct XlatCacheStats {
  uint64_t hits = 0;    // probes served by a cached descriptor
  uint64_t misses = 0;  // probes that fell back to the authoritative Resolve
  // Always 0: the cache holds no programs (the step frame does; KernelStats counts its
  // fetches). Kept only because the end-to-end benchmark's harness still adds them in.
  uint64_t program_hits = 0;
  uint64_t program_misses = 0;
};

class XlatCache {
 public:
  static constexpr uint32_t kEntries = 256;  // direct-mapped, power of two

  XlatEntry& Probe(ObjectIndex index) { return (*entries_)[index & (kEntries - 1)]; }

  XlatCacheStats& stats() { return stats_; }

 private:
  // Held out of line (10 KB) so the AddressingUnit, and the Machine and System that embed
  // it, stay small.
  std::unique_ptr<std::array<XlatEntry, kEntries>> entries_ =
      std::make_unique<std::array<XlatEntry, kEntries>>();
  XlatCacheStats stats_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_XLAT_CACHE_H_
