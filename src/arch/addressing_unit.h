// AddressingUnit: every segment-relative access in the system funnels through here.
//
// This is the emulator's stand-in for the 432's on-chip address translation and protection
// machinery. It enforces, on every operation:
//   - AD validity (null / stale generation),
//   - rights (read/write on the data part, write on access slots),
//   - part bounds (data offsets, access slot indices),
//   - the lifetime storing rule ("an access for an object may never be stored into an object
//     with a lower (more global) level number"),
//   - residency (swapped-out segments fault with kSegmentSwapped for the memory manager),
// and performs, on every AD store, the Dijkstra-collector cooperation the paper attributes to
// hardware: "the 432 hardware implements the gray bit of that algorithm, setting it whenever
// access descriptors are moved."

#ifndef IMAX432_SRC_ARCH_ADDRESSING_UNIT_H_
#define IMAX432_SRC_ARCH_ADDRESSING_UNIT_H_

#include <cstdint>

#include "src/arch/access_descriptor.h"
#include "src/arch/object_table.h"
#include "src/arch/physical_memory.h"
#include "src/arch/types.h"
#include "src/arch/xlat_cache.h"
#include "src/base/result.h"

namespace imax432 {

class AddressingUnit {
 public:
  AddressingUnit(ObjectTable* table, PhysicalMemory* memory) : table_(table), memory_(memory) {}

  // --- Data part access (scalar, little-endian; width in {1, 2, 4, 8}) ---
  Result<uint64_t> ReadData(const AccessDescriptor& ad, uint32_t offset, uint32_t width) const;
  Status WriteData(const AccessDescriptor& ad, uint32_t offset, uint32_t width, uint64_t value);

  // Bulk variants used by object filing and device DMA models; same checks as the scalar
  // forms, one rights evaluation for the whole transfer.
  Status ReadDataBlock(const AccessDescriptor& ad, uint32_t offset, void* out,
                       uint32_t length) const;
  Status WriteDataBlock(const AccessDescriptor& ad, uint32_t offset, const void* in,
                        uint32_t length);

  // --- Access part access ---
  // Reading an AD slot requires read rights on the container.
  Result<AccessDescriptor> ReadAd(const AccessDescriptor& container, uint32_t slot) const;
  // Storing an AD requires write rights on the container, performs the level check against
  // the *referenced* object, and shades the referenced object gray (mutator cooperation with
  // the on-the-fly collector). Storing a null AD always succeeds (it clears the slot).
  Status WriteAd(const AccessDescriptor& container, uint32_t slot, const AccessDescriptor& ad);

  // Privileged AD store: bounds-checked and gray-shading, but exempt from rights and level
  // checks. This models two things the 432 microcode did outside the mutator store path:
  // maintaining system-object linkage (a process object referencing its deeper-level current
  // context), and the per-processor register file (our AD registers live in context objects,
  // but architecturally they are registers, which the level rule does not govern — only
  // stores into *memory* are checked). Kernel-internal use only.
  Status WriteAdPrivileged(const AccessDescriptor& container, uint32_t slot,
                           const AccessDescriptor& ad);

  // --- Typed resolution helpers used by the high-level instructions ---
  // Resolves and checks the object's system type and that the AD carries `required` rights.
  Result<ObjectDescriptor*> ResolveTyped(const AccessDescriptor& ad, SystemType type,
                                         RightsMask required);
  // Resolve with rights check only.
  Result<ObjectDescriptor*> ResolveChecked(const AccessDescriptor& ad, RightsMask required);

  ObjectTable& table() { return *table_; }
  const ObjectTable& table() const { return *table_; }
  PhysicalMemory& memory() { return *memory_; }

  // Count of AD stores that shaded a white object gray (diagnostics for GC experiments).
  uint64_t shade_count() const { return shade_count_; }

  // The object whose non-residency caused the most recent kSegmentSwapped fault (the 432's
  // fault-information area; the memory manager reads it to service the fault).
  ObjectIndex last_swapped_object() const { return last_swapped_object_; }

  // The AD-translation cache (src/arch/xlat_cache.h) every Resolve in this unit goes
  // through: a hit replicates Resolve's allocated/generation checks on the cached descriptor
  // pointer. Rights, bounds, quarantine, swap state, and data_base stay per-access on the
  // resolved descriptor, so fault semantics are those of the authoritative Resolve.
  XlatCache& xlat() { return xlat_; }

 private:
  // The data-part checks, in the order that picks the fault (translation, quarantine,
  // rights, residency, bounds); returns the physical address of (ad.data_base + offset).
  // Every data access, scalar or block, takes this one path. GCC inlines it with or without
  // always_inline, but forced inline early it leaves ReadData and WriteData about a fifth
  // smaller at -O3 (GCC 12).
  __attribute__((always_inline)) inline Result<PhysAddr> CheckDataAccess(
      const AccessDescriptor& ad, uint32_t offset, uint32_t length, RightsMask required) const;

  // ObjectTable::Resolve through the translation cache. Hot: inline.
  Result<ObjectDescriptor*> CachedResolve(const AccessDescriptor& ad) const {
    XlatEntry& entry = xlat_.Probe(ad.index());
    if (entry.descriptor != nullptr && entry.index == ad.index() &&
        entry.generation == ad.generation() && entry.descriptor->allocated &&
        entry.descriptor->generation == ad.generation()) {
      ++xlat_.stats().hits;
      return entry.descriptor;
    }
    return ResolveAndFill(ad);
  }

  // Slow path: authoritative Resolve, then (on success) fill the probed entry. Fault
  // outcomes are never cached.
  Result<ObjectDescriptor*> ResolveAndFill(const AccessDescriptor& ad) const;

  ObjectTable* table_;
  PhysicalMemory* memory_;
  uint64_t shade_count_ = 0;
  mutable ObjectIndex last_swapped_object_ = kInvalidObjectIndex;
  mutable XlatCache xlat_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_ADDRESSING_UNIT_H_
