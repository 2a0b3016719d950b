// ObjectDescriptor: one entry of the global object descriptor table.
//
// "The one object descriptor for a given segment provides the physical base address and
// length of the segment, indicates whether the segment contains data or accesses, indicates
// what type of object it represents, and includes information needed for virtual memory
// management and parallel garbage collection."
//
// In this emulator an object always has both parts; either may be empty. The data part lives
// in PhysicalMemory at [data_base, data_base + data_length). The access part is held as typed
// AD slots directly in the descriptor: the hardware's enforced partition between data and
// access segments means data instructions can never forge or inspect raw AD bits, which the
// emulator guarantees structurally by never serializing ADs into byte memory.

#ifndef IMAX432_SRC_ARCH_OBJECT_DESCRIPTOR_H_
#define IMAX432_SRC_ARCH_OBJECT_DESCRIPTOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/arch/access_descriptor.h"
#include "src/arch/types.h"

namespace imax432 {

// The four fields a descriptor is live and readable by: allocated at the generation an AD
// names, not quarantined, resident. They come first, and fill exactly one 8-byte word, so a
// pinned view (src/proc/layouts.h) checks all four with one load and one compare against
// the word a live, clean object has at its generation (LiveWord). The word is read from
// this trivially copyable base, never from ObjectDescriptor itself, which holds a vector.
struct DescriptorLiveness {
  // Incremented every time this table entry is freed; ADs minted against older generations
  // fault with kInvalidAccess on use.
  uint32_t generation = 0;
  bool allocated = false;
  // A quarantined object has had its representation rights revoked (the integrity state
  // below).
  bool quarantined = false;
  // Virtual memory state (swapping memory manager only). While swapped_out, the data part
  // contents live in the backing store at backing_slot and any data access faults with
  // kSegmentSwapped.
  bool swapped_out = false;
  // Always 0, so the word compares whole, with no mask.
  uint8_t spare = 0;

  // The whole word, in one 8-byte load.
  uint64_t Word() const { return std::bit_cast<uint64_t>(*this); }
  // The word of a live, clean (not quarantined, resident) object at `generation`.
  static constexpr uint64_t LiveWord(uint32_t generation) {
    DescriptorLiveness live;
    live.generation = generation;
    live.allocated = true;
    return std::bit_cast<uint64_t>(live);
  }
};

static_assert(std::is_trivially_copyable_v<DescriptorLiveness>);
static_assert(sizeof(DescriptorLiveness) == sizeof(uint64_t) &&
              offsetof(DescriptorLiveness, spare) == sizeof(uint64_t) - 1);

struct ObjectDescriptor : DescriptorLiveness {
  SystemType type = SystemType::kGeneric;

  // Lifetime level: 0 = global. The storing rule (no AD to this object may be stored into an
  // object of a lower level) is enforced by AddressingUnit::WriteAd.
  Level level = kGlobalLevel;

  // Data part: physical placement. data_length == 0 for access-only objects.
  PhysAddr data_base = 0;
  uint32_t data_length = 0;

  // Where this object sits in its origin SRO's object list (Sro::objects), kept by Sro so
  // that forgetting the object needs no search. Stale once the object leaves the list.
  uint32_t sro_position = 0;

  // Access part: typed AD slots (see file comment). access.size() <= kMaxAccessPartSlots.
  std::vector<AccessDescriptor> access;

  // User type: the TDO that minted this object, or kInvalidObjectIndex for plain objects of
  // a hardware type. "via the user type definition facilities of the 432 such a guarantee
  // [type identity] is available to any user defined object type".
  ObjectIndex type_def = kInvalidObjectIndex;

  // SRO this object was allocated from, so that destroying a local SRO can bulk-reclaim all
  // objects it created, and so freed storage returns to the right free list.
  ObjectIndex origin_sro = kInvalidObjectIndex;

  // How many allocated objects name this slot as their origin_sro. ObjectTable's Allocate
  // and Free keep it, by index: a freed slot goes on counting objects that still name it,
  // and reallocating the slot does not reset it. The table's origin bitmap mirrors
  // origin_count > 0 for the collector's origin-liveness rule.
  uint32_t origin_count = 0;

  // The GC color and GC exemption live in the table's bitmaps: ObjectTable::color and
  // ObjectTable::SetGcExempt.

  // Set once the destruction filter has seen this object; a finalized object that becomes
  // garbage again is reclaimed silently (the type manager had its chance to disassemble it).
  bool finalized = false;

  // Backing-store slot of a swapped_out data part.
  uint32_t backing_slot = 0;

  // Integrity state maintained for the object-table patrol scan. `checksum` seals the
  // descriptor's identity fields (type, level, data_length, access slot count, origin SRO)
  // at allocation — ObjectTable::Seal recomputes it after any legitimate identity mutation.
  // `data_epoch` counts mutator writes to the data part (bumped by the AddressingUnit), so
  // the patrol can tell a legitimate rewrite from silent bit rot. A quarantined object has
  // had its representation rights revoked: every checked data or access-part operation
  // faults with kObjectQuarantined instead of exposing corrupt state.
  uint32_t checksum = 0;
  uint32_t data_epoch = 0;

  // Total architectural bytes charged to the origin SRO for this object (data part plus
  // kAdArchBytes per access slot), remembered so reclamation returns exactly what was taken.
  uint32_t storage_claim = 0;

  uint32_t access_count() const { return static_cast<uint32_t>(access.size()); }
};

// The liveness word stays whole and first whatever a later change does to the other fields.
// (ObjectDescriptor is not standard-layout, so offsetof on it is only conditionally
// supported; GCC and Clang support it.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
static_assert(offsetof(ObjectDescriptor, generation) == 0, "liveness word must come first");
#pragma GCC diagnostic pop
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(ObjectDescriptor) == 80, "the descriptor table's footprint moved");
#endif

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_OBJECT_DESCRIPTOR_H_
