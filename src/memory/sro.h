// Sro: per-storage-resource-object allocation state.
//
// "For memory management, the hardware defines a storage resource object (SRO) which
// describes free areas of memory and provides the information necessary to allocate both
// physical and logical address space." Each SRO allocates objects at one fixed level number;
// the global heap SRO allocates at level 0, local heaps at the depth of their creating
// activation.
//
// The free-extent list is kept as C++ state owned by the memory manager (keyed by the SRO's
// object index); the architectural counters (size, allocated bytes, object count, level) are
// mirrored into the SRO object's data part so programs running on the machine can inspect
// them, as they could on the real hardware.

#ifndef IMAX432_SRC_MEMORY_SRO_H_
#define IMAX432_SRC_MEMORY_SRO_H_

#include <cstdint>
#include <vector>

#include "src/arch/object_table.h"
#include "src/arch/types.h"
#include "src/base/check.h"
#include "src/base/result.h"

namespace imax432 {

// Architectural layout of an SRO object's data part (offsets in bytes).
struct SroLayout {
  static constexpr uint32_t kOffTotalBytes = 0;      // u32: size of the managed region
  static constexpr uint32_t kOffAllocatedBytes = 4;  // u32: bytes currently claimed
  static constexpr uint32_t kOffObjectCount = 8;     // u32: live objects allocated here
  static constexpr uint32_t kOffLevel = 12;          // u16: allocation level number
  static constexpr uint32_t kDataBytes = 16;
  static constexpr uint32_t kAccessSlots = 1;        // slot 0: parent SRO
  static constexpr uint32_t kSlotParent = 0;
};

class Sro {
 public:
  // Manages [base, base + length) and allocates objects at `level`.
  Sro(ObjectIndex self, Level level, PhysAddr base, uint32_t length, ObjectIndex parent)
      : self_(self), level_(level), parent_(parent), region_base_(base), region_length_(length) {
    if (length > 0) {
      extents_.push_back(Extent{base, length});
    }
  }

  Sro(const Sro&) = delete;
  Sro& operator=(const Sro&) = delete;

  // First-fit allocation of `bytes` of physical space. Faults with kStorageExhausted when no
  // extent is large enough (external fragmentation counts as exhaustion, as on the 432, whose
  // answer to fragmentation was compaction by the memory managers — modelled by the swapping
  // implementation's eviction path).
  Result<PhysAddr> AllocateRange(uint32_t bytes);

  // Returns a range to the free list, coalescing with neighbours.
  void FreeRange(PhysAddr base, uint32_t bytes);

  // Object bookkeeping: the manager records every object allocated from this SRO so that
  // destroying the SRO can reclaim them in bulk ("objects may be destroyed whenever their
  // ancestral SRO is destroyed, without leaving dangling references"). `index` is a slot of
  // `table`, recorded in at most one SRO until it is forgotten or taken. Forgetting moves
  // the last object into the forgotten one's place (the swapping manager's eviction scan
  // walks the list in that order), and each object's place is kept in its descriptor
  // (ObjectDescriptor::sro_position), so it takes no search. Forgetting an object this SRO
  // does not hold is a no-op.
  void RecordObject(ObjectTable& table, ObjectIndex index) {
    IMAX_DCHECK(!Holds(table, index));
    table.At(index).sro_position = static_cast<uint32_t>(objects_.size());
    objects_.push_back(index);
  }
  void ForgetObject(ObjectTable& table, ObjectIndex index) {
    if (!Holds(table, index)) {
      return;
    }
    const ObjectIndex last = objects_.back();
    const uint32_t position = table.At(index).sro_position;
    objects_[position] = last;
    table.At(last).sro_position = position;
    objects_.pop_back();
  }

  const std::vector<ObjectIndex>& objects() const { return objects_; }
  std::vector<ObjectIndex> TakeObjects() { return std::move(objects_); }

  ObjectIndex self() const { return self_; }
  Level level() const { return level_; }
  ObjectIndex parent() const { return parent_; }
  PhysAddr region_base() const { return region_base_; }
  uint32_t region_length() const { return region_length_; }

  uint32_t allocated_bytes() const { return allocated_bytes_; }
  uint32_t free_bytes() const { return region_length_ - allocated_bytes_; }
  // Size of the largest free extent (what a single allocation could get).
  uint32_t largest_free_extent() const;
  size_t extent_count() const { return extents_.size(); }

 private:
  struct Extent {
    PhysAddr base;
    uint32_t length;
  };

  // True when `index` is on this SRO's object list. Its recorded place is kept current
  // while it is on the list, and a place left stale by a forget or a take cannot hold it,
  // since it is then nowhere on the list.
  bool Holds(const ObjectTable& table, ObjectIndex index) const {
    const uint32_t position = table.At(index).sro_position;
    return position < objects_.size() && objects_[position] == index;
  }

  ObjectIndex self_;
  Level level_;
  ObjectIndex parent_;
  PhysAddr region_base_;
  uint32_t region_length_;
  uint32_t allocated_bytes_ = 0;
  std::vector<Extent> extents_;  // sorted by base, non-adjacent
  std::vector<ObjectIndex> objects_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_MEMORY_SRO_H_
