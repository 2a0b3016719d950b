// ObjectTable: the single global object descriptor table.
//
// Every AD in the system names an entry here. The table hands out descriptor slots from a
// free list, stamps generations on reuse, and is the authority for resolving an AD to its
// descriptor (with null / liveness / generation checks).
//
// Beside the descriptors the table keeps two bitmaps, one bit per slot, so the collector's
// table scans can skip free slots: a live bitmap mirroring `ObjectDescriptor::allocated`,
// and the GC-exempt bitmap, the only record of which objects are demoted (SetGcExempt).

#ifndef IMAX432_SRC_ARCH_OBJECT_TABLE_H_
#define IMAX432_SRC_ARCH_OBJECT_TABLE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/arch/access_descriptor.h"
#include "src/arch/object_descriptor.h"
#include "src/arch/types.h"
#include "src/base/check.h"
#include "src/base/result.h"

namespace imax432 {

class ObjectTable {
 public:
  // `capacity` is the maximum number of simultaneously live objects.
  explicit ObjectTable(uint32_t capacity);

  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;

  // Claims a free descriptor slot and initializes it. Returns kObjectTableFull when no slot
  // is free. The caller (an SRO) has already placed the data part.
  Result<ObjectIndex> Allocate(SystemType type, Level level, PhysAddr data_base,
                               uint32_t data_length, uint32_t access_slots,
                               ObjectIndex origin_sro, uint32_t storage_claim);

  // Releases a descriptor slot. The slot's generation advances so outstanding ADs die.
  Status Free(ObjectIndex index);

  // Resolves an AD to its live descriptor. Faults: kNullAccess, kInvalidAccess (bad index,
  // unallocated slot, or generation mismatch).
  Result<ObjectDescriptor*> Resolve(const AccessDescriptor& ad) {
    if (ad.is_null()) {
      return Fault::kNullAccess;
    }
    if (ad.index() >= capacity()) {
      return Fault::kInvalidAccess;
    }
    ObjectDescriptor& slot = slots_[ad.index()];
    if (!slot.allocated || slot.generation != ad.generation()) {
      return Fault::kInvalidAccess;
    }
    return &slot;
  }
  Result<const ObjectDescriptor*> Resolve(const AccessDescriptor& ad) const {
    auto result = const_cast<ObjectTable*>(this)->Resolve(ad);
    if (!result.ok()) {
      return result.fault();
    }
    return static_cast<const ObjectDescriptor*>(result.value());
  }

  // Mints an AD for a live descriptor with the given rights. This is a privileged operation:
  // only object-creating services (SROs, type managers) and the GC's destruction-filter path
  // ("The garbage collector will manufacture an access descriptor for such objects") call it.
  Result<AccessDescriptor> MintAd(ObjectIndex index, RightsMask ad_rights) const;

  // Unchecked descriptor access by index for iteration (GC, diagnostics). Index must be
  // < capacity(); the slot may be unallocated.
  ObjectDescriptor& At(ObjectIndex index) {
    IMAX_CHECK(index < capacity());
    return slots_[index];
  }
  const ObjectDescriptor& At(ObjectIndex index) const {
    IMAX_CHECK(index < capacity());
    return slots_[index];
  }

  // The lowest allocated (respectively GC-exempt) slot in [from, end), or `end` when there
  // is none; `end` must be <= capacity(). Each call reads the bitmap afresh, so a scan may
  // allocate or free slots between calls and still sees the table as it is:
  //   for (i = NextAllocated(0, end); i < end; i = NextAllocated(i + 1, end)) ...
  // visits exactly the slots a plain index loop would find allocated when it reached them.
  ObjectIndex NextAllocated(ObjectIndex from, ObjectIndex end) const {
    return NextSet(live_, from, end);
  }
  ObjectIndex NextExempt(ObjectIndex from, ObjectIndex end) const {
    return NextSet(exempt_, from, end);
  }

  // GC exemption of a demoted object (lifetime analysis): the collector never whitens,
  // marks or sweeps it, and scans its access slots as roots. The kernel sets it right after
  // allocating from a demote SRO, together with color kBlack; the rule "exempt implies
  // black" holds from then on (the collector's whiten phase re-blackens exempt objects).
  // Allocate and Free clear the bit, so a reused slot never inherits it. The slot must be
  // allocated.
  void SetGcExempt(ObjectIndex index) {
    IMAX_CHECK(index < capacity() && slots_[index].allocated);
    SetBit(exempt_, index);
  }
  bool gc_exempt(ObjectIndex index) const {
    IMAX_CHECK(index < capacity());
    return (exempt_[index >> 6] >> (index & 63)) & 1;
  }

  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }
  uint32_t live_count() const { return live_count_; }
  uint32_t free_count() const { return capacity() - live_count_; }

  // Lifetime-rule helper: true when an AD for `referenced` may be stored into `container`
  // ("The hardware ensures that an access for an object may never be stored into an object
  // with a lower (more global) level number.")
  static bool StorePermitted(const ObjectDescriptor& container,
                             const ObjectDescriptor& referenced) {
    return container.level >= referenced.level;
  }

  // Checksum over the descriptor's identity fields (type, level, data_length, access slot
  // count, origin SRO). Mutable operational state (data_base, swap state, GC color,
  // generation) is deliberately excluded so the patrol scan never flags normal operation.
  static uint32_t DescriptorChecksum(const ObjectDescriptor& descriptor);

  // Recomputes and stores the identity checksum for a live slot. Allocate seals every new
  // descriptor; callers that legitimately mutate identity fields afterwards (e.g. the kernel
  // overriding a context's level) must re-seal.
  void Seal(ObjectIndex index);

 private:
  ObjectIndex NextSet(const std::vector<uint64_t>& bits, ObjectIndex from,
                      ObjectIndex end) const {
    IMAX_DCHECK(end <= capacity());
    if (from >= end) {
      return end;
    }
    size_t word = from >> 6;
    uint64_t pending = bits[word] & (~uint64_t{0} << (from & 63));
    const size_t last = (end - 1) >> 6;
    while (pending == 0) {
      if (++word > last) {
        return end;
      }
      pending = bits[word];
    }
    ObjectIndex found = static_cast<ObjectIndex>(word * 64 + std::countr_zero(pending));
    return found < end ? found : end;
  }

  static void SetBit(std::vector<uint64_t>& bits, ObjectIndex index) {
    bits[index >> 6] |= uint64_t{1} << (index & 63);
  }
  static void ClearBit(std::vector<uint64_t>& bits, ObjectIndex index) {
    bits[index >> 6] &= ~(uint64_t{1} << (index & 63));
  }

  std::vector<ObjectDescriptor> slots_;
  std::vector<ObjectIndex> free_list_;
  uint32_t live_count_ = 0;
  // One bit per slot, (capacity + 63) / 64 words each; bits past capacity stay clear.
  std::vector<uint64_t> live_;    // == allocated, written only by Allocate and Free
  std::vector<uint64_t> exempt_;  // GC-exempt; cleared by Allocate and Free
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_OBJECT_TABLE_H_
