// ObjectTable: the single global object descriptor table.
//
// Every AD in the system names an entry here. The table hands out descriptor slots from a
// free list, stamps generations on reuse, and is the authority for resolving an AD to its
// descriptor (with null / liveness / generation checks).
//
// Beside the descriptors the table keeps bitmaps, one bit per slot, so the collector finds
// the slots it needs without reading every descriptor: a live bitmap mirroring
// `ObjectDescriptor::allocated`; the GC-exempt bitmap, the only record of which objects are
// demoted (SetGcExempt); the GC color as a gray and a black bitmap (white is allocated and
// in neither); and an origin bitmap, set while some allocated object names the slot as its
// origin SRO (`ObjectDescriptor::origin_count` > 0). A walk that visits many slots reads
// them a 64-slot word at a time: the sweep through NextSweepCandidate, the collector's
// termination rescan through gray_bits and black_bits. The mark tests a referent's white
// bit (IsWhite) before it resolves the AD, so only white referents cost a descriptor read.

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

// Tri-color marking state for the Dijkstra et al. on-the-fly collector, kept in the table's
// gray and black bitmaps (ObjectTable::color). The "gray bit" the 432 hardware sets whenever
// access descriptors are moved is the kWhite -> kGray transition the addressing unit makes
// on every AD store (ObjectTable::Shade).
enum class GcColor : uint8_t {
  kWhite = 0,  // not yet reached this cycle; candidate garbage at sweep
  kGray,       // reached but children not yet scanned
  kBlack,      // reached and fully scanned
};

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
  // NextSweepCandidate keeps the same contract.
  ObjectIndex NextAllocated(ObjectIndex from, ObjectIndex end) const {
    return NextWhere(from, end, [](const BitmapWord& word) { return word.live; });
  }
  ObjectIndex NextExempt(ObjectIndex from, ObjectIndex end) const {
    return NextWhere(from, end, [](const BitmapWord& word) { return word.exempt; });
  }
  // The slots a sweep may reclaim: allocated, white and not GC-exempt.
  ObjectIndex NextSweepCandidate(ObjectIndex from, ObjectIndex end) const {
    return NextWhere(from, end,
                     [](const BitmapWord& word) { return White(word) & ~word.exempt; });
  }

  // GC exemption of a demoted object (lifetime analysis): the collector never whitens,
  // marks or sweeps it, and scans its access slots as roots. The kernel sets it right after
  // allocating from a demote SRO. The slot turns black with it, and "exempt implies black"
  // holds from then on (the collector's whiten phase re-blackens exempt objects). Allocate
  // and Free clear the bit, so a reused slot never inherits it. The slot must be allocated.
  void SetGcExempt(ObjectIndex index) {
    IMAX_CHECK(index < capacity() && slots_[index].allocated);
    WordOf(index).exempt |= Bit(index);
    Blacken(index);
  }
  bool gc_exempt(ObjectIndex index) const {
    IMAX_CHECK(index < capacity());
    return (WordOf(index).exempt & Bit(index)) != 0;
  }

  // --- GC color (src/gc/collector.h) ---
  // Only allocated slots are gray or black; a free slot reads white, and Allocate and Free
  // leave a slot white. Colors change only through these calls.
  GcColor color(ObjectIndex index) const {
    IMAX_CHECK(index < capacity());
    const BitmapWord& word = WordOf(index);
    if (word.gray & Bit(index)) {
      return GcColor::kGray;
    }
    return (word.black & Bit(index)) ? GcColor::kBlack : GcColor::kWhite;
  }
  // True when `index` is an allocated white slot, the only kind Shade acts on. Any index
  // is accepted: kInvalidObjectIndex and others past the table read false. It is one
  // bitmap load, so a caller that would resolve an AD only to shade it tests this first.
  bool IsWhite(ObjectIndex index) const {
    const size_t word = index >> 6;
    return word < words_.size() && (White(words_[word]) & Bit(index)) != 0;
  }
  // The color bitmaps a word at a time, for walks that visit many slots: bit b of word w
  // is slot 64w + b, and bits past capacity are clear. The collector's termination rescan
  // reads them.
  size_t bitmap_words() const { return words_.size(); }
  uint64_t gray_bits(size_t word) const {
    IMAX_DCHECK(word < words_.size());
    return words_[word].gray;
  }
  uint64_t black_bits(size_t word) const {
    IMAX_DCHECK(word < words_.size());
    return words_[word].black;
  }
  // The gray bit: an allocated white slot turns gray, and the call returns true. Any other
  // slot, free ones included, is left as it is.
  bool Shade(ObjectIndex index) {
    IMAX_CHECK(index < capacity());
    BitmapWord& word = WordOf(index);
    if ((White(word) & Bit(index)) == 0) {
      return false;
    }
    word.gray |= Bit(index);
    return true;
  }
  // An allocated slot of any color turns black: its access part has been scanned.
  void Blacken(ObjectIndex index) {
    IMAX_CHECK(index < capacity());
    BitmapWord& word = WordOf(index);
    IMAX_DCHECK(word.live & Bit(index));
    word.gray &= ~Bit(index);
    word.black |= Bit(index);
  }
  // The collector's whiten phase over [from, end), a bitmap word at a time: every allocated
  // slot turns white except the GC-exempt ones, which turn black. Returns how many exempt
  // slots it held black.
  uint32_t Whiten(ObjectIndex from, ObjectIndex end);
  // True when some allocated white slot is the origin SRO of an allocated object. Only then
  // can the collector's origin-liveness rule shade anything.
  bool AnyWhiteOrigin() const;

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
  // count, origin SRO). Mutable operational state (data_base, swap state, origin count,
  // generation) is deliberately excluded so the patrol scan never flags normal operation.
  static uint32_t DescriptorChecksum(const ObjectDescriptor& descriptor);

  // Recomputes and stores the identity checksum for a live slot. Allocate seals every new
  // descriptor; callers that legitimately mutate identity fields afterwards (e.g. the kernel
  // overriding a context's level) must re-seal.
  void Seal(ObjectIndex index);

 private:
  // Word w of each bitmap: bits for slots [64w, 64w + 64). Bits past capacity stay clear.
  struct BitmapWord {
    uint64_t live = 0;    // == allocated, written only by Allocate and Free
    uint64_t exempt = 0;  // GC-exempt; cleared by Allocate and Free
    uint64_t gray = 0;    // GC color, on allocated slots only: never both gray and
    uint64_t black = 0;   // black; Allocate and Free clear both
    uint64_t origin = 0;  // origin_count > 0
  };

  static uint64_t White(const BitmapWord& word) { return word.live & ~(word.gray | word.black); }
  static uint64_t Bit(ObjectIndex index) { return uint64_t{1} << (index & 63); }
  BitmapWord& WordOf(ObjectIndex index) { return words_[index >> 6]; }
  const BitmapWord& WordOf(ObjectIndex index) const { return words_[index >> 6]; }

  // The lowest slot in [from, end) whose bit is set in bits(word), or `end`.
  template <typename WordBits>
  ObjectIndex NextWhere(ObjectIndex from, ObjectIndex end, WordBits bits) const {
    IMAX_DCHECK(end <= capacity());
    if (from >= end) {
      return end;
    }
    size_t word = from >> 6;
    uint64_t pending = bits(words_[word]) & (~uint64_t{0} << (from & 63));
    const size_t last = (end - 1) >> 6;
    while (pending == 0) {
      if (++word > last) {
        return end;
      }
      pending = bits(words_[word]);
    }
    ObjectIndex found = static_cast<ObjectIndex>(word * 64 + std::countr_zero(pending));
    return found < end ? found : end;
  }

  std::vector<ObjectDescriptor> slots_;
  std::vector<ObjectIndex> free_list_;
  uint32_t live_count_ = 0;
  std::vector<BitmapWord> words_;  // (capacity + 63) / 64 words
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_OBJECT_TABLE_H_
