#include "src/arch/object_table.h"

#include <algorithm>

#include "src/base/check.h"

namespace imax432 {

ObjectTable::ObjectTable(uint32_t capacity) {
  IMAX_CHECK(capacity > 0 && capacity < kInvalidObjectIndex);
  slots_.resize(capacity);
  words_.resize((capacity + 63) / 64);
  free_list_.reserve(capacity);
  // Hand out low indices first: push in reverse so pop_back yields ascending order.
  for (uint32_t i = capacity; i > 0; --i) {
    free_list_.push_back(i - 1);
  }
}

Result<ObjectIndex> ObjectTable::Allocate(SystemType type, Level level, PhysAddr data_base,
                                          uint32_t data_length, uint32_t access_slots,
                                          ObjectIndex origin_sro, uint32_t storage_claim) {
  if (data_length > kMaxDataPartBytes || access_slots > kMaxAccessPartSlots) {
    return Fault::kSegmentTooLarge;
  }
  if (free_list_.empty()) {
    return Fault::kObjectTableFull;
  }
  ObjectIndex index = free_list_.back();
  free_list_.pop_back();

  ObjectDescriptor& slot = slots_[index];
  IMAX_DCHECK(!slot.allocated);
  slot.allocated = true;
  BitmapWord& word = WordOf(index);
  word.live |= Bit(index);
  word.exempt &= ~Bit(index);
  word.gray &= ~Bit(index);
  word.black &= ~Bit(index);
  slot.type = type;
  slot.level = level;
  slot.data_base = data_base;
  slot.data_length = data_length;
  slot.access.assign(access_slots, AccessDescriptor());
  slot.type_def = kInvalidObjectIndex;
  slot.origin_sro = origin_sro;
  if (origin_sro < capacity()) {
    ++slots_[origin_sro].origin_count;
    WordOf(origin_sro).origin |= Bit(origin_sro);
  }
  slot.finalized = false;
  slot.swapped_out = false;
  slot.backing_slot = 0;
  slot.data_epoch = 0;
  slot.quarantined = false;
  slot.storage_claim = storage_claim;
  slot.checksum = DescriptorChecksum(slot);
  ++live_count_;
  return index;
}

Status ObjectTable::Free(ObjectIndex index) {
  if (index >= capacity()) {
    return Fault::kInvalidAccess;
  }
  ObjectDescriptor& slot = slots_[index];
  if (!slot.allocated) {
    return Fault::kNotAllocated;
  }
  slot.allocated = false;
  BitmapWord& word = WordOf(index);
  word.live &= ~Bit(index);
  word.exempt &= ~Bit(index);
  word.gray &= ~Bit(index);
  word.black &= ~Bit(index);
  if (slot.origin_sro < capacity()) {
    uint32_t& count = slots_[slot.origin_sro].origin_count;
    IMAX_DCHECK(count > 0);
    if (--count == 0) {
      WordOf(slot.origin_sro).origin &= ~Bit(slot.origin_sro);
    }
  }
  slot.access.clear();
  slot.access.shrink_to_fit();
  slot.quarantined = false;
  ++slot.generation;
  --live_count_;
  free_list_.push_back(index);
  return Status::Ok();
}

uint32_t ObjectTable::Whiten(ObjectIndex from, ObjectIndex end) {
  IMAX_CHECK(from <= end && end <= capacity());
  uint32_t held_black = 0;
  while (from < end) {
    const ObjectIndex word_base = from & ~ObjectIndex{63};
    const ObjectIndex stop = std::min(end, word_base + 64);
    // Bits [from, stop) of this word.
    uint64_t mask = ~uint64_t{0} << (from - word_base);
    if (stop - word_base < 64) {
      mask &= (uint64_t{1} << (stop - word_base)) - 1;
    }
    BitmapWord& word = WordOf(from);
    const uint64_t exempt = word.exempt & mask;
    held_black += static_cast<uint32_t>(std::popcount(exempt));
    word.gray &= ~mask;
    word.black = (word.black & ~mask) | exempt;
    from = stop;
  }
  return held_black;
}

bool ObjectTable::AnyWhiteOrigin() const {
  return std::any_of(words_.begin(), words_.end(),
                     [](const BitmapWord& word) { return (White(word) & word.origin) != 0; });
}

uint32_t ObjectTable::DescriptorChecksum(const ObjectDescriptor& descriptor) {
  // FNV-1a over the identity fields; cheap and stable across platforms.
  uint32_t hash = 2166136261u;
  auto mix = [&hash](uint32_t word) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (word >> shift) & 0xFFu;
      hash *= 16777619u;
    }
  };
  mix(static_cast<uint32_t>(descriptor.type));
  mix(static_cast<uint32_t>(descriptor.level));
  mix(descriptor.data_length);
  mix(descriptor.access_count());
  mix(descriptor.origin_sro);
  return hash;
}

void ObjectTable::Seal(ObjectIndex index) {
  IMAX_CHECK(index < capacity());
  ObjectDescriptor& slot = slots_[index];
  IMAX_CHECK(slot.allocated);
  slot.checksum = DescriptorChecksum(slot);
}

Result<AccessDescriptor> ObjectTable::MintAd(ObjectIndex index, RightsMask ad_rights) const {
  if (index >= capacity()) {
    return Fault::kInvalidAccess;
  }
  const ObjectDescriptor& slot = slots_[index];
  if (!slot.allocated) {
    return Fault::kNotAllocated;
  }
  return AccessDescriptor(index, slot.generation, ad_rights);
}

}  // namespace imax432
