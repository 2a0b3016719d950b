#include "src/arch/object_table.h"

#include "src/base/check.h"

namespace imax432 {

ObjectTable::ObjectTable(uint32_t capacity) {
  IMAX_CHECK(capacity > 0 && capacity < kInvalidObjectIndex);
  slots_.resize(capacity);
  live_.assign((capacity + 63) / 64, 0);
  exempt_.assign((capacity + 63) / 64, 0);
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
  SetBit(live_, index);
  ClearBit(exempt_, index);
  slot.type = type;
  slot.level = level;
  slot.data_base = data_base;
  slot.data_length = data_length;
  slot.access.assign(access_slots, AccessDescriptor());
  slot.type_def = kInvalidObjectIndex;
  slot.origin_sro = origin_sro;
  slot.color = GcColor::kWhite;
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
  ClearBit(live_, index);
  ClearBit(exempt_, index);
  slot.access.clear();
  slot.access.shrink_to_fit();
  slot.quarantined = false;
  ++slot.generation;
  --live_count_;
  free_list_.push_back(index);
  return Status::Ok();
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
