#include "src/memory/basic_memory_manager.h"

#include "src/base/check.h"
#include "src/base/log.h"

namespace imax432 {

namespace {

// Physical memory reserved below the heap for boot structures.
constexpr PhysAddr kBootReservedBytes = 256;

// Total architectural bytes claimed by an object: data part plus 4 bytes per AD slot.
uint32_t ClaimBytes(uint32_t data_bytes, uint32_t access_slots) {
  uint32_t claim = data_bytes + access_slots * kAdArchBytes;
  return claim == 0 ? 1 : claim;  // a segment is at least one byte
}

}  // namespace

BasicMemoryManager::BasicMemoryManager(Machine* machine) : machine_(machine) {
  // Boot the storage system: carve the global heap SRO out of raw memory. The SRO object's
  // own data part is placed in the boot-reserved area; the heap it manages is everything
  // above it.
  IMAX_CHECK(machine_->memory().size() > kBootReservedBytes);
  PhysAddr heap_base = kBootReservedBytes;
  uint32_t heap_length = machine_->memory().size() - kBootReservedBytes;

  auto index = machine_->table().Allocate(SystemType::kStorageResource, kGlobalLevel,
                                          /*data_base=*/0, SroLayout::kDataBytes,
                                          SroLayout::kAccessSlots,
                                          /*origin_sro=*/kInvalidObjectIndex,
                                          /*storage_claim=*/0);
  IMAX_CHECK(index.ok());
  auto sro = std::make_unique<Sro>(index.value(), kGlobalLevel, heap_base, heap_length,
                                   kInvalidObjectIndex);
  SyncSroCounters(*sro);
  sros_[index.value()] = std::move(sro);

  auto ad = machine_->table().MintAd(
      index.value(), rights::kRead | rights::kSroAllocate | rights::kSroDestroy);
  IMAX_CHECK(ad.ok());
  global_heap_ = ad.value();
  ++stats_.sros_created;
}

Result<Sro*> BasicMemoryManager::ResolveSro(const AccessDescriptor& sro_ad,
                                            RightsMask required) {
  IMAX_ASSIGN_OR_RETURN(
      ObjectDescriptor * descriptor,
      machine_->addressing().ResolveTyped(sro_ad, SystemType::kStorageResource, required));
  (void)descriptor;
  auto it = sros_.find(sro_ad.index());
  if (it == sros_.end()) {
    return Fault::kNotFound;
  }
  return it->second.get();
}

Result<PhysAddr> BasicMemoryManager::AllocateSpace(Sro* sro, uint32_t bytes) {
  return sro->AllocateRange(bytes);
}

Result<AccessDescriptor> BasicMemoryManager::CreateObject(const AccessDescriptor& sro_ad,
                                                          SystemType type, uint32_t data_bytes,
                                                          uint32_t access_slots,
                                                          RightsMask ad_rights) {
  if (data_bytes > kMaxDataPartBytes || access_slots > kMaxAccessPartSlots) {
    return Fault::kSegmentTooLarge;
  }
  IMAX_ASSIGN_OR_RETURN(Sro * sro, ResolveSro(sro_ad, rights::kSroAllocate));

  uint32_t claim = ClaimBytes(data_bytes, access_slots);
  IMAX_ASSIGN_OR_RETURN(PhysAddr base, AllocateSpace(sro, claim));

  auto index = machine_->table().Allocate(type, sro->level(), base, data_bytes, access_slots,
                                          sro->self(), claim);
  if (!index.ok()) {
    sro->FreeRange(base, claim);
    return index.fault();
  }
  // The create-object instruction delivers a zeroed segment.
  IMAX_CHECK(machine_->memory().Zero(base, data_bytes).ok());

  sro->RecordObject(machine_->table(), index.value());
  SyncSroCounters(*sro);
  ++stats_.objects_created;
  stats_.resident_bytes += data_bytes;
  machine_->latency().allocation.Record(cycles::CreateObjectCost(data_bytes, access_slots));
  machine_->trace().Emit(TraceEventKind::kAllocate, machine_->now(), kTraceNoProcessor,
                         kTraceNoProcess, index.value(), data_bytes, access_slots);
  return machine_->table().MintAd(index.value(), ad_rights);
}

Status BasicMemoryManager::DestroyObject(const AccessDescriptor& ad) {
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * descriptor,
                        machine_->addressing().ResolveChecked(ad, rights::kDelete));
  if (descriptor->type == SystemType::kStorageResource) {
    // SROs are destroyed via DestroySro so their contents are reclaimed too.
    return Fault::kInvalidArgument;
  }
  return DestroyByIndex(ad.index(), /*forget_in_origin=*/true);
}

Status BasicMemoryManager::DestroyByIndex(ObjectIndex index, bool forget_in_origin) {
  ObjectDescriptor& descriptor = machine_->table().At(index);
  IMAX_CHECK(descriptor.allocated);

  auto origin_it = sros_.find(descriptor.origin_sro);
  if (origin_it != sros_.end()) {
    Sro* origin = origin_it->second.get();
    if (!descriptor.swapped_out) {
      origin->FreeRange(descriptor.data_base, descriptor.storage_claim);
    }
    if (forget_in_origin) {
      origin->ForgetObject(machine_->table(), index);
    }
    SyncSroCounters(*origin);
  }
  if (descriptor.swapped_out) {
    ReleaseBackingCopy(descriptor);
  } else {
    stats_.resident_bytes -= descriptor.data_length;
  }
  ++stats_.objects_destroyed;
  machine_->trace().Emit(TraceEventKind::kDestroy, machine_->now(), kTraceNoProcessor,
                         kTraceNoProcess, index, descriptor.data_length);
  return machine_->table().Free(index);
}

Result<AccessDescriptor> BasicMemoryManager::CreateLocalSro(const AccessDescriptor& parent_sro,
                                                            uint32_t bytes, Level level) {
  IMAX_ASSIGN_OR_RETURN(Sro * parent, ResolveSro(parent_sro, rights::kSroAllocate));
  // A child SRO may never allocate longer-lived (more global) objects than its parent: that
  // would let storage escape the parent's reclamation.
  if (level < parent->level()) {
    return Fault::kInvalidArgument;
  }

  // Carve the child's managed region from the parent.
  IMAX_ASSIGN_OR_RETURN(PhysAddr region_base, AllocateSpace(parent, bytes));

  // The child SRO object itself is allocated from the parent as well.
  uint32_t claim = ClaimBytes(SroLayout::kDataBytes, SroLayout::kAccessSlots);
  auto self_base = AllocateSpace(parent, claim);
  if (!self_base.ok()) {
    parent->FreeRange(region_base, bytes);
    return self_base.fault();
  }
  auto index =
      machine_->table().Allocate(SystemType::kStorageResource, parent->level(), self_base.value(),
                                 SroLayout::kDataBytes, SroLayout::kAccessSlots, parent->self(),
                                 claim);
  if (!index.ok()) {
    parent->FreeRange(region_base, bytes);
    parent->FreeRange(self_base.value(), claim);
    return index.fault();
  }
  parent->RecordObject(machine_->table(), index.value());
  SyncSroCounters(*parent);

  auto sro = std::make_unique<Sro>(index.value(), level, region_base, bytes, parent->self());
  SyncSroCounters(*sro);
  sros_[index.value()] = std::move(sro);
  ++stats_.sros_created;

  auto parent_self_ad = machine_->table().MintAd(parent->self(), rights::kRead);
  if (parent_self_ad.ok()) {
    ObjectDescriptor& child = machine_->table().At(index.value());
    child.access[SroLayout::kSlotParent] = parent_self_ad.value();
  }
  return machine_->table().MintAd(
      index.value(), rights::kRead | rights::kSroAllocate | rights::kSroDestroy);
}

Result<uint32_t> BasicMemoryManager::DestroySroState(Sro* sro) {
  uint32_t reclaimed = 0;
  // Destroy everything the SRO allocated. Children SROs recurse first. TakeObjects avoids
  // iterator invalidation: nothing new can be allocated from a dying SRO.
  std::vector<ObjectIndex> objects = sro->TakeObjects();
  for (ObjectIndex index : objects) {
    ObjectDescriptor& descriptor = machine_->table().At(index);
    if (!descriptor.allocated) {
      continue;  // already reclaimed (e.g., by the GC or explicit destroy)
    }
    auto child_it = sros_.find(index);
    if (child_it != sros_.end()) {
      IMAX_ASSIGN_OR_RETURN(uint32_t child_count, DestroySroState(child_it->second.get()));
      reclaimed += child_count;
      // Return the child's managed region to this SRO, then destroy the child object itself.
      Sro* child = child_it->second.get();
      sro->FreeRange(child->region_base(), child->region_length());
      sros_.erase(child_it);
      ++stats_.sros_destroyed;
    }
    IMAX_RETURN_IF_FAULT(DestroyByIndex(index, /*forget_in_origin=*/false));
    ++reclaimed;
    ++stats_.bulk_reclaimed_objects;
  }
  SyncSroCounters(*sro);
  return reclaimed;
}

Result<uint32_t> BasicMemoryManager::DestroySro(const AccessDescriptor& sro_ad) {
  IMAX_ASSIGN_OR_RETURN(Sro * sro, ResolveSro(sro_ad, rights::kSroDestroy));
  if (sro->self() == global_heap_.index()) {
    return Fault::kInvalidArgument;  // the global heap is never destroyed
  }
  IMAX_ASSIGN_OR_RETURN(uint32_t reclaimed, DestroySroState(sro));

  // Return the managed region and the SRO object itself to the parent.
  ObjectIndex self = sro->self();
  auto parent_it = sros_.find(sro->parent());
  if (parent_it != sros_.end()) {
    parent_it->second->FreeRange(sro->region_base(), sro->region_length());
  }
  sros_.erase(self);
  ++stats_.sros_destroyed;
  IMAX_RETURN_IF_FAULT(DestroyByIndex(self, /*forget_in_origin=*/true));
  return reclaimed;
}

Result<Cycles> BasicMemoryManager::EnsureResident(ObjectIndex index) {
  const ObjectDescriptor& descriptor = machine_->table().At(index);
  if (!descriptor.allocated) {
    return Fault::kNotAllocated;
  }
  if (descriptor.swapped_out) {
    // Impossible under the non-swapping implementation.
    return Fault::kWrongState;
  }
  return Cycles{0};
}

Status BasicMemoryManager::ReclaimGarbage(ObjectIndex index) {
  const ObjectDescriptor& descriptor = machine_->table().At(index);
  if (!descriptor.allocated) {
    return Fault::kNotAllocated;
  }
  if (sros_.count(index) != 0) {
    // A garbage SRO reclaims its whole subtree.
    auto it = sros_.find(index);
    IMAX_ASSIGN_OR_RETURN(uint32_t reclaimed, DestroySroState(it->second.get()));
    (void)reclaimed;
    auto parent_it = sros_.find(it->second->parent());
    if (parent_it != sros_.end()) {
      parent_it->second->FreeRange(it->second->region_base(), it->second->region_length());
    }
    sros_.erase(it);
    ++stats_.sros_destroyed;
  }
  return DestroyByIndex(index, /*forget_in_origin=*/true);
}

void BasicMemoryManager::SyncSroCounters(const Sro& sro) {
  ObjectDescriptor& descriptor = machine_->table().At(sro.self());
  if (!descriptor.allocated || descriptor.swapped_out) {
    return;
  }
  PhysAddr base = descriptor.data_base;
  PhysicalMemory& memory = machine_->memory();
  IMAX_CHECK(memory.Write(base + SroLayout::kOffTotalBytes, 4, sro.region_length()).ok());
  IMAX_CHECK(memory.Write(base + SroLayout::kOffAllocatedBytes, 4, sro.allocated_bytes()).ok());
  IMAX_CHECK(
      memory.Write(base + SroLayout::kOffObjectCount, 4, sro.objects().size()).ok());
  IMAX_CHECK(memory.Write(base + SroLayout::kOffLevel, 2, sro.level()).ok());
}

}  // namespace imax432
