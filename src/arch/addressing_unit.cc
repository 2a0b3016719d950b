#include "src/arch/addressing_unit.h"

#include "src/base/check.h"

namespace imax432 {

Result<ObjectDescriptor*> AddressingUnit::ResolveAndFill(const AccessDescriptor& ad) const {
  ++xlat_.stats().misses;
  Result<ObjectDescriptor*> resolved = table_->Resolve(ad);
  if (!resolved.ok()) {
    return resolved;
  }
  xlat_.Probe(ad.index()) = XlatEntry{ad.index(), ad.generation(), resolved.value()};
  return resolved;
}

Result<PhysAddr> AddressingUnit::CheckDataAccess(const AccessDescriptor& ad, uint32_t offset,
                                                 uint32_t length, RightsMask required) const {
  IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* object, CachedResolve(ad));
  if (object->quarantined) {
    return Fault::kObjectQuarantined;
  }
  if (!ad.HasRights(required)) {
    return Fault::kRightsViolation;
  }
  if (object->swapped_out) {
    last_swapped_object_ = ad.index();
    return Fault::kSegmentSwapped;
  }
  if (static_cast<uint64_t>(offset) + length > object->data_length) {
    return Fault::kBoundsViolation;
  }
  return static_cast<PhysAddr>(object->data_base + offset);
}

Result<uint64_t> AddressingUnit::ReadData(const AccessDescriptor& ad, uint32_t offset,
                                          uint32_t width) const {
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    return Fault::kInvalidArgument;
  }
  IMAX_ASSIGN_OR_RETURN(PhysAddr addr, CheckDataAccess(ad, offset, width, rights::kRead));
  return memory_->Read(addr, width);
}

Status AddressingUnit::WriteData(const AccessDescriptor& ad, uint32_t offset, uint32_t width,
                                 uint64_t value) {
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    return Fault::kInvalidArgument;
  }
  IMAX_ASSIGN_OR_RETURN(PhysAddr addr, CheckDataAccess(ad, offset, width, rights::kWrite));
  IMAX_RETURN_IF_FAULT(memory_->Write(addr, width, value));
  // Mutator writes advance the data epoch so the patrol scan can distinguish a legitimate
  // rewrite from silent corruption of the data part.
  ++table_->At(ad.index()).data_epoch;
  return Status::Ok();
}

Status AddressingUnit::ReadDataBlock(const AccessDescriptor& ad, uint32_t offset, void* out,
                                     uint32_t length) const {
  IMAX_ASSIGN_OR_RETURN(PhysAddr addr, CheckDataAccess(ad, offset, length, rights::kRead));
  return memory_->ReadBlock(addr, out, length);
}

Status AddressingUnit::WriteDataBlock(const AccessDescriptor& ad, uint32_t offset, const void* in,
                                      uint32_t length) {
  IMAX_ASSIGN_OR_RETURN(PhysAddr addr, CheckDataAccess(ad, offset, length, rights::kWrite));
  IMAX_RETURN_IF_FAULT(memory_->WriteBlock(addr, in, length));
  ++table_->At(ad.index()).data_epoch;
  return Status::Ok();
}

Result<AccessDescriptor> AddressingUnit::ReadAd(const AccessDescriptor& container,
                                                uint32_t slot) const {
  IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* object, CachedResolve(container));
  if (object->quarantined) {
    return Fault::kObjectQuarantined;
  }
  if (!container.HasRights(rights::kRead)) {
    return Fault::kRightsViolation;
  }
  if (slot >= object->access_count()) {
    return Fault::kBoundsViolation;
  }
  return object->access[slot];
}

Status AddressingUnit::WriteAd(const AccessDescriptor& container, uint32_t slot,
                               const AccessDescriptor& ad) {
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * object, CachedResolve(container));
  if (object->quarantined) {
    return Fault::kObjectQuarantined;
  }
  if (!container.HasRights(rights::kWrite)) {
    return Fault::kRightsViolation;
  }
  if (slot >= object->access_count()) {
    return Fault::kBoundsViolation;
  }
  if (ad.is_null()) {
    object->access[slot] = AccessDescriptor();
    return Status::Ok();
  }
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * referenced, CachedResolve(ad));
  // Lifetime storing rule: container.level must be >= referenced.level.
  if (!ObjectTable::StorePermitted(*object, *referenced)) {
    return Fault::kLevelViolation;
  }
  // Hardware gray bit: shade the target of the moved reference so the on-the-fly collector
  // never loses a reachable object to a concurrent pointer move.
  if (table_->Shade(ad.index())) {
    ++shade_count_;
  }
  object->access[slot] = ad;
  return Status::Ok();
}

Status AddressingUnit::WriteAdPrivileged(const AccessDescriptor& container, uint32_t slot,
                                         const AccessDescriptor& ad) {
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * object, CachedResolve(container));
  if (slot >= object->access_count()) {
    return Fault::kBoundsViolation;
  }
  if (!ad.is_null()) {
    IMAX_RETURN_IF_FAULT(CachedResolve(ad));
    if (table_->Shade(ad.index())) {
      ++shade_count_;
    }
  }
  object->access[slot] = ad;
  return Status::Ok();
}

Result<ObjectDescriptor*> AddressingUnit::ResolveTyped(const AccessDescriptor& ad,
                                                       SystemType type, RightsMask required) {
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * object, CachedResolve(ad));
  if (object->type != type) {
    return Fault::kTypeMismatch;
  }
  if (!ad.HasRights(required)) {
    return Fault::kRightsViolation;
  }
  return object;
}

Result<ObjectDescriptor*> AddressingUnit::ResolveChecked(const AccessDescriptor& ad,
                                                         RightsMask required) {
  IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * object, CachedResolve(ad));
  if (!ad.HasRights(required)) {
    return Fault::kRightsViolation;
  }
  return object;
}

}  // namespace imax432
