#include "src/arch/addressing_unit.h"

#include <cstring>

#include "src/base/check.h"

namespace imax432 {

namespace {

// Width-dispatched little-endian scalar access for the fused fast path: each case compiles
// to a single fixed-size move instead of a variable-length memcpy call.
inline uint64_t LoadScalar(const uint8_t* p, uint32_t width) {
  switch (width) {
    case 1:
      return *p;
    case 2: {
      uint16_t v;
      std::memcpy(&v, p, 2);
      return v;
    }
    case 4: {
      uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    default: {
      uint64_t v;
      std::memcpy(&v, p, 8);
      return v;
    }
  }
}

inline void StoreScalar(uint8_t* p, uint32_t width, uint64_t value) {
  switch (width) {
    case 1:
      *p = static_cast<uint8_t>(value);
      return;
    case 2: {
      uint16_t v = static_cast<uint16_t>(value);
      std::memcpy(p, &v, 2);
      return;
    }
    case 4: {
      uint32_t v = static_cast<uint32_t>(value);
      std::memcpy(p, &v, 4);
      return;
    }
    default:
      std::memcpy(p, &value, 8);
      return;
  }
}

// A fused-fast-path probe: a translation hit plus every per-access check CheckDataAccess
// performs, evaluated on the already-probed entry in one branch chain. Returns nullptr on
// any miss or check failure, sending the caller to the layered slow path — which owns fault
// selection, so fault semantics are those of the authoritative Resolve.
inline ObjectDescriptor* ProbeFastDataHit(XlatCache& xlat, const PhysicalMemory& memory,
                                          const AccessDescriptor& ad, uint32_t offset,
                                          uint32_t width, RightsMask required) {
  XlatEntry& entry = xlat.Probe(ad.index());
  ObjectDescriptor* descriptor = entry.descriptor;
  if (descriptor == nullptr || entry.index != ad.index() ||
      entry.generation != ad.generation() || !descriptor->allocated ||
      descriptor->generation != ad.generation() || descriptor->quarantined ||
      descriptor->swapped_out || !ad.HasRights(required) ||
      static_cast<uint64_t>(offset) + width > descriptor->data_length ||
      !memory.InRange(descriptor->data_base + offset, width) ||
      (width != 1 && width != 2 && width != 4 && width != 8)) {
    return nullptr;
  }
  return descriptor;
}

}  // namespace

Result<ObjectDescriptor*> AddressingUnit::ResolveAndFill(const AccessDescriptor& ad) const {
  ++xlat_.stats().misses;
  Result<ObjectDescriptor*> resolved = table_->Resolve(ad);
  if (!resolved.ok()) {
    return resolved;
  }
  ObjectDescriptor* descriptor = resolved.value();
  XlatEntry& entry = xlat_.Probe(ad.index());
  if (entry.index != ad.index() || entry.generation != ad.generation()) {
    // New identity in this slot: drop any payload carried for the evicted translation.
    entry = XlatEntry{};
    entry.index = ad.index();
    entry.generation = ad.generation();
  }
  entry.descriptor = descriptor;
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
  if (ObjectDescriptor* hit =
          ProbeFastDataHit(xlat_, *memory_, ad, offset, width, rights::kRead)) {
    ++xlat_.stats().hits;
    return LoadScalar(memory_->at(hit->data_base + offset), width);
  }
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    return Fault::kInvalidArgument;
  }
  IMAX_ASSIGN_OR_RETURN(PhysAddr addr, CheckDataAccess(ad, offset, width, rights::kRead));
  return memory_->Read(addr, width);
}

Status AddressingUnit::WriteData(const AccessDescriptor& ad, uint32_t offset, uint32_t width,
                                 uint64_t value) {
  if (ObjectDescriptor* hit =
          ProbeFastDataHit(xlat_, *memory_, ad, offset, width, rights::kWrite)) {
    ++xlat_.stats().hits;
    StoreScalar(memory_->at(hit->data_base + offset), width, value);
    // Same epoch bump as the slow path, on the descriptor already in hand.
    ++hit->data_epoch;
    return Status::Ok();
  }
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
