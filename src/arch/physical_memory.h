// PhysicalMemory: the flat, shared system memory all GDPs see.
//
// "iMAX is fundamentally a multiprocessor operating system, providing a tightly coupled
// environment in which all processors see a single homogeneous memory." Addressing here is
// purely physical; segment-relative addressing, bounds and rights live in AddressingUnit.

#ifndef IMAX432_SRC_ARCH_PHYSICAL_MEMORY_H_
#define IMAX432_SRC_ARCH_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/arch/types.h"
#include "src/base/result.h"

namespace imax432 {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(uint32_t size_bytes) : bytes_(size_bytes, 0) {}

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(bytes_.size()); }

  // Little-endian scalar access (the 432, like the 8086 family, was little-endian). Every
  // scalar access in the system, checked by the addressing unit or not, is one of these:
  // each width in {1, 2, 4, 8} compiles to one fixed-width load or store, and any other
  // width faults with kInvalidArgument.
  Result<uint64_t> Read(PhysAddr addr, uint32_t width_bytes) const {
    if (!InRange(addr, width_bytes)) {
      return Fault::kBoundsViolation;
    }
    const uint8_t* p = &bytes_[addr];
    switch (width_bytes) {
      case 1:
        return Load<uint8_t>(p);
      case 2:
        return Load<uint16_t>(p);
      case 4:
        return Load<uint32_t>(p);
      case 8:
        return Load<uint64_t>(p);
      default:
        return Fault::kInvalidArgument;
    }
  }

  Status Write(PhysAddr addr, uint32_t width_bytes, uint64_t value) {
    if (!InRange(addr, width_bytes)) {
      return Fault::kBoundsViolation;
    }
    uint8_t* p = &bytes_[addr];
    switch (width_bytes) {
      case 1:
        Store<uint8_t>(p, value);
        break;
      case 2:
        Store<uint16_t>(p, value);
        break;
      case 4:
        Store<uint32_t>(p, value);
        break;
      case 8:
        Store<uint64_t>(p, value);
        break;
      default:
        return Fault::kInvalidArgument;
    }
    return Status::Ok();
  }

  Status ReadBlock(PhysAddr addr, void* out, uint32_t length) const {
    if (!InRange(addr, length)) {
      return Fault::kBoundsViolation;
    }
    std::memcpy(out, &bytes_[addr], length);
    return Status::Ok();
  }

  Status WriteBlock(PhysAddr addr, const void* in, uint32_t length) {
    if (!InRange(addr, length)) {
      return Fault::kBoundsViolation;
    }
    std::memcpy(&bytes_[addr], in, length);
    return Status::Ok();
  }

  Status Zero(PhysAddr addr, uint32_t length) {
    if (!InRange(addr, length)) {
      return Fault::kBoundsViolation;
    }
    std::memset(&bytes_[addr], 0, length);
    return Status::Ok();
  }

  bool InRange(PhysAddr addr, uint32_t length) const {
    // Overflow-safe: addr + length may wrap in 32 bits.
    return static_cast<uint64_t>(addr) + length <= bytes_.size();
  }

  // Direct byte access for a pinned ObjectView (proc/layouts.h), which checks its pinned
  // descriptor's bounds first. Callers must pair with an InRange check; the accessor itself
  // performs none.
  const uint8_t* at(PhysAddr addr) const { return &bytes_[addr]; }
  uint8_t* at(PhysAddr addr) { return &bytes_[addr]; }

 private:
  template <typename T>
  static uint64_t Load(const uint8_t* p) {
    T value;
    std::memcpy(&value, p, sizeof(T));
    return value;
  }
  template <typename T>
  static void Store(uint8_t* p, uint64_t value) {
    T narrowed = static_cast<T>(value);
    std::memcpy(p, &narrowed, sizeof(T));
  }

  std::vector<uint8_t> bytes_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_PHYSICAL_MEMORY_H_
