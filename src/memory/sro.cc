#include "src/memory/sro.h"

#include <algorithm>

#include "src/base/check.h"

namespace imax432 {

Result<PhysAddr> Sro::AllocateRange(uint32_t bytes) {
  if (bytes == 0) {
    bytes = 1;  // a segment is at least 1 byte
  }
  for (size_t i = 0; i < extents_.size(); ++i) {
    if (extents_[i].length >= bytes) {
      PhysAddr base = extents_[i].base;
      extents_[i].base += bytes;
      extents_[i].length -= bytes;
      if (extents_[i].length == 0) {
        extents_.erase(extents_.begin() + static_cast<ptrdiff_t>(i));
      }
      allocated_bytes_ += bytes;
      return base;
    }
  }
  return Fault::kStorageExhausted;
}

void Sro::FreeRange(PhysAddr base, uint32_t bytes) {
  if (bytes == 0) {
    bytes = 1;
  }
  IMAX_CHECK(base >= region_base_ && base + bytes <= region_base_ + region_length_);
  IMAX_CHECK(allocated_bytes_ >= bytes);
  allocated_bytes_ -= bytes;

  // Insert keeping the list sorted by base, then coalesce with neighbours.
  auto it = std::lower_bound(
      extents_.begin(), extents_.end(), base,
      [](const Extent& extent, PhysAddr addr) { return extent.base < addr; });
  it = extents_.insert(it, Extent{base, bytes});

  // Coalesce with successor.
  auto next = it + 1;
  if (next != extents_.end() && it->base + it->length == next->base) {
    it->length += next->length;
    extents_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != extents_.begin()) {
    auto prev = it - 1;
    if (prev->base + prev->length == it->base) {
      prev->length += it->length;
      extents_.erase(it);
    }
  }
}

uint32_t Sro::largest_free_extent() const {
  uint32_t best = 0;
  for (const Extent& extent : extents_) {
    best = std::max(best, extent.length);
  }
  return best;
}

}  // namespace imax432
