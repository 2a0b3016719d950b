#include "src/arch/object_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/base/xorshift.h"

namespace imax432 {
namespace {

TEST(ObjectTableTest, AllocateInitializesDescriptor) {
  ObjectTable table(16);
  auto index = table.Allocate(SystemType::kPort, /*level=*/2, /*data_base=*/100,
                              /*data_length=*/32, /*access_slots=*/4,
                              /*origin_sro=*/7, /*storage_claim=*/48);
  ASSERT_TRUE(index.ok());
  const ObjectDescriptor& d = table.At(index.value());
  EXPECT_TRUE(d.allocated);
  EXPECT_EQ(d.type, SystemType::kPort);
  EXPECT_EQ(d.level, 2u);
  EXPECT_EQ(d.data_base, 100u);
  EXPECT_EQ(d.data_length, 32u);
  EXPECT_EQ(d.access_count(), 4u);
  EXPECT_EQ(d.origin_sro, 7u);
  EXPECT_EQ(d.storage_claim, 48u);
  EXPECT_EQ(d.color, GcColor::kWhite);
  for (const AccessDescriptor& slot : d.access) {
    EXPECT_TRUE(slot.is_null());
  }
  EXPECT_EQ(table.live_count(), 1u);
}

TEST(ObjectTableTest, ExhaustionFaults) {
  ObjectTable table(2);
  ASSERT_TRUE(table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0).ok());
  ASSERT_TRUE(table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0).ok());
  auto third = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
  EXPECT_EQ(third.fault(), Fault::kObjectTableFull);
}

TEST(ObjectTableTest, OversizedPartsFault) {
  ObjectTable table(4);
  EXPECT_EQ(table.Allocate(SystemType::kGeneric, 0, 0, kMaxDataPartBytes + 1, 0, 0, 0).fault(),
            Fault::kSegmentTooLarge);
  EXPECT_EQ(table.Allocate(SystemType::kGeneric, 0, 0, 0, kMaxAccessPartSlots + 1, 0, 0).fault(),
            Fault::kSegmentTooLarge);
  // The architectural maxima themselves are allowed.
  EXPECT_TRUE(
      table.Allocate(SystemType::kGeneric, 0, 0, kMaxDataPartBytes, kMaxAccessPartSlots, 0, 0)
          .ok());
}

TEST(ObjectTableTest, FreeRecyclesSlotWithNewGeneration) {
  ObjectTable table(2);
  auto first = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(first.ok());
  uint32_t old_generation = table.At(first.value()).generation;
  ASSERT_TRUE(table.Free(first.value()).ok());
  EXPECT_EQ(table.live_count(), 0u);

  auto second = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(second.ok());
  // Slot may be reused, but generation must have advanced.
  if (second.value() == first.value()) {
    EXPECT_GT(table.At(second.value()).generation, old_generation);
  }
}

TEST(ObjectTableTest, ResolveChecksNullStaleAndRange) {
  ObjectTable table(4);
  auto index = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(index.ok());
  auto ad = table.MintAd(index.value(), rights::kRead);
  ASSERT_TRUE(ad.ok());

  EXPECT_TRUE(table.Resolve(ad.value()).ok());
  EXPECT_EQ(table.Resolve(AccessDescriptor()).fault(), Fault::kNullAccess);
  EXPECT_EQ(table.Resolve(AccessDescriptor(99, 0, rights::kRead)).fault(),
            Fault::kInvalidAccess);

  // Stale generation: free and re-resolve.
  ASSERT_TRUE(table.Free(index.value()).ok());
  EXPECT_EQ(table.Resolve(ad.value()).fault(), Fault::kInvalidAccess);
}

TEST(ObjectTableTest, StaleAdDiesEvenAfterSlotReuse) {
  ObjectTable table(1);  // force reuse of the single slot
  auto first = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(first.ok());
  auto stale = table.MintAd(first.value(), rights::kAll);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(table.Free(first.value()).ok());

  auto second = table.Allocate(SystemType::kPort, 1, 0, 8, 0, 0, 8);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value(), first.value());  // same slot
  // The stale AD must not reach the new object.
  EXPECT_EQ(table.Resolve(stale.value()).fault(), Fault::kInvalidAccess);
}

TEST(ObjectTableTest, MintAdOnFreeSlotFaults) {
  ObjectTable table(2);
  EXPECT_EQ(table.MintAd(0, rights::kRead).fault(), Fault::kNotAllocated);
  EXPECT_EQ(table.MintAd(5, rights::kRead).fault(), Fault::kInvalidAccess);
}

TEST(ObjectTableTest, DoubleFreeFaults) {
  ObjectTable table(2);
  auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(table.Free(index.value()).ok());
  EXPECT_EQ(table.Free(index.value()).fault(), Fault::kNotAllocated);
}

TEST(ObjectTableTest, StorePermittedFollowsLevelRule) {
  ObjectDescriptor global;
  global.level = 0;
  ObjectDescriptor local;
  local.level = 3;
  ObjectDescriptor deeper;
  deeper.level = 5;

  // A container may reference same-or-longer-lived objects only.
  EXPECT_TRUE(ObjectTable::StorePermitted(local, global));
  EXPECT_TRUE(ObjectTable::StorePermitted(local, local));
  EXPECT_FALSE(ObjectTable::StorePermitted(local, deeper));
  EXPECT_FALSE(ObjectTable::StorePermitted(global, local));
}

TEST(ObjectTableTest, CountsTrackAllocations) {
  ObjectTable table(8);
  EXPECT_EQ(table.free_count(), 8u);
  std::vector<ObjectIndex> indices;
  for (int i = 0; i < 5; ++i) {
    auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
    ASSERT_TRUE(index.ok());
    indices.push_back(index.value());
  }
  EXPECT_EQ(table.live_count(), 5u);
  EXPECT_EQ(table.free_count(), 3u);
  ASSERT_TRUE(table.Free(indices[2]).ok());
  EXPECT_EQ(table.live_count(), 4u);
}

// The slots a NextAllocated (or NextExempt) walk over [from, end) visits.
std::vector<ObjectIndex> Walk(const ObjectTable& table, ObjectIndex from, ObjectIndex end,
                              bool exempt) {
  auto next = [&](ObjectIndex i) {
    return exempt ? table.NextExempt(i, end) : table.NextAllocated(i, end);
  };
  std::vector<ObjectIndex> visited;
  for (ObjectIndex i = next(from); i < end; i = next(i + 1)) {
    visited.push_back(i);
  }
  return visited;
}

TEST(ObjectTableTest, BitmapIteratorsHandleWordEdges) {
  // 130 slots: three bitmap words, the last one holding only slots 128 and 129.
  ObjectTable table(130);
  for (ObjectIndex i = 0; i < 130; ++i) {
    auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
    ASSERT_TRUE(index.ok());
    ASSERT_EQ(index.value(), i);  // the free list hands out ascending indices
  }
  const std::vector<ObjectIndex> kept = {0, 63, 64, 127, 128, 129};
  for (ObjectIndex i = 0; i < 130; ++i) {
    if (std::find(kept.begin(), kept.end(), i) == kept.end()) {
      ASSERT_TRUE(table.Free(i).ok());
    }
  }
  EXPECT_EQ(Walk(table, 0, 130, /*exempt=*/false), kept);
  EXPECT_EQ(table.NextAllocated(1, 130), 63u);
  EXPECT_EQ(table.NextAllocated(64, 130), 64u);
  EXPECT_EQ(table.NextAllocated(65, 130), 127u);
  EXPECT_EQ(table.NextAllocated(129, 130), 129u);
  // Nothing in the window: the window's end comes back, even mid-word and when the next
  // allocated slot lies past it.
  EXPECT_EQ(table.NextAllocated(1, 63), 63u);
  EXPECT_EQ(table.NextAllocated(1, 50), 50u);
  EXPECT_EQ(table.NextAllocated(65, 127), 127u);
  EXPECT_EQ(table.NextAllocated(65, 100), 100u);
  EXPECT_EQ(table.NextAllocated(130, 130), 130u);
  EXPECT_EQ(table.NextAllocated(7, 7), 7u);
  EXPECT_EQ(Walk(table, 64, 128, /*exempt=*/false), (std::vector<ObjectIndex>{64, 127}));

  EXPECT_TRUE(Walk(table, 0, 130, /*exempt=*/true).empty());
  table.SetGcExempt(63);
  table.SetGcExempt(64);
  table.SetGcExempt(129);
  EXPECT_EQ(Walk(table, 0, 130, /*exempt=*/true), (std::vector<ObjectIndex>{63, 64, 129}));
  EXPECT_EQ(table.NextExempt(65, 129), 129u);
  EXPECT_EQ(table.NextExempt(65, 130), 129u);
  EXPECT_TRUE(table.gc_exempt(129));
  EXPECT_FALSE(table.gc_exempt(128));

  ASSERT_TRUE(table.Free(129).ok());
  EXPECT_EQ(table.NextAllocated(129, 130), 130u);
  EXPECT_FALSE(table.gc_exempt(129));
  EXPECT_EQ(Walk(table, 0, 130, /*exempt=*/true), (std::vector<ObjectIndex>{63, 64}));
}

TEST(ObjectTableTest, BitmapIteratorsMatchTheDescriptorsUnderRandomChurn) {
  constexpr ObjectIndex kCapacity = 200;  // not a multiple of 64
  ObjectTable table(kCapacity);
  Xorshift rng(20261016);
  std::vector<ObjectIndex> live;
  std::vector<bool> exempt(kCapacity, false);
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || (live.size() < kCapacity && rng.NextChance(1, 2))) {
      auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
      ASSERT_TRUE(index.ok());
      live.push_back(index.value());
      if (rng.NextChance(1, 4)) {
        table.SetGcExempt(index.value());
        exempt[index.value()] = true;
      }
    } else {
      size_t pick = rng.NextBelow(live.size());
      ObjectIndex index = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(table.Free(index).ok());
      exempt[index] = false;
    }

    std::vector<ObjectIndex> allocated;
    std::vector<ObjectIndex> exempted;
    for (ObjectIndex i = 0; i < kCapacity; ++i) {
      if (table.At(i).allocated) allocated.push_back(i);
      if (exempt[i]) exempted.push_back(i);
      ASSERT_EQ(table.gc_exempt(i), exempt[i]) << "slot " << i << " at step " << step;
    }
    ASSERT_EQ(Walk(table, 0, kCapacity, /*exempt=*/false), allocated) << "step " << step;
    ASSERT_EQ(Walk(table, 0, kCapacity, /*exempt=*/true), exempted) << "step " << step;

    // A random window answers with its first allocated slot, or its end.
    ObjectIndex from = static_cast<ObjectIndex>(rng.NextBelow(kCapacity + 1));
    ObjectIndex end = static_cast<ObjectIndex>(rng.NextInRange(from, kCapacity));
    auto first = std::lower_bound(allocated.begin(), allocated.end(), from);
    ObjectIndex expected = (first != allocated.end() && *first < end) ? *first : end;
    ASSERT_EQ(table.NextAllocated(from, end), expected)
        << "[" << from << ", " << end << ") at step " << step;
  }
}

}  // namespace
}  // namespace imax432
