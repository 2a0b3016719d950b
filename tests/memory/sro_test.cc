#include "src/memory/sro.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/arch/object_table.h"
#include "src/base/xorshift.h"

namespace imax432 {
namespace {

TEST(SroTest, FirstFitAllocates) {
  Sro sro(0, 0, 1000, 100, kInvalidObjectIndex);
  auto a = sro.AllocateRange(40);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), 1000u);
  auto b = sro.AllocateRange(40);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), 1040u);
  EXPECT_EQ(sro.allocated_bytes(), 80u);
  EXPECT_EQ(sro.free_bytes(), 20u);
}

TEST(SroTest, ExhaustionFaults) {
  Sro sro(0, 0, 0, 64, kInvalidObjectIndex);
  ASSERT_TRUE(sro.AllocateRange(64).ok());
  EXPECT_EQ(sro.AllocateRange(1).fault(), Fault::kStorageExhausted);
}

TEST(SroTest, ZeroByteRequestRoundsToOne) {
  // "a segment of from 1 byte to 128K bytes in length" — a segment is at least a byte.
  Sro sro(0, 0, 0, 4, kInvalidObjectIndex);
  ASSERT_TRUE(sro.AllocateRange(0).ok());
  EXPECT_EQ(sro.allocated_bytes(), 1u);
}

TEST(SroTest, FreeCoalescesWithNeighbors) {
  Sro sro(0, 0, 0, 300, kInvalidObjectIndex);
  auto a = sro.AllocateRange(100);
  auto b = sro.AllocateRange(100);
  auto c = sro.AllocateRange(100);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(sro.largest_free_extent(), 0u);

  // Free a and c: two disjoint extents.
  sro.FreeRange(a.value(), 100);
  sro.FreeRange(c.value(), 100);
  EXPECT_EQ(sro.extent_count(), 2u);
  EXPECT_EQ(sro.largest_free_extent(), 100u);

  // Free b: all three must merge into one extent.
  sro.FreeRange(b.value(), 100);
  EXPECT_EQ(sro.extent_count(), 1u);
  EXPECT_EQ(sro.largest_free_extent(), 300u);
  EXPECT_EQ(sro.allocated_bytes(), 0u);
}

TEST(SroTest, FragmentationCanBlockLargeRequests) {
  Sro sro(0, 0, 0, 300, kInvalidObjectIndex);
  auto a = sro.AllocateRange(100);
  auto b = sro.AllocateRange(100);
  auto c = sro.AllocateRange(100);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  sro.FreeRange(a.value(), 100);
  sro.FreeRange(c.value(), 100);
  // 200 bytes free, but no extent of 150.
  EXPECT_EQ(sro.free_bytes(), 200u);
  EXPECT_EQ(sro.AllocateRange(150).fault(), Fault::kStorageExhausted);
}

TEST(SroTest, ObjectBookkeeping) {
  ObjectTable table(128);
  Sro sro(0, 2, 0, 100, kInvalidObjectIndex);
  sro.RecordObject(table, 10);
  sro.RecordObject(table, 11);
  sro.RecordObject(table, 12);
  EXPECT_EQ(sro.objects().size(), 3u);
  sro.ForgetObject(table, 11);
  EXPECT_EQ(sro.objects(), (std::vector<ObjectIndex>{10, 12}));  // the last moved up
  // Forgetting an unknown index is a no-op.
  sro.ForgetObject(table, 99);
  EXPECT_EQ(sro.objects().size(), 2u);
  auto taken = sro.TakeObjects();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(sro.objects().empty());
}

// ForgetObject finds an object through its descriptor's recorded place, not by a search.
// A seeded run of records, forgets (of held objects, of objects another SRO holds, of
// objects none holds) and takes, with taken objects recorded again, in two SROs sharing
// one table, must leave each list exactly as a linear search with swap-with-last does.
TEST(SroTest, ForgetMatchesALinearSwapWithLastReference) {
  constexpr ObjectIndex kSlots = 96;
  ObjectTable table(kSlots);
  Sro first(0, 0, 0, 100, kInvalidObjectIndex);
  Sro second(1, 0, 0, 100, kInvalidObjectIndex);
  Sro* sros[2] = {&first, &second};
  std::vector<ObjectIndex> reference[2];
  std::vector<int> holder(kSlots, -1);  // which SRO holds each slot, or -1
  Xorshift rng(20261018);

  auto linear_forget = [](std::vector<ObjectIndex>& list, ObjectIndex index) {
    auto it = std::find(list.begin(), list.end(), index);
    if (it != list.end()) {
      *it = list.back();
      list.pop_back();
    }
  };

  uint32_t forgets_of_held = 0;
  uint32_t rerecords = 0;
  std::vector<bool> taken(kSlots, false);
  for (int step = 0; step < 6000; ++step) {
    const int which = static_cast<int>(rng.NextBelow(2));
    ObjectIndex index = static_cast<ObjectIndex>(rng.NextBelow(kSlots));
    const uint64_t op = rng.NextBelow(20);
    if (op >= 9 && op < 19 && !reference[which].empty() && rng.NextChance(1, 2)) {
      index = reference[which][rng.NextBelow(reference[which].size())];  // one it holds
    }
    if (op < 9) {
      // Record: only a slot no SRO holds, as the memory manager records a fresh object.
      if (holder[index] == -1) {
        sros[which]->RecordObject(table, index);
        reference[which].push_back(index);
        holder[index] = which;
        rerecords += taken[index] ? 1 : 0;
        taken[index] = false;
      }
    } else if (op < 19) {
      // Forget from either SRO, whoever holds the slot.
      forgets_of_held += holder[index] == which ? 1 : 0;
      sros[which]->ForgetObject(table, index);
      linear_forget(reference[which], index);
      if (holder[index] == which) {
        holder[index] = -1;
      }
    } else {
      for (ObjectIndex held : sros[which]->TakeObjects()) {
        holder[held] = -1;
        taken[held] = true;
      }
      reference[which].clear();
    }
    ASSERT_EQ(first.objects(), reference[0]) << "step " << step;
    ASSERT_EQ(second.objects(), reference[1]) << "step " << step;
  }
  // The run exercised what it is meant to.
  EXPECT_GT(forgets_of_held, 1000u);
  EXPECT_GT(rerecords, 50u);
}

// Property test: random allocate/free sequences preserve the accounting invariant
// allocated + sum(free extents) == region size, and coalescing keeps extents disjoint+sorted.
TEST(SroTest, PropertyRandomAllocFreeConservesBytes) {
  Xorshift rng(2024);
  Sro sro(0, 0, 10000, 8192, kInvalidObjectIndex);
  std::vector<std::pair<PhysAddr, uint32_t>> live;

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextChance(3, 5)) {
      uint32_t bytes = static_cast<uint32_t>(rng.NextInRange(1, 256));
      auto base = sro.AllocateRange(bytes);
      if (base.ok()) {
        live.emplace_back(base.value(), bytes);
      }
    } else {
      size_t pick = rng.NextBelow(live.size());
      sro.FreeRange(live[pick].first, live[pick].second);
      live[pick] = live.back();
      live.pop_back();
    }
    uint64_t live_bytes = 0;
    for (const auto& [base, len] : live) {
      live_bytes += len;
    }
    ASSERT_EQ(sro.allocated_bytes(), live_bytes);
    ASSERT_EQ(sro.free_bytes(), 8192 - live_bytes);
  }

  // Release everything: one extent must remain.
  for (const auto& [base, len] : live) {
    sro.FreeRange(base, len);
  }
  EXPECT_EQ(sro.extent_count(), 1u);
  EXPECT_EQ(sro.largest_free_extent(), 8192u);
}

}  // namespace
}  // namespace imax432
