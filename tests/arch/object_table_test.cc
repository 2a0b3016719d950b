#include "src/arch/object_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
  EXPECT_EQ(table.color(index.value()), GcColor::kWhite);
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

// The slots a walk over [from, end) visits, where next(i) is the iterator's answer for
// [i, end).
template <typename Next>
std::vector<ObjectIndex> WalkWith(ObjectIndex from, ObjectIndex end, Next next) {
  std::vector<ObjectIndex> visited;
  for (ObjectIndex i = next(from); i < end; i = next(i + 1)) {
    visited.push_back(i);
  }
  return visited;
}

// The slots a NextAllocated (or NextExempt) walk over [from, end) visits.
std::vector<ObjectIndex> Walk(const ObjectTable& table, ObjectIndex from, ObjectIndex end,
                              bool exempt) {
  return WalkWith(from, end, [&](ObjectIndex i) {
    return exempt ? table.NextExempt(i, end) : table.NextAllocated(i, end);
  });
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

// The slots whose bit is set in bits(w), for each bitmap word w in turn.
template <typename Bits>
std::vector<ObjectIndex> SetSlots(const ObjectTable& table, Bits bits) {
  std::vector<ObjectIndex> slots;
  for (size_t w = 0; w < table.bitmap_words(); ++w) {
    for (uint64_t word = bits(w); word != 0; word &= word - 1) {
      slots.push_back(static_cast<ObjectIndex>(w * 64 + std::countr_zero(word)));
    }
  }
  return slots;
}

// The gray slots, the gray or black ones, and the sweep candidates of the whole table.
std::vector<ObjectIndex> Gray(const ObjectTable& table) {
  return SetSlots(table, [&](size_t w) { return table.gray_bits(w); });
}
std::vector<ObjectIndex> NonWhite(const ObjectTable& table) {
  return SetSlots(table, [&](size_t w) { return table.gray_bits(w) | table.black_bits(w); });
}
std::vector<ObjectIndex> SweepCandidates(const ObjectTable& table) {
  const ObjectIndex end = table.capacity();
  return WalkWith(0, end, [&](ObjectIndex i) { return table.NextSweepCandidate(i, end); });
}

TEST(ObjectTableTest, ColorBitmapsHandleWordEdges) {
  // 130 slots: three bitmap words, the last one holding only slots 128 and 129. Slot 128 is
  // allocated from slot 64, so 64 is an origin.
  ObjectTable table(130);
  for (ObjectIndex i = 0; i < 130; ++i) {
    auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0,
                                i == 128 ? 64 : kInvalidObjectIndex, 0);
    ASSERT_TRUE(index.ok());
    ASSERT_EQ(index.value(), i);
  }
  EXPECT_EQ(table.At(64).origin_count, 1u);
  EXPECT_TRUE(table.AnyWhiteOrigin());
  EXPECT_TRUE(Gray(table).empty());
  EXPECT_TRUE(NonWhite(table).empty());
  EXPECT_EQ(SweepCandidates(table).size(), 130u);

  for (ObjectIndex i : {63u, 64u, 127u, 128u, 129u}) {
    EXPECT_TRUE(table.Shade(i)) << "slot " << i;
  }
  EXPECT_FALSE(table.Shade(64));  // already gray
  EXPECT_FALSE(table.AnyWhiteOrigin());
  EXPECT_EQ(Gray(table), (std::vector<ObjectIndex>{63, 64, 127, 128, 129}));
  table.Blacken(0);
  table.Blacken(64);
  EXPECT_FALSE(table.Shade(64));  // black stays black
  EXPECT_EQ(table.color(64), GcColor::kBlack);
  EXPECT_EQ(Gray(table), (std::vector<ObjectIndex>{63, 127, 128, 129}));
  EXPECT_EQ(NonWhite(table), (std::vector<ObjectIndex>{0, 63, 64, 127, 128, 129}));
  // Slots 63 and 127 are the top bits of their words; the last word holds 128 and 129
  // only, and its bits past capacity stay clear.
  EXPECT_EQ(table.bitmap_words(), 3u);
  EXPECT_EQ(table.gray_bits(0), uint64_t{1} << 63);
  EXPECT_EQ(table.black_bits(0), uint64_t{1});
  EXPECT_EQ(table.gray_bits(1), uint64_t{1} << 63);
  EXPECT_EQ(table.black_bits(1), uint64_t{1});
  EXPECT_EQ(table.gray_bits(2), uint64_t{3});
  EXPECT_EQ(table.black_bits(2), uint64_t{0});
  EXPECT_EQ(table.NextSweepCandidate(63, 130), 65u);
  EXPECT_EQ(table.NextSweepCandidate(127, 130), 130u);

  // An exempt slot turns black and is never a sweep candidate, whatever whiten does.
  table.SetGcExempt(65);
  EXPECT_EQ(table.color(65), GcColor::kBlack);
  EXPECT_EQ(table.NextSweepCandidate(63, 130), 66u);

  // A whiten range that ends mid-word, in the word after the one it starts in.
  EXPECT_EQ(table.Whiten(60, 66), 1u);  // holds 65 black
  EXPECT_EQ(table.color(63), GcColor::kWhite);
  EXPECT_EQ(table.color(64), GcColor::kWhite);
  EXPECT_EQ(table.color(65), GcColor::kBlack);
  EXPECT_EQ(table.color(0), GcColor::kBlack);   // outside the range
  EXPECT_EQ(table.color(127), GcColor::kGray);  // outside the range
  EXPECT_TRUE(table.AnyWhiteOrigin());          // 64 is white again
  EXPECT_EQ(Gray(table), (std::vector<ObjectIndex>{127, 128, 129}));
  // One that ends at capacity, inside the last word, and empty and one-slot ranges.
  EXPECT_EQ(table.Whiten(127, 130), 0u);
  EXPECT_TRUE(Gray(table).empty());
  EXPECT_EQ(table.Whiten(7, 7), 0u);
  EXPECT_EQ(table.Whiten(0, 1), 0u);
  EXPECT_EQ(NonWhite(table), (std::vector<ObjectIndex>{65}));
  EXPECT_EQ(table.Whiten(0, 130), 1u);
  EXPECT_EQ(NonWhite(table), (std::vector<ObjectIndex>{65}));

  // Freeing a gray slot leaves it white and out of every walk, and a free slot cannot be
  // shaded. Freeing the only object allocated from 64 ends 64's time as an origin.
  ASSERT_TRUE(table.Shade(129));
  EXPECT_FALSE(table.IsWhite(129));
  ASSERT_TRUE(table.Free(129).ok());
  EXPECT_EQ(table.color(129), GcColor::kWhite);
  EXPECT_FALSE(table.IsWhite(129));  // white in color, but free: Shade does nothing
  EXPECT_FALSE(table.Shade(129));
  EXPECT_TRUE(table.IsWhite(128));
  // Indices the table has no slot for: past capacity in the last word, past the last
  // word, and the null AD's.
  EXPECT_FALSE(table.IsWhite(130));
  EXPECT_FALSE(table.IsWhite(191));
  EXPECT_FALSE(table.IsWhite(192));
  EXPECT_FALSE(table.IsWhite(kInvalidObjectIndex));
  EXPECT_TRUE(Gray(table).empty());
  EXPECT_EQ(table.NextSweepCandidate(128, 130), 128u);
  EXPECT_EQ(table.NextSweepCandidate(129, 130), 130u);
  ASSERT_TRUE(table.Free(128).ok());
  EXPECT_EQ(table.At(64).origin_count, 0u);
  EXPECT_FALSE(table.AnyWhiteOrigin());
}

// A per-slot reference model of the table's color state, driven by random steps.
TEST(ObjectTableTest, ColorStateMatchesAReferenceModelUnderRandomChurn) {
  constexpr ObjectIndex kCapacity = 200;  // not a multiple of 64
  struct Slot {
    bool allocated = false;
    bool exempt = false;
    GcColor color = GcColor::kWhite;
    ObjectIndex origin = kInvalidObjectIndex;
  };
  ObjectTable table(kCapacity);
  std::vector<Slot> model(kCapacity);
  std::vector<ObjectIndex> live;
  Xorshift rng(20261017);
  auto any_slot = [&] { return static_cast<ObjectIndex>(rng.NextBelow(kCapacity)); };
  auto live_slot = [&] { return live[rng.NextBelow(live.size())]; };

  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng.NextBelow(7);
    if (live.empty() || (op <= 1 && live.size() < kCapacity)) {
      // Allocate; half the objects name a random slot, free or not, as their origin.
      ObjectIndex origin = rng.NextChance(1, 2) ? any_slot() : kInvalidObjectIndex;
      auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, origin, 0);
      ASSERT_TRUE(index.ok());
      live.push_back(index.value());
      model[index.value()] = Slot{true, false, GcColor::kWhite, origin};
    } else if (op == 2) {
      size_t pick = rng.NextBelow(live.size());
      ObjectIndex index = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(table.Free(index).ok());
      model[index] = Slot{};
    } else if (op == 3) {
      ObjectIndex index = any_slot();
      Slot& slot = model[index];
      const bool shades = slot.allocated && slot.color == GcColor::kWhite;
      ASSERT_EQ(table.Shade(index), shades) << "slot " << index << " at step " << step;
      if (shades) slot.color = GcColor::kGray;
    } else if (op == 4) {
      ObjectIndex index = live_slot();
      table.Blacken(index);
      model[index].color = GcColor::kBlack;
    } else if (op == 5) {
      ObjectIndex from = static_cast<ObjectIndex>(rng.NextBelow(kCapacity + 1));
      ObjectIndex end = static_cast<ObjectIndex>(rng.NextInRange(from, kCapacity));
      uint32_t held = 0;
      for (ObjectIndex i = from; i < end; ++i) {
        if (!model[i].allocated) continue;
        model[i].color = model[i].exempt ? GcColor::kBlack : GcColor::kWhite;
        held += model[i].exempt ? 1 : 0;
      }
      ASSERT_EQ(table.Whiten(from, end), held) << "[" << from << ", " << end << ")";
    } else {
      ObjectIndex index = live_slot();
      table.SetGcExempt(index);
      model[index].exempt = true;
      model[index].color = GcColor::kBlack;
    }

    std::vector<uint32_t> origin_count(kCapacity, 0);
    for (const Slot& slot : model) {
      if (slot.allocated && slot.origin != kInvalidObjectIndex) ++origin_count[slot.origin];
    }
    std::vector<ObjectIndex> gray, non_white, candidates;
    bool white_origin = false;
    for (ObjectIndex i = 0; i < kCapacity; ++i) {
      const Slot& slot = model[i];
      ASSERT_EQ(table.color(i), slot.color) << "slot " << i << " at step " << step;
      ASSERT_EQ(table.IsWhite(i), slot.allocated && slot.color == GcColor::kWhite)
          << "slot " << i << " at step " << step;
      ASSERT_EQ(table.gc_exempt(i), slot.exempt) << "slot " << i << " at step " << step;
      ASSERT_EQ(table.At(i).origin_count, origin_count[i])
          << "slot " << i << " at step " << step;
      if (slot.color == GcColor::kGray) gray.push_back(i);
      if (slot.color != GcColor::kWhite) non_white.push_back(i);
      const bool white = slot.allocated && slot.color == GcColor::kWhite;
      if (white && !slot.exempt) candidates.push_back(i);
      white_origin |= white && origin_count[i] > 0;
    }
    ASSERT_EQ(Gray(table), gray) << "step " << step;
    ASSERT_EQ(NonWhite(table), non_white) << "step " << step;
    ASSERT_EQ(SweepCandidates(table), candidates) << "step " << step;
    ASSERT_EQ(table.AnyWhiteOrigin(), white_origin) << "step " << step;
  }
}

}  // namespace
}  // namespace imax432
