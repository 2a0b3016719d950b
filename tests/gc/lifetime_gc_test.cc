// GC-exemption semantics for demoted objects: the collector never whitens, marks, or
// sweeps a slot with the table's exempt bit set; its outgoing slots are pseudo-roots; the mutator gray bit
// composes with permanently-black objects; local collection excludes them from the
// population; reclamation happens only through the demote SRO's bulk destroy.

#include <gtest/gtest.h>

#include "src/gc/collector.h"
#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig GcConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

class LifetimeGcTest : public ::testing::Test {
 protected:
  LifetimeGcTest()
      : machine_(GcConfig()), memory_(&machine_), kernel_(&machine_, &memory_), gc_(&kernel_) {}

  AccessDescriptor NewObject(uint32_t access_slots = 2) {
    auto ad = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 32,
                                   access_slots, rights::kAll);
    EXPECT_TRUE(ad.ok());
    return ad.value();
  }

  // Host-side stand-in for the kernel's demotion path: the object is allocated from `sro`
  // and flipped to exempt (SetGcExempt also blackens it), exactly as Kernel::Execute does at
  // a demoted site.
  AccessDescriptor NewDemoted(const AccessDescriptor& sro, uint32_t access_slots = 2) {
    auto ad = memory_.CreateObject(sro, SystemType::kGeneric, 32, access_slots, rights::kAll);
    EXPECT_TRUE(ad.ok());
    machine_.table().SetGcExempt(ad.value().index());
    return ad.value();
  }

  AccessDescriptor NewSro() {
    auto sro = memory_.CreateLocalSro(memory_.global_heap(), 16 * 1024, 1);
    EXPECT_TRUE(sro.ok());
    return sro.value();
  }

  bool Alive(const AccessDescriptor& ad) { return machine_.table().Resolve(ad).ok(); }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
  GarbageCollector gc_;
};

TEST_F(LifetimeGcTest, ExemptObjectSurvivesACycleWithNoReferences) {
  AccessDescriptor sro = NewSro();
  AccessDescriptor demoted = NewDemoted(sro);
  AccessDescriptor garbage = NewObject();
  GcStats stats = gc_.CollectNow();
  EXPECT_TRUE(Alive(demoted));
  EXPECT_FALSE(Alive(garbage));  // the cycle did real work
  EXPECT_GE(stats.exempt_objects_skipped, 1u);
  // Permanently black: the whiten phase held the color.
  EXPECT_EQ(machine_.table().color(demoted.index()), GcColor::kBlack);
  EXPECT_TRUE(machine_.table().gc_exempt(demoted.index()));
}

TEST_F(LifetimeGcTest, ExemptObjectsSlotsArePseudoRoots) {
  // referent is reachable only through the demoted object; it must survive every cycle the
  // demote SRO survives.
  AccessDescriptor sro = NewSro();
  AccessDescriptor demoted = NewDemoted(sro);
  AccessDescriptor referent = NewObject();
  ASSERT_TRUE(machine_.addressing().WriteAdPrivileged(demoted, 0, referent).ok());
  gc_.CollectNow();
  EXPECT_TRUE(Alive(demoted));
  EXPECT_TRUE(Alive(referent));
}

TEST_F(LifetimeGcTest, GrayBitComposesWithExemptObjectsMidMark) {
  AccessDescriptor sro = NewSro();
  AccessDescriptor demoted = NewDemoted(sro);
  AccessDescriptor holder = NewObject();
  kernel_.AddRootProvider(
      [holder](std::vector<AccessDescriptor>* roots) { roots->push_back(holder); });

  gc_.BeginCycle();
  // Whiten consumes exactly one unit per table entry, so this stops right at mark entry.
  ASSERT_TRUE(gc_.Step(machine_.table().capacity()));

  // Mutator moves mid-mark, both directions across the exempt boundary. Storing the
  // demoted object's AD shades it — a no-op on permanently-black descriptors. Storing a
  // fresh white object into the demoted object shades the referent gray (the hardware gray
  // bit fires on every AD store, demoted target or not). Both stores use the privileged
  // path: the level storing rule forbids a level-0 holder from keeping a level-1 AD, which
  // is exactly why only kernel code (and the auditor behind it) crosses this boundary.
  ASSERT_TRUE(machine_.addressing().WriteAdPrivileged(holder, 0, demoted).ok());
  AccessDescriptor late = NewObject();
  ASSERT_TRUE(machine_.addressing().WriteAdPrivileged(demoted, 1, late).ok());
  EXPECT_EQ(machine_.table().color(demoted.index()), GcColor::kBlack);

  while (gc_.Step(1u << 16)) {
  }
  EXPECT_TRUE(Alive(demoted));
  EXPECT_TRUE(Alive(holder));
  EXPECT_TRUE(Alive(late));
}

TEST_F(LifetimeGcTest, ExemptCounterTalliesEachCycle) {
  AccessDescriptor sro = NewSro();
  NewDemoted(sro);
  NewDemoted(sro);
  gc_.CollectNow();
  EXPECT_EQ(gc_.stats().exempt_objects_skipped, 2u);
  gc_.CollectNow();
  EXPECT_EQ(gc_.stats().exempt_objects_skipped, 4u);
}

TEST_F(LifetimeGcTest, LocalCollectionExcludesExemptObjects) {
  AccessDescriptor sro = NewSro();
  AccessDescriptor demoted = NewDemoted(sro);
  auto plain = memory_.CreateObject(sro, SystemType::kGeneric, 32, 0, rights::kAll);
  ASSERT_TRUE(plain.ok());
  auto stats = gc_.CollectLocalNow(sro);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(Alive(plain.value()));  // unreferenced population member: collected
  EXPECT_TRUE(Alive(demoted));         // exempt: outside the population entirely
  EXPECT_EQ(stats.value().objects_reclaimed, 1u);
}

TEST_F(LifetimeGcTest, BulkDestroyIsTheOnlyReclamationPath) {
  AccessDescriptor sro = NewSro();
  AccessDescriptor demoted = NewDemoted(sro);
  gc_.CollectNow();
  ASSERT_TRUE(Alive(demoted));
  auto reclaimed = memory_.DestroySro(sro);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GE(reclaimed.value(), 1u);
  EXPECT_FALSE(Alive(demoted));
}

TEST_F(LifetimeGcTest, ReusedTableSlotDoesNotInheritExemptionOrFinalization) {
  // Regression: the table must drop the exempt bit (and Allocate reset finalized) or a
  // reused slot would be invisible to the collector (or skip its destruction filter)
  // forever.
  ObjectTable table(4);
  auto first = table.Allocate(SystemType::kGeneric, 1, 0, 0, 0, kInvalidObjectIndex, 0);
  ASSERT_TRUE(first.ok());
  table.SetGcExempt(first.value());
  table.At(first.value()).finalized = true;
  ASSERT_TRUE(table.gc_exempt(first.value()));
  ASSERT_TRUE(table.Free(first.value()).ok());
  EXPECT_FALSE(table.gc_exempt(first.value()));
  EXPECT_EQ(table.NextExempt(0, table.capacity()), table.capacity());
  auto second = table.Allocate(SystemType::kGeneric, 1, 0, 0, 0, kInvalidObjectIndex, 0);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value(), first.value());  // the slot really is reused
  EXPECT_FALSE(table.gc_exempt(second.value()));
  EXPECT_FALSE(table.At(second.value()).finalized);
}

}  // namespace
}  // namespace imax432
