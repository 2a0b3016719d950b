#include "src/gc/collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/xorshift.h"
#include "src/memory/basic_memory_manager.h"
#include "src/os/type_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig GcConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

class CollectorTest : public ::testing::Test {
 protected:
  CollectorTest()
      : machine_(GcConfig()),
        memory_(&machine_),
        kernel_(&machine_, &memory_),
        gc_(&kernel_),
        types_(&kernel_) {}

  AccessDescriptor NewObject(uint32_t access_slots = 2) {
    auto ad = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 32,
                                   access_slots, rights::kAll);
    EXPECT_TRUE(ad.ok());
    return ad.value();
  }

  bool Alive(const AccessDescriptor& ad) { return machine_.table().Resolve(ad).ok(); }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
  GarbageCollector gc_;
  TypeManagerFacility types_;
};

TEST_F(CollectorTest, UnreferencedObjectIsCollected) {
  AccessDescriptor garbage = NewObject();
  ASSERT_TRUE(Alive(garbage));
  GcStats stats = gc_.CollectNow();
  EXPECT_FALSE(Alive(garbage));
  EXPECT_GE(stats.objects_reclaimed, 1u);
}

TEST_F(CollectorTest, RootReachableObjectSurvives) {
  // Store the object into the default dispatch port's... no: use a root provider.
  AccessDescriptor kept = NewObject();
  kernel_.AddRootProvider(
      [kept](std::vector<AccessDescriptor>* roots) { roots->push_back(kept); });
  gc_.CollectNow();
  EXPECT_TRUE(Alive(kept));
}

TEST_F(CollectorTest, TransitiveReachabilitySurvives) {
  // root -> a -> b -> c chain; all must survive, an unlinked d must not.
  AccessDescriptor a = NewObject();
  AccessDescriptor b = NewObject();
  AccessDescriptor c = NewObject();
  AccessDescriptor d = NewObject();
  ASSERT_TRUE(machine_.addressing().WriteAd(a, 0, b).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(b, 0, c).ok());
  kernel_.AddRootProvider([a](std::vector<AccessDescriptor>* roots) { roots->push_back(a); });
  gc_.CollectNow();
  EXPECT_TRUE(Alive(a));
  EXPECT_TRUE(Alive(b));
  EXPECT_TRUE(Alive(c));
  EXPECT_FALSE(Alive(d));
}

TEST_F(CollectorTest, CyclesAreCollected) {
  // Reference-count-defeating cycle: x <-> y, unreachable from any root.
  AccessDescriptor x = NewObject();
  AccessDescriptor y = NewObject();
  ASSERT_TRUE(machine_.addressing().WriteAd(x, 0, y).ok());
  ASSERT_TRUE(machine_.addressing().WriteAd(y, 0, x).ok());
  gc_.CollectNow();
  EXPECT_FALSE(Alive(x));
  EXPECT_FALSE(Alive(y));
}

TEST_F(CollectorTest, RepeatedCyclesStable) {
  AccessDescriptor kept = NewObject();
  kernel_.AddRootProvider(
      [kept](std::vector<AccessDescriptor>* roots) { roots->push_back(kept); });
  gc_.CollectNow();
  uint32_t live_after_first = machine_.table().live_count();
  gc_.CollectNow();
  gc_.CollectNow();
  EXPECT_EQ(machine_.table().live_count(), live_after_first);
  EXPECT_TRUE(Alive(kept));
}

TEST_F(CollectorTest, OriginSroSurvivesWhileItsObjectsLive) {
  // An object allocated from a local SRO is reachable; the SRO itself has no direct
  // references, but must survive (reclaiming it would destroy the live object).
  auto sro = memory_.CreateLocalSro(memory_.global_heap(), 16 * 1024, 1);
  ASSERT_TRUE(sro.ok());
  auto object = memory_.CreateObject(sro.value(), SystemType::kGeneric, 64, 0, rights::kAll);
  ASSERT_TRUE(object.ok());
  AccessDescriptor holder = NewObject();
  // holder(level 0) cannot reference a level-1 object; use a level-1 holder via root.
  kernel_.AddRootProvider([ad = object.value()](std::vector<AccessDescriptor>* roots) {
    roots->push_back(ad);
  });
  GcStats stats = gc_.CollectNow();
  EXPECT_TRUE(Alive(object.value()));
  EXPECT_TRUE(Alive(sro.value()));
  EXPECT_GE(stats.sros_kept_live, 1u);
  (void)holder;
}

TEST_F(CollectorTest, GarbageSroCascades) {
  // An unreachable local SRO with unreachable objects: everything reclaimed in one sweep.
  auto sro = memory_.CreateLocalSro(memory_.global_heap(), 16 * 1024, 1);
  ASSERT_TRUE(sro.ok());
  std::vector<AccessDescriptor> objects;
  for (int i = 0; i < 5; ++i) {
    auto object = memory_.CreateObject(sro.value(), SystemType::kGeneric, 64, 0, rights::kAll);
    ASSERT_TRUE(object.ok());
    objects.push_back(object.value());
  }
  gc_.CollectNow();
  EXPECT_FALSE(Alive(sro.value()));
  for (const AccessDescriptor& object : objects) {
    EXPECT_FALSE(Alive(object));
  }
}

TEST_F(CollectorTest, MutatorStoreDuringMarkPreservesObject) {
  // The on-the-fly property: an object moved into an already-scanned container mid-mark is
  // shaded by the hardware gray bit and survives.
  AccessDescriptor container = NewObject();
  kernel_.AddRootProvider(
      [container](std::vector<AccessDescriptor>* roots) { roots->push_back(container); });

  gc_.BeginCycle();
  // Run the whiten phase and the root-shading plus a bit of marking.
  gc_.Step(machine_.table().capacity() + 2);
  // Mutator now creates an object and stores it into the (likely already-black) container.
  AccessDescriptor late = NewObject();
  ASSERT_TRUE(machine_.addressing().WriteAd(container, 0, late).ok());
  while (gc_.Step(64)) {
  }
  EXPECT_TRUE(Alive(container));
  EXPECT_TRUE(Alive(late));
}

TEST_F(CollectorTest, DestructionFilterReceivesDyingTypedObject) {
  auto filter_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 8, QueueDiscipline::kFifo);
  ASSERT_TRUE(filter_port.ok());
  auto tdo = types_.CreateTypeDefinition(/*type_id=*/0x7a9e, filter_port.value());
  ASSERT_TRUE(tdo.ok());
  kernel_.AddRootProvider([tdo = tdo.value(), filter_port = filter_port.value()](
                              std::vector<AccessDescriptor>* roots) {
    roots->push_back(tdo);
    roots->push_back(filter_port);
  });

  auto object = types_.CreateTypedObject(tdo.value(), memory_.global_heap(), 64, 0,
                                         rights::kRead);
  ASSERT_TRUE(object.ok());
  // Drop all references (the test-held AD is not a root) and collect.
  GcStats stats = gc_.CollectNow();

  // The object was NOT freed: it was sent to the filter port instead.
  EXPECT_TRUE(Alive(object.value()));
  EXPECT_EQ(stats.objects_finalized, 1u);
  auto delivered = kernel_.ports().Dequeue(filter_port.value());
  ASSERT_TRUE(delivered.ok());
  EXPECT_TRUE(delivered.value().SameObject(object.value()));
  // The manufactured AD carries full rights so the type manager can disassemble it.
  EXPECT_TRUE(delivered.value().HasRights(rights::kAll));
  EXPECT_EQ(types_.FinalizedCount(tdo.value()).value(), 1u);
}

TEST_F(CollectorTest, FinalizedObjectCollectedSilentlyNextCycle) {
  auto filter_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 8, QueueDiscipline::kFifo);
  ASSERT_TRUE(filter_port.ok());
  auto tdo = types_.CreateTypeDefinition(1, filter_port.value());
  ASSERT_TRUE(tdo.ok());
  kernel_.AddRootProvider([tdo = tdo.value(), filter_port = filter_port.value()](
                              std::vector<AccessDescriptor>* roots) {
    roots->push_back(tdo);
    roots->push_back(filter_port);
  });
  auto object =
      types_.CreateTypedObject(tdo.value(), memory_.global_heap(), 64, 0, rights::kRead);
  ASSERT_TRUE(object.ok());

  // Cycle 1: delivered to the filter.
  gc_.CollectNow();
  ASSERT_TRUE(Alive(object.value()));
  // The type manager drains the port (sees the dying drive) and drops the AD.
  ASSERT_TRUE(kernel_.ports().Dequeue(filter_port.value()).ok());
  // Cycle 2: the already-finalized object is reclaimed for real.
  GcStats second = gc_.CollectNow();
  EXPECT_FALSE(Alive(object.value()));
  EXPECT_EQ(second.objects_finalized, 0u);
}

TEST_F(CollectorTest, TypeManagerCanResurrectFromFilter) {
  // The tape-library story: the manager keeps the recovered drive, so it stays alive.
  auto filter_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 8, QueueDiscipline::kFifo);
  ASSERT_TRUE(filter_port.ok());
  auto tdo = types_.CreateTypeDefinition(2, filter_port.value());
  ASSERT_TRUE(tdo.ok());
  std::vector<AccessDescriptor> recovered;
  kernel_.AddRootProvider([&, tdo = tdo.value(), filter_port = filter_port.value()](
                              std::vector<AccessDescriptor>* roots) {
    roots->push_back(tdo);
    roots->push_back(filter_port);
    for (const AccessDescriptor& ad : recovered) {
      roots->push_back(ad);
    }
  });
  auto object =
      types_.CreateTypedObject(tdo.value(), memory_.global_heap(), 64, 0, rights::kRead);
  ASSERT_TRUE(object.ok());

  gc_.CollectNow();
  auto delivered = kernel_.ports().Dequeue(filter_port.value());
  ASSERT_TRUE(delivered.ok());
  recovered.push_back(delivered.value());  // the manager pools the drive again

  gc_.CollectNow();
  gc_.CollectNow();
  EXPECT_TRUE(Alive(object.value()));
}

TEST_F(CollectorTest, SystemTypeFilterRecoversLostProcesses) {
  // "The first release of iMAX uses this facility only to recover lost process objects."
  auto lost_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 8, QueueDiscipline::kFifo);
  ASSERT_TRUE(lost_port.ok());
  gc_.SetSystemTypeFilter(SystemType::kProcess, lost_port.value());
  kernel_.AddRootProvider([lost_port = lost_port.value()](
                              std::vector<AccessDescriptor>* roots) {
    roots->push_back(lost_port);
  });

  // A process created but never started and never referenced: a lost process.
  Assembler a("lost");
  a.Halt();
  auto process = kernel_.CreateProcess(a.Build(), {});
  ASSERT_TRUE(process.ok());

  gc_.CollectNow();
  EXPECT_TRUE(Alive(process.value()));
  auto delivered = kernel_.ports().Dequeue(lost_port.value());
  ASSERT_TRUE(delivered.ok());
  EXPECT_TRUE(delivered.value().SameObject(process.value()));
}

TEST_F(CollectorTest, FullFilterPortDefersFinalization) {
  // Capacity-1 filter port already holding a message: the dying object survives the cycle
  // un-finalized and is offered again next time.
  auto filter_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 1, QueueDiscipline::kFifo);
  ASSERT_TRUE(filter_port.ok());
  auto tdo = types_.CreateTypeDefinition(3, filter_port.value());
  ASSERT_TRUE(tdo.ok());
  kernel_.AddRootProvider([tdo = tdo.value(), filter_port = filter_port.value()](
                              std::vector<AccessDescriptor>* roots) {
    roots->push_back(tdo);
    roots->push_back(filter_port);
  });
  auto blocker =
      types_.CreateTypedObject(tdo.value(), memory_.global_heap(), 16, 0, rights::kRead);
  auto victim =
      types_.CreateTypedObject(tdo.value(), memory_.global_heap(), 16, 0, rights::kRead);
  ASSERT_TRUE(blocker.ok() && victim.ok());

  GcStats first = gc_.CollectNow();
  // One of the two fit in the port; the other was deferred.
  EXPECT_EQ(first.objects_finalized, 1u);
  EXPECT_EQ(first.filter_send_failures, 1u);
  EXPECT_TRUE(Alive(blocker.value()));
  EXPECT_TRUE(Alive(victim.value()));

  // Drain and re-collect: the deferred object gets its turn.
  ASSERT_TRUE(kernel_.ports().Dequeue(filter_port.value()).ok());
  GcStats second = gc_.CollectNow();
  EXPECT_EQ(second.objects_finalized, 1u);
}

TEST_F(CollectorTest, IncrementalStepsEventuallyComplete) {
  for (int i = 0; i < 50; ++i) {
    (void)NewObject();
  }
  gc_.BeginCycle();
  ASSERT_TRUE(gc_.cycle_in_progress());
  uint64_t steps = 0;
  while (gc_.Step(64)) {
    ++steps;
    ASSERT_LT(steps, 100000u) << "collector failed to converge";
  }
  EXPECT_FALSE(gc_.cycle_in_progress());
  EXPECT_GE(gc_.stats().objects_reclaimed, 50u);
}

TEST_F(CollectorTest, DaemonCollectsInVirtualTime) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto request_port = gc_.SpawnDaemon(/*units_per_step=*/128);
  ASSERT_TRUE(request_port.ok());
  kernel_.Run();  // daemon starts and blocks on its request port

  std::vector<AccessDescriptor> garbage;
  for (int i = 0; i < 20; ++i) {
    garbage.push_back(NewObject());
  }
  uint32_t live_before = machine_.table().live_count();
  ASSERT_TRUE(kernel_.PostMessage(request_port.value(), memory_.global_heap()).ok());
  kernel_.Run();
  EXPECT_LT(machine_.table().live_count(), live_before);
  for (const AccessDescriptor& ad : garbage) {
    EXPECT_FALSE(Alive(ad));
  }
  EXPECT_EQ(gc_.stats().cycles_completed, 1u);
  // The daemon consumed virtual time: collection has a cost in this system.
  EXPECT_GT(machine_.now(), 0u);
}

TEST_F(CollectorTest, DaemonRepliesWhenRequestIsPort) {
  ASSERT_TRUE(kernel_.AddProcessors(1).ok());
  auto request_port = gc_.SpawnDaemon(128);
  ASSERT_TRUE(request_port.ok());
  auto reply_port =
      kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
  ASSERT_TRUE(reply_port.ok());
  kernel_.AddRootProvider([reply = reply_port.value()](
                              std::vector<AccessDescriptor>* roots) {
    roots->push_back(reply);
  });
  kernel_.Run();
  ASSERT_TRUE(kernel_.PostMessage(request_port.value(), reply_port.value()).ok());
  kernel_.Run();
  EXPECT_TRUE(kernel_.ports().Dequeue(reply_port.value()).ok());
}

// Property: after any sequence of random linking/unlinking plus collection, exactly the
// root-reachable objects survive.
TEST_F(CollectorTest, PropertyReachabilityIsExact) {
  constexpr int kObjects = 60;
  std::vector<AccessDescriptor> objects;
  for (int i = 0; i < kObjects; ++i) {
    objects.push_back(NewObject(4));
  }
  // Random edges (level 0 everywhere: no level faults).
  Xorshift rng(42);
  std::vector<std::vector<int>> edges(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    for (uint32_t slot = 0; slot < 4; ++slot) {
      if (rng.NextChance(1, 3)) {
        int target = static_cast<int>(rng.NextBelow(kObjects));
        ASSERT_TRUE(machine_.addressing()
                        .WriteAd(objects[static_cast<size_t>(i)], slot,
                                 objects[static_cast<size_t>(target)])
                        .ok());
        edges[static_cast<size_t>(i)].push_back(target);
      }
    }
  }
  // Pick a few roots.
  std::vector<int> root_ids = {0, 7, 23};
  kernel_.AddRootProvider([&objects, root_ids](std::vector<AccessDescriptor>* roots) {
    for (int id : root_ids) {
      roots->push_back(objects[static_cast<size_t>(id)]);
    }
  });
  // Host-side reachability.
  std::vector<bool> expected(kObjects, false);
  std::vector<int> work = root_ids;
  while (!work.empty()) {
    int node = work.back();
    work.pop_back();
    if (expected[static_cast<size_t>(node)]) {
      continue;
    }
    expected[static_cast<size_t>(node)] = true;
    for (int next : edges[static_cast<size_t>(node)]) {
      work.push_back(next);
    }
  }

  gc_.CollectNow();
  for (int i = 0; i < kObjects; ++i) {
    EXPECT_EQ(Alive(objects[static_cast<size_t>(i)]), expected[static_cast<size_t>(i)])
        << "object " << i;
  }
}

// One collector over a table of `capacity` slots, holding the same small object graph
// whatever the capacity: a rooted chain a -> b, global garbage, and a local SRO with one
// rooted member and one garbage member.
struct ChargeRig {
  static MachineConfig Config(uint32_t capacity) {
    MachineConfig config = GcConfig();
    config.object_table_capacity = capacity;
    return config;
  }

  explicit ChargeRig(uint32_t capacity)
      : machine(Config(capacity)), memory(&machine), kernel(&machine, &memory), gc(&kernel) {
    AccessDescriptor a = New(memory.global_heap());
    AccessDescriptor b = New(memory.global_heap());
    (void)New(memory.global_heap());
    auto local = memory.CreateLocalSro(memory.global_heap(), 16 * 1024, 1);
    EXPECT_TRUE(local.ok());
    sro = local.value();
    AccessDescriptor member = New(sro);
    (void)New(sro);
    EXPECT_TRUE(machine.addressing().WriteAd(a, 0, b).ok());
    kernel.AddRootProvider([a, member](std::vector<AccessDescriptor>* roots) {
      roots->push_back(a);
      roots->push_back(member);
    });
  }

  AccessDescriptor New(const AccessDescriptor& heap) {
    auto ad = memory.CreateObject(heap, SystemType::kGeneric, 32, 2, rights::kAll);
    EXPECT_TRUE(ad.ok());
    return ad.value();
  }

  Machine machine;
  BasicMemoryManager memory;
  Kernel kernel;
  GarbageCollector gc;
  AccessDescriptor sro;
};

// Virtual time charges the collector's descriptor scans for every table slot, allocated or
// not: whiten and sweep one unit each per slot, local collection's population pass one unit
// per slot. The same graph on a table twice the size must cost exactly that much more,
// and nothing else may change.
TEST(CollectorChargeTest, ScansChargeEveryTableSlot) {
  ChargeRig small(4096);
  ChargeRig large(8192);

  uint64_t small_before = small.gc.work_units();
  GcStats small_stats = small.gc.CollectNow();
  uint64_t small_global = small.gc.work_units() - small_before;
  uint64_t large_before = large.gc.work_units();
  GcStats large_stats = large.gc.CollectNow();
  uint64_t large_global = large.gc.work_units() - large_before;
  EXPECT_EQ(large_global - small_global, 2u * 4096u);
  EXPECT_GT(small_stats.objects_reclaimed, 0u);
  EXPECT_EQ(small_stats.objects_scanned, large_stats.objects_scanned);
  EXPECT_EQ(small_stats.slots_scanned, large_stats.slots_scanned);
  EXPECT_EQ(small_stats.objects_reclaimed, large_stats.objects_reclaimed);

  // A fresh garbage member for the local pass to find.
  (void)small.New(small.sro);
  (void)large.New(large.sro);
  small_before = small.gc.work_units();
  auto small_local = small.gc.CollectLocalNow(small.sro);
  ASSERT_TRUE(small_local.ok());
  uint64_t small_local_units = small.gc.work_units() - small_before;
  large_before = large.gc.work_units();
  auto large_local = large.gc.CollectLocalNow(large.sro);
  ASSERT_TRUE(large_local.ok());
  uint64_t large_local_units = large.gc.work_units() - large_before;
  EXPECT_EQ(large_local_units - small_local_units, 4096u);
  EXPECT_EQ(small_local.value().objects_reclaimed, 1u);
  EXPECT_EQ(small_local.value().objects_scanned, large_local.value().objects_scanned);
  EXPECT_EQ(small_local.value().slots_scanned, large_local.value().slots_scanned);
  EXPECT_EQ(small_local.value().objects_reclaimed, large_local.value().objects_reclaimed);
}

// A graph on which the mark's termination rescan has origin SROs to shade. A rooted member
// of local SRO `sro` sits below it in the table, so the rescan shades `sro` after passing
// the member and pushes it a second time on reaching it, still gray. A garbage local SRO
// with one garbage member stays white, an origin, through the whole mark. `spare` is white
// global garbage for a mutator store to rescue mid-mark.
struct RescanRig {
  RescanRig()
      : machine(ChargeRig::Config(8192)), memory(&machine), kernel(&machine, &memory),
        gc(&kernel) {
    root = New(memory.global_heap());
    AccessDescriptor placeholder = New(memory.global_heap());
    auto local = memory.CreateLocalSro(memory.global_heap(), 16 * 1024, 1);
    EXPECT_TRUE(local.ok());
    sro = local.value();
    EXPECT_TRUE(memory.DestroyObject(placeholder).ok());
    member = New(sro);  // takes the placeholder's slot, below the SRO
    auto dead = memory.CreateLocalSro(memory.global_heap(), 16 * 1024, 1);
    EXPECT_TRUE(dead.ok());
    garbage_sro = dead.value();
    (void)New(garbage_sro);
    spare = New(memory.global_heap());
    kernel.AddRootProvider([this](std::vector<AccessDescriptor>* roots) {
      roots->push_back(root);
      roots->push_back(member);
    });
  }

  AccessDescriptor New(const AccessDescriptor& heap) {
    auto ad = memory.CreateObject(heap, SystemType::kGeneric, 32, 2, rights::kAll);
    EXPECT_TRUE(ad.ok());
    return ad.value();
  }
  bool Alive(const AccessDescriptor& ad) { return machine.table().Resolve(ad).ok(); }

  Machine machine;
  BasicMemoryManager memory;
  Kernel kernel;
  GarbageCollector gc;
  AccessDescriptor root, sro, member, garbage_sro, spare;
};

// The rescan's shortcut (only gray slots, when no white slot is an origin) must leave the
// collector's work exactly as a walk over every live descriptor did it: the counts below
// were measured with that walk.
TEST(CollectorChargeTest, TerminationRescanKeepsTheWalksPushOrder) {
  RescanRig rig;
  ASSERT_LT(rig.member.index(), rig.sro.index());
  GcStats stats = rig.gc.CollectNow();
  EXPECT_TRUE(rig.Alive(rig.member));
  EXPECT_TRUE(rig.Alive(rig.sro));
  EXPECT_FALSE(rig.Alive(rig.garbage_sro));
  EXPECT_FALSE(rig.Alive(rig.spare));
  EXPECT_EQ(stats.objects_scanned, 6u);  // `sro` twice
  EXPECT_EQ(stats.slots_scanned, 1031u);
  EXPECT_EQ(stats.sros_kept_live, 1u);
  EXPECT_EQ(stats.objects_reclaimed, 2u);
  EXPECT_EQ(rig.gc.work_units(), 17421u);
}

TEST(CollectorChargeTest, TerminationRescanKeepsTheWalksPushOrderIncrementally) {
  RescanRig rig;
  rig.gc.BeginCycle();
  // Whiten takes one unit per slot, so this stops at mark entry, roots shaded.
  ASSERT_TRUE(rig.gc.Step(rig.machine.table().capacity()));
  ASSERT_TRUE(rig.gc.Step(1));
  // The mutator stores `spare` into the root mid-mark: the gray bit alone keeps it alive.
  ASSERT_TRUE(rig.machine.addressing().WriteAd(rig.root, 1, rig.spare).ok());
  while (rig.gc.Step(4)) {
  }
  EXPECT_TRUE(rig.Alive(rig.member));
  EXPECT_TRUE(rig.Alive(rig.sro));
  EXPECT_TRUE(rig.Alive(rig.spare));
  EXPECT_FALSE(rig.Alive(rig.garbage_sro));
  const GcStats& stats = rig.gc.stats();
  EXPECT_EQ(stats.cycles_completed, 1u);
  EXPECT_EQ(stats.objects_scanned, 7u);  // `sro` twice, and `spare`
  EXPECT_EQ(stats.slots_scanned, 1033u);
  EXPECT_EQ(stats.sros_kept_live, 1u);
  EXPECT_EQ(stats.objects_reclaimed, 1u);
  EXPECT_EQ(rig.gc.work_units(), 17424u);
}

// The termination rescan as a loop over every slot, reading each color as it reaches the
// slot: a gray slot is pushed, and a black one has its white origin shaded and pushed, so
// an origin shaded above the current slot is pushed again on reaching it.
uint64_t SlotBySlotRescan(ObjectTable& table, std::vector<ObjectIndex>* gray) {
  uint64_t shaded = 0;
  for (ObjectIndex i = 0; i < table.capacity(); ++i) {
    const GcColor color = table.color(i);
    if (color == GcColor::kGray) {
      gray->push_back(i);
    } else if (color == GcColor::kBlack) {
      const ObjectIndex origin = table.At(i).origin_sro;
      if (origin != kInvalidObjectIndex && table.Shade(origin)) {
        gray->push_back(origin);
        ++shaded;
      }
    }
  }
  return shaded;
}

// Allocates every slot of `table` in ascending order, slot i naming origins[i] (or none).
void AllocateAll(ObjectTable* table, const std::vector<ObjectIndex>& origins) {
  for (ObjectIndex i = 0; i < table->capacity(); ++i) {
    auto index = table->Allocate(SystemType::kGeneric, 0, 0, 0, 0, origins[i], 0);
    ASSERT_TRUE(index.ok());
    ASSERT_EQ(index.value(), i);
  }
}

// 130 slots, three bitmap words, the last holding 128 and 129 only. Black slots name
// white origins above them in the same word (5 -> 40, 62 -> 63, exempt 85 -> 86), below
// them in the same word (70 -> 65), in a lower word (100 -> 10, 129 -> 120) and, from the
// top bit of a word, in the next one (127 -> 128). Others name a gray origin (90 -> 95) or
// a free one (80 -> 81), and gray 2 names white 50, which the rule leaves alone.
void BuildEdgeTable(ObjectTable* table) {
  std::vector<ObjectIndex> origins(130, kInvalidObjectIndex);
  const std::pair<ObjectIndex, ObjectIndex> named[] = {
      {5, 40},   {62, 63},   {85, 86}, {70, 65}, {100, 10},
      {129, 120}, {127, 128}, {90, 95}, {80, 81}, {2, 50}};
  for (const auto& [slot, origin] : named) {
    origins[slot] = origin;
  }
  ASSERT_NO_FATAL_FAILURE(AllocateAll(table, origins));
  ASSERT_TRUE(table->Free(81).ok());
  for (ObjectIndex gray : {2u, 95u}) {
    ASSERT_TRUE(table->Shade(gray));
  }
  for (ObjectIndex black : {5u, 62u, 70u, 80u, 90u, 100u, 127u, 129u}) {
    table->Blacken(black);
  }
  table->SetGcExempt(85);
}

TEST(TerminationRescanTest, PushesOriginsAboveBelowAndInTheSameWordAsTheWalkDid) {
  ObjectTable table(130);
  ObjectTable reference_table(130);
  ASSERT_NO_FATAL_FAILURE(BuildEdgeTable(&table));
  ASSERT_NO_FATAL_FAILURE(BuildEdgeTable(&reference_table));
  ASSERT_TRUE(table.AnyWhiteOrigin());

  std::vector<ObjectIndex> pushed;
  EXPECT_EQ(TerminationRescan(table, &pushed), 7u);
  EXPECT_EQ(pushed, (std::vector<ObjectIndex>{2, 40, 40, 63, 63, 65, 86, 86, 95, 10, 128,
                                              128, 120}));
  std::vector<ObjectIndex> reference;
  EXPECT_EQ(SlotBySlotRescan(reference_table, &reference), 7u);
  EXPECT_EQ(pushed, reference);
  EXPECT_EQ(table.color(50), GcColor::kWhite);
  EXPECT_EQ(table.color(81), GcColor::kWhite);
  EXPECT_TRUE(table.AnyWhiteOrigin());  // 50, named only by a gray slot
}

// Seeded random tables of several sizes, a multiple of 64 and not: every slot allocated
// with no origin, one in its own word or any slot, a sixth then freed, the rest white,
// gray, black or exempt. In a third of them every white origin is then colored, so the
// rescan takes its gray-only path. The word walk must push what the slot-by-slot walk
// pushes, in its order, shade as many origins, and leave the same colors.
TEST(TerminationRescanTest, WordWalkMatchesASlotBySlotWalk) {
  auto build = [](ObjectTable* table, uint64_t seed, bool no_white_origin) {
    Xorshift rng(seed);
    const ObjectIndex n = table->capacity();
    std::vector<ObjectIndex> origins(n, kInvalidObjectIndex);
    for (ObjectIndex i = 0; i < n; ++i) {
      const ObjectIndex word_base = i & ~ObjectIndex{63};
      const uint64_t pick = rng.NextBelow(3);
      if (pick == 1) {
        origins[i] = word_base + static_cast<ObjectIndex>(
                                     rng.NextBelow(std::min<ObjectIndex>(64, n - word_base)));
      } else if (pick == 2) {
        origins[i] = static_cast<ObjectIndex>(rng.NextBelow(n));
      }
    }
    ASSERT_NO_FATAL_FAILURE(AllocateAll(table, origins));
    for (ObjectIndex i = 0; i < n; ++i) {
      if (rng.NextChance(1, 6)) {
        ASSERT_TRUE(table->Free(i).ok());
      }
    }
    for (ObjectIndex i = 0; i < n; ++i) {
      if (!table->At(i).allocated) {
        continue;
      }
      const uint64_t color = rng.NextBelow(4);
      if (color == 1) {
        table->Shade(i);
      } else if (color == 2) {
        table->Blacken(i);
      } else if (color == 3) {
        table->SetGcExempt(i);
      }
    }
    if (no_white_origin) {
      for (ObjectIndex i = 0; i < n; ++i) {
        if (table->IsWhite(i) && table->At(i).origin_count > 0) {
          if (rng.NextChance(1, 2)) {
            table->Shade(i);
          } else {
            table->Blacken(i);
          }
        }
      }
    }
  };

  constexpr ObjectIndex kCapacities[] = {64, 130, 200, 256, 301};
  uint32_t walks_with_origins = 0;
  uint32_t gray_only_walks = 0;
  uint64_t total_shaded = 0;
  for (uint32_t trial = 0; trial < 150; ++trial) {
    const ObjectIndex capacity = kCapacities[trial % 5];
    const uint64_t seed = 20261019 + trial;
    const bool settle = trial % 3 == 0;
    ObjectTable table(capacity);
    ObjectTable reference_table(capacity);
    ASSERT_NO_FATAL_FAILURE(build(&table, seed, settle));
    ASSERT_NO_FATAL_FAILURE(build(&reference_table, seed, settle));
    const bool white_origin = table.AnyWhiteOrigin();
    if (settle) {
      ASSERT_FALSE(white_origin) << "trial " << trial;
    }
    (white_origin ? walks_with_origins : gray_only_walks) += 1;

    std::vector<ObjectIndex> pushed;
    std::vector<ObjectIndex> reference;
    const uint64_t shaded = TerminationRescan(table, &pushed);
    ASSERT_EQ(shaded, SlotBySlotRescan(reference_table, &reference)) << "trial " << trial;
    ASSERT_EQ(pushed, reference) << "trial " << trial;
    for (ObjectIndex i = 0; i < capacity; ++i) {
      ASSERT_EQ(table.color(i), reference_table.color(i)) << "slot " << i << ", trial " << trial;
    }
    if (!white_origin) {
      ASSERT_EQ(shaded, 0u) << "trial " << trial;
    }
    total_shaded += shaded;
  }
  EXPECT_GE(walks_with_origins, 90u);
  EXPECT_GE(gray_only_walks, 50u);
  EXPECT_GT(total_shaded, 500u);
}

}  // namespace
}  // namespace imax432
