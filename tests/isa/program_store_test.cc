// ProgramStore::Fetch invalidation semantics — the baseline contract the translation
// cache's epoch-keyed program tier must reproduce exactly: object-table mutation (free,
// generation reuse), data_epoch bumps, and the Register/Forget version counter.

#include "src/isa/program_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/arch/rights.h"
#include "src/isa/assembler.h"
#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 4096;
  return config;
}

class ProgramStoreTest : public ::testing::Test {
 protected:
  ProgramStoreTest() : machine_(SmallConfig()), memory_(&machine_), store_(&machine_, &memory_) {}

  ProgramRef MakeProgram(const char* name) {
    Assembler a(name);
    a.LoadImm(0, 1).Halt();
    return a.Build();
  }

  Machine machine_;
  BasicMemoryManager memory_;
  ProgramStore store_;
};

TEST_F(ProgramStoreTest, FetchReturnsTheRegisteredProgram) {
  auto ad = store_.Register(MakeProgram("fetch.basic"));
  ASSERT_TRUE(ad.ok());
  auto fetched = store_.Fetch(ad.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value()->name(), "fetch.basic");
}

TEST_F(ProgramStoreTest, FetchRejectsANonSegmentObject) {
  auto object = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 64, 0,
                                     rights::kRead | rights::kWrite);
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(store_.Fetch(object.value()).fault(), Fault::kTypeMismatch);
}

TEST_F(ProgramStoreTest, FetchFaultsAfterTheSegmentObjectIsFreed) {
  auto ad = store_.Register(MakeProgram("fetch.freed"));
  ASSERT_TRUE(ad.ok());
  // The GC path: free the table entry, then drop the side-table content.
  ASSERT_TRUE(machine_.table().Free(ad.value().index()).ok());
  store_.Forget(ad.value().index());
  EXPECT_EQ(store_.Fetch(ad.value()).fault(), Fault::kInvalidAccess);
  EXPECT_EQ(store_.Find(ad.value().index()), nullptr);
}

TEST_F(ProgramStoreTest, ForgetWithoutFreeLeavesResolutionButDropsContent) {
  auto ad = store_.Register(MakeProgram("fetch.forgotten"));
  ASSERT_TRUE(ad.ok());
  store_.Forget(ad.value().index());
  EXPECT_EQ(store_.Fetch(ad.value()).fault(), Fault::kNotFound);
}

TEST_F(ProgramStoreTest, StaleGenerationAdNeverResolvesAfterSlotReuse) {
  auto old_ad = store_.Register(MakeProgram("fetch.old"));
  ASSERT_TRUE(old_ad.ok());
  ObjectIndex index = old_ad.value().index();
  ASSERT_TRUE(machine_.table().Free(index).ok());
  store_.Forget(index);

  // Re-register until the table hands the same slot out again under a new generation.
  AccessDescriptor reused;
  for (int i = 0; i < 128 && reused.index() != index; ++i) {
    auto ad = store_.Register(MakeProgram("fetch.new"));
    ASSERT_TRUE(ad.ok());
    reused = ad.value();
  }
  if (reused.index() == index) {
    EXPECT_NE(reused.generation(), old_ad.value().generation());
    EXPECT_EQ(store_.Fetch(old_ad.value()).fault(), Fault::kInvalidAccess);
    auto fresh = store_.Fetch(reused);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value()->name(), "fetch.new");
  }
}

TEST_F(ProgramStoreTest, DataEpochBumpsDoNotAffectFetch) {
  auto ad = store_.Register(MakeProgram("fetch.epoch"));
  ASSERT_TRUE(ad.ok());
  machine_.table().At(ad.value().index()).data_epoch += 3;
  auto fetched = store_.Fetch(ad.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value()->name(), "fetch.epoch");
}

TEST_F(ProgramStoreTest, VersionBumpsOnRegisterAndSuccessfulForgetOnly) {
  uint64_t v0 = store_.version();
  auto ad = store_.Register(MakeProgram("fetch.version"));
  ASSERT_TRUE(ad.ok());
  EXPECT_GT(store_.version(), v0);

  uint64_t v1 = store_.version();
  store_.Forget(9999);  // never registered: no content mutation, no bump
  EXPECT_EQ(store_.version(), v1);

  store_.Forget(ad.value().index());
  EXPECT_GT(store_.version(), v1);
}

// --- Replace: in-place hot-patching (the program-fetch staleness baseline) --------------

TEST_F(ProgramStoreTest, ReplaceSwapsContentAndBumpsBothStalenessKeys) {
  auto ad = store_.Register(MakeProgram("patch.old"));
  ASSERT_TRUE(ad.ok());
  uint64_t version = store_.version();
  uint32_t epoch = machine_.table().At(ad.value().index()).data_epoch;

  ASSERT_TRUE(store_.Replace(ad.value(), MakeProgram("patch.new")).ok());

  // A Fetch after the in-place mutation sees the new code...
  auto fetched = store_.Fetch(ad.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value()->name(), "patch.new");
  // ...and BOTH cache invalidation keys moved: the store version (xlat program payloads
  // key on it) and the descriptor's data_epoch (the per-object content witness). Missing
  // either would let a cached translation serve the old code.
  EXPECT_GT(store_.version(), version);
  EXPECT_GT(machine_.table().At(ad.value().index()).data_epoch, epoch);
}

TEST_F(ProgramStoreTest, ReplaceRejectsANonSegmentObject) {
  auto object = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 64, 0,
                                     rights::kRead | rights::kWrite);
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(store_.Replace(object.value(), MakeProgram("patch.reject")).fault(),
            Fault::kTypeMismatch);
}

TEST_F(ProgramStoreTest, ReplaceFaultsOnAForgottenSegmentWithoutBumpingKeys) {
  auto ad = store_.Register(MakeProgram("patch.forgotten"));
  ASSERT_TRUE(ad.ok());
  store_.Forget(ad.value().index());
  uint64_t version = store_.version();
  uint32_t epoch = machine_.table().At(ad.value().index()).data_epoch;
  EXPECT_EQ(store_.Replace(ad.value(), MakeProgram("patch.late")).fault(),
            Fault::kNotFound);
  EXPECT_EQ(store_.version(), version);
  EXPECT_EQ(machine_.table().At(ad.value().index()).data_epoch, epoch);
}

TEST_F(ProgramStoreTest, ReplaceFiresTheHookButRegisterAndForgetDoNot) {
  std::vector<ObjectIndex> retracted;
  store_.SetReplaceHook([&retracted](ObjectIndex index) { retracted.push_back(index); });

  auto ad = store_.Register(MakeProgram("patch.hooked"));
  ASSERT_TRUE(ad.ok());
  EXPECT_TRUE(retracted.empty());

  ASSERT_TRUE(store_.Replace(ad.value(), MakeProgram("patch.hooked2")).ok());
  ASSERT_EQ(retracted.size(), 1u);
  EXPECT_EQ(retracted[0], ad.value().index());

  store_.Forget(ad.value().index());
  EXPECT_EQ(retracted.size(), 1u);
}

TEST_F(ProgramStoreTest, FindReturnsTheRawProgramWithoutResolution) {
  auto ad = store_.Register(MakeProgram("fetch.find"));
  ASSERT_TRUE(ad.ok());
  const Program* program = store_.Find(ad.value().index());
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->name(), "fetch.find");
  // Find consults only the side table: a freed object is invisible to it (callers pair it
  // with a Resolve, as Kernel::FetchProgram does).
  ASSERT_TRUE(machine_.table().Free(ad.value().index()).ok());
  EXPECT_NE(store_.Find(ad.value().index()), nullptr);
}

}  // namespace
}  // namespace imax432
