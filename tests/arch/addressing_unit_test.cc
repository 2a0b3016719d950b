#include "src/arch/addressing_unit.h"

#include <gtest/gtest.h>

#include "src/arch/object_table.h"
#include "src/arch/physical_memory.h"

namespace imax432 {
namespace {

class AddressingUnitTest : public ::testing::Test {
 protected:
  AddressingUnitTest() : memory_(4096), table_(64), unit_(&table_, &memory_) {}

  // Creates an object with the given geometry and returns an AD with `ad_rights`.
  AccessDescriptor MakeObject(Level level, uint32_t data_bytes, uint32_t access_slots,
                              RightsMask ad_rights, SystemType type = SystemType::kGeneric) {
    auto index = table_.Allocate(type, level, next_base_, data_bytes, access_slots,
                                 /*origin_sro=*/0, data_bytes + access_slots * kAdArchBytes);
    EXPECT_TRUE(index.ok());
    next_base_ += data_bytes ? data_bytes : 1;
    auto ad = table_.MintAd(index.value(), ad_rights);
    EXPECT_TRUE(ad.ok());
    return ad.value();
  }

  PhysicalMemory memory_;
  ObjectTable table_;
  AddressingUnit unit_;
  PhysAddr next_base_ = 0;
};

TEST_F(AddressingUnitTest, DataRoundTrip) {
  AccessDescriptor ad = MakeObject(0, 64, 0, rights::kRead | rights::kWrite);
  ASSERT_TRUE(unit_.WriteData(ad, 16, 4, 0xdeadbeef).ok());
  auto value = unit_.ReadData(ad, 16, 4);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 0xdeadbeefu);
}

TEST_F(AddressingUnitTest, ReadRequiresReadRight) {
  AccessDescriptor ad = MakeObject(0, 64, 0, rights::kWrite);
  EXPECT_EQ(unit_.ReadData(ad, 0, 4).fault(), Fault::kRightsViolation);
  EXPECT_TRUE(unit_.WriteData(ad, 0, 4, 1).ok());
}

TEST_F(AddressingUnitTest, WriteRequiresWriteRight) {
  AccessDescriptor ad = MakeObject(0, 64, 0, rights::kRead);
  EXPECT_EQ(unit_.WriteData(ad, 0, 4, 1).fault(), Fault::kRightsViolation);
  EXPECT_TRUE(unit_.ReadData(ad, 0, 4).ok());
}

TEST_F(AddressingUnitTest, DataBoundsEnforced) {
  AccessDescriptor ad = MakeObject(0, 16, 0, rights::kRead | rights::kWrite);
  EXPECT_TRUE(unit_.WriteData(ad, 12, 4, 1).ok());
  EXPECT_EQ(unit_.WriteData(ad, 13, 4, 1).fault(), Fault::kBoundsViolation);
  EXPECT_EQ(unit_.ReadData(ad, 16, 1).fault(), Fault::kBoundsViolation);
}

TEST_F(AddressingUnitTest, InvalidWidthFaults) {
  AccessDescriptor ad = MakeObject(0, 16, 0, rights::kRead | rights::kWrite);
  EXPECT_EQ(unit_.ReadData(ad, 0, 3).fault(), Fault::kInvalidArgument);
  EXPECT_EQ(unit_.WriteData(ad, 0, 5, 1).fault(), Fault::kInvalidArgument);
}

TEST_F(AddressingUnitTest, NullAdFaults) {
  EXPECT_EQ(unit_.ReadData(AccessDescriptor(), 0, 4).fault(), Fault::kNullAccess);
  EXPECT_EQ(unit_.ReadAd(AccessDescriptor(), 0).fault(), Fault::kNullAccess);
}

TEST_F(AddressingUnitTest, AdSlotRoundTrip) {
  AccessDescriptor container = MakeObject(2, 0, 4, rights::kRead | rights::kWrite);
  AccessDescriptor payload = MakeObject(1, 8, 0, rights::kRead);
  ASSERT_TRUE(unit_.WriteAd(container, 2, payload).ok());
  auto loaded = unit_.ReadAd(container, 2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), payload);
}

TEST_F(AddressingUnitTest, AdSlotBoundsEnforced) {
  AccessDescriptor container = MakeObject(0, 0, 2, rights::kRead | rights::kWrite);
  AccessDescriptor payload = MakeObject(0, 8, 0, rights::kRead);
  EXPECT_EQ(unit_.WriteAd(container, 2, payload).fault(), Fault::kBoundsViolation);
  EXPECT_EQ(unit_.ReadAd(container, 5).fault(), Fault::kBoundsViolation);
}

TEST_F(AddressingUnitTest, LevelRuleBlocksEscapingStores) {
  // "The hardware ensures that an access for an object may never be stored into an object
  // with a lower (more global) level number."
  AccessDescriptor global_container = MakeObject(0, 0, 2, rights::kRead | rights::kWrite);
  AccessDescriptor local_payload = MakeObject(3, 8, 0, rights::kRead);
  EXPECT_EQ(unit_.WriteAd(global_container, 0, local_payload).fault(), Fault::kLevelViolation);

  // The reverse direction (local container, global payload) is fine.
  AccessDescriptor local_container = MakeObject(3, 0, 2, rights::kRead | rights::kWrite);
  AccessDescriptor global_payload = MakeObject(0, 8, 0, rights::kRead);
  EXPECT_TRUE(unit_.WriteAd(local_container, 0, global_payload).ok());
}

TEST_F(AddressingUnitTest, SameLevelStoresAllowed) {
  AccessDescriptor container = MakeObject(2, 0, 1, rights::kRead | rights::kWrite);
  AccessDescriptor payload = MakeObject(2, 8, 0, rights::kRead);
  EXPECT_TRUE(unit_.WriteAd(container, 0, payload).ok());
}

TEST_F(AddressingUnitTest, StoringNullClearsSlot) {
  AccessDescriptor container = MakeObject(1, 0, 1, rights::kRead | rights::kWrite);
  AccessDescriptor payload = MakeObject(0, 8, 0, rights::kRead);
  ASSERT_TRUE(unit_.WriteAd(container, 0, payload).ok());
  ASSERT_TRUE(unit_.WriteAd(container, 0, AccessDescriptor()).ok());
  auto loaded = unit_.ReadAd(container, 0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().is_null());
}

TEST_F(AddressingUnitTest, AdStoreShadesReferencedObjectGray) {
  // "the 432 hardware implements the gray bit of that algorithm, setting it whenever access
  // descriptors are moved."
  AccessDescriptor container = MakeObject(1, 0, 1, rights::kRead | rights::kWrite);
  AccessDescriptor payload = MakeObject(0, 8, 0, rights::kRead);
  ASSERT_EQ(table_.color(payload.index()), GcColor::kWhite);
  uint64_t shades_before = unit_.shade_count();
  ASSERT_TRUE(unit_.WriteAd(container, 0, payload).ok());
  EXPECT_EQ(table_.color(payload.index()), GcColor::kGray);
  EXPECT_EQ(unit_.shade_count(), shades_before + 1);

  // A second store of the same AD does not re-shade (already gray).
  ASSERT_TRUE(unit_.WriteAd(container, 0, payload).ok());
  EXPECT_EQ(unit_.shade_count(), shades_before + 1);
}

TEST_F(AddressingUnitTest, BlackObjectNotReshaded) {
  AccessDescriptor container = MakeObject(1, 0, 1, rights::kRead | rights::kWrite);
  AccessDescriptor payload = MakeObject(0, 8, 0, rights::kRead);
  table_.Blacken(payload.index());
  ASSERT_TRUE(unit_.WriteAd(container, 0, payload).ok());
  EXPECT_EQ(table_.color(payload.index()), GcColor::kBlack);
}

TEST_F(AddressingUnitTest, WriteAdRequiresWriteRight) {
  AccessDescriptor container = MakeObject(1, 0, 1, rights::kRead);
  AccessDescriptor payload = MakeObject(0, 8, 0, rights::kRead);
  EXPECT_EQ(unit_.WriteAd(container, 0, payload).fault(), Fault::kRightsViolation);
}

TEST_F(AddressingUnitTest, ReadAdRequiresReadRight) {
  AccessDescriptor container = MakeObject(1, 0, 1, rights::kWrite);
  EXPECT_EQ(unit_.ReadAd(container, 0).fault(), Fault::kRightsViolation);
}

TEST_F(AddressingUnitTest, StaleAdStoreFaults) {
  AccessDescriptor container = MakeObject(1, 0, 1, rights::kRead | rights::kWrite);
  AccessDescriptor payload = MakeObject(0, 8, 0, rights::kRead);
  ASSERT_TRUE(table_.Free(payload.index()).ok());
  EXPECT_EQ(unit_.WriteAd(container, 0, payload).fault(), Fault::kInvalidAccess);
}

TEST_F(AddressingUnitTest, ResolveTypedChecksTypeAndRights) {
  AccessDescriptor port =
      MakeObject(0, 16, 4, rights::kRead | rights::kPortSend, SystemType::kPort);
  EXPECT_TRUE(unit_.ResolveTyped(port, SystemType::kPort, rights::kPortSend).ok());
  EXPECT_EQ(unit_.ResolveTyped(port, SystemType::kProcess, rights::kNone).fault(),
            Fault::kTypeMismatch);
  EXPECT_EQ(unit_.ResolveTyped(port, SystemType::kPort, rights::kPortReceive).fault(),
            Fault::kRightsViolation);
}

TEST_F(AddressingUnitTest, BlockTransfersRespectBoundsAndRights) {
  AccessDescriptor ad = MakeObject(0, 32, 0, rights::kRead | rights::kWrite);
  uint8_t in[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  uint8_t out[16] = {};
  ASSERT_TRUE(unit_.WriteDataBlock(ad, 8, in, 16).ok());
  ASSERT_TRUE(unit_.ReadDataBlock(ad, 8, out, 16).ok());
  EXPECT_EQ(std::memcmp(in, out, 16), 0);
  EXPECT_EQ(unit_.WriteDataBlock(ad, 20, in, 16).fault(), Fault::kBoundsViolation);

  AccessDescriptor read_only = MakeObject(0, 32, 0, rights::kRead);
  EXPECT_EQ(unit_.WriteDataBlock(read_only, 0, in, 16).fault(), Fault::kRightsViolation);
}

TEST_F(AddressingUnitTest, SwappedOutSegmentFaults) {
  AccessDescriptor ad = MakeObject(0, 32, 0, rights::kRead | rights::kWrite);
  table_.At(ad.index()).swapped_out = true;
  EXPECT_EQ(unit_.ReadData(ad, 0, 4).fault(), Fault::kSegmentSwapped);
  EXPECT_EQ(unit_.WriteData(ad, 0, 4, 1).fault(), Fault::kSegmentSwapped);
  // Access part stays usable while the data part is swapped (descriptors stay resident).
  AccessDescriptor container = MakeObject(1, 0, 1, rights::kRead | rights::kWrite);
  EXPECT_TRUE(unit_.WriteAd(container, 0, ad).ok());
}

}  // namespace
}  // namespace imax432
