#include "src/arch/physical_memory.h"

#include <gtest/gtest.h>

namespace imax432 {
namespace {

TEST(PhysicalMemoryTest, StartsZeroed) {
  PhysicalMemory memory(64);
  for (uint32_t i = 0; i < 64; ++i) {
    auto v = memory.Read(i, 1);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), 0u);
  }
}

TEST(PhysicalMemoryTest, ScalarRoundTripAllWidths) {
  PhysicalMemory memory(64);
  for (uint32_t width : {1u, 2u, 4u, 8u}) {
    uint64_t value = 0x1122334455667788u & ((width == 8) ? ~0ull : ((1ull << (8 * width)) - 1));
    ASSERT_TRUE(memory.Write(8, width, value).ok());
    auto read = memory.Read(8, width);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), value) << "width " << width;
  }
}

TEST(PhysicalMemoryTest, LittleEndianLayout) {
  PhysicalMemory memory(16);
  ASSERT_TRUE(memory.Write(0, 4, 0x0A0B0C0Du).ok());
  EXPECT_EQ(memory.Read(0, 1).value(), 0x0Du);
  EXPECT_EQ(memory.Read(1, 1).value(), 0x0Cu);
  EXPECT_EQ(memory.Read(2, 1).value(), 0x0Bu);
  EXPECT_EQ(memory.Read(3, 1).value(), 0x0Au);
}

TEST(PhysicalMemoryTest, OutOfRangeFaults) {
  PhysicalMemory memory(16);
  EXPECT_EQ(memory.Read(16, 1).fault(), Fault::kBoundsViolation);
  EXPECT_EQ(memory.Read(15, 2).fault(), Fault::kBoundsViolation);
  EXPECT_EQ(memory.Write(13, 4, 0).fault(), Fault::kBoundsViolation);
  EXPECT_TRUE(memory.Write(12, 4, 0).ok());
}

TEST(PhysicalMemoryTest, OverflowingAddressFaults) {
  PhysicalMemory memory(16);
  // addr + length would wrap around 32 bits; must not be treated as in range.
  EXPECT_EQ(memory.Read(0xfffffff0u, 8).fault(), Fault::kBoundsViolation);
}

TEST(PhysicalMemoryTest, ScalarWidthsOtherThanOneTwoFourEightFault) {
  PhysicalMemory memory(64);
  EXPECT_EQ(memory.Read(0, 3).fault(), Fault::kInvalidArgument);
  EXPECT_EQ(memory.Write(0, 16, 1).fault(), Fault::kInvalidArgument);
  EXPECT_EQ(memory.Read(0, 8).value(), 0u);  // nothing was written
}

TEST(PhysicalMemoryTest, BlockRoundTrip) {
  PhysicalMemory memory(128);
  uint8_t out[32];
  uint8_t in[32];
  for (int i = 0; i < 32; ++i) {
    in[i] = static_cast<uint8_t>(i * 3);
  }
  ASSERT_TRUE(memory.WriteBlock(40, in, 32).ok());
  ASSERT_TRUE(memory.ReadBlock(40, out, 32).ok());
  EXPECT_EQ(std::memcmp(in, out, 32), 0);
}

TEST(PhysicalMemoryTest, ZeroClearsRange) {
  PhysicalMemory memory(64);
  ASSERT_TRUE(memory.Write(10, 8, ~0ull).ok());
  ASSERT_TRUE(memory.Zero(10, 8).ok());
  EXPECT_EQ(memory.Read(10, 8).value(), 0u);
}

}  // namespace
}  // namespace imax432
