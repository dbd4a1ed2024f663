#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace pmemolap {
namespace {

/// The textbook bytewise CRC-32: one table lookup per byte over the same
/// reflected 0xEDB88320 polynomial. Crc32 must match it bit for bit.
uint32_t ReferenceCrc32(const uint8_t* bytes, size_t size, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFF];
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Crc32Test, SensitiveToEveryBit) {
  std::string data(64, 'x');
  uint32_t base = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(flipped[i] ^ 1);
    EXPECT_NE(Crc32(flipped.data(), flipped.size()), base) << i;
  }
}

TEST(Crc32Test, SeedContinuation) {
  // crc(a ++ b) == crc(b, seed = crc(a)).
  const char* a = "hello ";
  const char* b = "world";
  uint32_t whole = Crc32("hello world", 11);
  uint32_t split = Crc32(b, std::strlen(b), Crc32(a, std::strlen(a)));
  EXPECT_EQ(split, whole);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-130 cross the eight-byte step and its byte tail many times
  // over; offsets 0-7 start the step at every alignment.
  std::vector<uint8_t> buffer = RandomBytes(130 + 8, /*seed=*/17);
  Rng seeds(23);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t length = 0; length <= 130; ++length) {
      uint32_t seed = static_cast<uint32_t>(seeds.Next());
      const uint8_t* data = buffer.data() + align;
      EXPECT_EQ(Crc32(data, length, seed),
                ReferenceCrc32(data, length, seed))
          << "align " << align << " length " << length;
      EXPECT_EQ(Crc32(data, length), ReferenceCrc32(data, length, 0))
          << "align " << align << " length " << length;
    }
  }
}

TEST(Crc32Test, SeedContinuationAtEverySplitPoint) {
  std::vector<uint8_t> small = RandomBytes(1024, /*seed=*/5);
  uint32_t whole = Crc32(small.data(), small.size());
  ASSERT_EQ(whole, ReferenceCrc32(small.data(), small.size(), 0));
  for (size_t split = 0; split <= small.size(); ++split) {
    uint32_t head = Crc32(small.data(), split);
    EXPECT_EQ(Crc32(small.data() + split, small.size() - split, head), whole)
        << "split " << split;
  }
  // Over 1 MiB, with splits on and off the eight-byte step.
  std::vector<uint8_t> large = RandomBytes((1 << 20) + 13, /*seed=*/6);
  uint32_t large_whole = Crc32(large.data(), large.size());
  EXPECT_EQ(large_whole, ReferenceCrc32(large.data(), large.size(), 0));
  for (size_t split : {size_t{1}, size_t{4099}, large.size() / 2,
                       large.size() - 3}) {
    uint32_t head = Crc32(large.data(), split);
    EXPECT_EQ(Crc32(large.data() + split, large.size() - split, head),
              large_whole)
        << "split " << split;
  }
}

TEST(Crc32Test, OrderMatters) {
  EXPECT_NE(Crc32("ab", 2), Crc32("ba", 2));
}

}  // namespace
}  // namespace pmemolap
