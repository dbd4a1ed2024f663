#include "common/crc32.h"

#include <array>

namespace pmemolap {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE CRC-32

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const auto& t = kTables;
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    uint32_t lo = crc ^ Load32(bytes);
    uint32_t hi = Load32(bytes + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFF];
  }
  return ~crc;
}

}  // namespace pmemolap
