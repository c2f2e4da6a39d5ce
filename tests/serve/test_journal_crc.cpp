// Differential test of journal_crc32's slicing-by-8 kernel: the check
// value of the IEEE polynomial, and agreement with a test-local bytewise
// referee for every length 0-64 at every start offset 0-7, so each split
// between the 8-byte loop and the byte tail is covered.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/journal.hpp"

namespace lion::serve {
namespace {

// The textbook table-driven CRC-32 (reflected 0xEDB88320, init and final
// XOR 0xFFFFFFFF), one byte per step.
std::uint32_t bytewise_crc32(std::string_view data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(JournalCrc, MatchesTheBytewiseRefereeAtEveryLengthAndOffset) {
  EXPECT_EQ(bytewise_crc32("123456789"), 0xCBF43926u);  // the check value
  EXPECT_EQ(journal_crc32("123456789"), 0xCBF43926u);
  // Seeded pseudo-random bytes, high bit set in about half of them.
  std::string buf(64 + 8, '\0');
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (char& c : buf) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(state >> 56);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view s = std::string_view(buf).substr(offset, len);
      EXPECT_EQ(journal_crc32(s), bytewise_crc32(s))
          << "offset " << offset << " length " << len;
    }
  }
  const std::string ones(100, '\xFF');
  EXPECT_EQ(journal_crc32(ones), bytewise_crc32(ones));
}

}  // namespace
}  // namespace lion::serve
