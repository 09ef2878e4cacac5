#include "storage/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>

#include "../test_util.h"

namespace tvmec::storage {
namespace {

std::uint32_t crc_of(std::string_view s) {
  return crc32c({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

/// Published CRC-32C test vectors (RFC 3720 / kernel crypto testmgr).
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c({}), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xC1D04330u);
  EXPECT_EQ(crc_of("abc"), 0x364B3FB7u);
  EXPECT_EQ(crc_of("message digest"), 0x02BD79D0u);
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
  EXPECT_EQ(crc_of("abcdefghijklmnopqrstuvwxyz"), 0x9EE6EF25u);
}

TEST(Crc32c, AllZeros32Bytes) {
  // The RFC 3720 B.4 example: 32 bytes of zeros -> 0x8A9136AA.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const auto data = testutil::random_vector(1000, 1);
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split : {0u, 1u, 7u, 8u, 500u, 999u, 1000u}) {
    std::uint32_t crc = 0;
    crc = crc32c_extend(crc, std::span<const std::uint8_t>(data).first(split));
    crc = crc32c_extend(crc,
                        std::span<const std::uint8_t>(data).subspan(split));
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto data = testutil::random_vector(256, 2);
  const std::uint32_t clean = crc32c(data);
  for (const std::size_t byte : {0u, 100u, 255u}) {
    for (const int bit : {0, 3, 7}) {
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc32c(data), clean);
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
  EXPECT_EQ(crc32c(data), clean);
}

/// Bit-at-a-time CRC-32C: the definition, sharing nothing with either
/// library path.
std::uint32_t crc_reference(std::span<const std::uint8_t> data) {
  std::uint32_t crc = ~0u;
  for (const std::uint8_t b : data) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
  }
  return ~crc;
}

// The hardware path's lane widths in bytes (crc32c_sse42.cpp): blocks of
// three 4096-byte lanes, then three 256-byte lanes, then one lane.
constexpr std::size_t kLaneWidths[] = {256, 4096};

/// Lengths around one, two and three lanes (three lanes is one block)
/// and two blocks of each lane width: where the three-lane loops start,
/// stop and hand over to the tail.
std::vector<std::size_t> lane_edge_lengths() {
  std::vector<std::size_t> lens;
  for (const std::size_t lane : kLaneWidths)
    for (const std::size_t lanes : {1u, 2u, 3u, 6u})
      for (std::size_t len = lanes * lane - 9; len <= lanes * lane + 9; ++len)
        lens.push_back(len);
  return lens;
}

TEST(Crc32c, MatchesReferenceOnShortLengths) {
  const auto data = testutil::random_vector(64, 4);
  for (std::size_t len = 0; len <= 64; ++len) {
    const auto s = std::span<const std::uint8_t>(data).first(len);
    EXPECT_EQ(crc32c(s), crc_reference(s)) << "len " << len;
  }
}

TEST(Crc32c, MatchesReferenceAtLaneEdges) {
  const auto data = testutil::random_vector(6 * 4096 + 9, 5);
  for (const std::size_t len : lane_edge_lengths()) {
    const auto s = std::span<const std::uint8_t>(data).first(len);
    EXPECT_EQ(crc32c(s), crc_reference(s)) << "len " << len;
  }
}

TEST(Crc32c, MatchesReferenceAtEveryStartOffset) {
  const auto data = testutil::random_vector(3 * 4096 + 64, 6);
  for (std::size_t off = 0; off < 16; ++off) {
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{33},
          std::size_t{3 * 256 + 5}, std::size_t{3 * 4096 + 40}}) {
      const auto s = std::span<const std::uint8_t>(data).subspan(off, len);
      EXPECT_EQ(crc32c(s), crc_reference(s))
          << "offset " << off << " len " << len;
    }
  }
}

TEST(Crc32c, IncrementalSplitsInsideAndAcrossLaneBlocks) {
  const auto data = testutil::random_vector(2 * 3 * 4096 + 1000, 7);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc_reference(all);
  const std::size_t cuts[] = {1,    255,  256,  257,  767,   768,   769,
                              1000, 4095, 4096, 4097, 12287, 12288, 12289,
                              20000, 24575, 24576, 24577};
  for (const std::size_t a : cuts) {
    EXPECT_EQ(crc32c_extend(crc32c(all.first(a)), all.subspan(a)), whole)
        << "split at " << a;
    for (const std::size_t b : cuts) {
      if (b <= a) continue;
      std::uint32_t crc = crc32c(all.first(a));
      crc = crc32c_extend(crc, all.subspan(a, b - a));
      crc = crc32c_extend(crc, all.subspan(b));
      EXPECT_EQ(crc, whole) << "splits at " << a << ", " << b;
    }
  }
}

TEST(Crc32c, MatchesReferenceAtStoreUnitSizes) {
  // The unit sizes the stores and the cluster checksum.
  for (const std::size_t unit : {std::size_t{4} << 10, std::size_t{64} << 10,
                                 std::size_t{128} << 10,
                                 std::size_t{1} << 20}) {
    const auto data = testutil::random_bytes(unit, unit);
    EXPECT_EQ(crc32c(data.span()), crc_reference(data.span()))
        << "unit " << unit;
  }
}

TEST(Crc32c, UnalignedBuffersMatchAligned) {
  const auto aligned = testutil::random_bytes(512, 3);
  std::vector<std::uint8_t> shifted(513);
  std::memcpy(shifted.data() + 1, aligned.data(), 512);
  EXPECT_EQ(crc32c(aligned.span()),
            crc32c(std::span<const std::uint8_t>(shifted).subspan(1)));
}

}  // namespace
}  // namespace tvmec::storage
