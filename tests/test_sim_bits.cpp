#include "sim/bits.hpp"

#include <gtest/gtest.h>

#include <random>

#include "net/bytes.hpp"

namespace dejavu::sim {
namespace {

// Bit-serial reference implementations: one bit per step, MSB-first.
std::uint64_t ref_read(const std::vector<std::byte>& data, std::size_t off,
                       std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t bit = off + i;
    v = (v << 1) |
        ((std::to_integer<std::uint64_t>(data[bit / 8]) >> (7 - bit % 8)) & 1);
  }
  return v;
}

void ref_write(std::vector<std::byte>& data, std::size_t off,
               std::size_t width, std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t bit = off + i;
    const auto mask = static_cast<std::uint8_t>(1u << (7 - bit % 8));
    auto b = std::to_integer<std::uint8_t>(data[bit / 8]);
    b = ((value >> (width - 1 - i)) & 1) ? (b | mask) : (b & ~mask);
    data[bit / 8] = static_cast<std::byte>(b);
  }
}

std::vector<std::byte> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng() & 0xff);
  return out;
}

TEST(Bits, ByteAlignedReads) {
  auto data = net::from_hex("0123456789abcdef");
  EXPECT_EQ(read_bits(data, 0, 8), 0x01u);
  EXPECT_EQ(read_bits(data, 8, 16), 0x2345u);
  EXPECT_EQ(read_bits(data, 0, 64), 0x0123456789abcdefULL);
}

TEST(Bits, UnalignedReads) {
  // 0x4f = 0100 1111: version nibble 4, then 1111...
  auto data = net::from_hex("4f00");
  EXPECT_EQ(read_bits(data, 0, 4), 4u);
  EXPECT_EQ(read_bits(data, 4, 4), 0xfu);
  EXPECT_EQ(read_bits(data, 4, 8), 0xf0u);
  EXPECT_EQ(read_bits(data, 1, 3), 0b100u);
}

TEST(Bits, WriteReadRoundTripUnaligned) {
  std::vector<std::byte> data(4);
  write_bits(data, 3, 9, 0x155);  // 9 bits across byte boundary
  EXPECT_EQ(read_bits(data, 3, 9), 0x155u);
  // Neighbours untouched.
  EXPECT_EQ(read_bits(data, 0, 3), 0u);
  EXPECT_EQ(read_bits(data, 12, 12), 0u);
}

TEST(Bits, WriteMasksToWidth) {
  std::vector<std::byte> data(2);
  write_bits(data, 0, 4, 0xff);  // only low 4 bits land
  EXPECT_EQ(read_bits(data, 0, 4), 0xfu);
  EXPECT_EQ(read_bits(data, 4, 4), 0u);
}

TEST(Bits, OutOfRangeThrows) {
  std::vector<std::byte> data(2);
  EXPECT_THROW(read_bits(data, 9, 8), std::out_of_range);
  EXPECT_THROW(read_bits(data, 0, 65), std::out_of_range);
  EXPECT_THROW(write_bits(data, 16, 1, 0), std::out_of_range);
}

// Every offset 0-127 and width 0-64 against the bit-serial reference,
// on seeded random buffers: a consistent bit-order bug that round-trips
// cleanly still disagrees with the reference here.
TEST(Bits, MatchesBitSerialReference) {
  std::mt19937_64 rng(0x5eed);
  for (std::size_t off = 0; off < 128; ++off) {
    for (std::size_t width = 0; width <= 64; ++width) {
      // Leave a random tail after the slice (possibly none).
      const std::size_t bytes = (off + width + 7) / 8 + rng() % 3;
      const std::vector<std::byte> data = random_bytes(rng, bytes);
      ASSERT_EQ(read_bits(data, off, width), ref_read(data, off, width))
          << "read off=" << off << " width=" << width;

      const std::uint64_t value = rng();  // high bits beyond width too
      std::vector<std::byte> got = data;
      std::vector<std::byte> want = data;
      write_bits(got, off, width, value);
      ref_write(want, off, width, value);
      ASSERT_EQ(got, want) << "write off=" << off << " width=" << width;
      // Only the slice changed, and it now reads back the value.
      EXPECT_EQ(ref_read(got, off, width), mask_to_width(value, width));
      EXPECT_EQ(ref_read(got, 0, std::min<std::size_t>(off, 64)),
                ref_read(data, 0, std::min<std::size_t>(off, 64)));
      for (std::size_t bit = 0; bit < bytes * 8; ++bit) {
        if (bit >= off && bit < off + width) continue;
        ASSERT_EQ(ref_read(got, bit, 1), ref_read(data, bit, 1))
            << "bit " << bit << " outside off=" << off << " width=" << width;
      }
    }
  }
}

TEST(Bits, OutOfRangeThrowsAtEveryEdge) {
  for (std::size_t bytes = 0; bytes <= 9; ++bytes) {
    std::vector<std::byte> data(bytes);
    const std::size_t end = bytes * 8;
    for (std::size_t width = 0; width <= 64 && width <= end; ++width) {
      EXPECT_NO_THROW(read_bits(data, end - width, width));
      EXPECT_NO_THROW(write_bits(data, end - width, width, ~0ULL));
      EXPECT_THROW(read_bits(data, end - width + 1, width), std::out_of_range);
      EXPECT_THROW(write_bits(data, end - width + 1, width, 0),
                   std::out_of_range);
    }
    EXPECT_THROW(read_bits(data, 0, 65), std::out_of_range);
    EXPECT_THROW(write_bits(data, 0, 65, 0), std::out_of_range);
  }
}

TEST(Bits, MaskToWidth) {
  EXPECT_EQ(mask_to_width(0xffff, 8), 0xffu);
  EXPECT_EQ(mask_to_width(0x1ff, 9), 0x1ffu);
  EXPECT_EQ(mask_to_width(~0ULL, 64), ~0ULL);
}

/// Property sweep: write/read round-trips at every offset/width combo
/// in a window.
class BitSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BitSweep, RoundTrip) {
  auto [offset, width] = GetParam();
  std::vector<std::byte> data(12, std::byte{0xa5});
  const std::uint64_t value =
      0x123456789abcdef0ULL & ((width >= 64) ? ~0ULL
                                             : ((1ULL << width) - 1));
  const std::vector<std::byte> before = data;
  write_bits(data, offset, width, value);
  EXPECT_EQ(read_bits(data, offset, width), value);
  // Bits outside the slice are untouched.
  if (offset > 0) {
    EXPECT_EQ(read_bits(data, 0, offset),
              read_bits(before, 0, offset));
  }
  const std::size_t after_off = offset + width;
  const std::size_t tail = data.size() * 8 - after_off;
  if (tail > 0) {
    EXPECT_EQ(read_bits(data, after_off, std::min<std::size_t>(tail, 64)),
              read_bits(before, after_off, std::min<std::size_t>(tail, 64)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndWidths, BitSweep,
    ::testing::Combine(::testing::Values(0, 1, 3, 7, 8, 9, 15, 23),
                       ::testing::Values(1, 4, 8, 9, 16, 24, 33, 48)));

}  // namespace
}  // namespace dejavu::sim
