#include "sim/bits.hpp"

#include <algorithm>
#include <stdexcept>

namespace dejavu::sim {

namespace {

void check(std::span<const std::byte> data, std::size_t bit_offset,
           std::size_t width) {
  if (width > 64) throw std::out_of_range("bit width > 64");
  if (bit_offset + width > data.size() * 8) {
    throw std::out_of_range("bit slice beyond buffer end");
  }
}

constexpr std::uint8_t low_bits(std::size_t n) {
  return static_cast<std::uint8_t>((1u << n) - 1);
}

}  // namespace

std::uint64_t read_bits(std::span<const std::byte> data,
                        std::size_t bit_offset, std::size_t width) {
  check(data, bit_offset, width);
  return read_bits_unchecked(data.data(), bit_offset, width);
}

void write_bits(std::span<std::byte> data, std::size_t bit_offset,
                std::size_t width, std::uint64_t value) {
  check(data, bit_offset, width);
  write_bits_unchecked(data.data(), bit_offset, width, value);
}

// Both walk the slice as a leading partial byte, whole bytes, then a
// trailing partial byte, so the accumulator never holds more than
// `width` bits.

std::uint64_t read_bits_unchecked(const std::byte* data,
                                  std::size_t bit_offset, std::size_t width) {
  if (width == 0) return 0;
  const std::byte* p = data + bit_offset / 8;
  std::size_t left = width;
  std::uint64_t v = 0;
  if (const std::size_t lead = bit_offset % 8; lead != 0) {
    const std::size_t n = std::min(left, 8 - lead);
    v = (std::to_integer<std::uint64_t>(*p++) >> (8 - lead - n)) &
        low_bits(n);
    left -= n;
  }
  for (; left >= 8; left -= 8) {
    v = (v << 8) | std::to_integer<std::uint64_t>(*p++);
  }
  if (left != 0) {
    v = (v << left) | (std::to_integer<std::uint64_t>(*p) >> (8 - left));
  }
  return v;
}

void write_bits_unchecked(std::byte* data, std::size_t bit_offset,
                          std::size_t width, std::uint64_t value) {
  if (width == 0) return;
  std::byte* p = data + bit_offset / 8;
  std::size_t left = width;
  // Merge the low `n` bits of `bits` into *p at `shift` from the LSB.
  auto merge = [](std::byte& b, std::uint64_t bits, std::size_t n,
                  std::size_t shift) {
    const auto mask = static_cast<std::uint8_t>(low_bits(n) << shift);
    const auto old = std::to_integer<std::uint8_t>(b);
    b = static_cast<std::byte>((old & ~mask) | ((bits << shift) & mask));
  };
  if (const std::size_t lead = bit_offset % 8; lead != 0) {
    const std::size_t n = std::min(left, 8 - lead);
    left -= n;
    merge(*p++, value >> left, n, 8 - lead - n);
  }
  for (; left >= 8; left -= 8) {
    *p++ = static_cast<std::byte>(value >> (left - 8));
  }
  if (left != 0) merge(*p, value, left, 8 - left);
}

}  // namespace dejavu::sim
