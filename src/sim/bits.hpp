// Bit-granular reads/writes over packet bytes: P4 fields are arbitrary
// bit slices (9-bit ports, 4-bit IHL, 1-bit flags), so the executor
// addresses them as (bit offset, width) within the packet. Both move
// whole bytes (a leading partial byte, full bytes, a trailing partial
// byte), so a 32-bit address costs four byte moves, not 32 bit steps.
//
// Two forms share one body. read_bits/write_bits range-check every
// access: the interpreter, the parsers, the explorer and the cost
// walker use them. The *_unchecked forms check nothing: the compiled
// engine uses them for fields inside a header its parser already found
// inside the buffer, and it refuses fields wider than 64 bits when the
// program is lowered (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dejavu::sim {

/// Read `width` bits (<= 64) starting `bit_offset` bits into `data`,
/// MSB-first (network bit order). Throws std::out_of_range when the
/// slice exceeds the buffer.
std::uint64_t read_bits(std::span<const std::byte> data,
                        std::size_t bit_offset, std::size_t width);

/// Write the low `width` bits of `value` at the slice, MSB-first.
void write_bits(std::span<std::byte> data, std::size_t bit_offset,
                std::size_t width, std::uint64_t value);

/// read_bits without the range check. The caller guarantees
/// `width <= 64` and that the slice lies inside `data`.
std::uint64_t read_bits_unchecked(const std::byte* data,
                                  std::size_t bit_offset, std::size_t width);

/// write_bits without the range check, under read_bits_unchecked's
/// guarantee.
void write_bits_unchecked(std::byte* data, std::size_t bit_offset,
                          std::size_t width, std::uint64_t value);

/// Mask a value to `width` bits.
constexpr std::uint64_t mask_to_width(std::uint64_t v, std::size_t width) {
  return width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
}

}  // namespace dejavu::sim
