// Bit-granular reads/writes over packet bytes: P4 fields are arbitrary
// bit slices (9-bit ports, 4-bit IHL, 1-bit flags), so the executor
// addresses them as (bit offset, width) within the packet. Both move
// whole bytes (a leading partial byte, full bytes, a trailing partial
// byte), so a 32-bit address costs four byte moves, not 32 bit steps.
// The interpreter, the parser, the compiled engine, the explorer and
// the cost walker all read and write fields through these two.
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

/// Mask a value to `width` bits.
constexpr std::uint64_t mask_to_width(std::uint64_t v, std::size_t width) {
  return width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
}

}  // namespace dejavu::sim
