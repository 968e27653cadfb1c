#include "probe.hpp"

#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTableEntries = 8192;
constexpr std::uint64_t kKeyStride = 2654435761u;
constexpr int kIterations = 8000;

}  // namespace

HostProbe::HostProbe() {
  for (std::uint64_t i = 0; i < kTableEntries; ++i) {
    table_[i * kKeyStride] = std::string(40, 'a');
  }
  for (int i = 0; i < 64; ++i) ordered_[i] = i;
}

double HostProbe::run_ms() {
  const std::int64_t t0 = now_ns();
  for (int k = 0; k < kIterations; ++k) {
    // xorshift64: a fixed pseudo-random walk over the table.
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    sink_ += table_.find((state_ % kTableEntries) * kKeyStride)->second.size();
    std::vector<std::uint8_t> frame(64 + state_ % 1400);
    sink_ += frame[3] + ordered_[static_cast<int>(state_ % 64)];
  }
  return (now_ns() - t0) * 1e-6;
}

}  // namespace perfbench
