// Host-speed probe. On a shared host the same binary's speed drifts by
// up to 2x over seconds to minutes as other tenants load the caches and
// memory system. The probe is a fixed kernel in the benchmark's own
// code with the same kind of work as the switch's per-packet path (hash
// lookups over a ~1 MB table, ordered-map lookups, packet-sized heap
// buffers). The benchmark runs it between timing windows and scales each
// window's timings by (probe time / kReferenceMs): the result estimates
// what the window would have measured on a host running the probe in
// kReferenceMs. The probe never touches the library under test, so a
// change to the library moves the scaled figures exactly as much as the
// raw ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace perfbench {

class HostProbe {
 public:
  /// The probe's time on an unloaded host (4-vCPU Xeon, the machine the
  /// benchmark was tuned on); only a scale, so other hosts stay
  /// self-consistent.
  static constexpr double kReferenceMs = 1.5;

  HostProbe();

  /// Run the kernel once; returns its wall time in ms.
  double run_ms();

  /// Multiply a duration (divide a rate) by this to correct it.
  static double time_scale(double probe_ms) { return kReferenceMs / probe_ms; }

 private:
  std::unordered_map<std::uint64_t, std::string> table_;
  std::map<int, int> ordered_;
  std::uint64_t state_ = 88172645463325252ull;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
