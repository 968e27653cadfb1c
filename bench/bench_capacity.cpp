// The §4/§5 capacity trade-off: sweeping the number of loopback ports
// trades external (revenue) bandwidth for recirculation headroom.
// Regenerates the numbers behind the §5 statement that with 16 of 32
// ports looped back the switch offers 1.6 Tbps and every external
// packet may recirculate once, and shows where multi-recirculation
// chains become loss-free vs lossy.
#include "bench_util.hpp"
#include "asic/switch_config.hpp"
#include "sim/fluid.hpp"

namespace {

using namespace dejavu;

void print_capacity_sweep() {
  bench::heading("Loopback-port sweep on the 32x100G profile");
  std::printf("%-10s %-16s %-18s %-22s\n", "loopback", "external Tbps",
              "recirc Tbps", "1-recirc fraction");
  for (std::uint32_t m : {0u, 2u, 4u, 8u, 12u, 16u, 20u, 24u}) {
    asic::SwitchConfig config(asic::TargetSpec::tofino32());
    for (std::uint32_t p = 0; p < m; ++p) {
      // Spread loopback ports across both pipelines.
      config.set_loopback(p % 2 == 0 ? p / 2 : 16 + p / 2);
    }
    double recirc_total = config.recirc_capacity_gbps(0) +
                          config.recirc_capacity_gbps(1);
    std::printf("%-10u %-16.1f %-18.1f %-22.2f\n", m,
                config.external_capacity_gbps() / 1000.0,
                recirc_total / 1000.0, config.single_recirc_fraction());
  }
  std::printf("(paper §5: 16 loopback ports -> 1.6 Tbps external, all of "
              "it may recirculate once)\n");
}

void print_chain_depth_capacity() {
  bench::heading("Effective capacity vs chain recirculation depth "
                 "(loopback port saturated)");
  std::printf("%-10s %-20s\n", "recircs", "throughput fraction");
  for (std::uint32_t k = 0; k <= 6; ++k) {
    std::printf("%-10u %-20.3f\n", k,
                sim::recirc_throughput_gbps(1.0, k));
  }
  std::printf("Takeaway 1 (§4): a placement algorithm minimizing "
              "recirculations is critical.\n");
  std::printf("Takeaway 2 (§4): operators can calculate service-chain "
              "throughput after placement;\n  the ASIC itself adds no "
              "recirculation inefficiency.\n");
}

}  // namespace

int main() {
  print_capacity_sweep();
  print_chain_depth_capacity();
  return 0;
}
