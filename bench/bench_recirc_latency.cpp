// Reproduces Fig. 8(b): recirculation latency — on-chip (~75 ns, via
// dedicated circuitry without SerDes) vs off-chip (~145 ns through a
// 1 m DAC), against the ~650 ns port-to-port baseline — plus the
// queueing delay the feedback queue adds under contention (measured on
// the packet-level simulator).
#include "bench_util.hpp"
#include "place/placement.hpp"
#include "sim/latency.hpp"
#include "sim/queue_sim.hpp"

namespace {

using namespace dejavu;

void print_fig8b() {
  sim::LatencyModel model(asic::TargetSpec::tofino32());
  bench::heading("Fig. 8(b): recirculation latency");
  std::printf("port-to-port (idle buffers): %.0f ns (paper ~650 ns)\n",
              model.base_ns());
  std::printf("%-10s %-16s %-16s\n", "recircs", "on-chip (ns)",
              "off-chip (ns)");
  for (std::uint32_t k = 1; k <= 5; ++k) {
    std::printf("%-10u %-16.0f %-16.0f\n", k,
                model.recirc_total_ns(k, sim::RecircMode::kOnChip) -
                    model.base_ns(),
                model.recirc_total_ns(k, sim::RecircMode::kOffChip) -
                    model.base_ns());
  }
  std::printf("per recirculation: on-chip %.0f ns (paper ~75), off-chip "
              "%.0f ns (paper ~145, i.e. ~70 ns slower)\n",
              model.recirc_ns(sim::RecircMode::kOnChip),
              model.recirc_ns(sim::RecircMode::kOffChip));
  std::printf("on-chip/off-chip ratio: %.1fx (paper: ~2x faster)\n",
              model.recirc_ns(sim::RecircMode::kOffChip) /
                  model.recirc_ns(sim::RecircMode::kOnChip));
}

void print_queueing_delay() {
  bench::heading("Queueing delay under loopback contention (extra slots "
                 "per delivered packet)");
  std::printf("%-8s %-18s %-14s\n", "recircs", "mean extra slots",
              "loss fraction");
  for (std::uint32_t k = 1; k <= 5; ++k) {
    sim::QueueSimParams params;
    params.recirculations = k;
    auto r = sim::simulate_recirculation(params);
    std::printf("%-8u %-18.1f %-14.3f\n", k, r.mean_extra_slots,
                r.loss_fraction);
  }
}

}  // namespace

int main() {
  print_fig8b();
  print_queueing_delay();
  return 0;
}
