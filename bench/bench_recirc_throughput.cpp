// Reproduces Fig. 7 and Fig. 8(a): the feedback-queue throughput model
// of §4 and its packet-level validation (our substitute for the Tofino
// internal-packet-generator testbed run).
//
// Paper reference points (100 Gbps injected, one loopback port):
//   0 recirc -> 100 Gbps, 1 -> 100, 2 -> 38 (x = 0.62T), 3 -> 16,
//   4 -> ~7, 5 -> ~3. "Effective throughput degrades super-linearly."
#include "bench_util.hpp"
#include "sim/fluid.hpp"
#include "sim/queue_sim.hpp"

namespace {

using namespace dejavu;

void print_fig8a() {
  bench::heading("Fig. 8(a): throughput vs number of recirculations");
  std::printf("%-8s %-14s %-14s %-14s %-10s\n", "recircs",
              "fluid (Gbps)", "packet-sim", "paper (Gbps)", "survival s");
  const double paper[] = {100, 100, 38, 16, 7, 3};
  for (std::uint32_t k = 0; k <= 5; ++k) {
    sim::QueueSimParams params;
    params.recirculations = k;
    params.slots = 200000;
    params.warmup_slots = 40000;
    auto qs = sim::simulate_recirculation(params);
    std::printf("%-8u %-14.1f %-14.1f %-14.0f %-10.4f\n", k,
                sim::recirc_throughput_gbps(100, k), qs.delivered_gbps,
                paper[k], sim::loopback_survival(k));
  }
}

void print_fig7_derivation() {
  bench::heading("Fig. 7(b) / §4 closed-form derivation (T = 100 Gbps)");
  auto gens = sim::generation_throughputs_gbps(100, 2);
  std::printf("2-recirc: x = %.1f (paper 0.62T), exit = %.1f "
              "(paper 0.38T)\n", gens[0], gens[1]);
  auto gens3 = sim::generation_throughputs_gbps(100, 3);
  std::printf("3-recirc: exit = %.1f (paper 0.16T)\n", gens3[2]);
  std::printf("loopback port load (must equal T): 2-recirc %.2f, "
              "3-recirc %.2f\n", gens[0] + gens[1],
              gens3[0] + gens3[1] + gens3[2]);
}

void print_capacity_split() {
  bench::heading("§4 capacity split: m of n=32 ports in loopback mode");
  std::printf("%-6s %-22s %-26s\n", "m", "external capacity",
              "1-recirc fraction min(1,m/(n-m))");
  for (std::uint32_t m : {0u, 4u, 8u, 16u, 24u}) {
    std::printf("%-6u %-22.2f %-26.2f\n", m,
                3200 * sim::external_capacity_fraction(32, m),
                sim::single_recirc_fraction(32, m));
  }
}

}  // namespace

int main() {
  print_fig8a();
  print_fig7_derivation();
  print_capacity_split();
  return 0;
}
