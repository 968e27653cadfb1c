// Extension bench (§4 takeaway 2 applied): predicted service-chain
// throughput for whole deployments. Sweeps offered load on the Fig. 2
// policies under both the paper's Fig. 9 placement (1 recirculation on
// paths 1 and 2) and the optimizer's 0-recirculation packing, showing
// where the recirculation budget saturates and what the optimizer's
// better placement buys in deliverable bandwidth.
#include "bench_util.hpp"
#include "control/deployment.hpp"
#include "sim/throughput.hpp"

namespace {

using namespace dejavu;

void print_load_sweep() {
  auto fig9 = control::make_fig9_deployment();
  auto optimized = control::make_fig2_deployment();

  bench::heading("Offered-load sweep: delivered Tbps by placement");
  std::printf("%-14s %-22s %-22s\n", "offered Tbps", "Fig. 9 (1 recirc)",
              "optimized (0 recirc)");
  for (double offered : {0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 3.2}) {
    auto r9 = sim::estimate_throughput(
        fig9.policies, fig9.deployment->routing().traversals,
        fig9.deployment->dataplane().config(), offered * 1000);
    auto ro = sim::estimate_throughput(
        optimized.policies, optimized.deployment->routing().traversals,
        optimized.deployment->dataplane().config(), offered * 1000);
    std::printf("%-14.1f %-22.2f %-22.2f\n", offered,
                r9.total_delivered_gbps / 1000,
                ro.total_delivered_gbps / 1000);
  }
  std::printf("(external port capacity caps intake at 1.6 Tbps with 16 "
              "loopback ports;\n the sweep past it shows where the "
              "recirculation budget, not the ports, binds)\n");

  bench::heading("Per-path breakdown at 2.4 Tbps offered, Fig. 9 "
                 "placement");
  auto r = sim::estimate_throughput(
      fig9.policies, fig9.deployment->routing().traversals,
      fig9.deployment->dataplane().config(), 2400.0);
  std::printf("%s", r.to_table().c_str());
}

void print_recirc_depth_sweep() {
  bench::heading("Same chains, deeper recirculation (synthetic k-loop "
                 "paths on one dedicated 100G port)");
  std::printf("%-8s %-16s\n", "k", "delivered Gbps");
  asic::SwitchConfig config(asic::TargetSpec::tofino32());
  for (std::uint32_t k = 0; k <= 5; ++k) {
    place::Traversal t;
    t.feasible = true;
    for (std::uint32_t i = 0; i < k; ++i) {
      place::TraversalStep s1;
      s1.pipelet = {0, asic::PipeKind::kIngress};
      s1.exit_via = place::TraversalStep::Exit::kToEgress;
      place::TraversalStep s2;
      s2.pipelet = {0, asic::PipeKind::kEgress};
      s2.exit_via = place::TraversalStep::Exit::kRecirculate;
      t.steps.push_back(s1);
      t.steps.push_back(s2);
    }
    sfc::PolicySet policies;
    policies.add({.path_id = 1, .name = "p", .nfs = {"A"}, .weight = 1.0});
    std::map<std::uint16_t, place::Traversal> traversals;
    traversals.emplace(1, std::move(t));
    auto r = sim::estimate_throughput(policies, traversals, config, 100.0);
    std::printf("%-8u %-16.1f\n", k, r.total_delivered_gbps);
  }
  std::printf("(identical to the Fig. 8(a) fluid series -- the "
              "deployment model degenerates to §4's closed form)\n");
}

}  // namespace

int main() {
  print_load_sweep();
  print_recirc_depth_sweep();
  return 0;
}
