// Reproduces Table 1: the hardware resource overhead of the Dejavu
// framework tables (branching, check_nextNF, check_sfcFlags) on the
// Tofino profile, as a percentage of the whole switch — alongside the
// paper's measured numbers. The framework must use zero TCAM and only
// a sliver of memory; stages are the dominant cost because the glue
// tables are data-dependent on the platform metadata.
#include "bench_util.hpp"
#include "control/deployment.hpp"

namespace {

using namespace dejavu;

void print_table1() {
  // Table 1 was measured on the §5 prototype, so reproduce it on the
  // same Fig. 9 placement (the optimizer's tighter packing would use
  // even fewer pipelets and understate the overhead).
  auto fx = control::make_fig9_deployment();
  auto framework = fx.deployment->framework_report();
  auto total = fx.deployment->total_report();

  bench::heading("Table 1: resource overhead of Dejavu on Tofino (%)");
  std::printf("%-10s %-8s %-10s %-9s %-10s %-7s %-7s %-7s\n", "", "Stages",
              "TableIDs", "Gateways", "Crossbars", "VLIWs", "SRAM", "TCAM");
  std::printf("%-10s %-8.1f %-10.1f %-9.1f %-10.1f %-7.1f %-7.1f %-7.1f\n",
              "ours", framework.pct_stages(), framework.pct_table_ids(),
              framework.pct_gateways(), framework.pct_crossbars(),
              framework.pct_vliw(), framework.pct_sram(),
              framework.pct_tcam());
  std::printf("%-10s %-8.1f %-10.1f %-9.1f %-10.1f %-7.1f %-7.1f %-7.1f\n",
              "paper", 20.8, 4.2, 2.0, 0.4, 1.5, 0.2, 0.0);

  bench::subheading("absolute framework usage");
  std::printf("stages touched: %u of %u\n", framework.stages_touched,
              framework.total_stages);
  std::printf("%s\n", framework.used.to_string().c_str());

  bench::subheading("whole deployment (framework + NF tables)");
  std::printf("stages touched: %u of %u\n", total.stages_touched,
              total.total_stages);
  std::printf("%s\n", total.used.to_string().c_str());

  bench::subheading("per-pipelet stage allocation");
  for (std::size_t i = 0; i < fx.deployment->allocations().size(); ++i) {
    const auto& alloc = fx.deployment->allocations()[i];
    const auto& name = fx.deployment->program().controls()[i].name();
    std::printf("%-20s depth=%u stages_used=%u tables=%zu\n", name.c_str(),
                alloc.depth(), alloc.stages_used(),
                alloc.table_names.size());
    for (std::uint32_t s = 0; s < alloc.stages.size(); ++s) {
      if (alloc.stages[s].tables.empty()) continue;
      std::printf("  stage %2u:", s);
      for (std::size_t t : alloc.stages[s].tables) {
        std::printf(" %s", alloc.table_names[t].c_str());
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main() {
  print_table1();
  return 0;
}
