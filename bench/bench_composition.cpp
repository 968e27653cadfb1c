// Ablation of the §3.2 composition trade-off: sequential composition
// costs MAU-stage depth but makes same-pipelet transitions free;
// parallel composition overlays NFs in shared stages but each branch
// transition costs a resubmission (ingress) or recirculation (egress).
// Sweeps the number of co-located NFs and reports both sides of the
// trade: stage depth (from the real allocator) and transition cost
// (from the traversal planner).
#include "bench_util.hpp"
#include "compile/allocator.hpp"
#include "merge/compose.hpp"
#include "nf/nfs.hpp"
#include "place/placement.hpp"

namespace {

using namespace dejavu;
using merge::CompositionKind;

/// N distinct single-table NFs (clones of the police blocklist) to
/// co-locate.
struct NfSet {
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> programs;
  std::vector<merge::NfUnit> units;
  std::vector<std::string> names;

  explicit NfSet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      p4ir::Program p = nf::make_police(ids);
      std::string name = "NF" + std::to_string(i);
      p.set_name(name);
      p.annotate("nf", name);
      programs.push_back(std::move(p));
      names.push_back(name);
    }
    for (std::size_t i = 0; i < n; ++i) {
      units.push_back({names[i], &programs[i].controls().front()});
    }
  }
};

std::uint32_t stage_depth(const NfSet& set, CompositionKind kind) {
  auto block = merge::compose_pipelet("pipelet_ingress0", set.units, kind,
                                      /*is_ingress=*/true);
  auto graph = p4ir::analyze_dependencies({&block}, false);
  auto alloc = compile::allocate(graph, asic::TargetSpec::tofino32());
  return alloc.ok ? alloc.depth() : 0;
}

std::pair<std::uint32_t, std::uint32_t> transition_cost(
    const NfSet& set, CompositionKind kind) {
  // All NFs on one ingress pipelet; the chain visits them in order.
  sfc::PolicySet policies;
  policies.add({.path_id = 1,
                .name = "chain",
                .nfs = set.names,
                .weight = 1.0,
                .in_port = 0,
                .exit_port = 0});
  place::Placement placement(
      {{{0, asic::PipeKind::kIngress}, kind, set.names}});
  auto t = place::plan_traversal(policies.policies()[0], placement,
                                 asic::TargetSpec::tofino32(),
                                 place::TraversalEnv{});
  return {t.resubmissions, t.recirculations};
}

void print_tradeoff() {
  bench::heading("§3.2 composition trade-off: N NFs on one pipelet");
  std::printf("%-4s | %-22s | %-22s\n", "N", "sequential", "parallel");
  std::printf("%-4s | %-10s %-11s | %-10s %-11s\n", "", "stages",
              "transitions", "stages", "transitions");
  for (std::size_t n = 1; n <= 4; ++n) {
    NfSet set(n);
    auto seq_depth = stage_depth(set, CompositionKind::kSequential);
    auto par_depth = stage_depth(set, CompositionKind::kParallel);
    auto [seq_resub, seq_recirc] =
        transition_cost(set, CompositionKind::kSequential);
    auto [par_resub, par_recirc] =
        transition_cost(set, CompositionKind::kParallel);
    std::printf("%-4zu | %-10u %-11u | %-10u %-11u\n", n, seq_depth,
                seq_resub + seq_recirc, par_depth, par_resub + par_recirc);
  }
  std::printf("sequential: no transition cost, stage depth grows with N\n");
  std::printf("parallel:   shallow stages, but N-1 branch transitions\n");
}

void print_feasibility_frontier() {
  bench::heading("How many NFs fit one 12-stage pipelet?");
  for (CompositionKind kind :
       {CompositionKind::kSequential, CompositionKind::kParallel}) {
    std::size_t max_fit = 0;
    for (std::size_t n = 1; n <= 16; ++n) {
      NfSet set(n);
      auto block = merge::compose_pipelet("pipelet_ingress0", set.units,
                                          kind, true);
      auto graph = p4ir::analyze_dependencies({&block}, false);
      auto alloc = compile::allocate(graph, asic::TargetSpec::tofino32());
      if (!alloc.ok) break;
      max_fit = n;
    }
    std::printf("%-12s composition: up to %zu single-table NFs\n",
                merge::to_string(kind), max_fit);
  }
}

}  // namespace

int main() {
  print_tradeoff();
  print_feasibility_frontier();
  return 0;
}
