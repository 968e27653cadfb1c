// Reproduces Fig. 6 and the §3.3 placement-optimization claim: the
// naive alternating layout of chain A-B-C-D-E-F costs 3
// recirculations; exchanging C and EF brings it to 1; a general
// optimizer should find a placement at least that good. Also runs the
// ablation over random multi-chain policy sets: naive baseline vs
// exhaustive vs annealing.
#include <algorithm>
#include <random>

#include "bench_util.hpp"
#include "place/optimizer.hpp"

namespace {

using namespace dejavu;
using asic::PipeKind;
using merge::CompositionKind;
using merge::PipeletAssignment;

sfc::PolicySet fig6_policy() {
  sfc::PolicySet set;
  set.add({.path_id = 1,
           .name = "A-B-C-D-E-F",
           .nfs = {"A", "B", "C", "D", "E", "F"},
           .weight = 1.0,
           .in_port = 0,
           .exit_port = 1});
  return set;
}

/// Stage model making each pipelet hold at most two NFs (the implicit
/// Fig. 6 setting, where six NFs spread over four pipelets).
place::StageModel fig6_stage_model() {
  place::StageModel model;
  model.default_nf_stages = 3;
  model.glue_stages = 2;
  model.branching_stages = 1;
  return model;
}

void print_fig6() {
  auto spec = asic::TargetSpec::tofino32();
  place::TraversalEnv env{.pipelines = 2, .can_recirculate = {true, true}};
  auto policies = fig6_policy();
  const auto& chain = policies.policies()[0];

  bench::heading("Fig. 6: placement schemes for chain A-B-C-D-E-F");

  place::Placement fig6a({
      {{0, PipeKind::kIngress}, CompositionKind::kSequential, {"A", "B"}},
      {{0, PipeKind::kEgress}, CompositionKind::kSequential, {"C"}},
      {{1, PipeKind::kIngress}, CompositionKind::kSequential, {"D"}},
      {{1, PipeKind::kEgress}, CompositionKind::kSequential, {"E", "F"}},
  });
  place::Placement fig6b({
      {{0, PipeKind::kIngress}, CompositionKind::kSequential, {"A", "B"}},
      {{0, PipeKind::kEgress}, CompositionKind::kSequential, {"E", "F"}},
      {{1, PipeKind::kIngress}, CompositionKind::kSequential, {"D"}},
      {{1, PipeKind::kEgress}, CompositionKind::kSequential, {"C"}},
  });

  struct Row {
    const char* name;
    const place::Placement* placement;
    int paper_recircs;
  };
  place::Placement naive = place::naive_alternating(policies, spec);
  const Row rows[] = {{"Fig. 6(a) (naive-by-index)", &fig6a, 3},
                      {"Fig. 6(b) (optimized)", &fig6b, 1},
                      {"alternating baseline", &naive, -1}};
  for (const Row& row : rows) {
    auto t = place::plan_traversal(chain, *row.placement, spec, env);
    std::printf("%-28s recircs=%u resubs=%u", row.name, t.recirculations,
                t.resubmissions);
    if (row.paper_recircs >= 0) {
      std::printf(" (paper: %d)", row.paper_recircs);
    }
    std::printf("\n    %s\n    %s\n", row.placement->to_string().c_str(),
                t.to_string().c_str());
  }

  auto best = place::exhaustive_optimize(policies, spec, env,
                                         fig6_stage_model());
  std::printf("%-28s recircs(weighted)=%.0f over %llu candidates\n    %s\n",
              "exhaustive optimizer", best.cost,
              static_cast<unsigned long long>(best.evaluated),
              best.placement.to_string().c_str());
}

sfc::PolicySet random_policies(std::mt19937_64& rng, std::size_t nfs,
                               std::size_t chains) {
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < nfs; ++i) {
    pool.push_back(std::string(1, static_cast<char>('A' + i)));
  }
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  sfc::PolicySet set;
  for (std::size_t c = 0; c < chains; ++c) {
    std::vector<std::string> body(pool.begin() + 1, pool.end());
    std::shuffle(body.begin(), body.end(), rng);
    std::uniform_int_distribution<std::size_t> len(1, body.size());
    body.resize(len(rng));
    // Every chain starts with the shared entry NF 'A' (the classifier
    // role): the data plane cannot steer unclassified packets.
    body.insert(body.begin(), pool.front());
    set.add({.path_id = static_cast<std::uint16_t>(c + 1),
             .name = "rand" + std::to_string(c),
             .nfs = std::move(body),
             .weight = weight(rng),
             .in_port = 0,
             .exit_port = 1});
  }
  return set;
}

void print_random_sweep() {
  auto spec = asic::TargetSpec::tofino32();
  place::TraversalEnv env{.pipelines = 2, .can_recirculate = {true, true}};
  auto model = fig6_stage_model();

  bench::heading(
      "Ablation: naive vs optimized over random policy sets "
      "(weighted recirculations, 20 seeds each)");
  std::printf("%-22s %-10s %-12s %-12s %-10s\n", "setting", "naive",
              "exhaustive", "annealing", "gain");
  for (auto [nfs, chains] : {std::pair<std::size_t, std::size_t>{5, 2},
                             {6, 3},
                             {7, 3}}) {
    double naive_sum = 0, exact_sum = 0, anneal_sum = 0;
    int feasible = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      std::mt19937_64 rng(seed);
      auto policies = random_policies(rng, nfs, chains);
      auto naive = place::naive_alternating(policies, spec);
      double naive_cost =
          place::placement_cost(policies, naive, spec, env, model);
      auto exact = place::exhaustive_optimize(policies, spec, env, model);
      place::AnnealParams ap;
      ap.iterations = 8000;
      ap.seed = seed;
      auto annealed = place::anneal_optimize(policies, spec, env, model, ap);
      if (naive_cost >= place::kInfeasibleCost || !exact.feasible) continue;
      ++feasible;
      naive_sum += naive_cost;
      exact_sum += exact.cost;
      anneal_sum += annealed.feasible ? annealed.cost : naive_cost;
    }
    if (feasible == 0) continue;
    std::printf("%zu NFs / %zu chains     %-10.2f %-12.2f %-12.2f %-.1fx\n",
                nfs, chains, naive_sum / feasible, exact_sum / feasible,
                anneal_sum / feasible,
                naive_sum / std::max(exact_sum, 1e-9));
  }
}

}  // namespace

int main() {
  print_fig6();
  print_random_sweep();
  return 0;
}
