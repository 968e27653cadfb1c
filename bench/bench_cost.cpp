// Cost-certifier performance (DESIGN.md §14): how long the abstract
// interpreter takes to bound each shipped target's path-equivalence
// classes. The headline numbers land in BENCH_cost.json — the perf
// trajectory CI uploads on every run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cost/cost.hpp"
#include "example_chains.hpp"
#include "explore/explorer.hpp"

namespace {

using namespace dejavu;

struct Target {
  std::unique_ptr<control::Deployment> deployment;
  sfc::PolicySet policies;
};

Target build_target(const std::string& name) {
  Target t;
  control::DeploymentOptions options;
  options.verify = false;
  if (name == "fig2") {
    auto fx = control::make_fig2_deployment(std::nullopt, std::move(options));
    t.deployment = std::move(fx.deployment);
    t.policies = std::move(fx.policies);
    return t;
  }
  if (name == "fig9") {
    auto fx = control::make_fig9_deployment(std::move(options));
    t.deployment = std::move(fx.deployment);
    t.policies = std::move(fx.policies);
    return t;
  }
  examples::ChainSetup setup;
  enum class Rules { kQuickstart, kStateful, kParallel };
  Rules rules = Rules::kQuickstart;
  if (name == "quickstart") {
    setup = examples::quickstart_setup();
  } else if (name == "stateful") {
    setup = examples::stateful_security_setup();
    rules = Rules::kStateful;
  } else {
    setup = examples::parallel_study_setup();
    options.placement = examples::parallel_study_operator_placement();
    rules = Rules::kParallel;
  }
  t.policies = setup.policies;
  t.deployment = control::Deployment::build(
      std::move(setup.nfs), setup.policies, std::move(setup.config),
      std::move(setup.ids), std::move(options));
  switch (rules) {
    case Rules::kQuickstart:
      examples::install_quickstart_rules(*t.deployment);
      break;
    case Rules::kStateful:
      examples::install_stateful_rules(*t.deployment);
      break;
    case Rules::kParallel:
      examples::install_parallel_rules(*t.deployment);
      break;
  }
  return t;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_certify_times(bench::BenchJson& json) {
  bench::heading("Certifier runtime: abstract interpretation to fixpoint");
  std::printf("%-12s %-10s %-10s %-8s\n", "target", "cost (us)", "classes",
              "bound");
  for (const std::string& name :
       {std::string("fig2"), std::string("fig9"), std::string("quickstart"),
        std::string("stateful"), std::string("parallel")}) {
    Target t = build_target(name);
    const explore::ExploreResult& exploration = t.deployment->run_explorer();
    cost::CostOptions options;
    options.routing = &t.deployment->routing();

    constexpr int kReps = 20;
    cost::CostResult result;
    const double start = now_seconds();
    for (int i = 0; i < kReps; ++i) {
      result = cost::run(t.deployment->dataplane(), t.policies, exploration,
                         options);
    }
    const double us = (now_seconds() - start) * 1e6 / kReps;
    std::printf("%-12s %-10.1f %-10zu %-8u\n", name.c_str(), us,
                result.stats.classes, result.deployment_pass_bound);
    json.add("cost_us_" + name, us);
    json.add("pass_bound_" + name,
             static_cast<std::uint64_t>(result.deployment_pass_bound));
  }
  std::printf("(per run over %s; explorer time excluded — its classes are "
              "the certifier's input)\n",
              "20 repetitions");
}

void BM_CostRun(benchmark::State& state) {
  Target t = build_target("fig9");
  const explore::ExploreResult& exploration = t.deployment->run_explorer();
  cost::CostOptions options;
  options.routing = &t.deployment->routing();
  for (auto _ : state) {
    const cost::CostResult result = cost::run(t.deployment->dataplane(),
                                              t.policies, exploration,
                                              options);
    benchmark::DoNotOptimize(result.deployment_pass_bound);
  }
}
BENCHMARK(BM_CostRun);

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json("cost");
  print_certify_times(json);
  json.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
