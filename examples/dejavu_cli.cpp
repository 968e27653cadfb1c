// dejavu_cli: an operator's console for the canonical Fig. 2 edge
// deployment — the kind of tooling §7's "implications for network
// operation" asks for. Subcommands inspect placement, resources, and
// predicted throughput, export control-plane metadata, and inject test
// packets.
//
//   $ ./dejavu_cli plan [--fig9]
//   $ ./dejavu_cli resources [--fig9]
//   $ ./dejavu_cli throughput <offered-gbps> [--fig9]
//   $ ./dejavu_cli send <dst-ip> [count] [--fig9]
//   $ ./dejavu_cli replay [workers] [flows] [packets-per-flow]
//                         [--engine=compiled|interp] [--fig9]
//   $ ./dejavu_cli p4info [--fig9]
//   $ ./dejavu_cli lint [--json] [--target NAME]... [--all]
//                       [--fixture NAME]... [--fixtures] [--fig9]
//   $ ./dejavu_cli analyze [--json] [--matrix] [--auto-parallel]
//                          [--target NAME]... [--all]
//                          [--fixture NAME]... [--fixtures] [--fig9]
//   $ ./dejavu_cli explore [--json] [--target NAME]... [--all]
//                          [--fixture NAME]... [--fixtures] [--fig9]
//   $ ./dejavu_cli chaos [--seed N] [--schedule NAME] [--workers N]
//                        [--flows N] [--repair bypass|replace|none]
//                        [--channel-seed N] [--state-seed N]
//                        [--target fig2|fig9] [--json]
//   $ ./dejavu_cli audit [--state-seed N] [--seed N] [--workers N]
//                        [--flows N] [--target fig2|fig9] [--json]
//   $ ./dejavu_cli update [--nf NAME] [--kill none|shadow|flip|drain]
//                         [--workers N] [--seed N] [--json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/commutativity.hpp"
#include "analysis/fixtures.hpp"
#include "cli_catalog.hpp"
#include "control/chaos.hpp"
#include "cost/cost.hpp"
#include "cost/fixtures.hpp"
#include "control/deployment.hpp"
#include "control/p4info.hpp"
#include "control/replay_target.hpp"
#include "example_chains.hpp"
#include "explore/explorer.hpp"
#include "explore/fixtures.hpp"
#include "place/auto_parallel.hpp"
#include "route/routing.hpp"
#include "sim/latency.hpp"
#include "sim/replay.hpp"
#include "sim/throughput.hpp"
#include "verify/fixtures.hpp"
#include "verify/verify.hpp"

using namespace dejavu;

namespace {

int cmd_plan(control::Fig2Deployment& fx) {
  std::printf("placement: %s\n",
              fx.deployment->placement().to_string().c_str());
  sim::LatencyModel latency(asic::TargetSpec::tofino32());
  for (const auto& [path, t] : fx.deployment->routing().traversals) {
    std::printf("path %u (%s, w=%.2f): %u recircs, %u resubs, %.0f ns\n",
                path, fx.policies.find(path)->name.c_str(),
                fx.policies.find(path)->weight, t.recirculations,
                t.resubmissions, latency.traversal_ns(t));
    std::printf("  %s\n", t.to_string().c_str());
  }
  std::printf("branching rules installed: %zu; check entries: %zu\n",
              fx.deployment->routing().branching.size(),
              fx.deployment->routing().checks.size());
  return 0;
}

int cmd_resources(control::Fig2Deployment& fx) {
  auto framework = fx.deployment->framework_report();
  auto total = fx.deployment->total_report();
  std::printf("-- Dejavu framework overhead (Table 1) --\n%s",
              framework.to_table().c_str());
  std::printf("-- whole deployment --\n%s", total.to_table().c_str());
  return 0;
}

int cmd_throughput(control::Fig2Deployment& fx, double offered) {
  auto report = sim::estimate_throughput(
      fx.policies, fx.deployment->routing().traversals,
      fx.deployment->dataplane().config(), offered);
  std::printf("%s", report.to_table().c_str());
  return 0;
}

int cmd_send(control::Fig2Deployment& fx, const char* dst_text, int count) {
  auto dst = net::Ipv4Addr::parse(dst_text);
  if (!dst) {
    std::fprintf(stderr, "bad destination address '%s'\n", dst_text);
    return 2;
  }
  int delivered = 0, dropped = 0, punted = 0;
  std::uint32_t recircs = 0;
  for (int i = 0; i < count; ++i) {
    net::PacketSpec spec;
    spec.ip_dst = *dst;
    spec.src_port = static_cast<std::uint16_t>(42000 + i);
    auto out = fx.deployment->control().inject(net::Packet::make(spec),
                                               control::Fig2Deployment::
                                                   kSenderPort);
    delivered += static_cast<int>(out.out.size());
    dropped += out.dropped;
    punted += !out.to_cpu.empty();
    recircs += out.recirculations;
    if (i == 0 && !out.out.empty()) {
      const auto& p = out.out.front();
      std::printf("first packet: port %u, dst %s, ttl %u, sfc %s\n",
                  p.port, p.packet.ipv4()->dst.to_string().c_str(),
                  p.packet.ipv4()->ttl,
                  p.packet.has_sfc_header() ? "LEAKED" : "popped");
    }
    if (i == 0 && out.dropped) {
      std::printf("first packet dropped: %s\n", out.drop_reason.c_str());
    }
  }
  std::printf("%d sent: %d delivered, %d dropped, %d punted, "
              "%u recirculations total\n",
              count, delivered, dropped, punted, recircs);
  std::printf("sessions learned: %zu\n",
              fx.deployment->control().sessions_learned());
  return 0;
}

int cmd_replay(bool fig9, sim::EngineKind engine_kind, std::uint32_t workers,
               std::uint32_t flows, std::uint32_t packets_per_flow) {
  sim::ReplayEngine engine(control::fig2_replay_factory(fig9));
  sim::ReplayConfig config;
  config.workers = workers;
  config.packets_per_flow = packets_per_flow;
  config.engine = engine_kind;
  const auto replay_flows = control::fig2_replay_flows(flows);
  auto report = engine.run(replay_flows, config);
  std::printf("%s", report.to_table().c_str());

  // Cross-check: feed the measured recirculation demands to the fluid
  // solver at an interesting offered load (2x the §5 prototype's
  // single-recirc budget, so saturation shows).
  asic::SwitchConfig switch_config(asic::TargetSpec::tofino32());
  switch_config.set_pipeline_loopback(1);
  const double offered = 2 * switch_config.external_capacity_gbps();
  auto measured = sim::replay_throughput(report, switch_config, offered);
  std::printf("-- replay-measured throughput at %.0f Gbps offered --\n%s",
              offered, measured.to_table().c_str());
  return 0;
}

/// Build one shipped deployment by target name with verification kept
/// non-throwing (DeploymentOptions::verify off) so callers inspect the
/// findings instead of dying on the first error.
std::unique_ptr<control::Deployment> build_example(const std::string& target) {
  control::DeploymentOptions options;
  options.verify = false;
  if (target == "fig2" || target == "edge_cloud") {
    return std::move(
        control::make_fig2_deployment(std::nullopt, std::move(options))
            .deployment);
  }
  if (target == "fig9") {
    return std::move(
        control::make_fig9_deployment(std::move(options)).deployment);
  }
  examples::ChainSetup setup;
  if (target == "quickstart") {
    setup = examples::quickstart_setup();
  } else if (target == "stateful" || target == "stateful_security") {
    setup = examples::stateful_security_setup();
  } else if (target == "parallel" || target == "parallel_study") {
    setup = examples::parallel_study_setup();
    options.placement = examples::parallel_study_operator_placement();
  } else {
    throw std::invalid_argument(
        "unknown target '" + target +
        "' (want fig2|fig9|quickstart|stateful|parallel)");
  }
  return control::Deployment::build(std::move(setup.nfs), setup.policies,
                                    std::move(setup.config),
                                    std::move(setup.ids), std::move(options));
}

/// Build one shipped deployment and return its verifier report.
verify::Report lint_example(const std::string& target) {
  return build_example(target)->verification();
}

/// Resolve a fixture from either catalog (the verifier's own seeded
/// bundles or the analysis::fixtures DV-A bundles — both are
/// verify::fixtures::Bundle, so lint and analyze treat them alike).
verify::fixtures::Bundle make_any_fixture(const std::string& name) {
  const auto analysis_names = analysis::fixtures::names();
  if (std::find(analysis_names.begin(), analysis_names.end(), name) !=
      analysis_names.end()) {
    return analysis::fixtures::make(name);
  }
  return verify::fixtures::make(name);
}

/// Every seeded fixture: the verifier catalog plus the DV-A catalog.
std::vector<std::string> all_fixture_names() {
  std::vector<std::string> names = verify::fixtures::names();
  const auto analysis_names = analysis::fixtures::names();
  names.insert(names.end(), analysis_names.begin(), analysis_names.end());
  return names;
}

/// Render a verifier report as a catalog item.
cli::CatalogItem report_item(const verify::Report& report) {
  return {report.errors(), report.to_string(), report.to_json()};
}

int cmd_lint(const std::vector<std::string>& args, bool fig9) {
  cli::CatalogSpec spec;
  spec.command = "lint";
  spec.build_failure_noun = "verification";
  spec.fixture_names = all_fixture_names;
  spec.run_target = [](const std::string& target) {
    return report_item(lint_example(target));
  };
  spec.run_fixture = [](const std::string& name) {
    verify::fixtures::Bundle bundle = make_any_fixture(name);
    verify::Report report = verify::run_all(bundle.input());
    for (const std::string& id : bundle.expect_checks) {
      if (!report.has(id)) {
        // A fixture that stops tripping its check means the verifier
        // regressed; shout even though the exit code already reflects
        // whatever findings remain.
        std::fprintf(stderr,
                     "lint: fixture '%s' no longer trips expected check %s\n",
                     name.c_str(), id.c_str());
      }
    }
    return report_item(report);
  };
  return cli::run_catalog(spec, args, fig9);
}

/// Run the whole-chain dataflow pass over one shipped deployment:
/// per-NF footprints, the pairwise commutativity matrix, and the
/// chain-level findings (dead writes, uninitialized reads,
/// parallel-unsafe placements).
int cmd_analyze(const std::vector<std::string>& args, bool fig9) {
  auto matrix_only = std::make_shared<bool>(false);
  auto auto_parallel = std::make_shared<bool>(false);
  cli::CatalogSpec spec;
  spec.command = "analyze";
  spec.build_failure_noun = "analysis";
  spec.fixture_names = [] { return analysis::fixtures::names(); };
  spec.option = [=](const std::vector<std::string>& a, std::size_t& i) {
    if (a[i] == "--matrix") {
      *matrix_only = true;
      return true;
    }
    if (a[i] == "--auto-parallel") {
      *auto_parallel = true;
      return true;
    }
    return false;
  };
  spec.run_target = [=](const std::string& target) {
    std::unique_ptr<control::Deployment> deployment = build_example(target);
    std::vector<const p4ir::Program*> nf_ptrs;
    for (const p4ir::Program& p : deployment->nf_programs()) {
      nf_ptrs.push_back(&p);
    }
    const analysis::ChainAnalysis chains = analysis::analyze_chains(
        nf_ptrs, deployment->policies(),
        &deployment->placement().assignments());

    cli::CatalogItem item;
    item.errors = chains.parallel_conflicts.size() +
                  chains.uninit_reads.size() +
                  chains.register_aliases.size();
    item.text = *matrix_only ? chains.matrix.to_text() : chains.to_text();
    item.json =
        (*matrix_only ? chains.matrix.to_json() : chains.to_json()) + "\n";
    if (*auto_parallel) {
      const asic::SwitchConfig& config = deployment->dataplane().config();
      const place::AutoParallelResult result = place::auto_parallelize(
          deployment->policies(), deployment->placement(), config.spec(),
          route::env_for(config), place::StageModel{}, chains.matrix);
      item.text += result.to_string();
      std::string auto_json = "{\"improved\": ";
      auto_json += result.improved ? "true" : "false";
      auto_json += ", \"cost_before\": " + std::to_string(result.cost_before) +
                   ", \"cost_after\": " + std::to_string(result.cost_after) +
                   ", \"rewrites\": [";
      for (std::size_t r = 0; r < result.rewrites.size(); ++r) {
        if (r > 0) auto_json += ", ";
        auto_json +=
            "\"" + analysis::json_escape(result.rewrites[r].to_string()) +
            "\"";
      }
      auto_json += "]}";
      item.json = "{\"analysis\": " +
                  (*matrix_only ? chains.matrix.to_json()
                                : chains.to_json()) +
                  ",\n\"auto_parallel\": " + auto_json + "}\n";
    }
    return item;
  };
  // Fixtures go through the verifier so the DV-A wiring (check ids,
  // severities, report formatting) is what gets exercised; a fixture
  // that stops tripping its expected checks is a regression.
  spec.run_fixture = [](const std::string& name) {
    verify::fixtures::Bundle bundle = analysis::fixtures::make(name);
    verify::Report report = verify::run_all(bundle.input());
    for (const std::string& id : bundle.expect_checks) {
      if (!report.has(id)) {
        std::fprintf(
            stderr,
            "analyze: fixture '%s' no longer trips expected check %s\n",
            name.c_str(), id.c_str());
      }
    }
    return report_item(report);
  };
  return cli::run_catalog(spec, args, fig9);
}

/// Build one shipped deployment with its example rules installed (the
/// state both the explorer and the cost certifier analyze).
std::unique_ptr<control::Deployment> build_example_with_rules(
    const std::string& target) {
  control::DeploymentOptions options;
  options.verify = false;
  if (target == "fig2" || target == "edge_cloud") {
    return std::move(
        control::make_fig2_deployment(std::nullopt, std::move(options))
            .deployment);
  }
  if (target == "fig9") {
    return std::move(
        control::make_fig9_deployment(std::move(options)).deployment);
  }
  examples::ChainSetup setup;
  enum class Rules { kQuickstart, kStateful, kParallel };
  Rules rules = Rules::kQuickstart;
  if (target == "quickstart") {
    setup = examples::quickstart_setup();
  } else if (target == "stateful" || target == "stateful_security") {
    setup = examples::stateful_security_setup();
    rules = Rules::kStateful;
  } else if (target == "parallel" || target == "parallel_study") {
    setup = examples::parallel_study_setup();
    options.placement = examples::parallel_study_operator_placement();
    rules = Rules::kParallel;
  } else {
    throw std::invalid_argument(
        "unknown target '" + target +
        "' (want fig2|fig9|quickstart|stateful|parallel)");
  }
  auto deployment = control::Deployment::build(
      std::move(setup.nfs), setup.policies, std::move(setup.config),
      std::move(setup.ids), std::move(options));
  switch (rules) {
    case Rules::kQuickstart:
      examples::install_quickstart_rules(*deployment);
      break;
    case Rules::kStateful:
      examples::install_stateful_rules(*deployment);
      break;
    case Rules::kParallel:
      examples::install_parallel_rules(*deployment);
      break;
  }
  return deployment;
}

/// Render an exploration as a catalog item (report + stats footer).
cli::CatalogItem explore_item(const explore::ExploreResult& result) {
  cli::CatalogItem item = report_item(result.report);
  const explore::ExploreStats& s = result.stats;
  char footer[160];
  std::snprintf(footer, sizeof(footer),
                "%zu symbolic paths (%zu infeasible forks pruned, "
                "%zu truncated), %zu differential replays\n",
                s.paths, s.infeasible, s.truncated, s.replays);
  item.text += footer;
  return item;
}

int cmd_explore(const std::vector<std::string>& args, bool fig9) {
  cli::CatalogSpec spec;
  spec.command = "explore";
  spec.build_failure_noun = "exploration";
  spec.fixture_names = [] { return explore::fixtures::names(); };
  spec.run_target = [](const std::string& target) {
    return explore_item(build_example_with_rules(target)->run_explorer());
  };
  spec.run_fixture = [](const std::string& name) {
    explore::fixtures::Bundle bundle = explore::fixtures::make(name);
    explore::ExploreResult result = bundle.deployment->run_explorer();
    for (const std::string& id : bundle.expect_checks) {
      if (!result.report.has(id)) {
        // A fixture that stops tripping its check means the explorer
        // regressed; shout even though the exit code already reflects
        // whatever findings remain.
        std::fprintf(
            stderr,
            "explore: fixture '%s' no longer trips expected check %s\n",
            name.c_str(), id.c_str());
      }
    }
    return explore_item(result);
  };
  return cli::run_catalog(spec, args, fig9);
}

/// The cost certifier over one shipped deployment or seeded fixture:
/// per-class proven pass/recirc bounds and the statically fed fluid
/// model.
int cmd_cost(const std::vector<std::string>& args, bool fig9) {
  auto per_class = std::make_shared<bool>(false);
  cli::CatalogSpec spec;
  spec.command = "cost";
  spec.build_failure_noun = "cost analysis";
  spec.fixture_names = [] { return cost::fixtures::names(); };
  spec.option = [=](const std::vector<std::string>& a, std::size_t& i) {
    if (a[i] == "--per-class") {
      *per_class = true;
      return true;
    }
    return false;
  };
  spec.run_target = [=](const std::string& target) {
    std::unique_ptr<control::Deployment> deployment =
        build_example_with_rules(target);
    const explore::ExploreResult& exploration = deployment->run_explorer();
    cost::CostOptions options;
    options.routing = &deployment->routing();
    cost::CostResult result = cost::run(
        deployment->dataplane(), deployment->policies(), exploration,
        options);
    return cli::CatalogItem{result.report.errors(),
                            result.to_text(*per_class), result.to_json()};
  };
  spec.run_fixture = [](const std::string& name) {
    cost::fixtures::Bundle bundle = cost::fixtures::make(name);
    cost::CostResult result = bundle.run();
    for (const std::string& id : bundle.expect_checks) {
      if (!result.report.has(id)) {
        // A fixture that stops tripping its check means the certifier
        // regressed; shout even though the exit code already reflects
        // whatever findings remain.
        std::fprintf(
            stderr,
            "cost: fixture '%s' no longer trips expected check %s\n",
            name.c_str(), id.c_str());
      }
    }
    return cli::CatalogItem{result.report.errors(), result.to_text(true),
                            result.to_json()};
  };
  return cli::run_catalog(spec, args, fig9);
}

int cmd_chaos(const std::vector<std::string>& args, bool fig9) {
  control::ChaosOptions options;
  options.fig9 = fig9;
  bool json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(a + " needs a value");
      }
      return args[++i];
    };
    if (a == "--json") {
      json = true;
    } else if (a == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--schedule") {
      options.schedule = value();
    } else if (a == "--workers") {
      options.workers = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (a == "--flows") {
      options.flows = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (a == "--repair") {
      options.repair = value();
    } else if (a == "--channel-seed") {
      options.channel_seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--state-seed") {
      options.state_seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--target") {
      const std::string t = value();
      if (t == "fig9") {
        options.fig9 = true;
      } else if (t == "fig2") {
        options.fig9 = false;
      } else {
        throw std::invalid_argument("chaos targets are fig2|fig9, got " + t);
      }
    } else {
      throw std::invalid_argument("unknown chaos option " + a);
    }
  }
  control::ChaosResult result = control::run_chaos(options);
  std::fputs(json ? result.to_json().c_str() : result.to_string().c_str(),
             stdout);
  return result.ok() ? 0 : 1;
}

/// `audit`: the state-corruption drill alone — the chaos driver with
/// every other fault lane and drill disabled, phase 5 mandatory.
/// Exits 1 when any seeded corruption goes undetected, a scrub fails
/// to converge byte-identical, a corruption-free baseline raises a
/// finding, or replicas disagree on an audit counter.
int cmd_audit(const std::vector<std::string>& args, bool fig9) {
  control::ChaosOptions options;
  options.fig9 = fig9;
  options.schedule = "none";
  options.repair = "none";
  options.update_drill = false;
  options.state_seed = 1;
  bool json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(a + " needs a value");
      }
      return args[++i];
    };
    if (a == "--json") {
      json = true;
    } else if (a == "--state-seed") {
      options.state_seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--workers") {
      options.workers = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (a == "--flows") {
      options.flows = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (a == "--target") {
      const std::string t = value();
      if (t == "fig9") {
        options.fig9 = true;
      } else if (t == "fig2") {
        options.fig9 = false;
      } else {
        throw std::invalid_argument("audit targets are fig2|fig9, got " + t);
      }
    } else {
      throw std::invalid_argument("unknown audit option " + a);
    }
  }
  control::ChaosResult result = control::run_chaos(options);
  std::fputs(json ? result.to_json().c_str() : result.to_string().c_str(),
             stdout);
  return result.ok() ? 0 : 1;
}

/// The bypass update used by `update`: the victim NF removed from
/// every chain, rerouted on the same placement. Throws for NFs whose
/// removal would not leave well-formed chains.
route::RoutingPlan bypass_plan(control::Deployment& dep,
                               const std::string& nf,
                               sfc::PolicySet& reduced) {
  if (nf != sfc::kVgw && nf != sfc::kLoadBalancer) {
    throw std::invalid_argument(
        "update drill bypasses a middle NF: --nf VGW|LB, got " + nf);
  }
  for (const sfc::ChainPolicy& p : dep.policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, nf);
    reduced.add(std::move(rp));
  }
  route::RoutingPlan plan = route::build_routing(
      reduced, dep.placement(), dep.dataplane().config());
  if (!plan.feasible) {
    throw std::runtime_error("rerouted plan infeasible: " +
                             plan.infeasible_reason);
  }
  return plan;
}

control::CrashPoint parse_kill(const std::string& kill) {
  if (kill == "none") return control::CrashPoint::kNone;
  if (kill == "shadow") return control::CrashPoint::kAfterShadow;
  if (kill == "flip") return control::CrashPoint::kAfterFlip;
  if (kill == "drain") return control::CrashPoint::kAfterDrain;
  throw std::invalid_argument("--kill wants none|shadow|flip|drain, got " +
                              kill);
}

int cmd_update(const std::vector<std::string>& args, bool fig9) {
  std::string nf = sfc::kLoadBalancer;
  std::string kill = "none";
  std::uint32_t workers = 4;
  std::uint32_t flows = 60;
  std::uint32_t packets_per_flow = 8;
  std::uint64_t seed = 1;
  bool json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(a + " needs a value");
      }
      return args[++i];
    };
    if (a == "--json") {
      json = true;
    } else if (a == "--nf") {
      nf = value();
    } else if (a == "--kill") {
      kill = value();
    } else if (a == "--workers") {
      workers = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (a == "--flows") {
      flows = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (a == "--packets") {
      packets_per_flow =
          static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      throw std::invalid_argument("unknown update option " + a);
    }
  }
  const control::CrashPoint crash = parse_kill(kill);

  // --- part 1: per-packet consistency under a concurrent update.
  // The same flip fires mid-stream at 1 worker and at N workers; the
  // merged counters (including packets-by-epoch) must be bit-identical
  // and every packet must land in exactly one generation.
  auto run_at = [&](std::uint32_t w, std::vector<std::string>& errors) {
    errors.assign(w, "");
    sim::ReplayEngine engine(control::fig2_replay_factory(fig9));
    sim::ReplayConfig config;
    config.workers = w;
    config.packets_per_flow = packets_per_flow;
    config.update = sim::ReplayConfig::ReplayUpdate{};
    config.update->at_packet = packets_per_flow / 2;
    config.update->apply = [&](sim::ReplayTarget& t, std::uint32_t worker) {
      auto& dt = static_cast<control::DeploymentTarget&>(t);
      control::Deployment& dep = *dt.fixture().deployment;
      sfc::PolicySet reduced;
      route::RoutingPlan plan = bypass_plan(dep, nf, reduced);
      control::RuleDiff diff =
          control::routing_rule_diff(dep.routing(), plan, t.dataplane());
      control::UpdateReport rep = control::run_update(t.dataplane(), diff);
      if (!rep.committed) errors[worker] = rep.error;
    };
    return engine.run(control::fig2_replay_flows(flows, seed), config);
  };
  std::vector<std::string> errors1, errorsN;
  sim::ReplayReport r1 = run_at(1, errors1);
  sim::ReplayReport rn = run_at(workers, errorsN);

  std::string error;
  for (const std::string& e : errors1) {
    if (!e.empty()) error = "mid-stream update failed (1 worker): " + e;
  }
  for (const std::string& e : errorsN) {
    if (!e.empty() && error.empty()) {
      error = "mid-stream update failed (" + std::to_string(workers) +
              " workers): " + e;
    }
  }
  const bool identical = r1.counters == rn.counters;
  std::uint64_t attributed = 0;
  for (const auto& [epoch, n] : rn.counters.packets_by_epoch) {
    attributed += n;
  }
  const bool all_attributed = attributed == rn.counters.packets;
  const bool two_generations = rn.counters.packets_by_epoch.size() == 2;
  double flip_mean = 0;
  for (const sim::WorkerStats& w : rn.workers) flip_mean += w.update_seconds;
  if (!rn.workers.empty()) flip_mean /= static_cast<double>(rn.workers.size());

  // --- part 2: the kill drill. One live switch, journaled two-phase
  // update, controller crash at --kill, journal-driven recovery; the
  // final state must be byte-identical to a clean rollback or a clean
  // commit (never a blend).
  auto fx = fig9 ? control::make_fig9_deployment()
                 : control::make_fig2_deployment();
  control::Deployment& dep = *fx.deployment;
  sim::DataPlane& dp = dep.dataplane();
  sfc::PolicySet reduced;
  route::RoutingPlan plan = bypass_plan(dep, nf, reduced);
  control::RuleDiff diff = control::routing_rule_diff(dep.routing(), plan, dp);

  const std::string rollback_ref = control::take_snapshot(dp).to_text();
  std::string clean_error;
  const std::string committed_ref =
      control::committed_reference(dp, diff, &clean_error);
  if (committed_ref.empty() && error.empty()) {
    error = "clean reference update failed: " + clean_error;
  }

  control::Journal journal;
  control::LiveUpdateOptions opts;
  opts.crash_point = crash;
  control::UpdateReport rep = control::run_update(dp, diff, &journal, opts);
  control::RecoveryReport recovery;
  if (rep.crashed) {
    recovery = control::recover(dp, journal);
  }
  const std::string final_state = control::take_snapshot(dp).to_text();
  const bool landed =
      rep.committed ||
      recovery.action == control::RecoveryAction::kRolledForward;
  const std::string outcome = rep.committed        ? "committed"
                              : landed             ? "recovered-forward"
                                                   : "rolled-back";
  const bool consistent =
      landed ? final_state == committed_ref : final_state == rollback_ref;

  const bool ok = error.empty() && identical && all_attributed &&
                  two_generations && consistent;
  if (json) {
    std::string by_epoch;
    for (const auto& [epoch, n] : rn.counters.packets_by_epoch) {
      if (!by_epoch.empty()) by_epoch += ", ";
      by_epoch +=
          "\"" + std::to_string(epoch) + "\": " + std::to_string(n);
    }
    std::printf(
        "{\n  \"ok\": %s,\n  \"nf\": \"%s\",\n  \"kill\": \"%s\",\n"
        "  \"workers\": %u,\n  \"seed\": %llu,\n"
        "  \"replay\": {\"identical\": %s, \"packets\": %llu, "
        "\"packets_by_epoch\": {%s}, \"flip_seconds_mean\": %.6f},\n"
        "  \"drill\": {\"outcome\": \"%s\", \"consistent\": %s},\n"
        "  \"error\": \"%s\"\n}\n",
        ok ? "true" : "false", nf.c_str(), kill.c_str(), workers,
        static_cast<unsigned long long>(seed), identical ? "true" : "false",
        static_cast<unsigned long long>(rn.counters.packets),
        by_epoch.c_str(), flip_mean, outcome.c_str(),
        consistent ? "true" : "false", error.c_str());
  } else {
    std::printf("update drill: bypass %s, kill %s, %u flows x %u packets\n",
                nf.c_str(), kill.c_str(), flows, packets_per_flow);
    std::printf(
        "  replay: 1 vs %u workers: counters %s; %llu packets, "
        "%zu generation(s)\n",
        workers, identical ? "bit-identical" : "DIVERGED",
        static_cast<unsigned long long>(rn.counters.packets),
        rn.counters.packets_by_epoch.size());
    for (const auto& [epoch, n] : rn.counters.packets_by_epoch) {
      std::printf("    epoch %u: %llu packets\n", epoch,
                  static_cast<unsigned long long>(n));
    }
    std::printf("  flip latency: %.1f us mean per worker\n", flip_mean * 1e6);
    std::printf("  kill drill: %s -> %s (%s)\n", kill.c_str(),
                outcome.c_str(),
                consistent ? "state consistent" : "STATE INCONSISTENT");
    if (!error.empty()) std::printf("  error: %s\n", error.c_str());
    std::printf("%s\n", ok ? "OK" : "FAILED");
  }
  return ok ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: dejavu_cli "
               "<plan|resources|throughput|send|replay|p4info|lint|analyze|"
               "explore|cost|chaos|audit|update> [args] [--fig9]\n"
               "  plan                     placement + traversals\n"
               "  resources                Table-1 style report\n"
               "  throughput <gbps>        predicted per-chain delivery\n"
               "  send <dst-ip> [count]    inject test packets\n"
               "  replay [workers] [flows] [pkts/flow] "
               "[--engine=compiled|interp]\n"
               "                           parallel traffic replay + "
               "measured throughput;\n"
               "                           --engine=compiled runs the "
               "compiled whole-program engine\n"
               "  p4info                   control-plane JSON description\n"
               "  lint [--json] [--target fig2|fig9|quickstart|stateful|"
               "parallel]...\n"
               "       [--all] [--fixture NAME]... [--fixtures]\n"
               "                           run the chain verifier; exits 1 "
               "on error findings\n"
               "  analyze [--json] [--matrix] [--auto-parallel]\n"
               "          [--target fig2|fig9|quickstart|stateful|parallel]"
               "...\n"
               "          [--all] [--fixture NAME]... [--fixtures]\n"
               "                           whole-chain dataflow pass: NF "
               "footprints,\n"
               "                           commutativity matrix, DV-A "
               "findings;\n"
               "                           --auto-parallel shows the "
               "placement rewrite\n"
               "  explore [--json] [--target fig2|fig9|quickstart|stateful|"
               "parallel]"
               "...\n"
               "       [--all] [--fixture NAME]... [--fixtures]\n"
               "                           run the symbolic packet-path "
               "explorer over\n"
               "                           the installed rules; exits 1 on "
               "error findings\n"
               "  cost [--json] [--per-class]\n"
               "       [--target fig2|fig9|quickstart|stateful|parallel]...\n"
               "       [--all] [--fixture NAME]... [--fixtures]\n"
               "                           abstract-interpretation cost "
               "certifier:\n"
               "                           proven per-class pass/recirc "
               "bounds and a\n"
               "                           statically fed fluid model; "
               "exits 1 on\n"
               "                           error findings\n"
               "  chaos [--seed N] [--schedule none|writes|evictions|"
               "recirc|mixed]\n"
               "        [--workers N] [--flows N] [--repair bypass|replace|"
               "none]\n"
               "        [--channel-seed N] [--state-seed N] "
               "[--target fig2|fig9] [--json]\n"
               "                           seeded fault injection + repair "
               "drill; exits 1\n"
               "                           on invariant violation or failed "
               "repair\n"
               "                           --channel-seed adds the control-"
               "channel drill:\n"
               "                           session writes over a seeded "
               "lossy/partitioned\n"
               "                           channel, idempotent apply + "
               "reconciliation\n"
               "                           --state-seed adds the silent-"
               "corruption drill\n"
               "                           (see `audit`)\n"
               "  audit [--state-seed N] [--seed N] [--workers N] "
               "[--flows N]\n"
               "        [--target fig2|fig9] [--json]\n"
               "                           silent state-corruption drill "
               "alone: seeded\n"
               "                           memory faults vs digest audit + "
               "shadow sampling\n"
               "                           + self-scrubbing repair; exits 1 "
               "on undetected\n"
               "                           or unrepaired corruption, any "
               "false positive,\n"
               "                           or replica counter divergence\n"
               "  update [--nf VGW|LB] [--kill none|shadow|flip|drain]\n"
               "         [--workers N] [--flows N] [--packets N] [--seed N]"
               " [--json]\n"
               "                           hitless live-update drill: "
               "mid-stream flip\n"
               "                           consistency + crash recovery; "
               "exits 1 on any\n"
               "                           inconsistency\n"
               "  --fig9                   use the paper's prototype "
               "placement\n"
               "\n"
               "seeds (chaos/audit): every fault schedule is a pure function "
               "of its seed,\n"
               "  replayable bit-for-bit at any worker count. The three "
               "lanes are drawn\n"
               "  in a fixed order from independent flags, so adding a lane "
               "never changes\n"
               "  an existing schedule:\n"
               "  --seed N                 write/packet fault lanes + the "
               "flow set\n"
               "  --channel-seed N         control-channel lane (drop/dup/"
               "reorder/delay/\n"
               "                           partition)\n"
               "  --state-seed N           silent state-corruption lane "
               "(key/action/window\n"
               "                           bit flips, deletes, duplicates)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool fig9 = false;
  std::erase_if(args, [&](const std::string& a) {
    if (a == "--fig9") {
      fig9 = true;
      return true;
    }
    return false;
  });
  if (args.empty()) {
    usage();
    return 2;
  }

  // Lint, explore, and replay build their own deployments; dispatch
  // before the shared fixture is constructed.
  if (args[0] == "lint") return cmd_lint(args, fig9);
  if (args[0] == "analyze") {
    try {
      return cmd_analyze(args, fig9);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "analyze: %s\n", e.what());
      return 2;
    }
  }
  if (args[0] == "explore") return cmd_explore(args, fig9);
  if (args[0] == "cost") return cmd_cost(args, fig9);
  if (args[0] == "chaos") {
    try {
      return cmd_chaos(args, fig9);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos: %s\n", e.what());
      return 2;
    }
  }
  if (args[0] == "audit") {
    try {
      return cmd_audit(args, fig9);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "audit: %s\n", e.what());
      return 2;
    }
  }
  if (args[0] == "update") {
    try {
      return cmd_update(args, fig9);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "update: %s\n", e.what());
      return 2;
    }
  }
  if (args[0] == "replay") {
    sim::EngineKind engine = sim::EngineKind::kInterpreter;
    bool bad_engine = false;
    std::erase_if(args, [&](const std::string& a) {
      if (a.rfind("--engine=", 0) != 0) return false;
      const std::string value = a.substr(std::strlen("--engine="));
      if (value == "compiled") {
        engine = sim::EngineKind::kCompiled;
      } else if (value == "interp") {
        engine = sim::EngineKind::kInterpreter;
      } else {
        std::fprintf(stderr, "replay: unknown engine '%s' "
                     "(expected compiled|interp)\n", value.c_str());
        bad_engine = true;
      }
      return true;
    });
    if (bad_engine) return 2;
    const auto arg_or = [&](std::size_t i, std::uint32_t fallback) {
      return args.size() > i
                 ? static_cast<std::uint32_t>(std::atoi(args[i].c_str()))
                 : fallback;
    };
    return cmd_replay(fig9, engine, arg_or(1, 4), arg_or(2, 100),
                      arg_or(3, 4));
  }

  auto fx = fig9 ? control::make_fig9_deployment()
                 : control::make_fig2_deployment();

  const std::string& cmd = args[0];
  if (cmd == "plan") return cmd_plan(fx);
  if (cmd == "resources") return cmd_resources(fx);
  if (cmd == "throughput") {
    if (args.size() < 2) {
      usage();
      return 2;
    }
    return cmd_throughput(fx, std::atof(args[1].c_str()));
  }
  if (cmd == "send") {
    if (args.size() < 2) {
      usage();
      return 2;
    }
    const int count = args.size() > 2 ? std::atoi(args[2].c_str()) : 1;
    return cmd_send(fx, args[1].c_str(), count);
  }
  if (cmd == "p4info") {
    std::fputs(control::p4info_json(fx.deployment->program()).c_str(),
               stdout);
    return 0;
  }
  usage();
  return 2;
}
