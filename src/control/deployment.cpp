#include "control/deployment.hpp"

#include <stdexcept>

#include "nf/nfs.hpp"
#include "p4ir/deps.hpp"

namespace dejavu::control {

std::unique_ptr<Deployment> Deployment::build(
    std::vector<p4ir::Program> nf_programs, sfc::PolicySet policies,
    asic::SwitchConfig config, p4ir::TupleIdTable ids,
    DeploymentOptions options) {
  auto d = std::unique_ptr<Deployment>(new Deployment());
  d->nf_programs_ = std::move(nf_programs);
  d->policies_ = std::move(policies);
  d->ids_ = std::move(ids);
  d->spec_ = config.spec();

  // Every NF the policies reference must have a program.
  auto find_program = [&](const std::string& nf) -> const p4ir::Program* {
    for (const p4ir::Program& p : d->nf_programs_) {
      if (p.annotation("nf").value_or(p.name()) == nf) return &p;
    }
    return nullptr;
  };
  for (const std::string& nf : d->policies_.all_nfs()) {
    if (find_program(nf) == nullptr) {
      throw std::runtime_error("no NF program supplied for '" + nf + "'");
    }
  }

  // --- placement ---
  const place::TraversalEnv env = route::env_for(config);
  if (options.placement) {
    d->placement_ = std::move(*options.placement);
    double cost = place::placement_cost(d->policies_, d->placement_,
                                        d->spec_, env, options.stage_model);
    if (cost >= place::kInfeasibleCost) {
      throw std::runtime_error("supplied placement is infeasible: " +
                               d->placement_.to_string());
    }
  } else {
    place::OptimizeResult result;
    if (d->policies_.all_nfs().size() <= kExhaustiveLimit) {
      result = place::exhaustive_optimize(d->policies_, d->spec_, env,
                                          options.stage_model);
    } else {
      result = place::anneal_optimize(d->policies_, d->spec_, env,
                                      options.stage_model);
    }
    if (!result.feasible) {
      throw std::runtime_error("placement optimization found no feasible "
                               "placement");
    }
    d->placement_ = std::move(result.placement);
  }

  // --- merge / compose ---
  std::vector<const p4ir::Program*> nf_ptrs;
  for (const p4ir::Program& p : d->nf_programs_) nf_ptrs.push_back(&p);
  d->program_ = std::make_unique<p4ir::Program>(merge::compose_program(
      kProgramName, nf_ptrs, d->placement_.assignments(),
      d->spec_.pipelines, d->ids_));
  std::string why;
  if (!d->program_->validate(d->ids_, &why)) {
    throw std::runtime_error("composed program invalid: " + why);
  }

  // Dependency graphs feed both the verifier and the stage allocator,
  // so the verifier checks exactly what gets compiled.
  const std::vector<p4ir::DependencyGraph> graphs =
      verify::dependency_graphs(*d->program_);

  // --- route ---
  d->routing_ = route::build_routing(d->policies_, d->placement_, config);
  if (!d->routing_.feasible) {
    throw std::runtime_error("routing infeasible: " +
                             d->routing_.infeasible_reason);
  }

  // --- verify: fail fast with named diagnostics before bring-up ---
  verify::VerifyInput vin;
  vin.program = d->program_.get();
  vin.ids = &d->ids_;
  for (const p4ir::Program& p : d->nf_programs_) {
    vin.nf_programs.push_back(&p);
  }
  vin.dep_graphs = &graphs;
  vin.placement = &d->placement_;
  vin.policies = &d->policies_;
  vin.config = &config;
  vin.routing = &d->routing_;
  d->verification_ = verify::run_all(vin);
  if (options.verify && !d->verification_.ok()) {
    throw std::runtime_error("chain verifier rejected the deployment:\n" +
                             d->verification_.to_string());
  }

  // --- compile: per-pipelet stage allocation ---
  for (std::size_t i = 0; i < d->program_->controls().size(); ++i) {
    const p4ir::ControlBlock& control = d->program_->controls()[i];
    compile::Allocation alloc = compile::allocate(graphs[i], d->spec_);
    if (!alloc.ok) {
      throw std::runtime_error("pipelet '" + control.name() +
                               "' does not fit: " + alloc.error);
    }
    d->allocations_.push_back(std::move(alloc));
  }

  // --- bring up the data plane + control plane ---
  d->dataplane_ = std::make_unique<sim::DataPlane>(*d->program_, d->ids_,
                                                   std::move(config));
  d->control_ = std::make_unique<ControlPlane>(*d->dataplane_, d->policies_);
  d->control_->install_routing(d->routing_);

  if (options.explore) {
    const explore::ExploreResult& result =
        d->run_explorer(options.explore_options);
    if (!result.report.ok()) {
      throw std::runtime_error("symbolic explorer rejected the deployment:\n" +
                               result.report.to_string());
    }
  }
  return d;
}

const explore::ExploreResult& Deployment::run_explorer(
    const explore::ExploreOptions& options) {
  exploration_ = explore::run(*dataplane_, policies_, options);
  return exploration_;
}

void Deployment::apply_repair(sfc::PolicySet policies,
                              route::RoutingPlan routing) {
  policies_ = std::move(policies);
  routing_ = std::move(routing);
  control_->set_policies(policies_);
  control_->adopt_routing(routing_);
}

compile::ResourceReport Deployment::framework_report() const {
  return compile::report(allocations_, spec_, compile::is_framework_table);
}

compile::ResourceReport Deployment::total_report() const {
  return compile::report(allocations_, spec_, {});
}

place::Placement fig9_placement() {
  using asic::PipeKind;
  using merge::CompositionKind;
  return place::Placement({
      {{0, PipeKind::kIngress},
       CompositionKind::kSequential,
       {sfc::kClassifier, sfc::kFirewall}},
      {{1, PipeKind::kEgress}, CompositionKind::kSequential, {sfc::kVgw}},
      {{1, PipeKind::kIngress},
       CompositionKind::kSequential,
       {sfc::kLoadBalancer}},
      {{0, PipeKind::kEgress}, CompositionKind::kSequential, {sfc::kRouter}},
  });
}

Fig2Deployment make_fig2_deployment(
    std::optional<place::Placement> placement, DeploymentOptions options) {
  Fig2Deployment result;

  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs = nf::fig2_nf_programs(ids);

  // Both servers hang off pipeline 0 (pipeline 1 is all-loopback, §5).
  result.policies = sfc::fig2_policies(0.5, 0.3, 0.2,
                                       Fig2Deployment::kSenderPort,
                                       Fig2Deployment::kReceiverPort);

  asic::SwitchConfig config(asic::TargetSpec::tofino32());
  config.set_pipeline_loopback(1);

  options.placement = std::move(placement);
  auto deployment =
      Deployment::build(std::move(nfs), result.policies, std::move(config),
                        std::move(ids), std::move(options));

  ControlPlane& cp = deployment->control();
  // Traffic classes: the three Fig. 2 paths, split by destination
  // prefix. 10.1/16 is tenant VIP space (full chain), 10.2/16 is
  // virtualized-only, 10.3/16 is plain routed traffic.
  cp.add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                        .dst = *net::Ipv4Prefix::parse("10.1.0.0/16"),
                        .protocol = std::nullopt,
                        .priority = 10,
                        .path_id = 1,
                        .tenant = 100});
  cp.add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                        .dst = *net::Ipv4Prefix::parse("10.2.0.0/16"),
                        .protocol = std::nullopt,
                        .priority = 10,
                        .path_id = 2,
                        .tenant = 200});
  cp.add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                        .dst = *net::Ipv4Prefix::parse("10.3.0.0/16"),
                        .protocol = std::nullopt,
                        .priority = 10,
                        .path_id = 3,
                        .tenant = 300});

  // Firewall: permit TCP into the serviced VIP space; default-deny
  // covers the rest.
  cp.add_firewall_rule({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                        .dst = *net::Ipv4Prefix::parse("10.1.0.0/16"),
                        .protocol = net::kIpProtoTcp,
                        .dst_port = std::nullopt,
                        .priority = 10,
                        .permit = true});

  // VGW: tenant VIPs -> physical service addresses.
  cp.add_vgw_mapping({.virtual_ip = net::Ipv4Addr(10, 1, 0, 10),
                      .physical_ip = net::Ipv4Addr(10, 1, 1, 10),
                      .tenant = 100});
  cp.add_vgw_mapping({.virtual_ip = net::Ipv4Addr(10, 2, 0, 20),
                      .physical_ip = net::Ipv4Addr(10, 2, 1, 20),
                      .tenant = 200});

  // LB pool behind the translated service address.
  cp.set_lb_pool({{net::Ipv4Addr(10, 1, 2, 1), net::Ipv4Addr(10, 1, 2, 2)}});

  // Routes: everything toward the receiver server.
  cp.add_route({.prefix = *net::Ipv4Prefix::parse("10.0.0.0/8"),
                .port = Fig2Deployment::kReceiverPort,
                .next_hop_mac = net::MacAddr::from_u64(0x020000000002)});

  result.deployment = std::move(deployment);
  return result;
}

}  // namespace dejavu::control
