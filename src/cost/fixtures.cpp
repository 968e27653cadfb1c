#include "cost/fixtures.hpp"

#include <stdexcept>
#include <utility>

#include "merge/framework.hpp"
#include "nf/nfs.hpp"
#include "route/routing.hpp"

namespace dejavu::cost::fixtures {

namespace {

using p4ir::Program;

void install_rogue_branching(control::Deployment& d,
                             std::vector<std::uint64_t> key,
                             sim::ActionCall call) {
  for (sim::RuntimeTable* rt :
       d.dataplane().tables_named(merge::kBranchingTable)) {
    rt->add_exact(key, call);
  }
}

/// The classifier+router skeleton several fixtures start from: one
/// declared path, a 10/8 traffic class onto it, a route covering the
/// class. Healthy on its own (one pass, no recirculation).
struct Skeleton {
  std::unique_ptr<control::Deployment> deployment;
  sfc::PolicySet policies;
};

Skeleton classify_route() {
  Skeleton s;
  p4ir::TupleIdTable ids;
  std::vector<Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  nfs.push_back(nf::make_router(ids));
  s.policies.add({.path_id = 1,
                  .name = "classify-then-route",
                  .nfs = {sfc::kClassifier, sfc::kRouter},
                  .weight = 1.0,
                  .in_port = 0,
                  .exit_port = 1});
  asic::SwitchConfig config{asic::TargetSpec::tofino32()};
  s.deployment = control::Deployment::build(std::move(nfs), s.policies,
                                            std::move(config), std::move(ids));
  auto& cp = s.deployment->control();
  cp.add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                        .dst = *net::Ipv4Prefix::parse("10.0.0.0/8"),
                        .protocol = std::nullopt,
                        .priority = 10,
                        .path_id = 1,
                        .tenant = 7});
  cp.add_route({.prefix = *net::Ipv4Prefix::parse("10.0.0.0/8"),
                .port = 1,
                .next_hop_mac = *net::MacAddr::parse("02:00:00:00:00:02")});
  return s;
}

/// DV-C1: the explorer-fixture routing loop, now under the abstract
/// interpreter — a rogue traffic class steers path 9 to a dedicated
/// recirculation port at every service index. The walker must prove
/// "no finite pass bound": the abstract state recurs pass over pass.
Bundle loop_forever() {
  Bundle b;
  b.name = "loop-forever";
  b.description =
      "rogue class recirculates forever; no finite pass bound (DV-C1)";
  b.expect_checks = {"DV-C1"};

  Skeleton s = classify_route();
  b.deployment = std::move(s.deployment);
  b.policies = std::move(s.policies);

  const std::uint16_t recirc = route::dedicated_recirc_port(
      b.deployment->dataplane().config().spec(), 0);
  for (sim::RuntimeTable* rt : b.deployment->dataplane().tables_named(
           merge::qualify(sfc::kClassifier, "traffic_class"))) {
    rt->add_ternary(
        {{0, 0}, {0x0A090000, 0xFFFF0000}, {0, 0}}, 20,
        {merge::qualify(sfc::kClassifier, "classify"),
         {{"path_id", 9}, {"tenant", 9}}});
  }
  install_rogue_branching(*b.deployment, {9, 1},
                          {merge::kActRouteToEgress, {{"port", recirc}}});
  b.exploration = b.deployment->run_explorer();
  return b;
}

/// DV-C2: a healthy recirculating deployment (the Fig. 9 prototype
/// layout, every path at most one loop) whose operator then lowers
/// max_pipeline_passes below the chains' certified need. The proven
/// bound still exists — it just exceeds the cap, so the class's
/// packets die on the kMaxPassesExceeded guard.
Bundle cap_below_chain() {
  Bundle b;
  b.name = "cap-below-chain";
  b.description =
      "pass cap lowered below the chains' certified bound (DV-C2)";
  b.expect_checks = {"DV-C2"};

  auto fx = control::make_fig9_deployment();
  b.deployment = std::move(fx.deployment);
  b.policies = std::move(fx.policies);
  b.exploration = b.deployment->run_explorer();
  // The misconfiguration under test: certified bounds are computed
  // against the cap the packets will actually meet.
  b.deployment->dataplane().set_max_passes(1);
  return b;
}

/// DV-C3: the routing plan promises fewer recirculations than the
/// rules can deliver — a stale plan (here: traversal costs zeroed, as
/// if the optimizer's 0-recirc packing were still in force) feeding
/// the fluid model an optimistic pass count.
Bundle optimistic_plan() {
  Bundle b;
  b.name = "optimistic-plan";
  b.description =
      "routing plan promises fewer recirculations than proven (DV-C3)";
  b.expect_checks = {"DV-C3"};

  auto fx = control::make_fig9_deployment();
  b.deployment = std::move(fx.deployment);
  b.policies = std::move(fx.policies);
  b.exploration = b.deployment->run_explorer();

  b.routing_override =
      std::make_unique<route::RoutingPlan>(b.deployment->routing());
  for (auto& [path, traversal] : b.routing_override->traversals) {
    traversal.recirculations = 0;
    traversal.resubmissions = 0;
  }
  b.options.routing = b.routing_override.get();
  return b;
}

/// DV-C4: branching state for a service path no policy declares and no
/// class can reach — dead rules from a deleted chain that survived the
/// teardown. Reachability is proven at the installed-rule level: the
/// classifier simply never stamps path 99.
Bundle orphan_branch() {
  Bundle b;
  b.name = "orphan-branch";
  b.description =
      "branching entry for an undeclared path no class reaches (DV-C4)";
  b.expect_checks = {"DV-C4"};

  Skeleton s = classify_route();
  b.deployment = std::move(s.deployment);
  b.policies = std::move(s.policies);
  install_rogue_branching(*b.deployment, {99, 1},
                          {merge::kActRouteToEgress, {{"port", 1}}});
  b.exploration = b.deployment->run_explorer();
  return b;
}

}  // namespace

std::vector<std::string> names() {
  return {"loop-forever", "cap-below-chain", "optimistic-plan",
          "orphan-branch"};
}

Bundle make(const std::string& name) {
  if (name == "loop-forever") return loop_forever();
  if (name == "cap-below-chain") return cap_below_chain();
  if (name == "optimistic-plan") return optimistic_plan();
  if (name == "orphan-branch") return orphan_branch();
  throw std::invalid_argument("unknown cost fixture '" + name + "'");
}

}  // namespace dejavu::cost::fixtures
