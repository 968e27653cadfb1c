// Control-plane and deployment-orchestration tests beyond the Fig. 2
// happy path: custom placements, error paths, framework reporting,
// and the CPU punt machinery.
#include "control/deployment.hpp"

#include <gtest/gtest.h>

#include "merge/framework.hpp"
#include "nf/nfs.hpp"
#include "sfc/header.hpp"

namespace dejavu::control {
namespace {

using asic::PipeKind;
using merge::CompositionKind;

std::unique_ptr<Deployment> build_small(
    std::optional<place::Placement> placement = std::nullopt) {
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  nfs.push_back(nf::make_router(ids));

  sfc::PolicySet policies;
  policies.add({.path_id = 1,
                .name = "direct",
                .nfs = {sfc::kClassifier, sfc::kRouter},
                .weight = 1.0,
                .in_port = 0,
                .exit_port = 1,
                .terminal_pops_sfc = true});

  asic::SwitchConfig config(asic::TargetSpec::tofino32());
  DeploymentOptions options;
  options.placement = std::move(placement);
  return Deployment::build(std::move(nfs), policies, std::move(config),
                           std::move(ids), std::move(options));
}

TEST(Deployment, BuildsMinimalChain) {
  auto d = build_small();
  EXPECT_TRUE(d->routing().feasible);
  EXPECT_FALSE(d->allocations().empty());
}

TEST(Deployment, MissingNfProgramThrows) {
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  sfc::PolicySet policies;
  policies.add({.path_id = 1,
                .name = "x",
                .nfs = {sfc::kClassifier, sfc::kRouter},
                .in_port = 0,
                .exit_port = 0});
  asic::SwitchConfig config(asic::TargetSpec::tofino32());
  EXPECT_THROW(Deployment::build(std::move(nfs), policies, std::move(config),
                                 std::move(ids)),
               std::runtime_error);
}

TEST(Deployment, InfeasibleSuppliedPlacementThrows) {
  // Classifier away from the arrival ingress pipelet: infeasible.
  place::Placement bad({
      {{1, PipeKind::kIngress},
       CompositionKind::kSequential,
       {sfc::kClassifier, sfc::kRouter}},
  });
  EXPECT_THROW(build_small(std::move(bad)), std::runtime_error);
}

TEST(Deployment, SuppliedPlacementIsRespected) {
  place::Placement given({
      {{0, PipeKind::kIngress},
       CompositionKind::kSequential,
       {sfc::kClassifier}},
      {{0, PipeKind::kEgress},
       CompositionKind::kSequential,
       {sfc::kRouter}},
  });
  auto d = build_small(given);
  EXPECT_EQ(d->placement(), given);
}

TEST(Deployment, RouteWorksEndToEnd) {
  auto d = build_small();
  d->control().add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .dst = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .protocol = std::nullopt,
                                  .priority = 0,
                                  .path_id = 1,
                                  .tenant = 1});
  d->control().add_route({.prefix = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                          .port = 1,
                          .next_hop_mac = net::MacAddr::from_u64(0x42)});

  auto out = d->control().inject(net::Packet::make({}), 0);
  ASSERT_EQ(out.out.size(), 1u) << out.drop_reason;
  EXPECT_EQ(out.out.front().port, 1);
  EXPECT_FALSE(out.out.front().packet.has_sfc_header());
}

TEST(Deployment, RouterMissPuntsAndCounts) {
  auto d = build_small();
  d->control().add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .dst = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .protocol = std::nullopt,
                                  .priority = 0,
                                  .path_id = 1,
                                  .tenant = 1});
  // No routes installed: the LPM misses and punts.
  auto out = d->control().inject(net::Packet::make({}), 0);
  EXPECT_EQ(out.out.size(), 0u);
  EXPECT_EQ(out.to_cpu.size(), 1u);
  EXPECT_EQ(d->control().route_misses(), 1u);
}

TEST(Deployment, FrameworkReportCountsOnlyDejavuTables) {
  auto d = build_small();
  auto fw = d->framework_report();
  auto total = d->total_report();
  EXPECT_GT(fw.used.table_ids, 0u);
  EXPECT_LT(fw.used.table_ids, total.used.table_ids);
  EXPECT_EQ(fw.used.tcam_blocks, 0u);   // framework is TCAM-free
  EXPECT_GT(total.used.tcam_blocks, 0u);  // the NFs do use TCAM
}

TEST(ControlPlane, InstallIntoUnknownTableThrows) {
  auto d = build_small();
  // No VGW deployed: installing a VGW mapping must fail loudly.
  EXPECT_THROW(d->control().add_vgw_mapping({}), std::invalid_argument);
  EXPECT_THROW(d->control().add_firewall_rule({}), std::invalid_argument);
  // No LB either: the LB learning write binds on first use, and a
  // failed binding throws every time rather than caching nothing.
  for (int i = 0; i < 2; ++i) {
    try {
      d->control().install_lb_session(7, net::Ipv4Addr(10, 1, 2, 1));
      ADD_FAILURE() << "installed into a deployment without an LB";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "table 'LB.lb_session' is not part of this deployment");
    }
  }
}

TEST(ControlPlane, LbSessionsLandInEveryInstanceAndOverwrite) {
  Fig2Deployment fx = make_fig9_deployment();
  ControlPlane& cp = fx.deployment->control();
  cp.install_lb_session(0x42, net::Ipv4Addr(10, 1, 2, 1));
  cp.install_lb_session(0x42, net::Ipv4Addr(10, 1, 2, 2));  // overwrite
  cp.install_lb_session(0x43, net::Ipv4Addr(10, 1, 2, 1));
  for (sim::RuntimeTable* t : fx.deployment->dataplane().tables_named(
           "LB.lb_session")) {
    EXPECT_EQ(t->entry_count(), 2u);
    const auto e = t->find_exact({0x42});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->action, (sim::ActionCall{"LB.modify_dstIp",
                                          {{"dip", 0x0a010202}}}));
  }
}

TEST(ControlPlane, UnservicedPuntsAreSurfaced) {
  auto d = build_small();
  d->control().add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .dst = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .protocol = std::nullopt,
                                  .priority = 0,
                                  .path_id = 1,
                                  .tenant = 1});
  auto out = d->control().inject(net::Packet::make({}), 0);
  // Router punts stay visible to the operator (no silent loss).
  ASSERT_EQ(out.to_cpu.size(), 1u);
  auto header = sfc::read_sfc(out.to_cpu.front().packet);
  ASSERT_TRUE(header.has_value());
  EXPECT_TRUE(header->meta.to_cpu);
}

TEST(Fig2, ParallelPlacementAlsoWorks) {
  // Force VGW and LB side-by-side (parallel) on egress 1 and check
  // the full chain still delivers, with the extra recirculation the
  // branch transition costs.
  p4ir::TupleIdTable ids;
  auto nfs = nf::fig2_nf_programs(ids);
  auto policies = sfc::fig2_policies();
  asic::SwitchConfig config(asic::TargetSpec::tofino32());
  config.set_pipeline_loopback(1);

  DeploymentOptions options;
  options.placement = place::Placement({
      {{0, PipeKind::kIngress},
       CompositionKind::kSequential,
       {sfc::kClassifier, sfc::kFirewall}},
      {{1, PipeKind::kEgress},
       CompositionKind::kParallel,
       {sfc::kVgw, sfc::kLoadBalancer}},
      {{0, PipeKind::kEgress},
       CompositionKind::kSequential,
       {sfc::kRouter}},
  });
  auto d = Deployment::build(std::move(nfs), policies, std::move(config),
                             std::move(ids), std::move(options));

  auto& cp = d->control();
  cp.add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                        .dst = *net::Ipv4Prefix::parse("10.1.0.0/16"),
                        .protocol = std::nullopt,
                        .priority = 10,
                        .path_id = 1,
                        .tenant = 100});
  cp.add_firewall_rule({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                        .dst = *net::Ipv4Prefix::parse("10.1.0.0/16"),
                        .protocol = net::kIpProtoTcp,
                        .dst_port = std::nullopt,
                        .priority = 10,
                        .permit = true});
  cp.add_vgw_mapping({.virtual_ip = net::Ipv4Addr(10, 1, 0, 10),
                      .physical_ip = net::Ipv4Addr(10, 1, 1, 10),
                      .tenant = 100});
  cp.set_lb_pool({{net::Ipv4Addr(10, 1, 2, 1)}});
  cp.add_route({.prefix = *net::Ipv4Prefix::parse("10.0.0.0/8"),
                .port = 1,
                .next_hop_mac = net::MacAddr::from_u64(0x02)});

  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 1, 0, 10);
  auto out = cp.inject(net::Packet::make(spec), 0);
  ASSERT_EQ(out.out.size(), 1u) << out.drop_reason;
  EXPECT_EQ(out.out.front().packet.ipv4()->dst, net::Ipv4Addr(10, 1, 2, 1));
  // VGW and LB sit in different parallel branches of the same egress
  // pipelet: the VGW->LB transition costs one extra loop (§3.2).
  const auto& traversal = d->routing().traversals.at(1);
  EXPECT_GE(traversal.recirculations, 2u) << traversal.to_string();
}

}  // namespace
}  // namespace dejavu::control
