// §7 service-upgrade/fail-over support: snapshot a running deployment's
// state, replay it into a freshly built one, and verify behavior is
// indistinguishable — including learned LB sessions.
#include "control/snapshot.hpp"

#include <gtest/gtest.h>

#include "control/deployment.hpp"
#include "control/replay_target.hpp"
#include "merge/framework.hpp"
#include "nf/nfs.hpp"

namespace dejavu::control {
namespace {

net::Packet flow_packet(std::uint16_t sport) {
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 1, 0, 10);
  spec.src_port = sport;
  return net::Packet::make(spec);
}

TEST(Snapshot, CapturesInstalledState) {
  auto fx = make_fig9_deployment();
  // Learn a few sessions first.
  for (std::uint16_t s = 0; s < 3; ++s) {
    fx.deployment->control().inject(flow_packet(40000 + s), 0);
  }
  auto snap = take_snapshot(fx.deployment->dataplane());
  EXPECT_GT(snap.entry_count(), 10u);  // checks + branching + NF rules

  auto text = snap.to_text();
  EXPECT_NE(text.find("LB.lb_session"), std::string::npos);
  EXPECT_NE(text.find("dejavu_branching"), std::string::npos);
  EXPECT_NE(text.find("Router.ipv4_lpm"), std::string::npos);
}

TEST(Snapshot, FailoverPreservesBehavior) {
  auto primary = make_fig9_deployment();
  auto& cp1 = primary.deployment->control();
  // Warm sessions on the primary.
  for (std::uint16_t s = 0; s < 5; ++s) {
    ASSERT_EQ(cp1.inject(flow_packet(41000 + s), 0).out.size(), 1u);
  }
  ASSERT_EQ(cp1.sessions_learned(), 5u);

  // Bring up a standby with the same program but NO control-plane
  // installs beyond the framework routing, then restore.
  auto standby = make_fig9_deployment();
  auto snap = take_snapshot(primary.deployment->dataplane());
  auto missing = restore_snapshot(snap, standby.deployment->dataplane());
  EXPECT_TRUE(missing.empty());

  // Warm flows hit their sessions on the standby without new punts.
  for (std::uint16_t s = 0; s < 5; ++s) {
    auto on_primary = cp1.inject(flow_packet(41000 + s), 0);
    auto on_standby =
        standby.deployment->control().inject(flow_packet(41000 + s), 0);
    ASSERT_EQ(on_standby.out.size(), 1u);
    // Same backend choice (the session entry came across).
    EXPECT_EQ(on_primary.out.front().packet.ipv4()->dst,
              on_standby.out.front().packet.ipv4()->dst);
  }
  EXPECT_EQ(standby.deployment->control().sessions_learned(), 0u);
}

TEST(Snapshot, RoundTripIsStable) {
  auto fx = make_fig9_deployment();
  fx.deployment->control().inject(flow_packet(42000), 0);
  auto snap1 = take_snapshot(fx.deployment->dataplane());

  auto fresh = make_fig9_deployment();
  restore_snapshot(snap1, fresh.deployment->dataplane());
  auto snap2 = take_snapshot(fresh.deployment->dataplane());
  EXPECT_EQ(snap1.to_text(), snap2.to_text());
}

TEST(Snapshot, MissingTablesAreReportedNotFatal) {
  auto fx = make_fig9_deployment();
  // Learn a session so LB.lb_session has state worth migrating (empty
  // tables missing from the target are not reported).
  fx.deployment->control().inject(flow_packet(43000), 0);
  auto snap = take_snapshot(fx.deployment->dataplane());

  // A "downgraded" target without the LB: build a 2-NF deployment.
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
  auto small = Deployment::build(std::move(nfs), policies,
                                 std::move(config), std::move(ids));

  auto missing = restore_snapshot(snap, small->dataplane());
  EXPECT_FALSE(missing.empty());
  bool saw_lb = false;
  for (const auto& m : missing) {
    saw_lb |= m.find("LB.lb_session") != std::string::npos;
  }
  EXPECT_TRUE(saw_lb);
}

TEST(Snapshot, RestoreReportsEntriesTheTableCannotRun) {
  auto source = make_fig2_deployment();
  Snapshot snap = take_snapshot(source.deployment->dataplane());
  // Every branching entry now carries an action no table binds.
  std::size_t rebound = 0;
  for (Snapshot::TableState& t : snap.tables) {
    if (t.table != merge::kBranchingTable) continue;
    for (auto& e : t.exact) {
      e.action = sim::ActionCall{"no_such_action", {}};
      ++rebound;
    }
  }
  ASSERT_GT(rebound, 0u);

  auto target = make_fig2_deployment();
  sim::DataPlane& dp = target.deployment->dataplane();
  const auto refused = restore_snapshot(snap, dp);
  ASSERT_EQ(refused.size(), rebound);
  for (const std::string& why : refused) {
    EXPECT_NE(why.find(merge::kBranchingTable), std::string::npos) << why;
    EXPECT_NE(why.find("'no_such_action' is not bound"), std::string::npos)
        << why;
  }
  for (const auto& t : take_snapshot(dp).tables) {
    if (t.table == merge::kBranchingTable) {
      EXPECT_TRUE(t.exact.empty());
    }
  }
  for (const sim::ReplayFlow& rf : fig2_replay_flows(12)) {
    EXPECT_NO_THROW(dp.process(rf.flow.packet(), rf.in_port));
  }
}

TEST(Snapshot, RegistersRoundTrip) {
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  nfs.push_back(nf::make_rate_limiter(ids, 100));
  nfs.push_back(nf::make_router(ids));
  sfc::PolicySet policies;
  policies.add({.path_id = 1,
                .name = "limited",
                .nfs = {sfc::kClassifier, "Limiter", sfc::kRouter},
                .weight = 1.0,
                .in_port = 0,
                .exit_port = 1,
                .terminal_pops_sfc = true});
  asic::SwitchConfig config(asic::TargetSpec::tofino32());
  auto d = Deployment::build(std::move(nfs), policies, std::move(config),
                             std::move(ids));
  d->control().add_traffic_class({.src = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .dst = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                                  .protocol = std::nullopt,
                                  .priority = 0,
                                  .path_id = 1,
                                  .tenant = 1});
  d->control().add_route({.prefix = *net::Ipv4Prefix::parse("0.0.0.0/0"),
                          .port = 1,
                          .next_hop_mac = net::MacAddr::from_u64(0x42)});
  for (int i = 0; i < 7; ++i) {
    d->control().inject(net::Packet::make({}), 0);
  }

  auto snap = take_snapshot(d->dataplane());
  EXPECT_NE(snap.to_text().find("register"), std::string::npos);

  // Zero the live register, restore, and check the count came back.
  auto loc = d->placement().find("Limiter");
  ASSERT_TRUE(loc.has_value());
  auto* cells = d->dataplane().register_array(
      merge::pipelet_control_name(loc->pipelet), "Limiter.flow_count");
  ASSERT_NE(cells, nullptr);
  std::fill(cells->begin(), cells->end(), 0);
  restore_snapshot(snap, d->dataplane());
  std::uint64_t total = 0;
  for (auto v : *cells) total += v;
  EXPECT_EQ(total, 7u);
}

}  // namespace
}  // namespace dejavu::control
