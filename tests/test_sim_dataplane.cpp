// Executor-level tests on hand-built miniature programs: guard
// semantics, primitive execution, resubmission, recirculation via
// loopback ports, mirror/drop/cpu disposition, and pass limits.
#include "sim/dataplane.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "merge/compose.hpp"
#include "nf/parser_lib.hpp"
#include "sfc/header.hpp"

namespace dejavu::sim {
namespace {

using p4ir::Action;
using p4ir::ApplyEntry;
using p4ir::ControlBlock;
using p4ir::MatchKind;
using p4ir::Table;
using p4ir::TableKey;

/// A minimal single-pipeline program skeleton: the test installs one
/// ingress control block named per merge::pipelet_control_name.
struct MiniSwitch {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"mini"};
  asic::SwitchConfig config{asic::TargetSpec::mini()};

  MiniSwitch() { nf::add_standard_parser(program, ids); }

  DataPlane make() { return DataPlane(program, ids, config); }

  static std::string ingress_name() {
    return merge::pipelet_control_name({0, asic::PipeKind::kIngress});
  }
  static std::string egress_name() {
    return merge::pipelet_control_name({0, asic::PipeKind::kEgress});
  }
};

/// Ingress block that forwards everything to a fixed port.
ControlBlock forward_all(const std::string& name, std::uint16_t port) {
  ControlBlock c(name);
  Action fwd;
  fwd.name = "fwd";
  fwd.primitives = {p4ir::set_imm("standard_metadata.egress_spec", port)};
  c.add_action(fwd);
  Table t;
  t.name = "fwd_all";
  t.default_action = "fwd";
  c.add_table(t);
  c.apply_table("fwd_all");
  return c;
}

TEST(DataPlane, ForwardsToEgressSpec) {
  MiniSwitch sw;
  sw.program.add_control(forward_all(MiniSwitch::ingress_name(), 2));
  auto dp = sw.make();
  auto out = dp.process(net::Packet::make({}), 0);
  ASSERT_EQ(out.out.size(), 1u) << out.drop_reason;
  EXPECT_EQ(out.out.front().port, 2);
  EXPECT_EQ(out.recirculations, 0u);
}

TEST(DataPlane, NoEgressDecisionDrops) {
  MiniSwitch sw;  // no ingress program at all -> pass-through, no spec
  auto dp = sw.make();
  auto out = dp.process(net::Packet::make({}), 0);
  EXPECT_TRUE(out.dropped);
  EXPECT_NE(out.drop_reason.find("no egress decision"), std::string::npos);
}

TEST(DataPlane, LoopbackPortRecirculates) {
  MiniSwitch sw;
  // Port 3 loops back; forward there once, then a second table sends
  // flagged (recirculated) packets out port 1.
  sw.config.set_loopback(3);
  ControlBlock c(MiniSwitch::ingress_name());
  Action to_loop;
  to_loop.name = "to_loop";
  to_loop.primitives = {p4ir::set_imm("standard_metadata.egress_spec", 3)};
  c.add_action(to_loop);
  Action out_port1;
  out_port1.name = "out_port1";
  out_port1.primitives = {p4ir::set_imm("standard_metadata.egress_spec", 1)};
  c.add_action(out_port1);

  // Match on ingress_port: front-panel 0 -> loop; loopback 3 -> out.
  Table steer;
  steer.name = "steer";
  steer.keys = {
      TableKey{"standard_metadata.ingress_port", MatchKind::kExact, 9}};
  steer.actions = {"to_loop", "out_port1"};
  c.add_table(steer);
  c.apply_table("steer");
  sw.program.add_control(std::move(c));

  auto dp = sw.make();
  dp.table_in(MiniSwitch::ingress_name(), "steer")
      ->add_exact({0}, ActionCall{"to_loop", {}});
  dp.table_in(MiniSwitch::ingress_name(), "steer")
      ->add_exact({3}, ActionCall{"out_port1", {}});

  auto out = dp.process(net::Packet::make({}), 0);
  ASSERT_EQ(out.out.size(), 1u) << out.drop_reason;
  EXPECT_EQ(out.out.front().port, 1);
  EXPECT_EQ(out.recirculations, 1u);
}

TEST(DataPlane, LoopbackPortRejectsExternalTraffic) {
  MiniSwitch sw;
  sw.config.set_loopback(3);
  sw.program.add_control(forward_all(MiniSwitch::ingress_name(), 1));
  auto dp = sw.make();
  auto out = dp.process(net::Packet::make({}), 3);
  EXPECT_TRUE(out.dropped);
  EXPECT_NE(out.drop_reason.find("loopback"), std::string::npos);
}

TEST(DataPlane, InvalidPortsRejected) {
  MiniSwitch sw;
  sw.program.add_control(forward_all(MiniSwitch::ingress_name(), 1));
  auto dp = sw.make();
  EXPECT_TRUE(dp.process(net::Packet::make({}), 99).dropped);
  // Dedicated recirc ports are internal-only.
  EXPECT_TRUE(dp.process(net::Packet::make({}), 4).dropped);
}

TEST(DataPlane, RoutingLoopHitsPassLimit) {
  MiniSwitch sw;
  sw.config.set_loopback(3);
  sw.program.add_control(forward_all(MiniSwitch::ingress_name(), 3));
  auto dp = sw.make();
  dp.set_max_passes(10);
  auto out = dp.process(net::Packet::make({}), 0);
  EXPECT_TRUE(out.dropped);
  EXPECT_NE(out.drop_reason.find("passes"), std::string::npos);
  EXPECT_EQ(out.recirculations, 10u);  // one loop per pass before the cap
}

TEST(DataPlane, DropActionDropsInIngress) {
  MiniSwitch sw;
  ControlBlock c(MiniSwitch::ingress_name());
  Action deny;
  deny.name = "deny";
  deny.primitives = {p4ir::drop_primitive()};
  c.add_action(deny);
  Table t;
  t.name = "drop_all";
  t.default_action = "deny";
  c.add_table(t);
  c.apply_table("drop_all");
  sw.program.add_control(std::move(c));

  auto dp = sw.make();
  auto out = dp.process(net::Packet::make({}), 0);
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.out.empty());
}

TEST(DataPlane, ToCpuPunts) {
  MiniSwitch sw;
  ControlBlock c(MiniSwitch::ingress_name());
  Action punt;
  punt.name = "punt";
  punt.primitives = {p4ir::set_imm("standard_metadata.to_cpu_flag", 1)};
  c.add_action(punt);
  Table t;
  t.name = "punt_all";
  t.default_action = "punt";
  c.add_table(t);
  c.apply_table("punt_all");
  sw.program.add_control(std::move(c));

  auto dp = sw.make();
  auto out = dp.process(net::Packet::make({}), 2);
  ASSERT_EQ(out.to_cpu.size(), 1u);
  EXPECT_EQ(out.to_cpu.front().in_port, 2);
  EXPECT_FALSE(out.dropped);
}

TEST(DataPlane, MirrorEmitsCopy) {
  MiniSwitch sw;
  ControlBlock c(MiniSwitch::ingress_name());
  Action fwd_mirror;
  fwd_mirror.name = "fwd_mirror";
  fwd_mirror.primitives = {
      p4ir::set_imm("standard_metadata.egress_spec", 1),
      p4ir::set_imm("standard_metadata.mirror_flag", 1)};
  c.add_action(fwd_mirror);
  Table t;
  t.name = "t";
  t.default_action = "fwd_mirror";
  c.add_table(t);
  c.apply_table("t");
  sw.program.add_control(std::move(c));

  auto dp = sw.make();
  dp.set_mirror_port(2);
  auto out = dp.process(net::Packet::make({}), 0);
  ASSERT_EQ(out.out.size(), 2u);
  EXPECT_EQ(out.out[0].port, 2);  // mirror copy first
  EXPECT_EQ(out.out[1].port, 1);
}

TEST(DataPlane, EgressPipeRunsAfterTrafficManager) {
  MiniSwitch sw;
  sw.program.add_control(forward_all(MiniSwitch::ingress_name(), 1));
  // Egress program stamps the TTL.
  ControlBlock e(MiniSwitch::egress_name());
  Action stamp;
  stamp.name = "stamp";
  stamp.primitives = {p4ir::set_imm("ipv4.ttl", 7)};
  e.add_action(stamp);
  Table t;
  t.name = "stamp_all";
  t.default_action = "stamp";
  e.add_table(t);
  e.apply_table("stamp_all");
  sw.program.add_control(std::move(e));

  auto dp = sw.make();
  auto out = dp.process(net::Packet::make({}), 0);
  ASSERT_EQ(out.out.size(), 1u);
  EXPECT_EQ(out.out.front().packet.ipv4()->ttl, 7);
}

TEST(DataPlane, EmitRefreshesIpv4Checksum) {
  MiniSwitch sw;
  ControlBlock c(MiniSwitch::ingress_name());
  Action rewrite;
  rewrite.name = "rewrite";
  rewrite.primitives = {
      p4ir::set_imm("ipv4.dst_addr", 0x01020304),
      p4ir::set_imm("standard_metadata.egress_spec", 1)};
  c.add_action(rewrite);
  Table t;
  t.name = "t";
  t.default_action = "rewrite";
  c.add_table(t);
  c.apply_table("t");
  sw.program.add_control(std::move(c));

  auto dp = sw.make();
  auto out = dp.process(net::Packet::make({}), 0);
  ASSERT_EQ(out.out.size(), 1u);
  auto ip = out.out.front().packet.ipv4();
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->dst, net::Ipv4Addr(1, 2, 3, 4));
  EXPECT_EQ(ip->checksum, ip->compute_checksum());
}

TEST(DataPlane, ResubmitRerunsIngress) {
  MiniSwitch sw;
  ControlBlock c(MiniSwitch::ingress_name());
  Action resubmit;
  resubmit.name = "resubmit";
  resubmit.primitives = {
      p4ir::set_imm("standard_metadata.resubmit_flag", 1),
      // Mark the packet so the second pass can detect it.
      p4ir::set_imm("ipv4.dscp_ecn", 0x5c)};
  c.add_action(resubmit);
  Action send;
  send.name = "send";
  send.primitives = {p4ir::set_imm("standard_metadata.egress_spec", 1)};
  c.add_action(send);

  Table t;
  t.name = "steer";
  t.keys = {TableKey{"ipv4.dscp_ecn", MatchKind::kExact, 8}};
  t.actions = {"resubmit", "send"};
  c.add_table(t);
  c.apply_table("steer");
  sw.program.add_control(std::move(c));

  auto dp = sw.make();
  dp.table_in(MiniSwitch::ingress_name(), "steer")
      ->add_exact({0}, ActionCall{"resubmit", {}});
  dp.table_in(MiniSwitch::ingress_name(), "steer")
      ->add_exact({0x5c}, ActionCall{"send", {}});

  auto out = dp.process(net::Packet::make({}), 0);
  ASSERT_EQ(out.out.size(), 1u) << out.drop_reason;
  EXPECT_EQ(out.resubmissions, 1u);
  EXPECT_EQ(out.recirculations, 0u);
}

TEST(DataPlane, TablesNamedFindsAllInstances) {
  MiniSwitch sw;
  sw.program.add_control(forward_all(MiniSwitch::ingress_name(), 1));
  sw.program.add_control(forward_all(MiniSwitch::egress_name(), 1));
  auto dp = sw.make();
  EXPECT_EQ(dp.tables_named("fwd_all").size(), 2u);
  EXPECT_TRUE(dp.tables_named("ghost").empty());
  EXPECT_EQ(dp.table_in("nope", "fwd_all"), nullptr);
}

// The interpreter cannot run an apply of an unknown table or an action
// using an unknown register; the DataPlane refuses such a program when
// it is built, so process() never meets one.

TEST(DataPlane, RefusesApplyOfUnknownTableAtBuild) {
  MiniSwitch sw;
  sw.program.add_control(forward_all(MiniSwitch::ingress_name(), 2));
  Table* table =
      sw.program.find_control(MiniSwitch::ingress_name())->find_table("fwd_all");
  table->name = "renamed";  // the apply step still names fwd_all
  try {
    (void)sw.make();
    FAIL() << "built a DataPlane over an apply of an unknown table";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("apply of unknown table 'fwd_all'"),
              std::string::npos)
        << e.what();
  }

  table->name = "fwd_all";
  auto dp = sw.make();
  SwitchOutput out;
  EXPECT_NO_THROW(out = dp.process(net::Packet::make({}), 0));
  EXPECT_EQ(out.out.at(0).port, 2);
}

TEST(DataPlane, RefusesActionUsingUnknownRegisterAtBuild) {
  MiniSwitch sw;
  ControlBlock c = forward_all(MiniSwitch::ingress_name(), 2);
  Action count;
  count.name = "count";
  count.primitives = {p4ir::register_add("hits", "ipv4.dst_addr", 1)};
  c.add_action(count);
  Table counter;
  counter.name = "counter";
  counter.default_action = "count";
  c.add_table(counter);
  c.apply_table("counter");
  sw.program.add_control(std::move(c));
  try {
    (void)sw.make();
    FAIL() << "built a DataPlane over an action using an unknown register";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown register 'hits'"),
              std::string::npos)
        << e.what();
  }

  sw.program.find_control(MiniSwitch::ingress_name())
      ->add_register(p4ir::RegisterDef{"hits", 32, 1});
  auto dp = sw.make();
  EXPECT_NO_THROW(dp.process(net::Packet::make({}), 0));
  EXPECT_EQ(dp.register_array(MiniSwitch::ingress_name(), "hits")->at(0), 1u);
}

}  // namespace
}  // namespace dejavu::sim
