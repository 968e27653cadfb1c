// Counter and workload-driven statistics tests: direct table counters,
// per-port counters at the §4 recirculation measurement point, and
// load-balancer spread over generated flow populations.
#include <gtest/gtest.h>

#include <map>

#include "control/deployment.hpp"
#include "sim/workload.hpp"

namespace dejavu {
namespace {

TEST(TableCounters, CountHitsAndMisses) {
  p4ir::Table def;
  def.name = "t";
  def.keys = {p4ir::TableKey{"a.x", p4ir::MatchKind::kExact, 8}};
  def.actions = {"act"};
  p4ir::ControlBlock control("c");
  control.add_action(p4ir::Action{"act", {}, {}});
  control.add_table(def);
  sim::RuntimeTable rt(control, control.tables().front());
  rt.add_exact({1}, sim::ActionCall{"act", {}});

  rt.lookup({1});
  rt.lookup({1});
  rt.lookup({2});
  rt.lookup({std::nullopt});
  EXPECT_EQ(rt.hits(), 2u);
  EXPECT_EQ(rt.misses(), 2u);
  rt.reset_counters();
  EXPECT_EQ(rt.hits(), 0u);
}

TEST(Workload, FlowsAreDistinctAndDeterministic) {
  sim::FlowMix mix;
  mix.flows = 200;
  mix.seed = 7;
  auto a = sim::generate_flows(mix);
  auto b = sim::generate_flows(mix);
  ASSERT_EQ(a.size(), 200u);

  std::set<std::uint32_t> hashes;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.ip_src, b[i].spec.ip_src);  // deterministic
    EXPECT_EQ(a[i].spec.src_port, b[i].spec.src_port);
    hashes.insert(a[i].tuple().session_hash());
  }
  EXPECT_EQ(hashes.size(), 200u);  // distinct flows, distinct hashes
}

class Fig9Stats : public ::testing::Test {
 protected:
  void SetUp() override { fx_ = control::make_fig9_deployment(); }
  control::Fig2Deployment fx_;
};

TEST_F(Fig9Stats, RecirculatingPathsLoadLoopbackPorts) {
  auto& dp = fx_.deployment->dataplane();
  auto& cp = fx_.deployment->control();

  // Path 2 traffic recirculates once through a pipeline-1 loopback
  // port in the Fig. 9 layout.
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 2, 0, 20);
  const int kPackets = 10;
  for (int i = 0; i < kPackets; ++i) {
    auto out = cp.inject(net::Packet::make(spec), 0);
    ASSERT_EQ(out.out.size(), 1u) << out.drop_reason;
    ASSERT_EQ(out.recirculations, 1u);
  }

  std::uint64_t loopback_tx = 0;
  for (std::uint32_t p : dp.config().loopback_ports()) {
    loopback_tx +=
        dp.port_counters(static_cast<std::uint16_t>(p)).tx_packets;
  }
  EXPECT_EQ(loopback_tx, static_cast<std::uint64_t>(kPackets));

  // Front-panel accounting: every packet entered port 0 and left
  // port 1.
  EXPECT_EQ(dp.port_counters(0).rx_packets,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(dp.port_counters(1).tx_packets,
            static_cast<std::uint64_t>(kPackets));
}

TEST_F(Fig9Stats, DirectPathTouchesNoLoopbackPort) {
  auto& dp = fx_.deployment->dataplane();
  auto& cp = fx_.deployment->control();
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 3, 0, 1);
  auto out = cp.inject(net::Packet::make(spec), 0);
  ASSERT_EQ(out.out.size(), 1u);

  for (std::uint32_t p : dp.config().loopback_ports()) {
    EXPECT_EQ(dp.port_counters(static_cast<std::uint16_t>(p)).tx_packets,
              0u);
  }
}

TEST_F(Fig9Stats, LbSpreadsFlowsAcrossThePool) {
  auto& cp = fx_.deployment->control();
  sim::FlowMix mix;
  mix.flows = 200;
  mix.dst = net::Ipv4Addr(10, 1, 0, 10);
  mix.dst_port = 443;
  mix.seed = 99;

  std::map<std::string, int> backends;
  for (const auto& flow : sim::generate_flows(mix)) {
    auto out = cp.inject(flow.packet(), 0);
    ASSERT_EQ(out.out.size(), 1u) << out.drop_reason;
    ++backends[out.out.front().packet.ipv4()->dst.to_string()];
  }
  ASSERT_EQ(backends.size(), 2u);  // both pool members used
  for (const auto& [backend, n] : backends) {
    // CRC32 spread: each backend gets 50% +- 15 points of 200 flows.
    EXPECT_GT(n, 70) << backend;
    EXPECT_LT(n, 130) << backend;
  }
  EXPECT_EQ(cp.sessions_learned(), 200u);
}

TEST_F(Fig9Stats, SessionTableCountersSeeTheTraffic) {
  auto& dp = fx_.deployment->dataplane();
  auto& cp = fx_.deployment->control();
  auto tables = dp.tables_named("LB.lb_session");
  ASSERT_EQ(tables.size(), 1u);

  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 1, 0, 10);
  cp.inject(net::Packet::make(spec), 0);  // miss -> learn -> hit
  cp.inject(net::Packet::make(spec), 0);  // hit

  EXPECT_GE(tables[0]->misses(), 1u);
  EXPECT_GE(tables[0]->hits(), 2u);
}

}  // namespace
}  // namespace dejavu
