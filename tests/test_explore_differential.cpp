// The differential property, end to end through the replay engine:
// every witness packet the explorer concretizes is replayed as a flow
// through sim::ReplayEngine against worker-private replicas of the
// same deployment, and the merged per-path counters must equal the
// symbolic predictions exactly — zero disagreements. This is the same
// cross-check the explorer runs internally per witness (DV-S7), but
// routed through the multi-threaded engine with flow sharding, so it
// also pins that predictions survive worker-private register state and
// shard assignment.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "explore/explorer.hpp"
#include "explore_test_util.hpp"
#include "sim/replay.hpp"

namespace dejavu {
namespace {

// A worker-private replica of one explore target, injecting into the
// bare data plane (punts counted, not serviced) — the disposition the
// explorer predicts.
class ExploreReplayTarget : public sim::ReplayTarget {
 public:
  explicit ExploreReplayTarget(test::ExploreTarget target)
      : target_(std::move(target)) {}

  sim::SwitchOutput inject(net::Packet packet, std::uint16_t in_port) override {
    return target_.deployment->dataplane().process(std::move(packet), in_port);
  }
  sim::DataPlane& dataplane() override {
    return target_.deployment->dataplane();
  }

 private:
  test::ExploreTarget target_;
};

class ExploreDifferential : public testing::TestWithParam<const char*> {};

TEST_P(ExploreDifferential, ReplayedWitnessesMatchPredictions) {
  const std::string name = GetParam();

  test::ExploreTarget explored = test::build_explore_target(name);
  const explore::ExploreResult& result = explored.deployment->run_explorer();
  ASSERT_FALSE(result.report.has("DV-S7")) << result.report.to_string();
  ASSERT_GT(result.paths.size(), 0u);
  ASSERT_EQ(result.stats.truncated, 0u);

  // One flow per witness, tagged with the path index so the merged
  // per-path counters line up 1:1 with the symbolic predictions.
  std::vector<sim::ReplayFlow> flows;
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    const explore::PathSummary& path = result.paths[i];
    flows.push_back({.flow = {path.spec()},
                     .in_port = path.in_port,
                     .path_id = static_cast<std::uint16_t>(i)});
  }

  sim::ReplayEngine engine([&name](std::uint32_t) {
    return std::make_unique<ExploreReplayTarget>(
        test::build_explore_target(name));
  });
  sim::ReplayConfig config;
  config.workers = 3;
  config.packets_per_flow = 1;
  const sim::ReplayReport report = engine.run(flows, config);

  ASSERT_EQ(report.counters.packets, flows.size());
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    const explore::PathSummary& path = result.paths[i];
    const explore::PredictedOutcome& want = path.outcome;
    const auto it =
        report.counters.per_path.find(static_cast<std::uint16_t>(i));
    ASSERT_NE(it, report.counters.per_path.end()) << path.to_string();
    const sim::PathCounters& got = it->second;

    EXPECT_EQ(got.offered, 1u) << path.to_string();
    EXPECT_EQ(got.delivered, want.out_ports.empty() ? 0u : 1u)
        << path.to_string();
    EXPECT_EQ(got.dropped, want.dropped ? 1u : 0u) << path.to_string();
    EXPECT_EQ(got.punted, want.to_cpu > 0 ? 1u : 0u) << path.to_string();
    EXPECT_EQ(got.recirculations, want.recirc_ports.size())
        << path.to_string();
    EXPECT_EQ(got.resubmissions, want.resubmissions) << path.to_string();
  }
}

// A down egress port must be predicted where the traffic manager
// drops: once fig2's first emitting port goes down, every path's
// predicted drop attribution equals the concrete dataplane's.
TEST(ExploreDownPorts, PredictionsMatchTheDataplane) {
  test::ExploreTarget target = test::build_explore_target("fig2");
  const explore::ExploreResult& before = target.deployment->run_explorer();
  std::optional<std::uint16_t> port;
  for (const explore::PathSummary& path : before.paths) {
    if (!path.outcome.out_ports.empty()) {
      port = path.outcome.out_ports.front();
      break;
    }
  }
  ASSERT_TRUE(port.has_value());

  sim::DataPlane& dp = target.deployment->dataplane();
  dp.set_port_down(*port);
  const explore::ExploreResult& after = target.deployment->run_explorer();
  EXPECT_FALSE(after.report.has("DV-S7")) << after.report.to_string();
  ASSERT_GT(after.paths.size(), 0u);
  std::size_t port_down = 0;
  for (const explore::PathSummary& path : after.paths) {
    const sim::SwitchOutput out = dp.process(path.witness, path.in_port);
    EXPECT_EQ(path.outcome.dropped, out.dropped) << path.to_string();
    EXPECT_EQ(path.outcome.drop_code, out.drop_code)
        << path.to_string() << ": predicted '" << path.outcome.drop_reason
        << "', dataplane '" << out.drop_reason << "'";
    if (out.drop_code == sim::DropCode::kPortDown) ++port_down;
  }
  EXPECT_GT(port_down, 0u);
}

INSTANTIATE_TEST_SUITE_P(ShippedTargets, ExploreDifferential,
                         testing::Values("fig2", "fig9", "quickstart",
                                         "stateful"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace dejavu
