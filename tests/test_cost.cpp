// The abstract-interpretation cost certifier (DESIGN.md §14) against
// its ground truth, the interpreter: for every shipped target, every
// proven per-class pass bound must dominate what seeded replay
// streams actually observe — and stay at or under the configured
// max_pipeline_passes cap. The seeded DV-C fixtures then pin each
// finding the certifier exists to raise.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "cost/cost.hpp"
#include "cost/fixtures.hpp"
#include "explore_test_util.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::cost {
namespace {

struct Analyzed {
  test::ExploreTarget target;
  CostResult result;
};

Analyzed analyze(const std::string& name) {
  Analyzed a;
  a.target = test::build_explore_target(name);
  const explore::ExploreResult& exploration =
      a.target.deployment->run_explorer();
  CostOptions options;
  options.routing = &a.target.deployment->routing();
  a.result = cost::run(a.target.deployment->dataplane(), a.target.policies,
                       exploration, options);
  return a;
}

/// The same seeded 400-packet recipe the compiled differential harness
/// replays: mixed protocols, the targets' serviced destinations, edge
/// TTLs, a spread of ingress ports.
struct Sent {
  net::Packet packet;
  std::uint16_t in_port = 0;
};

std::vector<Sent> seeded_stream(const std::string& name) {
  std::mt19937_64 rng(0xc0de + std::hash<std::string>{}(name));
  auto u8 = [&](int lo, int hi) {
    return static_cast<std::uint8_t>(
        std::uniform_int_distribution<int>(lo, hi)(rng));
  };
  const net::Ipv4Addr dsts[] = {
      net::Ipv4Addr(10, 1, 0, 10), net::Ipv4Addr(10, 2, 0, 20),
      net::Ipv4Addr(10, 3, 0, 1), net::Ipv4Addr(10, 0, 0, 1)};
  const std::uint16_t ports[] = {0, 1, 2, 3, 7, 500};

  std::vector<Sent> stream;
  stream.reserve(400);
  for (int i = 0; i < 400; ++i) {
    net::PacketSpec spec;
    spec.ip_src =
        net::Ipv4Addr(u8(10, 192), u8(0, 255), u8(0, 255), u8(1, 254));
    spec.ip_dst = dsts[rng() % 4];
    spec.protocol = i % 5 == 0 ? u8(0, 255) : (i % 2 ? 6 : 17);
    spec.src_port = static_cast<std::uint16_t>(rng());
    spec.dst_port = i % 3 ? static_cast<std::uint16_t>(rng() % 1024) : 80;
    spec.ttl = i % 7 == 0 ? u8(0, 2) : 64;
    stream.push_back({net::Packet::make(spec), ports[rng() % 6]});
  }
  return stream;
}

class CostBounds : public testing::TestWithParam<const char*> {};

TEST_P(CostBounds, ShippedTargetCertifiesCleanly) {
  const Analyzed a = analyze(GetParam());
  const sim::DataPlane& dp = a.target.deployment->dataplane();

  // Stock deployments carry no cost findings and no unbounded classes.
  EXPECT_EQ(a.result.report.errors(), 0u) << a.result.report.to_string();
  EXPECT_EQ(a.result.stats.unbounded, 0u);
  EXPECT_EQ(a.result.stats.classes, a.result.classes.size());

  // The deployment-wide bound is a real bound: at least one pass,
  // tighter than (or equal to) the blunt configured cap.
  EXPECT_GE(a.result.deployment_pass_bound, 1u);
  EXPECT_LE(a.result.deployment_pass_bound, dp.max_passes());
  EXPECT_EQ(a.result.configured_pass_cap, dp.max_passes());

  for (const ClassCost& c : a.result.classes) {
    EXPECT_TRUE(c.bounded) << c.class_id;
    EXPECT_FALSE(c.fork_capped) << c.class_id;
    EXPECT_LE(c.pass_bound, dp.max_passes()) << c.class_id;
    // Passes = 1 (first ingress) + one per resubmission/recirculation.
    EXPECT_GE(c.pass_bound, 1u + c.recirc_bound + c.resubmit_bound)
        << c.class_id;
    if (c.deterministic) {
      EXPECT_EQ(c.traces, 1u) << c.class_id;
    }
  }
}

TEST_P(CostBounds, ReplayNeverExceedsCertifiedBounds) {
  const std::string name = GetParam();
  const Analyzed a = analyze(name);

  const explore::ExploreResult& exploration =
      a.target.deployment->exploration();
  ASSERT_EQ(exploration.paths.size(), a.result.classes.size()) << name;

  // A private replica: replay mutates registers and counters.
  sim::DataPlane dp = a.target.deployment->dataplane();
  auto passes_of = [&](const net::Packet& packet, std::uint16_t in_port) {
    const sim::SwitchOutput out = dp.process(packet, in_port);
    return 1 + out.resubmissions + out.recirculations;
  };

  // Each class's explorer witness is a member of that class by
  // construction: the interpreter must never beat the class's bound.
  std::uint32_t max_observed = 0;
  for (std::size_t i = 0; i < a.result.classes.size(); ++i) {
    const ClassCost& c = a.result.classes[i];
    const explore::PathSummary& path = exploration.paths[i];
    const std::uint32_t passes = passes_of(path.witness, path.in_port);
    max_observed = std::max(max_observed, passes);
    EXPECT_LE(passes, c.pass_bound)
        << name << " class " << c.class_id << " in_port " << c.in_port;
  }
  // ...and nothing in the seeded mix ever exceeds the proven
  // deployment-wide worst case.
  for (const Sent& s : seeded_stream(name)) {
    max_observed = std::max(max_observed, passes_of(s.packet, s.in_port));
  }
  EXPECT_LE(max_observed, a.result.deployment_pass_bound) << name;
}

INSTANTIATE_TEST_SUITE_P(ShippedTargets, CostBounds,
                         testing::Values("fig2", "fig9", "quickstart",
                                         "stateful", "parallel"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(CostFixtures, EveryFixtureTripsItsCheck) {
  for (const std::string& name : fixtures::names()) {
    fixtures::Bundle bundle = fixtures::make(name);
    const CostResult result = bundle.run();
    EXPECT_GT(result.report.errors(), 0u) << name;
    for (const std::string& id : bundle.expect_checks) {
      EXPECT_TRUE(result.report.has(id)) << name << " expected " << id;
    }
  }
}

TEST(CostFixtures, LoopForeverHasNoFiniteBound) {
  fixtures::Bundle bundle = fixtures::make("loop-forever");
  const CostResult result = bundle.run();
  EXPECT_GT(result.stats.unbounded, 0u);
  bool saw_unbounded = false;
  for (const ClassCost& c : result.classes) {
    if (c.bounded) continue;
    saw_unbounded = true;
    EXPECT_EQ(c.outcome, "unbounded") << c.class_id;
    EXPECT_EQ(c.pass_bound, 0u) << c.class_id;
  }
  EXPECT_TRUE(saw_unbounded);
  // The healthy classes on the declared path still get a finite bound —
  // the loop poisons only the rogue class, not the analysis.
  EXPECT_LT(result.stats.unbounded, result.stats.classes);
}

TEST(CostFixtures, CapBelowChainStillProvesTheRealBound) {
  fixtures::Bundle bundle = fixtures::make("cap-below-chain");
  const CostResult result = bundle.run();
  // The chains' need is finite and proven — it just exceeds the cap
  // the operator misconfigured, which is exactly DV-C2 (not DV-C1).
  EXPECT_EQ(result.stats.unbounded, 0u);
  EXPECT_GT(result.deployment_pass_bound, result.configured_pass_cap);
  EXPECT_TRUE(result.report.has("DV-C2"));
  EXPECT_FALSE(result.report.has("DV-C1"));
  // Past the cap the walker had to widen through the kMaxPassesExceeded
  // guard's fork to keep the proof finite.
  EXPECT_GT(result.stats.widenings, 0u);
}

TEST(CostFixtures, OptimisticPlanOnlyFlagsRecirculatingPaths) {
  fixtures::Bundle bundle = fixtures::make("optimistic-plan");
  const CostResult result = bundle.run();
  EXPECT_TRUE(result.report.has("DV-C3"));
  // The zeroed plan disagrees only where the rules actually loop; the
  // certifier's own bounds are unchanged by the stale plan.
  EXPECT_EQ(result.stats.unbounded, 0u);
  bool saw_loop = false;
  for (const ClassCost& c : result.classes) saw_loop |= c.recirc_bound > 0;
  EXPECT_TRUE(saw_loop);
}

TEST(CostFixtures, UnknownFixtureNameThrows) {
  EXPECT_THROW(fixtures::make("no-such-fixture"), std::invalid_argument);
}

}  // namespace
}  // namespace dejavu::cost
