// Differential oracle for the compiled fast path (DESIGN.md §12): for
// every packet the compiled engine accepts, its outcome — emissions,
// punts, drop code + reason, epoch stamp, recirculation bookkeeping,
// register and counter side effects — must be bit-identical to the
// interpreter's. The replay half reuses the PR 1 determinism harness:
// merged ReplayCounters are compared across engines and across 1/2/8
// workers, mid-stream live updates included.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "control/live_update.hpp"
#include "control/replay_target.hpp"
#include "control/snapshot.hpp"
#include "explore/explorer.hpp"
#include "explore_test_util.hpp"
#include "net/headers.hpp"
#include "route/routing.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/replay.hpp"

namespace dejavu::sim {
namespace {

/// The canonical mid-stream update: route every chain around the LB
/// (same diff as test_live_update's).
control::RuleDiff bypass_lb_diff(control::Deployment& dep) {
  sfc::PolicySet reduced;
  for (const sfc::ChainPolicy& p : dep.policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, std::string(sfc::kLoadBalancer));
    reduced.add(std::move(rp));
  }
  route::RoutingPlan plan = route::build_routing(
      reduced, dep.placement(), dep.dataplane().config());
  EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
  return control::routing_rule_diff(dep.routing(), plan, dep.dataplane());
}

ReplayConfig config_for(std::uint32_t workers, EngineKind engine) {
  ReplayConfig config;
  config.workers = workers;
  config.packets_per_flow = 3;
  config.engine = engine;
  return config;
}

std::vector<ReplayFlow> mixed_flows() {
  return control::fig2_replay_flows(/*total_flows=*/40, /*seed=*/7);
}

TEST(CompiledDifferential, ReplayCountersEngineAndWorkerInvisible) {
  const auto flows = mixed_flows();
  const auto interp = run_replay(control::fig2_replay_factory(), flows,
                                 config_for(1, EngineKind::kInterpreter));
  const auto one = run_replay(control::fig2_replay_factory(), flows,
                              config_for(1, EngineKind::kCompiled));
  const auto two = run_replay(control::fig2_replay_factory(), flows,
                              config_for(2, EngineKind::kCompiled));
  const auto eight = run_replay(control::fig2_replay_factory(), flows,
                                config_for(8, EngineKind::kCompiled));

  // The workload exercised everything the merge covers.
  EXPECT_GT(interp.counters.delivered, 0u);
  EXPECT_GT(interp.counters.recirculations, 0u);
  EXPECT_EQ(interp.counters.per_path.size(), 3u);

  // The engine switch and the worker count are both invisible in the
  // deterministic half of the report.
  EXPECT_EQ(interp.counters, one.counters);
  EXPECT_EQ(interp.counters, two.counters);
  EXPECT_EQ(interp.counters, eight.counters);

  // ...and the fast path actually ran (this was not fallback-only
  // agreement).
  EXPECT_EQ(interp.engine, EngineKind::kInterpreter);
  EXPECT_EQ(interp.compiled_packets, 0u);
  EXPECT_EQ(one.engine, EngineKind::kCompiled);
  EXPECT_EQ(one.compiled_packets, one.counters.packets);
  EXPECT_EQ(one.fallback_packets, 0u);
  EXPECT_EQ(eight.compiled_packets, eight.counters.packets);
}

TEST(CompiledDifferential, BareDataPlaneCountersAgree) {
  // No control plane behind the switch: session misses stay punted.
  const auto flows = mixed_flows();
  const auto factory = control::fig2_replay_factory(/*fig9=*/true,
                                                    /*service_punts=*/false);
  const auto interp =
      run_replay(factory, flows, config_for(2, EngineKind::kInterpreter));
  const auto compiled =
      run_replay(factory, flows, config_for(2, EngineKind::kCompiled));

  EXPECT_GT(interp.counters.punted, 0u);
  EXPECT_EQ(interp.counters, compiled.counters);
  EXPECT_EQ(compiled.compiled_packets, compiled.counters.packets);
}

TEST(CompiledDifferential, MidStreamLiveUpdateAgrees) {
  // The §11 flip mid-stream: the compiled engine must notice the epoch
  // move (trace invalidation) and keep the merged counters — including
  // per-epoch packet attribution — identical to the interpreter's, at
  // every worker count.
  auto run_at = [](std::uint32_t workers, EngineKind engine) {
    ReplayEngine engine_obj(control::fig2_replay_factory());
    ReplayConfig config;
    config.workers = workers;
    config.packets_per_flow = 6;
    config.engine = engine;
    config.update = ReplayConfig::ReplayUpdate{};
    config.update->at_packet = 3;
    config.update->apply = [](ReplayTarget& t, std::uint32_t) {
      auto& dt = static_cast<control::DeploymentTarget&>(t);
      control::Deployment& dep = *dt.fixture().deployment;
      const control::UpdateReport report =
          control::run_update(t.dataplane(), bypass_lb_diff(dep));
      ASSERT_TRUE(report.committed) << report.error;
    };
    return engine_obj.run(control::fig2_replay_flows(48), config);
  };

  const ReplayReport interp = run_at(1, EngineKind::kInterpreter);
  const ReplayReport one = run_at(1, EngineKind::kCompiled);
  const ReplayReport two = run_at(2, EngineKind::kCompiled);
  const ReplayReport eight = run_at(8, EngineKind::kCompiled);

  EXPECT_EQ(interp.counters, one.counters);
  EXPECT_EQ(interp.counters, two.counters);
  EXPECT_EQ(interp.counters, eight.counters);

  // Both generations saw traffic, attributed exactly.
  EXPECT_EQ(one.counters.packets_by_epoch.size(), 2u);
  std::uint64_t attributed = 0;
  for (const auto& [epoch, n] : one.counters.packets_by_epoch) {
    attributed += n;
  }
  EXPECT_EQ(attributed, one.counters.packets);
  EXPECT_GT(one.compiled_packets, 0u);
}

/// Seeded random packet streams through both engines on cloned
/// switches, packet by packet, across every shipped chain target —
/// the "random chains × random packet streams" axis. Oracles: per-
/// packet semantic equality, then byte-identical port counters and
/// switch snapshots (rules + registers) at the end of the stream.
TEST(CompiledDifferential, SeededRandomStreamsAgreePacketByPacket) {
  const std::vector<std::string> targets = {"fig2", "fig9", "quickstart",
                                            "stateful"};
  for (const std::string& name : targets) {
    auto target = test::build_explore_target(name);
    DataPlane interp = target.deployment->dataplane();
    DataPlane fast_dp = target.deployment->dataplane();
    CompiledPipeline fast(fast_dp);
    ASSERT_TRUE(fast.compiled_ok()) << name << ": " << fast.compile_error();

    std::mt19937_64 rng(0xc0de + std::hash<std::string>{}(name));
    auto u8 = [&](int lo, int hi) {
      return static_cast<std::uint8_t>(
          std::uniform_int_distribution<int>(lo, hi)(rng));
    };
    const net::Ipv4Addr dsts[] = {
        net::Ipv4Addr(10, 1, 0, 10), net::Ipv4Addr(10, 2, 0, 20),
        net::Ipv4Addr(10, 3, 0, 1), net::Ipv4Addr(10, 0, 0, 1)};
    const std::uint16_t ports[] = {0, 1, 2, 3, 7, 500};

    for (int i = 0; i < 400; ++i) {
      net::PacketSpec spec;
      spec.ip_src = net::Ipv4Addr(u8(10, 192), u8(0, 255), u8(0, 255),
                                  u8(1, 254));
      spec.ip_dst = dsts[rng() % 4];
      spec.protocol = i % 5 == 0 ? u8(0, 255) : (i % 2 ? 6 : 17);
      spec.src_port = static_cast<std::uint16_t>(rng());
      spec.dst_port = i % 3 ? static_cast<std::uint16_t>(rng() % 1024) : 80;
      spec.ttl = i % 7 == 0 ? u8(0, 2) : 64;
      const std::uint16_t in_port = ports[rng() % 6];

      const net::Packet packet = net::Packet::make(spec);
      const SwitchOutput a = interp.process(packet, in_port);
      const SwitchOutput b = fast.process(packet, in_port);
      ASSERT_TRUE(semantically_equal(a, b))
          << name << " packet " << i << " in_port " << in_port
          << "\ninterp: " << a.drop_reason << "\ncompiled: " << b.drop_reason;
    }

    EXPECT_GT(fast.stats().compiled_packets, 0u) << name;
    EXPECT_EQ(interp.all_port_counters(), fast_dp.all_port_counters())
        << name;
    EXPECT_EQ(control::take_snapshot(interp).to_text(),
              control::take_snapshot(fast_dp).to_text())
        << name;
  }
}

TEST(CompiledDifferential, ExplorerWitnessesAndPuntsAgreeAcrossEngines) {
  // The explorer's witnesses — one per path equivalence class — and
  // each punt they make, reinjected from the CPU under the punt's
  // epoch stamp, run compiled and agree with the interpreter on every
  // shipped chain target.
  std::size_t punts = 0;
  for (const char* name : {"fig2", "fig9", "quickstart", "stateful"}) {
    auto target = test::build_explore_target(name);
    const explore::ExploreResult& exploration =
        target.deployment->run_explorer();
    ASSERT_GT(exploration.paths.size(), 0u) << name;
    DataPlane interp = target.deployment->dataplane();
    DataPlane fast_dp = target.deployment->dataplane();
    CompiledPipeline fast(fast_dp);
    ASSERT_TRUE(fast.compiled_ok()) << name << ": " << fast.compile_error();

    std::size_t reinjected = 0;
    for (std::size_t i = 0; i < exploration.paths.size(); ++i) {
      const explore::PathSummary& path = exploration.paths[i];
      const SwitchOutput a = interp.process(path.witness, path.in_port);
      const SwitchOutput b = fast.process(path.witness, path.in_port);
      ASSERT_TRUE(semantically_equal(a, b))
          << name << " witness " << i << "\ninterp: " << a.drop_reason
          << "\ncompiled: " << b.drop_reason;
      for (const SwitchOutput::CpuPunt& p : a.to_cpu) {
        const SwitchOutput ra = interp.process(p.packet, p.in_port,
                                               /*from_cpu=*/true, p.epoch);
        const SwitchOutput rb = fast.process(p.packet, p.in_port,
                                             /*from_cpu=*/true, p.epoch);
        ASSERT_TRUE(semantically_equal(ra, rb))
            << name << " witness " << i << " reinjection\ninterp: "
            << ra.drop_reason << "\ncompiled: " << rb.drop_reason;
        ++reinjected;
      }
    }
    EXPECT_EQ(interp.all_port_counters(), fast_dp.all_port_counters())
        << name;
    EXPECT_EQ(fast.stats().fallback_packets, 0u) << name;
    EXPECT_EQ(fast.stats().compiled_packets, exploration.paths.size())
        << name;
    EXPECT_EQ(fast.stats().reinjections, reinjected) << name;
    punts += reinjected;
  }
  EXPECT_GT(punts, 0u);  // some witness took the Fig. 4 slow path
}

TEST(CompiledDifferential, ServedEngineRunsEveryWitnessPrefixCompiled) {
  // The engine DeploymentTarget serves (perfbench, the CLI, chaos and
  // every replay worker) against an interpreter twin, both servicing
  // their punts: every byte prefix of every fig9 witness, and each
  // witness relabelled with the SFC EtherType, runs compiled.
  control::DeploymentTarget target(control::make_fig9_deployment());
  control::DeploymentTarget twin(control::make_fig9_deployment());
  const explore::ExploreResult& exploration =
      target.fixture().deployment->run_explorer();
  ASSERT_GT(exploration.paths.size(), 0u);
  target.set_engine(EngineKind::kCompiled);
  const CompiledPipeline& engine = *target.compiled();
  ASSERT_TRUE(engine.compiled_ok()) << engine.compile_error();

  std::size_t sent = 0;
  auto send = [&](std::vector<std::byte> bytes, std::uint16_t in_port) {
    const net::Packet packet{net::Buffer(std::move(bytes))};
    const SwitchOutput got = target.inject(packet, in_port);
    const SwitchOutput want = twin.inject(packet, in_port);
    ++sent;
    return semantically_equal(got, want);
  };
  for (std::size_t i = 0; i < exploration.paths.size(); ++i) {
    const explore::PathSummary& path = exploration.paths[i];
    const auto bytes = path.witness.data().view();
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      ASSERT_TRUE(send({bytes.begin(), bytes.begin() + len}, path.in_port))
          << "witness " << i << " prefix " << len;
    }
    ASSERT_GE(bytes.size(), 14u);
    std::vector<std::byte> sfc(bytes.begin(), bytes.end());
    sfc[12] = static_cast<std::byte>(net::kEtherTypeSfc >> 8);
    sfc[13] = static_cast<std::byte>(net::kEtherTypeSfc & 0xff);
    ASSERT_TRUE(send(std::move(sfc), path.in_port))
        << "witness " << i << " as SFC";
  }
  EXPECT_EQ(engine.stats().fallback_packets, 0u);
  EXPECT_EQ(engine.stats().compiled_packets, sent);
  EXPECT_EQ(target.dataplane().all_port_counters(),
            twin.dataplane().all_port_counters());
}

TEST(CompiledDifferential, TableCountersStayTruthful) {
  // The §7 health monitor reads per-table hit/miss counters; the fast
  // path matches against its own lowered maps but must keep them
  // moving exactly as lookup() would.
  auto fx_a = control::make_fig9_deployment();
  auto fx_b = control::make_fig9_deployment();
  DataPlane& interp = fx_a.deployment->dataplane();
  DataPlane& fast_dp = fx_b.deployment->dataplane();
  CompiledPipeline fast(fast_dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();

  for (const ReplayFlow& rf : control::fig2_replay_flows(12)) {
    interp.process(rf.flow.packet(), rf.in_port);
    fast.process(rf.flow.packet(), rf.in_port);
  }
  for (const std::string& table :
       {std::string("LB.lb_session"), std::string("Router.ipv4_lpm"),
        std::string("Classifier.traffic_class")}) {
    const auto a = interp.tables_named(table);
    const auto b = fast_dp.tables_named(table);
    ASSERT_EQ(a.size(), b.size()) << table;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->hits(), b[i]->hits()) << table;
      EXPECT_EQ(a[i]->misses(), b[i]->misses()) << table;
    }
  }
}

}  // namespace
}  // namespace dejavu::sim
