// Control-side tables over the composed Fig. 2 program: a hitless
// update fired mid-replay, whole-chain dataflow analysis time, and the
// session layer's bill for exactly-once writes over a lossy channel.
// Replay scaling and per-engine packet cost are perfbench's
// `sim.replay.*` and `sim.compiled.*` metrics, not tables here.
#include <chrono>
#include <memory>

#include "analysis/commutativity.hpp"
#include "bench_util.hpp"
#include "control/live_update.hpp"
#include "control/replay_target.hpp"
#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "example_chains.hpp"
#include "place/auto_parallel.hpp"
#include "route/routing.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"

namespace {

using namespace dejavu;

sim::ReplayConfig sweep_config(std::uint32_t workers) {
  sim::ReplayConfig config;
  config.workers = workers;
  config.packets_per_flow = 8;
  config.batch = 4;
  return config;
}

/// §11 update-in-flight: the same replay with a hitless bypass-LB
/// reconfiguration fired mid-stream on every worker's replica. Reports
/// the flip latency (time inside control::run_update) and the throughput
/// dip relative to the undisturbed run.
void print_update_in_flight() {
  bench::heading("Update in flight: hitless bypass-LB flip mid-replay");
  const auto flows = control::fig2_replay_flows(/*total_flows=*/240);
  std::printf("%-9s %-12s %-14s %-12s %-14s\n", "workers", "wall (s)", "pps",
              "dip", "flip (us)");
  for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    sim::ReplayEngine engine(control::fig2_replay_factory());
    engine.run(flows, sweep_config(workers));  // warm the LB sessions
    const auto baseline = engine.run(flows, sweep_config(workers));

    // A fresh engine: the flip retires rules for good, so the updated
    // replicas must not leak into the baseline measurements above.
    sim::ReplayEngine updated(control::fig2_replay_factory());
    updated.run(flows, sweep_config(workers));
    sim::ReplayConfig config = sweep_config(workers);
    config.update = sim::ReplayConfig::ReplayUpdate{};
    config.update->at_packet = config.packets_per_flow / 2;
    config.update->apply = [](sim::ReplayTarget& t, std::uint32_t) {
      auto& dt = static_cast<control::DeploymentTarget&>(t);
      control::Deployment& dep = *dt.fixture().deployment;
      sfc::PolicySet reduced;
      for (const sfc::ChainPolicy& p : dep.policies().policies()) {
        sfc::ChainPolicy rp = p;
        std::erase(rp.nfs, std::string(sfc::kLoadBalancer));
        reduced.add(std::move(rp));
      }
      route::RoutingPlan plan = route::build_routing(
          reduced, dep.placement(), dep.dataplane().config());
      control::RuleDiff diff =
          control::routing_rule_diff(dep.routing(), plan, t.dataplane());
      control::run_update(t.dataplane(), diff);
    };
    const auto report = updated.run(flows, config);

    double flip_mean = 0;
    for (const sim::WorkerStats& w : report.workers) {
      flip_mean += w.update_seconds;
    }
    if (!report.workers.empty()) {
      flip_mean /= static_cast<double>(report.workers.size());
    }
    const double base = baseline.packets_per_second();
    const double dip =
        base > 0 ? 1.0 - report.packets_per_second() / base : 0.0;
    std::printf("%-9u %-12.3f %-14.0f %-12.1f%% %-14.1f\n", workers,
                report.wall_seconds, report.packets_per_second(), dip * 100,
                flip_mean * 1e6);
  }
  std::printf("(dip includes the per-worker flip plus post-flip path "
              "changes; every packet lands in exactly one generation)\n");
}

/// Whole-chain dataflow analysis wall-time per shipped chain, plus the
/// recirculation bill auto_parallelize removes on the stage-starved
/// parallel_study target.
void print_analysis_bench() {
  bench::heading("Dataflow analysis: per-chain wall-time + auto-parallel");

  auto build = [](const std::string& target) {
    control::DeploymentOptions options;
    options.verify = false;
    if (target == "fig2") {
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
    } else if (target == "stateful") {
      setup = examples::stateful_security_setup();
    } else {
      setup = examples::parallel_study_setup();
      options.placement = examples::parallel_study_operator_placement();
    }
    return control::Deployment::build(std::move(setup.nfs), setup.policies,
                                      std::move(setup.config),
                                      std::move(setup.ids),
                                      std::move(options));
  };

  std::printf("%-12s %-6s %-14s\n", "chain", "nfs", "analysis (us)");
  for (const std::string target :
       {"fig2", "fig9", "quickstart", "stateful", "parallel"}) {
    auto deployment = build(target);
    std::vector<const p4ir::Program*> ptrs;
    for (const p4ir::Program& p : deployment->nf_programs()) {
      ptrs.push_back(&p);
    }
    double best_us = 0;
    analysis::ChainAnalysis chains;
    for (int rep = 0; rep < 10; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      chains = analysis::analyze_chains(
          ptrs, deployment->policies(),
          &deployment->placement().assignments());
      const std::chrono::duration<double, std::micro> took =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || took.count() < best_us) best_us = took.count();
    }
    std::printf("%-12s %-6zu %-14.1f\n", target.c_str(), ptrs.size(),
                best_us);

    if (target == "parallel") {
      const asic::SwitchConfig& config = deployment->dataplane().config();
      const place::AutoParallelResult result = place::auto_parallelize(
          deployment->policies(), deployment->placement(), config.spec(),
          route::env_for(config), place::StageModel{}, chains.matrix);
      std::printf("auto-parallel: %zu rewrite(s), weighted recirculations "
                  "%.0f -> %.0f, cost %.2f -> %.2f\n",
                  result.rewrites.size(), result.recirculations_before,
                  result.recirculations_after, result.cost_before,
                  result.cost_after);
    }
  }
}

/// Control-write latency under channel loss: drive a fixed batch of
/// session writes over seeded channel fault schedules of increasing
/// hostility and print the cost the session layer pays to stay
/// exactly-once — attempts per confirmed write, simulated backoff,
/// gave-ups, and the reconcile bill after the channel heals.
void print_session_bench() {
  bench::heading("Control-write latency under channel loss (session layer)");
  constexpr std::uint64_t kWrites = 64;

  struct Scenario {
    const char* name;
    sim::FaultProfile profile;  // channel lane only
  };
  auto channel_profile = [](std::uint32_t drops, std::uint32_t dups,
                            std::uint32_t reorders, std::uint32_t delays,
                            std::uint32_t partitions) {
    sim::FaultProfile p;
    p.write_fails = p.write_timeouts = p.evictions = 0;
    p.recirc_downs = p.register_corruptions = 0;
    p.channel_drops = drops;
    p.channel_dups = dups;
    p.channel_reorders = reorders;
    p.channel_delays = delays;
    p.channel_partitions = partitions;
    // Enough schedule room that faults land inside the write batch.
    p.max_msg_index = static_cast<std::uint32_t>(kWrites) + 16;
    return p;
  };
  Scenario scenarios[] = {
      {"clean", channel_profile(0, 0, 0, 0, 0)},
      {"lossy", channel_profile(12, 0, 0, 0, 0)},
      {"flaky", channel_profile(6, 6, 4, 4, 0)},
      {"partitioned", channel_profile(4, 2, 0, 2, 2)},
  };
  // Partition windows longer than the retry budget, so writes actually
  // give up and the heal + reconcile path is on the clock.
  scenarios[3].profile.max_partition_msgs = 12;

  std::printf("%-13s %-10s %-13s %-12s %-9s %-11s %-10s %-8s %-14s\n",
              "channel", "attempts", "backoff (ms)", "duplicates", "gave up",
              "reconcile", "converged", "effects", "wall (us/wr)");
  for (const Scenario& s : scenarios) {
    control::DeploymentOptions options;
    options.verify = false;
    auto fx = control::make_fig9_deployment(std::move(options));
    sim::DataPlane& dp = fx.deployment->dataplane();
    control::SwitchAgent agent(dp);
    control::Channel channel(
        sim::FaultPlan::from_seed(1, s.profile),
        [&agent](const control::SessionMsg& m) { return agent.handle(m); });
    auto mirror =
        std::make_unique<sim::DataPlane>(dp.program(), dp.ids(), dp.config());
    control::restore_snapshot(control::take_snapshot(dp), *mirror);
    control::Session session(channel, std::move(mirror));

    const auto start = std::chrono::steady_clock::now();
    session.hello();
    std::uint64_t gave_up = 0;
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      control::WriteCommand cmd;
      cmd.verb = control::WriteCommand::Verb::kLegacyDiff;
      control::RuleOp op;
      op.kind = control::RuleOp::Kind::kExact;
      op.table = "LB.lb_session";
      op.key = {0x5000 + i};
      op.action = {"LB.modify_dstIp", {{"dip", 0x0a010200 + i}}};
      cmd.diff.ops.push_back(op);
      const control::WriteResult r = session.write(std::move(cmd));
      if (r.gave_up) {
        ++gave_up;
        // Heal the partition (heartbeats consume the blackhole budget)
        // and let reconciliation re-ship the lost intent.
        for (int probe = 0; probe < 64 && !session.heartbeat(); ++probe) {
        }
      }
    }
    const control::ReconcileReport reconcile = session.reconcile();
    const std::chrono::duration<double, std::micro> wall =
        std::chrono::steady_clock::now() - start;

    const control::SessionStats& stats = session.stats();
    const double mean_attempts =
        static_cast<double>(stats.write_attempts) /
        static_cast<double>(stats.writes);
    const double mean_backoff =
        static_cast<double>(stats.total_backoff_ms) /
        static_cast<double>(stats.writes);
    const double wall_per_write =
        wall.count() / static_cast<double>(kWrites);
    std::printf(
        "%-13s %-10.2f %-13.2f %-12llu %-9llu %-11zu %-10s %-8llu %-14.1f\n",
        s.name, mean_attempts, mean_backoff,
        static_cast<unsigned long long>(agent.duplicates_absorbed()),
        static_cast<unsigned long long>(gave_up), reconcile.ops,
        reconcile.converged ? "yes" : "NO",
        static_cast<unsigned long long>(agent.max_effect_count()),
        wall_per_write);
  }
  std::printf("(every scenario must end converged with max effect count 1 — "
              "the exactly-once bill, not just its latency)\n");
}

}  // namespace

int main() {
  print_update_in_flight();
  print_analysis_bench();
  print_session_bench();
  return 0;
}
