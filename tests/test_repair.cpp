// Self-healing chain repair: gate-counter health detection pinpoints a
// dead NF, and both repair strategies (bypass on the same placement,
// re-placement rebuild) restore delivery — gated on the verifier and
// the symbolic explorer, committed as a hitless live update.
#include <gtest/gtest.h>

#include "compile/report.hpp"
#include "control/repair.hpp"
#include "control/replay_target.hpp"
#include "control/snapshot.hpp"
#include "merge/compose.hpp"
#include "merge/framework.hpp"
#include "route/routing.hpp"

namespace dejavu::control {
namespace {

/// Remove the NF's check-gate entries and every branching entry that
/// steered toward it — the observable signature of a dead pipelet.
void sabotage(Deployment& dep, const std::string& nf) {
  sim::DataPlane& dp = dep.dataplane();
  for (const route::CheckRule& cr : dep.routing().checks) {
    if (cr.nf != nf) continue;
    for (sim::RuntimeTable* t :
         dp.tables_named(merge::check_next_nf_table(cr.nf))) {
      t->remove_exact({cr.path_id, cr.service_index, 0, 0});
    }
  }
  for (const route::BranchingRule& br : dep.routing().branching) {
    auto next = dep.policies().nf_at(br.path_id, br.service_index);
    if (!next || *next != nf) continue;
    sim::RuntimeTable* t = dp.table_in(
        merge::pipelet_control_name(br.pipelet), merge::kBranchingTable);
    if (t != nullptr) t->remove_exact({br.path_id, br.service_index});
  }
}

/// One observation window: one packet per flow through the control
/// plane (punts serviced), tallied per path.
std::map<std::uint16_t, PathWindow> window(
    Deployment& dep, const std::vector<sim::ReplayFlow>& flows) {
  std::map<std::uint16_t, PathWindow> out;
  for (const sim::ReplayFlow& rf : flows) {
    auto result = dep.control().inject(rf.flow.packet(), rf.in_port);
    PathWindow& w = out[rf.path_id];
    ++w.offered;
    if (result.delivered()) ++w.delivered;
    if (result.dropped) ++w.dropped;
  }
  return out;
}

double delivery(const std::map<std::uint16_t, PathWindow>& windows) {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (const auto& [path_id, w] : windows) {
    offered += w.offered;
    delivered += w.delivered;
  }
  return offered > 0 ? static_cast<double>(delivered) / offered : 1.0;
}

TEST(HealthMonitor, PinpointsTheSilentGate) {
  auto fx = make_fig9_deployment();
  auto flows = fig2_replay_flows(30);
  window(*fx.deployment, flows);  // warm LB sessions

  sabotage(*fx.deployment, sfc::kVgw);
  HealthMonitor monitor(fx.deployment->dataplane(),
                        fx.deployment->policies());
  monitor.observe(window(*fx.deployment, flows));
  EXPECT_TRUE(monitor.unhealthy().empty());  // debounced: 1 < sustained 2
  monitor.observe(window(*fx.deployment, flows));
  EXPECT_EQ(monitor.unhealthy(), std::vector<std::string>{sfc::kVgw});

  // The culprit is the VGW specifically: downstream NFs also went
  // silent on the suffering paths, but only the first silent gate
  // after a firing upstream is blamed.
  const auto& health = monitor.health();
  EXPECT_FALSE(health.at(sfc::kFirewall).unhealthy);
  EXPECT_FALSE(health.at(sfc::kLoadBalancer).unhealthy);

  monitor.reset();
  monitor.observe(window(*fx.deployment, flows));
  EXPECT_TRUE(monitor.unhealthy().empty());  // suspicion forgotten
}

TEST(HealthMonitor, HealthyDeploymentStaysQuiet) {
  auto fx = make_fig9_deployment();
  auto flows = fig2_replay_flows(30);
  window(*fx.deployment, flows);
  HealthMonitor monitor(fx.deployment->dataplane(),
                        fx.deployment->policies());
  for (int i = 0; i < 4; ++i) {
    monitor.observe(window(*fx.deployment, flows));
  }
  EXPECT_TRUE(monitor.unhealthy().empty());
}

TEST(HealthMonitor, ChannelEntersOnlyAfterSustainedMisses) {
  auto fx = make_fig9_deployment();
  HealthMonitor monitor(fx.deployment->dataplane(),
                        fx.deployment->policies());

  // Defaults: 3 consecutive misses to enter, 2 healthy probes to leave.
  monitor.note_channel(false);
  monitor.note_channel(false);
  EXPECT_FALSE(monitor.channel_unhealthy());  // 2 < sustained 3
  EXPECT_EQ(monitor.channel_miss_streak(), 2u);
  monitor.note_channel(false);
  EXPECT_TRUE(monitor.channel_unhealthy());
}

TEST(HealthMonitor, ChannelFlappingNeitherEntersNorLeaves) {
  auto fx = make_fig9_deployment();
  HealthMonitor monitor(fx.deployment->dataplane(),
                        fx.deployment->policies());

  // Fast flapping below the entry threshold never declares unhealthy:
  // every healthy probe resets the miss streak.
  for (int i = 0; i < 6; ++i) {
    monitor.note_channel(false);
    monitor.note_channel(false);
    monitor.note_channel(true);
  }
  EXPECT_FALSE(monitor.channel_unhealthy());

  // Once unhealthy, the same flapping cannot clear it either: recovery
  // needs 2 CONSECUTIVE healthy probes and each miss resets the streak.
  for (int i = 0; i < 3; ++i) monitor.note_channel(false);
  ASSERT_TRUE(monitor.channel_unhealthy());
  for (int i = 0; i < 6; ++i) {
    monitor.note_channel(true);
    monitor.note_channel(false);
  }
  EXPECT_TRUE(monitor.channel_unhealthy());

  // A sustained-healthy link finally clears it.
  monitor.note_channel(true);
  EXPECT_TRUE(monitor.channel_unhealthy());  // 1 < recovery streak 2
  monitor.note_channel(true);
  EXPECT_FALSE(monitor.channel_unhealthy());
  EXPECT_EQ(monitor.channel_miss_streak(), 0u);
}

TEST(HealthMonitor, StateIntegrityUsesTheSameTwoSidedHysteresis) {
  auto fx = make_fig9_deployment();
  HealthMonitor monitor(fx.deployment->dataplane(),
                        fx.deployment->policies());

  // The state lane is twitchier on entry (1 dirty audit tick suffices:
  // a digest mismatch is hard evidence, not a flaky probe) but uses
  // the same debounced exit.
  monitor.note_state(false);
  EXPECT_TRUE(monitor.state_unhealthy());
  EXPECT_EQ(monitor.state_mismatch_streak(), 1u);

  monitor.note_state(true);
  EXPECT_TRUE(monitor.state_unhealthy());  // 1 < recovery streak 2
  monitor.note_state(false);               // relapse resets recovery
  monitor.note_state(true);
  EXPECT_TRUE(monitor.state_unhealthy());
  monitor.note_state(true);
  EXPECT_FALSE(monitor.state_unhealthy());
  EXPECT_EQ(monitor.state_mismatch_streak(), 0u);
}

TEST(HealthMonitor, ResetForgetsChannelAndStateSuspicion) {
  auto fx = make_fig9_deployment();
  HealthMonitor monitor(fx.deployment->dataplane(),
                        fx.deployment->policies());
  for (int i = 0; i < 3; ++i) monitor.note_channel(false);
  monitor.note_state(false);
  ASSERT_TRUE(monitor.channel_unhealthy());
  ASSERT_TRUE(monitor.state_unhealthy());

  monitor.reset();
  EXPECT_FALSE(monitor.channel_unhealthy());
  EXPECT_FALSE(monitor.state_unhealthy());
  EXPECT_EQ(monitor.channel_miss_streak(), 0u);
  EXPECT_EQ(monitor.state_mismatch_streak(), 0u);
}

TEST(ChainRepair, BypassRestoresDelivery) {
  auto fx = make_fig9_deployment();
  auto flows = fig2_replay_flows(30);
  window(*fx.deployment, flows);
  const double before = delivery(window(*fx.deployment, flows));
  EXPECT_GE(before, 0.95);

  sabotage(*fx.deployment, sfc::kVgw);
  const double faulted = delivery(window(*fx.deployment, flows));
  EXPECT_LT(faulted, before);  // paths 1 and 2 are down

  ChainRepair repair(*fx.deployment);
  const RepairReport report = repair.bypass(sfc::kVgw);
  EXPECT_TRUE(report.succeeded) << report.to_string();
  EXPECT_TRUE(report.verify_ok);
  EXPECT_TRUE(report.explore_ok);
  EXPECT_TRUE(report.txn.committed);
  EXPECT_GT(report.rules_installed, 0u);

  // The deployment's policy view dropped the NF...
  for (const auto& p : fx.deployment->policies().policies()) {
    for (const auto& nf : p.nfs) EXPECT_NE(nf, sfc::kVgw);
  }
  // ...and traffic flows again (LB re-learns sessions for the now
  // untranslated destinations via punts).
  const double repaired = delivery(window(*fx.deployment, flows));
  EXPECT_GE(repaired, 0.95 * before);
}

TEST(ChainRepair, CompiledPipelineInvalidatedBySwap) {
  // Trace-invalidation property (DESIGN.md §12): a committed repair
  // swap moves table revisions, so the compiled engine must advance
  // its generation or fall back — and agree with the interpreter on the repaired
  // chain. Never the retired one.
  auto fx = make_fig9_deployment();
  auto flows = fig2_replay_flows(12);
  window(*fx.deployment, flows);  // warm LB sessions
  sim::DataPlane& dp = fx.deployment->dataplane();
  sim::CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  fast.process(flows[0].flow.packet(), flows[0].in_port);
  const std::uint64_t gen = fast.generation();

  sabotage(*fx.deployment, sfc::kVgw);
  ChainRepair repair(*fx.deployment);
  ASSERT_TRUE(repair.bypass(sfc::kVgw).succeeded);

  sim::DataPlane reference = dp;
  for (const sim::ReplayFlow& rf : flows) {
    const net::Packet packet = rf.flow.packet();
    const sim::SwitchOutput expected = reference.process(packet, rf.in_port);
    const sim::SwitchOutput got = fast.process(packet, rf.in_port);
    ASSERT_TRUE(sim::semantically_equal(expected, got))
        << "path " << rf.path_id << "\ninterp: " << expected.drop_reason
        << "\ncompiled: " << got.drop_reason;
  }
  EXPECT_TRUE(fast.generation() > gen || !fast.compiled_ok());
}

TEST(ChainRepair, BypassRefusals) {
  auto fx = make_fig9_deployment();
  RepairPolicy policy;
  policy.never_bypass = {sfc::kFirewall};
  ChainRepair repair(*fx.deployment, policy);

  const RepairReport fw = repair.bypass(sfc::kFirewall);
  EXPECT_FALSE(fw.attempted);
  EXPECT_NE(fw.error.find("forbids"), std::string::npos);

  const RepairReport router = repair.bypass(sfc::kRouter);
  EXPECT_FALSE(router.attempted);
  EXPECT_NE(router.error.find("terminal"), std::string::npos);

  const RepairReport ghost = repair.bypass("Ghost");
  EXPECT_FALSE(ghost.attempted);
  EXPECT_NE(ghost.error.find("not part of any chain"), std::string::npos);
}

TEST(ChainRepair, BypassRollsBackOnPermanentWriteFailure) {
  auto fx = make_fig9_deployment();
  auto flows = fig2_replay_flows(30);
  window(*fx.deployment, flows);
  sabotage(*fx.deployment, sfc::kVgw);
  const std::string before =
      take_snapshot(fx.deployment->dataplane()).to_text();
  const auto policies_before = fx.deployment->policies().policies();

  sim::FaultPlan plan;
  sim::FaultEvent ev;
  ev.kind = sim::FaultKind::kWriteFail;
  ev.op_index = 0;
  ev.count = 100;  // > any retry budget: permanent
  plan.events.push_back(ev);
  sim::FaultInjector injector(plan);

  ChainRepair repair(*fx.deployment);
  const RepairReport report = repair.bypass(sfc::kVgw, &injector);
  EXPECT_FALSE(report.succeeded);
  EXPECT_TRUE(report.txn.rolled_back);
  EXPECT_NE(report.error.find("rolled back"), std::string::npos);

  // Live switch untouched, policy view unchanged.
  EXPECT_EQ(take_snapshot(fx.deployment->dataplane()).to_text(), before);
  EXPECT_EQ(fx.deployment->policies().policies(), policies_before);
}

TEST(ChainRepair, ReplaceRebuildsAndMigratesState) {
  auto fx = make_fig9_deployment();
  auto flows = fig2_replay_flows(30);
  window(*fx.deployment, flows);
  sabotage(*fx.deployment, sfc::kVgw);

  ChainRepair repair(*fx.deployment);
  ChainRepair::Replacement repl = repair.replace(sfc::kVgw);
  ASSERT_TRUE(repl.report.succeeded) << repl.report.to_string();
  ASSERT_NE(repl.deployment, nullptr);
  EXPECT_TRUE(repl.report.explore_ok);

  // The rebuilt program no longer contains the failed NF...
  EXPECT_TRUE(repl.deployment->dataplane()
                  .tables_named("VGW.vip_map")
                  .empty());
  // ...but the survivors' rule state came across.
  EXPECT_FALSE(repl.deployment->dataplane()
                   .tables_named("Router.ipv4_lpm")
                   .empty());

  // Cut over (LB pool is soft state) and confirm delivery.
  repl.deployment->control().set_lb_pool(fx.deployment->control().lb_pool());
  const double repaired = delivery(window(*repl.deployment, flows));
  EXPECT_GE(repaired, 0.95);
}

// §11 motivation, pinned: a packet that punted to the CPU before a
// bypass repair and reinjects after it. A legacy stop-the-world swap
// (the bypass diff applied as one plain Transaction) leaves the
// version gate alone, so the old packet resumes mid-chain on the
// rewired ruleset — a mixed-generation traversal that dies as an
// unattributable ingress drop (in other layouts it is silently
// misdelivered). The hitless path retires the old generation first:
// the same reinjection drains cleanly with kUpdateDrained, naming the
// generation it belonged to.
TEST(ChainRepair, LegacySwapLeaksAMixedGenerationPacket) {
  auto hold_punt = [](Deployment& dep) {
    // First path-1 injection misses the LB session table and punts;
    // hold the punt instead of servicing it (an in-flight packet).
    for (const auto& rf : fig2_replay_flows(30)) {
      if (rf.path_id != 1) continue;
      auto out = dep.dataplane().process(rf.flow.packet(), rf.in_port);
      if (!out.to_cpu.empty()) return out.to_cpu[0];
    }
    ADD_FAILURE() << "no flow punted";
    return sim::SwitchOutput::CpuPunt{};
  };
  auto reinject = [](Deployment& dep, const sim::SwitchOutput::CpuPunt& p) {
    return dep.dataplane().process(p.packet, p.in_port, /*from_cpu=*/true,
                                   p.epoch);
  };

  {  // Baseline: no swap — the held punt is still a live in-flight
     // packet on its own generation, not a drop.
    auto fx = make_fig9_deployment();
    const auto punt = hold_punt(*fx.deployment);
    const auto out = reinject(*fx.deployment, punt);
    EXPECT_FALSE(out.dropped) << out.drop_reason;
    EXPECT_EQ(out.epoch, 0u);
  }

  {  // Legacy stop-the-world swap: the reinjected packet crosses into
     // the new generation and is lost without attribution.
    auto fx = make_fig9_deployment();
    Deployment& dep = *fx.deployment;
    const auto punt = hold_punt(dep);
    sfc::PolicySet reduced;
    for (const sfc::ChainPolicy& p : dep.policies().policies()) {
      sfc::ChainPolicy rp = p;
      std::erase(rp.nfs, std::string(sfc::kVgw));
      reduced.add(std::move(rp));
    }
    const route::RoutingPlan plan = route::build_routing(
        reduced, dep.placement(), dep.dataplane().config());
    ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
    Transaction txn(dep.dataplane());
    fill_transaction(txn,
                     routing_rule_diff(dep.routing(), plan, dep.dataplane()));
    const Transaction::Result result = txn.commit();
    ASSERT_TRUE(result.committed) << result.to_string();
    EXPECT_EQ(dep.dataplane().epoch(), 0u);  // no gate flip

    const auto out = reinject(*fx.deployment, punt);
    EXPECT_TRUE(out.dropped);
    EXPECT_NE(out.drop_code, sim::DropCode::kUpdateDrained)
        << "legacy path has no drain accounting";
  }

  {  // Hitless swap: the old generation is drained before GC, so the
     // late reinjection is refused with the drain code — attributable,
     // never a mixed-generation traversal.
    auto fx = make_fig9_deployment();
    sim::DataPlane& dp = fx.deployment->dataplane();
    const auto punt = hold_punt(*fx.deployment);
    ChainRepair repair(*fx.deployment);
    const RepairReport report = repair.bypass(sfc::kVgw);
    ASSERT_TRUE(report.succeeded) << report.to_string();
    EXPECT_EQ(dp.epoch(), 1u);
    EXPECT_EQ(dp.min_live_epoch(), 1u);
    // The drain phase accounted for (and flushed) the abandoned punt.
    EXPECT_EQ(dp.punts_outstanding_below(1), 0u);
    EXPECT_EQ(report.update.flushed, 1u);

    const auto out = reinject(*fx.deployment, punt);
    EXPECT_TRUE(out.dropped);
    EXPECT_EQ(out.drop_code, sim::DropCode::kUpdateDrained);
    EXPECT_NE(out.drop_reason.find("min live epoch 1"), std::string::npos)
        << out.drop_reason;
  }
}

TEST(NfStateSnapshot, ExcludesFrameworkTables) {
  auto fx = make_fig9_deployment();
  const Snapshot snap = nf_state_snapshot(fx.deployment->dataplane());
  EXPECT_FALSE(snap.tables.empty());
  for (const auto& t : snap.tables) {
    EXPECT_FALSE(compile::is_framework_table(t.table)) << t.table;
  }
}

}  // namespace
}  // namespace dejavu::control
