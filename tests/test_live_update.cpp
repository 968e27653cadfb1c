// Hitless live chain updates (§11): the two-phase epoch flip, the
// write-ahead journal behind it, per-packet consistency under
// concurrent replay, and controller crash recovery. The standing
// oracle throughout is Snapshot::to_text byte-identity: after any
// crash + recovery the switch must equal either a clean rollback or a
// clean commit — never a blend of two generations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "control/deployment.hpp"
#include "control/journal.hpp"
#include "control/live_update.hpp"
#include "control/replay_target.hpp"
#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "explore/explorer.hpp"
#include "route/routing.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"

namespace dejavu::control {
namespace {

/// The canonical update under test: route every chain around the LB.
route::RoutingPlan bypass_lb_plan(Deployment& dep, sfc::PolicySet& reduced) {
  for (const sfc::ChainPolicy& p : dep.policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, std::string(sfc::kLoadBalancer));
    reduced.add(std::move(rp));
  }
  route::RoutingPlan plan = route::build_routing(
      reduced, dep.placement(), dep.dataplane().config());
  EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
  return plan;
}

RuleDiff bypass_lb_diff(Deployment& dep) {
  sfc::PolicySet reduced;
  route::RoutingPlan plan = bypass_lb_plan(dep, reduced);
  return routing_rule_diff(dep.routing(), plan, dep.dataplane());
}

/// The committed-state reference: the same diff applied cleanly to a
/// scratch copy of the deployment's switch.
std::string committed_ref_of(Deployment& dep, const RuleDiff& diff) {
  std::string error;
  const std::string ref = committed_reference(dep.dataplane(), diff, &error);
  EXPECT_FALSE(ref.empty()) << error;
  return ref;
}

/// Which entry point drives an update: the direct one, or the session
/// one over a clean channel to an agent on the same switch.
enum class Link { kDirect, kSession };

/// What one update (plus, when it crashed, recovery twice) over a link
/// left behind on a fresh fig9 switch — what the two links must agree
/// on, field for field.
struct LinkRun {
  std::string before;
  std::string committed_ref;
  UpdateReport update;
  bool pending_after_update = false;
  std::string after_update;
  RecoveryReport recovery;
  RecoveryReport again;
  std::string after_recovery;
  std::string after_again;
  std::string journal;
};

LinkRun run_link(Link link, CrashPoint crash, const sim::FaultPlan& faults) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const RuleDiff diff = bypass_lb_diff(*fx.deployment);
  sim::FaultInjector injector(faults);
  LinkRun run;
  run.before = take_snapshot(dp).to_text();
  run.committed_ref = committed_ref_of(*fx.deployment, diff);

  Journal journal;
  LiveUpdateOptions options;
  options.crash_point = crash;
  auto finish = [&](auto&& recover_once) {
    run.pending_after_update = journal.pending().has_value();
    run.after_update = take_snapshot(dp).to_text();
    if (!run.update.crashed) return;
    run.recovery = recover_once();
    run.after_recovery = take_snapshot(dp).to_text();
    run.again = recover_once();
    run.after_again = take_snapshot(dp).to_text();
  };
  if (link == Link::kDirect) {
    run.update = run_update(dp, diff, &journal, options, &injector);
    finish([&] { return recover(dp, journal); });
  } else {
    SwitchAgent agent(dp);
    agent.set_injector(&injector);
    Channel channel(sim::FaultPlan{},
                    [&agent](const SessionMsg& m) { return agent.handle(m); });
    auto mirror =
        std::make_unique<sim::DataPlane>(dp.program(), dp.ids(), dp.config());
    restore_snapshot(take_snapshot(dp), *mirror);
    Session session(channel, std::move(mirror));
    EXPECT_TRUE(session.hello());
    run.update = run_update_via_session(session, diff, &journal, options);
    finish([&] { return recover_via_session(session, journal); });
  }
  run.journal = journal.to_text();
  return run;
}

RuleDiff sample_diff() {
  RuleDiff diff;
  RuleOp install;
  install.kind = RuleOp::Kind::kExact;
  install.control = "pipelet_ingress0";
  install.table = "LB.lb_session";
  install.key = {0x42, 7};
  install.action = {"LB.modify_dstIp", {{"dip", 0x0a010201}, {"ttl", 64}}};
  diff.ops.push_back(install);

  // Removals identify the entry by key alone; routing_rule_diff never
  // sets an action on them, and the journal text format reflects that.
  RuleOp remove;
  remove.kind = RuleOp::Kind::kExact;
  remove.install = false;
  remove.table = "dejavu_branching";
  remove.key = {1, 2};
  diff.ops.push_back(remove);

  RuleOp ternary;
  ternary.kind = RuleOp::Kind::kTernary;
  ternary.table = "Classifier.traffic_class";
  ternary.tkey = {{0x0a000000, 0xff000000}, {0, 0}, {80, 0xffff}};
  ternary.priority = -3;
  ternary.action = {"Classifier.classify", {{"path_id", 2}}};
  diff.ops.push_back(ternary);

  RuleOp reg;
  reg.kind = RuleOp::Kind::kRegister;
  reg.control = "pipelet_ingress1";
  reg.reg = "Limiter.flow_count";
  reg.index = 9;
  reg.value = 500;
  reg.old_value = 123;
  reg.old_bank_epoch = 4;
  diff.ops.push_back(reg);
  return diff;
}

TEST(Journal, TextRoundTripsExactly) {
  Journal journal;
  const RuleDiff diff = sample_diff();
  const std::uint64_t id = journal.begin(3, 4, diff);
  journal.append(id, JournalState::kShadowed);
  journal.append(id, JournalState::kFlipped, "gate moved");
  journal.append(id, JournalState::kDrained, "drained 5 flushed 1");
  journal.append(id, JournalState::kCommitted);

  const std::string text = journal.to_text();
  const Journal parsed = Journal::from_text(text);
  EXPECT_EQ(parsed, journal);
  EXPECT_EQ(parsed.to_text(), text);
  ASSERT_EQ(parsed.records().size(), 5u);
  EXPECT_EQ(parsed.records()[0].diff, diff);
  EXPECT_EQ(parsed.records()[2].note, "gate moved");

  // A re-parsed journal keeps allocating fresh update ids.
  Journal reopened = Journal::from_text(text);
  EXPECT_EQ(reopened.begin(4, 5, {}), id + 1);
}

TEST(Journal, PendingTracksTheLatestUnfinishedUpdate) {
  Journal journal;
  EXPECT_FALSE(journal.pending().has_value());

  const std::uint64_t first = journal.begin(1, 2, sample_diff());
  journal.append(first, JournalState::kRolledBack);
  EXPECT_FALSE(journal.pending().has_value());

  const std::uint64_t second = journal.begin(1, 2, sample_diff());
  journal.append(second, JournalState::kShadowed);
  const auto pending = journal.pending();
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->update_id, second);
  EXPECT_EQ(pending->from_epoch, 1u);
  EXPECT_EQ(pending->to_epoch, 2u);
  EXPECT_EQ(pending->last_state, JournalState::kShadowed);
  ASSERT_NE(pending->diff, nullptr);
  EXPECT_EQ(*pending->diff, sample_diff());

  journal.append(second, JournalState::kCommitted);
  EXPECT_FALSE(journal.pending().has_value());
}

TEST(Journal, MalformedTextThrows) {
  EXPECT_THROW(Journal::from_text("gibberish line\n"), std::invalid_argument);
  EXPECT_THROW(Journal::from_text("begin id=notanumber from=1 to=2\n"),
               std::invalid_argument);
  EXPECT_THROW(Journal::from_text("shadowed id=9\nbegin id=1 from=0 to=1\n"
                                  "op exact install control= table=t key=x "
                                  "action=a args=\n"),
               std::invalid_argument);
}

TEST(LiveUpdate, TwoPhaseCommitAdvancesTheEpoch) {
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;
  sim::DataPlane& dp = dep.dataplane();
  const std::uint32_t from = dp.epoch();
  const RuleDiff diff = bypass_lb_diff(dep);
  const std::string committed_ref = committed_ref_of(dep, diff);

  Journal journal;
  const UpdateReport report = run_update(dp, diff, &journal);
  ASSERT_TRUE(report.committed) << report.error;
  EXPECT_FALSE(report.crashed);
  EXPECT_EQ(report.from_epoch, from);
  EXPECT_EQ(report.to_epoch, from + 1);
  EXPECT_EQ(dp.epoch(), from + 1);
  EXPECT_EQ(dp.min_live_epoch(), from + 1);
  EXPECT_EQ(take_snapshot(dp).to_text(), committed_ref);

  // Every phase journaled, in WAL order.
  std::vector<JournalState> states;
  for (const JournalRecord& r : journal.records()) states.push_back(r.state);
  EXPECT_EQ(states,
            (std::vector<JournalState>{
                JournalState::kBegun, JournalState::kShadowed,
                JournalState::kFlipped, JournalState::kDrained,
                JournalState::kCommitted}));
}

TEST(LiveUpdate, EmptyDiffIsRefusedWithoutJournaling) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const std::string before = take_snapshot(dp).to_text();

  Journal journal;
  const UpdateReport report = run_update(dp, RuleDiff{}, &journal);
  EXPECT_FALSE(report.committed);
  EXPECT_FALSE(report.error.empty());
  EXPECT_TRUE(journal.records().empty());
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(LiveUpdate, ShadowFaultAbortsAndRollsBackByteIdentical) {
  sim::FaultPlan plan;
  sim::FaultEvent ev;
  ev.kind = sim::FaultKind::kWriteFail;
  ev.op_index = 1;
  ev.count = 100;  // beyond any retry budget
  plan.events.push_back(ev);

  const LinkRun direct = run_link(Link::kDirect, CrashPoint::kNone, plan);
  const LinkRun session = run_link(Link::kSession, CrashPoint::kNone, plan);
  for (const LinkRun* run : {&direct, &session}) {
    EXPECT_FALSE(run->update.committed);
    EXPECT_FALSE(run->update.crashed);
    EXPECT_TRUE(run->update.rolled_back);
    EXPECT_EQ(run->after_update, run->before);
    EXPECT_FALSE(run->pending_after_update);
    const Journal journal = Journal::from_text(run->journal);
    ASSERT_FALSE(journal.records().empty());
    EXPECT_EQ(journal.records().back().state, JournalState::kAborted);
  }
  EXPECT_EQ(direct.journal, session.journal);
  EXPECT_EQ(direct.update.error, session.update.error);
}

class LiveUpdateRecovery : public ::testing::TestWithParam<CrashPoint> {};

TEST_P(LiveUpdateRecovery, CrashThenRecoverLandsOnTheCommittedState) {
  const LinkRun direct = run_link(Link::kDirect, GetParam(), {});
  const LinkRun session = run_link(Link::kSession, GetParam(), {});
  for (const LinkRun* run : {&direct, &session}) {
    ASSERT_TRUE(run->update.crashed);
    ASSERT_FALSE(run->update.committed);
    ASSERT_TRUE(run->pending_after_update);

    EXPECT_EQ(run->recovery.action, RecoveryAction::kRolledForward)
        << run->recovery.to_string();
    EXPECT_EQ(run->after_recovery, run->committed_ref);
    const Journal journal = Journal::from_text(run->journal);
    EXPECT_FALSE(journal.pending().has_value());
    EXPECT_EQ(journal.records().back().state, JournalState::kCommitted);

    // Recovery is idempotent: a second restart finds nothing pending.
    EXPECT_EQ(run->again.action, RecoveryAction::kNone);
    EXPECT_EQ(run->after_again, run->committed_ref);
  }
  EXPECT_EQ(direct.journal, session.journal);
  EXPECT_EQ(direct.update.rolled_back, session.update.rolled_back);
  EXPECT_EQ(direct.after_update, session.after_update);
  EXPECT_EQ(direct.after_recovery, session.after_recovery);
  EXPECT_EQ(direct.recovery.to_string(), session.recovery.to_string());
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, LiveUpdateRecovery,
                         ::testing::Values(CrashPoint::kAfterShadow,
                                           CrashPoint::kAfterFlip,
                                           CrashPoint::kAfterDrain),
                         [](const auto& info) {
                           switch (info.param) {
                             case CrashPoint::kAfterShadow:
                               return "AfterShadow";
                             case CrashPoint::kAfterFlip:
                               return "AfterFlip";
                             case CrashPoint::kAfterDrain:
                               return "AfterDrain";
                             default:
                               return "None";
                           }
                         });

TEST(LiveUpdateRecoveryFromText, ReparsedJournalRecoversIdentically) {
  // The WAL is only worth its name if recovery works from the re-read
  // text exactly as from the in-memory journal.
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;
  sim::DataPlane& dp = dep.dataplane();
  const RuleDiff diff = bypass_lb_diff(dep);
  const std::string committed_ref = committed_ref_of(dep, diff);

  Journal journal;
  LiveUpdateOptions options;
  options.crash_point = CrashPoint::kAfterShadow;
  ASSERT_TRUE(run_update(dp, diff, &journal, options).crashed);

  Journal reparsed = Journal::from_text(journal.to_text());
  const RecoveryReport recovery = recover(dp, reparsed);
  EXPECT_EQ(recovery.action, RecoveryAction::kRolledForward);
  EXPECT_EQ(take_snapshot(dp).to_text(), committed_ref);
}

TEST(LiveUpdateRecovery, BegunButUntouchedSwitchRollsBackToItself) {
  // Crash after the intent hit the WAL but before any write landed:
  // nothing to adopt, nothing to undo — recovery must leave the switch
  // byte-identical and close out the journal.
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;
  sim::DataPlane& dp = dep.dataplane();
  const std::string before = take_snapshot(dp).to_text();

  Journal journal;
  journal.begin(dp.epoch(), dp.epoch() + 1, bypass_lb_diff(dep));

  const RecoveryReport recovery = recover(dp, journal);
  EXPECT_EQ(recovery.action, RecoveryAction::kRolledBack)
      << recovery.to_string();
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
  EXPECT_FALSE(journal.pending().has_value());
}

TEST(ReplayUnderUpdate, CountersBitIdenticalAcrossWorkerCounts) {
  // The §11 per-packet consistency claim, end to end: an update flips
  // mid-stream, and the merged counters — including the per-epoch
  // packet attribution — are a pure function of the flow set,
  // identical at 1, 2, and 8 workers.
  auto run_at = [](std::uint32_t workers) {
    sim::ReplayEngine engine(fig2_replay_factory());
    sim::ReplayConfig config;
    config.workers = workers;
    config.packets_per_flow = 6;
    config.update = sim::ReplayConfig::ReplayUpdate{};
    config.update->at_packet = 3;
    config.update->apply = [](sim::ReplayTarget& t, std::uint32_t) {
      auto& dt = static_cast<DeploymentTarget&>(t);
      Deployment& dep = *dt.fixture().deployment;
      const UpdateReport report =
          run_update(t.dataplane(), bypass_lb_diff(dep));
      ASSERT_TRUE(report.committed) << report.error;
    };
    return engine.run(fig2_replay_flows(48), config);
  };

  const sim::ReplayReport one = run_at(1);
  const sim::ReplayReport two = run_at(2);
  const sim::ReplayReport eight = run_at(8);
  EXPECT_EQ(one.counters, two.counters);
  EXPECT_EQ(one.counters, eight.counters);

  // Every packet is attributable to exactly one generation, and both
  // generations saw traffic (the flip is mid-stream).
  std::uint64_t attributed = 0;
  for (const auto& [epoch, n] : one.counters.packets_by_epoch) {
    attributed += n;
  }
  EXPECT_EQ(attributed, one.counters.packets);
  EXPECT_EQ(one.counters.packets_by_epoch.size(), 2u);
}

TEST(LiveUpdate, CompiledPipelineNeverServesARetiredGeneration) {
  // Trace-invalidation property (DESIGN.md §12): after a committed
  // flip the compiled engine must advance its generation or fall back
  // (compiled_ok cleared) — and the first packet it handles runs
  // on the new epoch with interpreter-identical semantics.
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;
  sim::DataPlane& dp = dep.dataplane();
  sim::CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  const std::uint64_t gen = fast.generation();

  const auto flows = fig2_replay_flows(6);
  const net::Packet packet = flows.back().flow.packet();  // routed path
  const std::uint16_t port = flows.back().in_port;
  const std::uint32_t old_epoch = dp.epoch();
  EXPECT_EQ(fast.process(packet, port).epoch, old_epoch);

  ASSERT_TRUE(run_update(dp, bypass_lb_diff(dep)).committed);
  ASSERT_GT(dp.epoch(), old_epoch);

  // Interpreter reference from an identical-state clone, then the
  // compiled engine on the live switch.
  sim::DataPlane reference = dp;
  const sim::SwitchOutput expected = reference.process(packet, port);
  const sim::SwitchOutput got = fast.process(packet, port);
  EXPECT_TRUE(sim::semantically_equal(expected, got)) << got.drop_reason;
  EXPECT_EQ(got.epoch, dp.epoch());
  EXPECT_TRUE(fast.generation() > gen || !fast.compiled_ok());
}

TEST(ExplorerEpochs, DrainedGenerationIsFlaggedDvS8) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  dp.set_epoch(1);
  dp.set_min_live_epoch(1);

  explore::ExploreOptions options;
  options.epoch = 0;  // a generation the switch already drained
  options.differential = false;
  const explore::ExploreResult result =
      explore::run(dp, fx.policies, options);
  EXPECT_TRUE(result.report.has("DV-S8")) << result.report.to_string();
  EXPECT_FALSE(result.report.ok());
}

TEST(ExplorerEpochs, MidUpdateGenerationsExploreCleanSeparately) {
  // Crash after shadow: both generations coexist on the switch. Each
  // one must verify clean on its own — proving the epoch windows keep
  // them apart — and neither exploration may report a DV-S8 blend.
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;
  sim::DataPlane& dp = dep.dataplane();
  const std::uint32_t from = dp.epoch();

  sfc::PolicySet reduced;
  route::RoutingPlan plan = bypass_lb_plan(dep, reduced);
  const RuleDiff diff = routing_rule_diff(dep.routing(), plan, dp);
  Journal journal;
  LiveUpdateOptions options;
  options.crash_point = CrashPoint::kAfterShadow;
  ASSERT_TRUE(run_update(dp, diff, &journal, options).crashed);

  explore::ExploreOptions old_gen;
  old_gen.epoch = from;
  const explore::ExploreResult old_result =
      explore::run(dp, fx.policies, old_gen);
  EXPECT_TRUE(old_result.report.ok()) << old_result.report.to_string();

  explore::ExploreOptions new_gen;
  new_gen.epoch = from + 1;
  const explore::ExploreResult new_result =
      explore::run(dp, reduced, new_gen);
  EXPECT_FALSE(new_result.report.has("DV-S8"))
      << new_result.report.to_string();
}

}  // namespace
}  // namespace dejavu::control
