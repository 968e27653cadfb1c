// The control-channel session layer (§7 failure handling): election-id
// arbitration, exactly-once apply under a lossy/duplicating/reordering
// channel, heartbeat-driven link state, partition reconciliation, and
// session-routed live updates with channel-loss recovery. The standing
// oracle is Snapshot::to_text byte-identity between the switch and the
// controller's intended-state mirror — plus the per-(election, seq)
// effect counters, which make "applied exactly once" checkable rather
// than hoped.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "control/deployment.hpp"
#include "control/journal.hpp"
#include "control/live_update.hpp"
#include "control/repair.hpp"
#include "control/replay_target.hpp"
#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "route/routing.hpp"
#include "sim/fault.hpp"

namespace dejavu::control {
namespace {

/// One idempotency unit: install an LB session entry.
WriteCommand lb_write(std::uint64_t key, std::uint64_t dip) {
  WriteCommand cmd;
  cmd.verb = WriteCommand::Verb::kLegacyDiff;
  RuleOp op;
  op.kind = RuleOp::Kind::kExact;
  op.table = "LB.lb_session";
  op.key = {key};
  op.action = {"LB.modify_dstIp", {{"dip", dip}}};
  cmd.diff.ops.push_back(op);
  return cmd;
}

sim::FaultPlan channel_plan(std::vector<sim::FaultEvent> events) {
  sim::FaultPlan plan;
  plan.events = std::move(events);
  return plan;
}

sim::FaultEvent channel_event(sim::FaultKind kind, std::uint32_t msg_index,
                              std::uint32_t count = 1, bool on_ack = false) {
  sim::FaultEvent ev;
  ev.kind = kind;
  ev.msg_index = msg_index;
  ev.count = count;
  ev.on_ack = on_ack;
  return ev;
}

/// Controller + switch pair over one channel: the real switch is the
/// fixture deployment's data plane; the mirror is a fresh replica
/// seeded from its boot-time snapshot.
struct Rig {
  explicit Rig(sim::FaultPlan plan = {}, SessionOptions options = {})
      : fx(make_fig9_deployment()),
        dp(fx.deployment->dataplane()),
        agent(dp),
        channel(std::move(plan),
                [this](const SessionMsg& m) { return agent.handle(m); }) {
    auto mirror =
        std::make_unique<sim::DataPlane>(dp.program(), dp.ids(), dp.config());
    restore_snapshot(take_snapshot(dp), *mirror);
    session =
        std::make_unique<Session>(channel, std::move(mirror), options);
  }

  /// Probe until the partition budget is spent and the link is healthy.
  void heal() {
    for (int i = 0; i < 32 && !session->heartbeat(); ++i) {
    }
    ASSERT_EQ(session->link(), LinkState::kHealthy);
  }

  std::string switch_text() { return take_snapshot(dp).to_text(); }
  std::string mirror_text() {
    return take_snapshot(session->mirror()).to_text();
  }

  decltype(make_fig9_deployment()) fx;
  sim::DataPlane& dp;
  SwitchAgent agent;
  Channel channel;
  std::unique_ptr<Session> session;
};

/// Every recorded effect ran exactly once, settled ones included.
::testing::AssertionResult exactly_once(const SwitchAgent& agent) {
  for (const auto& [key, count] : agent.effects()) {
    if (count != 1) {
      return ::testing::AssertionFailure()
             << "effect (" << key.first << ", " << key.second << ") ran "
             << count << " times";
    }
  }
  if (agent.max_effect_count() != 1) {
    return ::testing::AssertionFailure()
           << "max_effect_count " << agent.max_effect_count();
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Switch-side agent: arbitration + dedup window

TEST(SwitchAgent, ElectionArbitration) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  SwitchAgent agent(dp);
  const std::string before = take_snapshot(dp).to_text();

  SessionMsg hello;
  hello.kind = SessionMsg::Kind::kHello;
  hello.election_id = 5;
  EXPECT_TRUE(agent.handle(hello).ok);
  EXPECT_EQ(agent.master(), 5u);

  // A stale controller's write is nacked and has no effect.
  SessionMsg stale;
  stale.kind = SessionMsg::Kind::kWrite;
  stale.election_id = 3;
  stale.seq = 1;
  stale.write = lb_write(0x42, 0x0a010201);
  const AckMsg nack = agent.handle(stale);
  EXPECT_TRUE(nack.not_master);
  EXPECT_FALSE(nack.ok);
  EXPECT_EQ(agent.stale_rejected(), 1u);
  EXPECT_EQ(agent.writes_applied(), 0u);
  EXPECT_EQ(take_snapshot(dp).to_text(), before);

  // A higher election id takes over.
  hello.election_id = 9;
  EXPECT_TRUE(agent.handle(hello).ok);
  EXPECT_EQ(agent.master(), 9u);

  // ...and the old master's writes are now stale too.
  stale.election_id = 5;
  EXPECT_TRUE(agent.handle(stale).not_master);
  EXPECT_EQ(agent.stale_rejected(), 2u);
}

TEST(SwitchAgent, AckFloorRecognizesSeqsEvictedFromTheWindow) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  AgentOptions options;
  options.dedup_window = 8;  // small window to force eviction
  SwitchAgent agent(dp, options);

  SessionMsg hello;
  hello.kind = SessionMsg::Kind::kHello;
  hello.election_id = 1;
  agent.handle(hello);

  SessionMsg w;
  w.kind = SessionMsg::Kind::kWrite;
  w.election_id = 1;
  for (std::uint64_t seq = 1; seq <= 24; ++seq) {
    w.seq = seq;
    w.write = lb_write(seq, 0x0a010200 + seq);
    ASSERT_TRUE(agent.handle(w).ok) << seq;
  }
  EXPECT_EQ(agent.writes_applied(), 24u);

  // Seq 2 fell off the window long ago; the ack floor still recognizes
  // the re-delivery as a duplicate, so it must not re-apply.
  w.seq = 2;
  w.write = lb_write(2, 0x0a010202);
  const AckMsg ack = agent.handle(w);
  EXPECT_TRUE(ack.ok);
  EXPECT_TRUE(ack.duplicate);
  EXPECT_EQ(agent.writes_applied(), 24u);
  EXPECT_GE(agent.duplicates_absorbed(), 1u);
  EXPECT_TRUE(exactly_once(agent));
}

TEST(SwitchAgent, EffectCountersStayWithinTheDedupWindow) {
  // A long-lived session must not grow the agent's bookkeeping: a seq
  // at or below the ack floor never runs again, so its counter settles
  // into max_effect_count() instead of staying in effects().
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  AgentOptions options;
  options.dedup_window = 8;
  SwitchAgent agent(dp, options);

  SessionMsg msg;
  msg.kind = SessionMsg::Kind::kHello;
  msg.election_id = 1;
  agent.handle(msg);
  msg.kind = SessionMsg::Kind::kWrite;
  const std::uint64_t writes = 50 * options.dedup_window;
  for (std::uint64_t seq = 1; seq <= writes; ++seq) {
    msg.seq = seq;
    msg.write = lb_write(seq % 64, 0x0a010200 + seq);
    ASSERT_TRUE(agent.handle(msg).ok) << seq;
    ASSERT_LE(agent.effects().size(), options.dedup_window + 1) << seq;
  }
  EXPECT_EQ(agent.writes_applied(), writes);
  EXPECT_TRUE(exactly_once(agent));

  // Re-deliveries below the floor and inside the window are absorbed.
  for (const std::uint64_t seq : {std::uint64_t{1}, writes / 2, writes}) {
    msg.seq = seq;
    msg.write = lb_write(seq % 64, 0x0a010200 + seq);
    EXPECT_TRUE(agent.handle(msg).duplicate) << seq;
  }
  EXPECT_EQ(agent.writes_applied(), writes);
  EXPECT_EQ(agent.duplicates_absorbed(), 3u);
  EXPECT_EQ(agent.max_effect_count(), 1u);

  // A new master settles the deposed one's counters.
  msg.kind = SessionMsg::Kind::kHello;
  msg.election_id = 2;
  agent.handle(msg);
  EXPECT_TRUE(agent.effects().empty());
  EXPECT_EQ(agent.max_effect_count(), 1u);
}

TEST(SwitchAgent, ReconcileRefusesAnActionTheTableDoesNotBind) {
  // A reconcile plan rebinding every VGW.vip_map entry to an action the
  // table does not declare: the agent must nack it and restore the
  // pre-image, so no packet ever meets an entry the interpreter would
  // throw on.
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  SwitchAgent agent(dp);
  const std::string before = take_snapshot(dp).to_text();

  SessionMsg msg;
  msg.kind = SessionMsg::Kind::kWrite;
  msg.election_id = 1;
  msg.seq = 1;
  msg.write.verb = WriteCommand::Verb::kReconcile;
  for (const Snapshot::TableState& t : take_snapshot(dp).tables) {
    if (t.table != "VGW.vip_map") continue;
    for (const sim::RuntimeTable::ExactEntry& e : t.exact) {
      ReconcileOp remove;
      remove.kind = ReconcileOp::Kind::kRemoveExact;
      remove.control = t.control;
      remove.table = t.table;
      remove.key = e.key;
      remove.window = e.window;
      ReconcileOp add = remove;
      add.kind = ReconcileOp::Kind::kAddExact;
      add.action = {"no_such_action", {}};
      msg.write.recon.push_back(remove);
      msg.write.recon.push_back(add);
    }
  }
  ASSERT_FALSE(msg.write.recon.empty());

  const AckMsg ack = agent.handle(msg);
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.applied, 0u);
  EXPECT_NE(ack.error.find("not bound"), std::string::npos) << ack.error;
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
  for (const sim::ReplayFlow& rf : fig2_replay_flows(30)) {
    EXPECT_NO_THROW(dp.process(rf.flow.packet(), rf.in_port))
        << "path " << rf.path_id;
  }
}

// ---------------------------------------------------------------------------
// Session over a faulty channel: retry, dedup, exactly-once

TEST(Session, CleanWriteLandsOnSwitchAndMirror) {
  Rig rig;
  ASSERT_TRUE(rig.session->hello());

  const WriteResult r = rig.session->write(lb_write(0x42, 0x0a010201));
  EXPECT_TRUE(r.ok) << r.to_string();
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.was_duplicate);
  EXPECT_TRUE(
      rig.dp.tables_named("LB.lb_session")[0]->find_exact({0x42}).has_value());
  EXPECT_EQ(rig.switch_text(), rig.mirror_text());
  EXPECT_EQ(rig.session->stats().writes, 1u);
  EXPECT_EQ(rig.session->stats().write_retries, 0u);
}

TEST(Session, DroppedRequestRetriesUnderBackoff) {
  // Msg 0 is the hello; msg 1 (the write's first attempt) is lost.
  Rig rig(channel_plan({channel_event(sim::FaultKind::kChannelDrop, 1)}));
  ASSERT_TRUE(rig.session->hello());

  const WriteResult r = rig.session->write(lb_write(0x42, 0x0a010201));
  EXPECT_TRUE(r.ok) << r.to_string();
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_GT(r.backoff_ms, 0u);
  EXPECT_FALSE(r.was_duplicate);  // the first delivery never happened
  EXPECT_EQ(rig.session->stats().write_retries, 1u);
  EXPECT_GT(rig.session->stats().total_backoff_ms, 0u);
  EXPECT_EQ(rig.channel.stats().dropped, 1u);
  EXPECT_TRUE(exactly_once(rig.agent));
  EXPECT_EQ(rig.switch_text(), rig.mirror_text());
}

TEST(Session, LostAckResolvesAsDuplicateNotDoubleApply) {
  // The write lands but its ack is lost: the controller cannot tell,
  // re-sends under the same (election, seq), and the dedup window
  // returns the cached ack instead of re-applying.
  Rig rig(channel_plan(
      {channel_event(sim::FaultKind::kChannelDrop, 1, 1, /*on_ack=*/true)}));
  ASSERT_TRUE(rig.session->hello());

  const WriteResult r = rig.session->write(lb_write(0x42, 0x0a010201));
  EXPECT_TRUE(r.ok) << r.to_string();
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_TRUE(r.was_duplicate);
  EXPECT_EQ(rig.agent.writes_applied(), 1u);
  EXPECT_EQ(rig.agent.duplicates_absorbed(), 1u);
  EXPECT_EQ(rig.agent.max_effect_count(), 1u);
  EXPECT_EQ(rig.channel.stats().acks_dropped, 1u);
  EXPECT_EQ(rig.switch_text(), rig.mirror_text());
}

TEST(Session, DuplicateStormAppliesOnce) {
  // The channel delivers the write three times; only the first applies.
  Rig rig(channel_plan({channel_event(sim::FaultKind::kChannelDup, 1, 2)}));
  ASSERT_TRUE(rig.session->hello());

  const WriteResult r = rig.session->write(lb_write(0x42, 0x0a010201));
  EXPECT_TRUE(r.ok) << r.to_string();
  EXPECT_EQ(rig.agent.writes_applied(), 1u);
  EXPECT_EQ(rig.agent.duplicates_absorbed(), 2u);
  EXPECT_EQ(rig.channel.stats().duplicated, 2u);
  EXPECT_TRUE(exactly_once(rig.agent));
  EXPECT_EQ(rig.switch_text(), rig.mirror_text());
}

TEST(Session, DelayedAndReorderedMessagesConvergeExactlyOnce) {
  // Msg 1 is held back and delivered late (its ack dropped as stale);
  // msg 3 swaps past its successor. Every late original arrives as a
  // duplicate of a re-send — the dedup window absorbs them all.
  Rig rig(channel_plan({
      channel_event(sim::FaultKind::kChannelDelay, 1, 2),
      channel_event(sim::FaultKind::kChannelReorder, 4),
  }));
  ASSERT_TRUE(rig.session->hello());

  for (std::uint64_t k = 1; k <= 6; ++k) {
    const WriteResult r = rig.session->write(lb_write(k, 0x0a010200 + k));
    ASSERT_TRUE(r.ok) << "write " << k << ": " << r.to_string();
  }
  EXPECT_GE(rig.channel.stats().deferred, 1u);
  EXPECT_GE(rig.channel.stats().late_delivered, 1u);
  EXPECT_TRUE(exactly_once(rig.agent));
  EXPECT_EQ(rig.agent.writes_applied(), 6u);
  EXPECT_EQ(rig.switch_text(), rig.mirror_text());
}

// ---------------------------------------------------------------------------
// Partitions: give-up, degraded forwarding, heartbeat, reconciliation

TEST(Session, PartitionedWriteGivesUpButKeepsTheIntent) {
  Rig rig;
  ASSERT_TRUE(rig.session->hello());
  const std::string before = rig.switch_text();

  rig.channel.partition_for(100);
  const WriteResult r = rig.session->write(lb_write(0x42, 0x0a010201));
  EXPECT_TRUE(r.gave_up);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(rig.session->link(), LinkState::kPartitioned);
  EXPECT_EQ(rig.session->stats().writes_gave_up, 1u);

  // The switch never saw the write...
  EXPECT_EQ(rig.switch_text(), before);
  // ...but the mirror holds the intent for reconciliation.
  EXPECT_TRUE(rig.session->mirror()
                .tables_named("LB.lb_session")[0]
                ->find_exact({0x42}).has_value());
}

TEST(Session, DataplaneKeepsForwardingDuringAPartition) {
  // Degraded mode: the switch (including its local punt slow path)
  // needs nothing from the remote controller to keep forwarding on the
  // last committed generation — only *changes* stall.
  DeploymentTarget target(make_fig9_deployment());
  sim::DataPlane& dp = target.dataplane();
  SwitchAgent agent(dp);
  Channel channel({}, [&agent](const SessionMsg& m) { return agent.handle(m); });
  auto mirror =
      std::make_unique<sim::DataPlane>(dp.program(), dp.ids(), dp.config());
  restore_snapshot(take_snapshot(dp), *mirror);
  Session session(channel, std::move(mirror));
  ASSERT_TRUE(session.hello());
  const std::uint32_t epoch = dp.epoch();

  channel.partition_for(100);
  (void)session.write(lb_write(0x4242, 0x0a010201));
  ASSERT_EQ(session.link(), LinkState::kPartitioned);

  for (const auto& f : fig2_replay_flows(4)) {
    const sim::SwitchOutput out = target.inject(f.flow.packet(), f.in_port);
    EXPECT_TRUE(out.delivered()) << out.drop_reason;
    EXPECT_EQ(out.epoch, epoch);
  }
  EXPECT_EQ(dp.epoch(), epoch);
}

TEST(Session, HeartbeatDegradesThenPartitionsAndFeedsHealthMonitor) {
  Rig rig;
  ASSERT_TRUE(rig.session->hello());

  HealthMonitor monitor(rig.dp, rig.fx.policies);
  rig.session->set_health_hook(
      [&monitor](bool healthy) { monitor.note_channel(healthy); });

  EXPECT_TRUE(rig.session->heartbeat());
  EXPECT_EQ(rig.session->link(), LinkState::kHealthy);
  EXPECT_FALSE(monitor.channel_unhealthy());

  rig.channel.partition_for(3);
  EXPECT_FALSE(rig.session->heartbeat());
  EXPECT_EQ(rig.session->link(), LinkState::kDegraded);
  EXPECT_FALSE(monitor.channel_unhealthy());
  EXPECT_FALSE(rig.session->heartbeat());
  EXPECT_EQ(rig.session->link(), LinkState::kDegraded);
  EXPECT_FALSE(rig.session->heartbeat());
  // Third consecutive miss: both the session and the monitor call it.
  EXPECT_EQ(rig.session->link(), LinkState::kPartitioned);
  EXPECT_TRUE(monitor.channel_unhealthy());
  EXPECT_EQ(monitor.channel_miss_streak(), 3u);
  EXPECT_EQ(rig.session->stats().heartbeat_misses, 3u);

  // The partition budget is spent; the next probe heals the session
  // immediately, but the monitor holds its verdict until the recovery
  // hysteresis (channel_recovery_streak consecutive healthy probes) is
  // satisfied — one good probe after a partition proves little.
  EXPECT_TRUE(rig.session->heartbeat());
  EXPECT_EQ(rig.session->link(), LinkState::kHealthy);
  EXPECT_TRUE(monitor.channel_unhealthy());
  EXPECT_EQ(monitor.channel_miss_streak(), 0u);
  EXPECT_TRUE(rig.session->heartbeat());
  EXPECT_FALSE(monitor.channel_unhealthy());
}

TEST(Session, ReadSnapshotMatchesDirectCapture) {
  Rig rig;
  ASSERT_TRUE(rig.session->hello());
  ASSERT_TRUE(rig.session->write(lb_write(0x42, 0x0a010201)).ok);

  const std::optional<Snapshot> snap = rig.session->read_snapshot();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->to_text(), rig.switch_text());
}

TEST(Session, ReconcileRestoresTheIntendedStateAfterDivergence) {
  Rig rig;
  ASSERT_TRUE(rig.session->hello());
  ASSERT_TRUE(rig.session->write(lb_write(0x42, 0x0a010201)).ok);
  ASSERT_EQ(rig.switch_text(), rig.mirror_text());

  // The switch diverges behind the controller's back: a rogue entry
  // appears and the version gate moves.
  rig.dp.tables_named("LB.lb_session")[0]->add_exact(
      {0x999}, {"LB.modify_dstIp", {{"dip", 0xbad}}});
  rig.dp.set_epoch(rig.dp.epoch() + 3);
  ASSERT_NE(rig.switch_text(), rig.mirror_text());

  const ReconcileReport report = rig.session->reconcile();
  EXPECT_TRUE(report.converged) << report.to_string();
  EXPECT_GE(report.ops, 2u);
  EXPECT_EQ(rig.switch_text(), rig.mirror_text());

  // Converged state reconciles to an empty diff (and stays put).
  const ReconcileReport again = rig.session->reconcile();
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.ops, 0u);
}

TEST(Session, ReconcileReportsUnreachableDuringAPartition) {
  Rig rig;
  ASSERT_TRUE(rig.session->hello());
  rig.channel.partition_for(100);
  const ReconcileReport report = rig.session->reconcile();
  EXPECT_FALSE(report.converged);
  EXPECT_TRUE(report.unreachable);
}

TEST(Session, PartitionedIntentReconcilesAfterTheChannelHeals) {
  // The acceptance scenario: a write is swallowed by a partition, the
  // channel heals, and reconciliation converges the switch to the
  // mirror byte-identically.
  Rig rig;
  ASSERT_TRUE(rig.session->hello());

  rig.channel.partition_for(6);
  ASSERT_TRUE(rig.session->write(lb_write(0x42, 0x0a010201)).gave_up);

  rig.heal();
  const ReconcileReport report = rig.session->reconcile();
  EXPECT_TRUE(report.converged) << report.to_string();
  EXPECT_GT(report.ops, 0u);
  EXPECT_EQ(rig.switch_text(), rig.mirror_text());
  EXPECT_TRUE(
      rig.dp.tables_named("LB.lb_session")[0]->find_exact({0x42}).has_value());
}

// ---------------------------------------------------------------------------
// snapshot_diff unit semantics

TEST(SnapshotDiff, IdenticalSnapshotsDiffEmpty) {
  auto fx = make_fig9_deployment();
  const Snapshot s = take_snapshot(fx.deployment->dataplane());
  EXPECT_TRUE(snapshot_diff(s, s).empty());
}

TEST(SnapshotDiff, ProducesMinimalEditScript) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const Snapshot actual = take_snapshot(dp);

  // Intended has one extra exact entry -> exactly one add.
  Snapshot intended = actual;
  bool edited = false;
  for (auto& t : intended.tables) {
    if (t.table == "LB.lb_session") {
      sim::RuntimeTable::ExactEntry e;
      e.key = {0x77};
      e.action = {"LB.modify_dstIp", {{"dip", 0x0a010201}}};
      t.exact.push_back(e);
      edited = true;
      break;
    }
  }
  ASSERT_TRUE(edited);
  auto ops = snapshot_diff(actual, intended);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, ReconcileOp::Kind::kAddExact);
  EXPECT_EQ(ops[0].key, std::vector<std::uint64_t>{0x77});

  // The reverse direction is a remove.
  ops = snapshot_diff(intended, actual);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, ReconcileOp::Kind::kRemoveExact);

  // Epoch and drain-floor divergence each yield their restore op.
  Snapshot moved = actual;
  moved.epoch = actual.epoch + 2;
  moved.min_live_epoch = actual.min_live_epoch + 1;
  ops = snapshot_diff(moved, actual);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].kind, ReconcileOp::Kind::kSetEpoch);
  EXPECT_EQ(ops[0].value, actual.epoch);
  EXPECT_EQ(ops[1].kind, ReconcileOp::Kind::kSetMinLive);
  EXPECT_EQ(ops[1].value, actual.min_live_epoch);
}

// ---------------------------------------------------------------------------
// Session-routed live updates + channel-loss recovery

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

TEST(SessionUpdate, CleanCommitMatchesTheDirectLiveUpdate) {
  Rig rig;
  Deployment& dep = *rig.fx.deployment;
  const RuleDiff diff = bypass_lb_diff(dep);
  const std::string committed_ref = committed_reference(dep.dataplane(), diff);
  ASSERT_TRUE(rig.session->hello());
  const std::uint32_t from = rig.dp.epoch();

  Journal journal;
  const UpdateReport report =
      run_update_via_session(*rig.session, diff, &journal);
  ASSERT_TRUE(report.committed) << report.error;
  EXPECT_FALSE(report.channel_lost);
  EXPECT_EQ(rig.dp.epoch(), from + 1);
  EXPECT_EQ(rig.switch_text(), committed_ref);
  EXPECT_EQ(rig.mirror_text(), committed_ref);
  EXPECT_FALSE(journal.pending().has_value());
  EXPECT_EQ(journal.records().back().state, JournalState::kCommitted);
  EXPECT_TRUE(exactly_once(rig.agent));
}

TEST(SessionUpdate, ChannelLostAtFlipRollsForwardByteIdentical) {
  // Msg 0 hello, msg 1 shadow (lands), msgs 2.. blackholed: the flip
  // write exhausts its retries inside the partition. Recovery after the
  // heal must finish the update — landing byte-identical to the clean
  // commit, with every effect applied exactly once.
  Rig rig(channel_plan(
      {channel_event(sim::FaultKind::kChannelPartition, 2, 10)}));
  Deployment& dep = *rig.fx.deployment;
  const RuleDiff diff = bypass_lb_diff(dep);
  const std::string committed_ref = committed_reference(dep.dataplane(), diff);
  ASSERT_TRUE(rig.session->hello());

  Journal journal;
  const UpdateReport report =
      run_update_via_session(*rig.session, diff, &journal);
  ASSERT_TRUE(report.channel_lost) << report.to_string();
  ASSERT_FALSE(report.committed);
  EXPECT_EQ(rig.session->link(), LinkState::kPartitioned);
  ASSERT_TRUE(journal.pending().has_value());
  EXPECT_EQ(journal.pending()->last_state, JournalState::kShadowed);

  rig.heal();
  const RecoveryReport recovery = recover_via_session(*rig.session, journal);
  EXPECT_EQ(recovery.action, RecoveryAction::kRolledForward)
      << recovery.to_string();
  EXPECT_EQ(rig.switch_text(), committed_ref);
  EXPECT_EQ(rig.mirror_text(), committed_ref);
  EXPECT_FALSE(journal.pending().has_value());
  EXPECT_TRUE(exactly_once(rig.agent));

  // And the session is fully converged afterwards.
  const ReconcileReport reconcile = rig.session->reconcile();
  EXPECT_TRUE(reconcile.converged) << reconcile.to_string();
  EXPECT_EQ(reconcile.ops, 0u);
}

TEST(SessionUpdate, ChannelLostAtShadowRollsBackByteIdentical) {
  // The partition opens before the shadow ever reaches the switch:
  // recovery finds an untouched switch and must roll back — both the
  // switch and the mirror end byte-identical to the pre-update state.
  Rig rig(channel_plan(
      {channel_event(sim::FaultKind::kChannelPartition, 1, 10)}));
  Deployment& dep = *rig.fx.deployment;
  const RuleDiff diff = bypass_lb_diff(dep);
  ASSERT_TRUE(rig.session->hello());
  const std::string before = rig.switch_text();

  Journal journal;
  const UpdateReport report =
      run_update_via_session(*rig.session, diff, &journal);
  ASSERT_TRUE(report.channel_lost);
  ASSERT_TRUE(journal.pending().has_value());
  EXPECT_EQ(journal.pending()->last_state, JournalState::kBegun);
  EXPECT_EQ(rig.switch_text(), before);  // nothing ever landed

  rig.heal();
  const RecoveryReport recovery = recover_via_session(*rig.session, journal);
  EXPECT_EQ(recovery.action, RecoveryAction::kRolledBack)
      << recovery.to_string();
  EXPECT_EQ(rig.switch_text(), before);
  EXPECT_EQ(rig.mirror_text(), before);
  EXPECT_FALSE(journal.pending().has_value());
  EXPECT_EQ(journal.records().back().state, JournalState::kRolledBack);

  const ReconcileReport reconcile = rig.session->reconcile();
  EXPECT_TRUE(reconcile.converged) << reconcile.to_string();
}

TEST(SessionUpdate, RecoveryDefersWhileTheChannelIsStillDown) {
  Rig rig;
  Deployment& dep = *rig.fx.deployment;
  ASSERT_TRUE(rig.session->hello());

  Journal journal;
  journal.begin(rig.dp.epoch(), rig.dp.epoch() + 1, bypass_lb_diff(dep));
  rig.channel.partition_for(100);
  const RecoveryReport recovery = recover_via_session(*rig.session, journal);
  EXPECT_EQ(recovery.action, RecoveryAction::kNone);
  EXPECT_NE(recovery.detail.find("deferred"), std::string::npos);
  EXPECT_TRUE(journal.pending().has_value());  // journal untouched
}

// ---------------------------------------------------------------------------
// Punt-ledger regression: retiring a generation with punts in flight

TEST(PuntLedger, RetiredGenerationLeavesNoOutstandingPunts) {
  // A repair/reconciliation that garbage-collects a generation whose
  // punts never reinjected must not leave the ledger nonzero forever —
  // those punts can only drop as kUpdateDrained anyway.
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const std::uint32_t e = dp.epoch();
  dp.note_punt(e);
  dp.note_punt(e);
  ASSERT_EQ(dp.punts_outstanding_below(e + 1), 2u);

  dp.set_epoch(e + 1);
  dp.gc_epochs(e + 1);
  EXPECT_EQ(dp.min_live_epoch(), e + 1);
  EXPECT_EQ(dp.punts_outstanding_below(e + 1), 0u);
  std::uint64_t total = 0;
  for (const auto& [epoch, n] : dp.punts_outstanding()) total += n;
  EXPECT_EQ(total, 0u);

  // restore_snapshot must not resurrect (or strand) the ledger either:
  // the floor travels with the snapshot.
  sim::DataPlane scratch(dp.program(), dp.ids(), dp.config());
  scratch.note_punt(0);  // stale state on the restore target
  restore_snapshot(take_snapshot(dp), scratch);
  EXPECT_EQ(scratch.punts_outstanding_below(scratch.min_live_epoch()), 0u);
}

}  // namespace
}  // namespace dejavu::control
