#include "control/chaos.hpp"

#include <algorithm>
#include <mutex>
#include <random>
#include <stdexcept>

#include "control/auditor.hpp"
#include "control/replay_target.hpp"
#include "control/snapshot.hpp"
#include "merge/compose.hpp"
#include "merge/framework.hpp"
#include "route/routing.hpp"

namespace dejavu::control {

sim::FaultProfile profile_for_schedule(const std::string& name) {
  sim::FaultProfile p = sim::FaultProfile::fig2_mixed();
  if (name == "mixed") return p;
  if (name == "none") {
    p.write_fails = p.write_timeouts = 0;
    p.evictions = p.recirc_downs = p.register_corruptions = 0;
    return p;
  }
  if (name == "writes") {
    p.evictions = p.recirc_downs = p.register_corruptions = 0;
    return p;
  }
  if (name == "evictions") {
    p.write_fails = p.write_timeouts = 0;
    p.recirc_downs = p.register_corruptions = 0;
    p.evictions = 6;
    return p;
  }
  if (name == "recirc") {
    p.write_fails = p.write_timeouts = 0;
    p.evictions = p.register_corruptions = 0;
    p.recirc_downs = 4;
    return p;
  }
  throw std::invalid_argument("unknown chaos schedule '" + name +
                              "' (want none|writes|evictions|recirc|mixed)");
}

namespace {

double delivery_fraction(const std::map<std::uint16_t, PathWindow>& windows) {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (const auto& [path_id, w] : windows) {
    offered += w.offered;
    delivered += w.delivered;
  }
  return offered > 0 ? static_cast<double>(delivered) / offered : 1.0;
}

std::uint64_t window_offered(const std::map<std::uint16_t, PathWindow>& windows) {
  std::uint64_t offered = 0;
  for (const auto& [path_id, w] : windows) offered += w.offered;
  return offered;
}

/// Phase 2: sabotage one NF on a live deployment, detect it from the
/// gate telemetry, repair around it, and measure packets-to-detection
/// and packets-to-recovery. Windows are one packet per flow.
void run_drill(ChaosResult& r, const ChaosOptions& options) {
  r.drill_run = true;

  // The victim is seed-chosen from the bypassable middle NFs (the FW
  // is never_bypass by policy, Classifier is the chain head, Router is
  // terminal — repairs refuse all three).
  std::mt19937_64 rng(options.seed ^ 0xd211c4a05ULL);
  r.victim_nf = (rng() & 1) != 0 ? sfc::kLoadBalancer : sfc::kVgw;

  Fig2Deployment fx =
      options.fig9 ? make_fig9_deployment() : make_fig2_deployment();
  Deployment* dep = fx.deployment.get();

  const std::uint32_t drill_flows =
      std::clamp<std::uint32_t>(options.flows, 24, 48);
  std::vector<sim::ReplayFlow> flows =
      fig2_replay_flows(drill_flows, options.seed);

  auto run_window = [&]() {
    std::map<std::uint16_t, PathWindow> windows;
    for (const sim::ReplayFlow& rf : flows) {
      sim::SwitchOutput out =
          dep->control().inject(rf.flow.packet(), rf.in_port);
      PathWindow& w = windows[rf.path_id];
      ++w.offered;
      if (out.delivered()) ++w.delivered;
      if (out.dropped) ++w.dropped;
      r.violations += sim::ChaosTarget::check_output(out);
    }
    return windows;
  };

  // Window 1 warms the LB sessions through the punt path; window 2 is
  // the clean baseline the recovery criterion compares against.
  run_window();
  r.delivery_before = delivery_fraction(run_window());

  // Sabotage: the victim's check gates vanish (it stops claiming its
  // packets) and every branching entry that steered toward it vanishes
  // with them — packets bound for the victim now miss the branching
  // table and die loudly on its default route-drop action.
  sim::DataPlane& dp = dep->dataplane();
  for (const route::CheckRule& cr : dep->routing().checks) {
    if (cr.nf != r.victim_nf) continue;
    for (sim::RuntimeTable* t :
         dp.tables_named(merge::check_next_nf_table(cr.nf))) {
      t->remove_exact({cr.path_id, cr.service_index, 0, 0});
    }
  }
  for (const route::BranchingRule& br : dep->routing().branching) {
    auto next = dep->policies().nf_at(br.path_id, br.service_index);
    if (!next || *next != r.victim_nf) continue;
    sim::RuntimeTable* t = dp.table_in(
        merge::pipelet_control_name(br.pipelet), merge::kBranchingTable);
    if (t != nullptr) t->remove_exact({br.path_id, br.service_index});
  }

  // Detection: feed windows to the health monitor until the victim's
  // silent gate crosses the sustained-suspicion threshold.
  HealthMonitor monitor(dp, dep->policies());
  constexpr std::uint32_t kMaxDetectWindows = 8;
  bool detected = false;
  for (std::uint32_t i = 0; i < kMaxDetectWindows && !detected; ++i) {
    auto windows = run_window();
    r.packets_to_detect += window_offered(windows);
    r.delivery_faulted = delivery_fraction(windows);
    monitor.observe(windows);
    for (const std::string& nf : monitor.unhealthy()) {
      if (nf == r.victim_nf) detected = true;
    }
  }
  if (!detected) {
    r.error = "health monitor did not detect sabotaged " + r.victim_nf;
    return;
  }

  // Repair, with the plan's write-lane faults injected into the live
  // commit (retry budget sized so transient runs still land).
  RepairPolicy policy;
  policy.never_bypass = {sfc::kFirewall};
  policy.retry.max_attempts = 6;
  policy.retry.seed = options.seed;
  ChainRepair repair(*dep, policy);
  sim::FaultInjector injector(r.plan);

  if (options.repair == "bypass") {
    r.repair_report = repair.bypass(r.victim_nf, &injector);
  } else if (options.repair == "replace") {
    ChainRepair::Replacement repl = repair.replace(r.victim_nf);
    r.repair_report = repl.report;
    if (repl.report.succeeded) {
      // Cut over: table state came across via the snapshot migration;
      // the LB pool is control-plane soft state and moves by hand.
      repl.deployment->control().set_lb_pool(dep->control().lb_pool());
      fx.deployment = std::move(repl.deployment);
      dep = fx.deployment.get();
    }
  } else {
    r.error = "unknown repair strategy '" + options.repair +
              "' (want bypass|replace|none)";
    return;
  }
  if (!r.repair_report.succeeded) {
    r.error = "repair failed: " + r.repair_report.error;
    return;
  }

  // Recovery: windows until delivery is back to >= 95% of baseline.
  constexpr std::uint32_t kMaxRecoverWindows = 8;
  bool recovered = false;
  for (std::uint32_t i = 0; i < kMaxRecoverWindows && !recovered; ++i) {
    auto windows = run_window();
    r.packets_to_recover += window_offered(windows);
    r.delivery_recovered = delivery_fraction(windows);
    recovered = r.delivery_recovered >= 0.95 * r.delivery_before;
  }
  if (!recovered) {
    r.error = "delivery did not recover (" +
              std::to_string(r.delivery_recovered) + " vs baseline " +
              std::to_string(r.delivery_before) + ")";
  }
}

/// Phase 3: drive a bypass diff through the two-phase live update with
/// the plan's write-lane faults injected and a seed-chosen controller
/// crash inside the update window, then recover from the journal. The
/// consistency oracle is byte-identity of Snapshot::to_text: the final
/// switch state must equal either the pre-update snapshot (rolled
/// back) or the same update applied cleanly on a scratch switch
/// (committed / rolled forward) — a blend of the two generations is a
/// drill failure even if every individual write succeeded.
void run_update_drill(ChaosResult& r, const ChaosOptions& options) {
  ChaosResult::UpdateDrill& d = r.update_drill;
  d.run = true;

  std::mt19937_64 rng(options.seed ^ 0x11f70c8a7ULL);
  d.victim_nf = (rng() & 1) != 0 ? sfc::kLoadBalancer : sfc::kVgw;
  static constexpr const char* kCrashNames[] = {"none", "shadow", "flip",
                                                "drain"};
  static constexpr CrashPoint kCrashPoints[] = {
      CrashPoint::kNone, CrashPoint::kAfterShadow, CrashPoint::kAfterFlip,
      CrashPoint::kAfterDrain};
  const std::size_t crash = rng() % 4;
  d.crash_point = kCrashNames[crash];

  Fig2Deployment fx =
      options.fig9 ? make_fig9_deployment() : make_fig2_deployment();
  Deployment* dep = fx.deployment.get();
  sim::DataPlane& dp = dep->dataplane();

  // The update under test: route around the victim (a middle NF, so
  // the reduced chains stay well-formed).
  sfc::PolicySet reduced;
  for (const sfc::ChainPolicy& p : dep->policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, d.victim_nf);
    reduced.add(std::move(rp));
  }
  route::RoutingPlan plan =
      route::build_routing(reduced, dep->placement(), dp.config());
  if (!plan.feasible) {
    r.error = "update drill: rerouted plan infeasible: " +
              plan.infeasible_reason;
    return;
  }
  RuleDiff diff = routing_rule_diff(dep->routing(), plan, dp);

  // References for the oracle, before anything touches the live switch.
  const std::string rollback_ref = take_snapshot(dp).to_text();
  std::string clean_error;
  const std::string committed_ref =
      committed_reference(dp, diff, &clean_error);
  if (committed_ref.empty()) {
    r.error = "update drill: clean reference update failed: " + clean_error;
    return;
  }

  // The faulted run: write-lane faults from the chaos plan, crash
  // point from the seed, every phase journaled.
  Journal journal;
  LiveUpdateOptions opts;
  opts.crash_point = kCrashPoints[crash];
  opts.retry.max_attempts = 6;
  opts.retry.seed = options.seed;
  sim::FaultInjector injector(r.plan);
  d.update = run_update(dp, diff, &journal, opts, &injector);

  if (d.update.crashed) {
    LiveUpdateOptions recover_opts = opts;
    recover_opts.crash_point = CrashPoint::kNone;
    d.recovery = recover(dp, journal, recover_opts);
  }

  const std::string final_state = take_snapshot(dp).to_text();
  const bool landed =
      d.update.committed ||
      (d.update.crashed && d.recovery.action == RecoveryAction::kRolledForward);
  if (landed) {
    d.outcome = d.update.committed ? "committed" : "recovered-forward";
    d.consistent = final_state == committed_ref;
  } else {
    d.outcome = "rolled-back";
    d.consistent = final_state == rollback_ref;
  }
  if (!d.consistent) {
    r.error = "update drill: post-" + d.outcome +
              " switch state matches neither the rollback nor the "
              "committed reference (mixed generations)";
  }
}

/// One replica's run of the phase-4 session script (below). The same
/// script runs twice per replica — once over the faulty channel, once
/// over a clean one from the same starting state — and the final
/// switch states must be byte-identical.
struct ChannelScriptOutcome {
  bool ok = false;
  bool committed = false;
  bool reconcile_converged = false;
  std::uint32_t update_attempts = 0;
  std::uint32_t recoveries = 0;
  std::uint32_t rollbacks = 0;
  std::uint64_t stale_rejected = 0;
  std::uint64_t duplicates_absorbed = 0;
  std::uint64_t max_effect_count = 0;
  std::uint64_t torn = 0;
  std::string final_text;
  ChannelStats channel;
  SessionStats session;
  std::string error;
};

/// The deterministic session script: claim mastership, prove stale
/// rejection, drive a hitless bypass update through the (possibly
/// faulty) channel with heal + journal-recovery after every partition,
/// then reconcile. Pure function of (dp state, plans, channel plan,
/// seed) — no wall clock, no global randomness.
ChannelScriptOutcome run_channel_script(sim::DataPlane& dp,
                                        const route::RoutingPlan& from_plan,
                                        const route::RoutingPlan& to_plan,
                                        const sim::FaultPlan& channel_plan,
                                        std::uint64_t seed) {
  ChannelScriptOutcome out;

  AgentOptions agent_options;
  agent_options.retry.max_attempts = 6;
  agent_options.retry.seed = seed;
  SwitchAgent agent(dp, agent_options);
  Channel channel(channel_plan,
                  [&agent](const SessionMsg& m) { return agent.handle(m); });

  auto mirror =
      std::make_unique<sim::DataPlane>(dp.program(), dp.ids(), dp.config());
  restore_snapshot(take_snapshot(dp), *mirror);
  SessionOptions session_options;
  session_options.election_id = 2;
  session_options.retry.seed = seed;
  Session session(channel, std::move(mirror), session_options);

  auto heal = [&session]() {
    for (int h = 0; h < 32 && session.link() != LinkState::kHealthy; ++h) {
      session.heartbeat();
    }
  };

  bool master = false;
  for (int i = 0; i < 8 && !master; ++i) master = session.hello();
  if (!master) {
    out.error = "hello never reached the switch";
    return out;
  }

  // Stale-controller probe: a write under a lower election id must be
  // nacked with no effect (delivered straight to the agent so the
  // probe itself cannot be lost).
  SessionMsg stale;
  stale.kind = SessionMsg::Kind::kWrite;
  stale.election_id = 1;
  stale.seq = 1;
  stale.write.verb = WriteCommand::Verb::kFlip;
  stale.write.to_epoch = dp.epoch() + 7;
  const AckMsg stale_ack = agent.handle(stale);
  if (!stale_ack.not_master) {
    out.error = "stale-controller write was not rejected";
    return out;
  }

  const RuleDiff diff = routing_rule_diff(from_plan, to_plan, dp);
  Journal journal;
  LiveUpdateOptions update_options;

  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds && !out.committed; ++round) {
    ++out.update_attempts;
    UpdateReport rep =
        run_update_via_session(session, diff, &journal, update_options);
    if (rep.committed) {
      out.committed = true;
      break;
    }
    if (!rep.channel_lost) {
      out.error = "update failed: " + rep.error;
      return out;
    }
    // Torn-batch probe while mid-flight: the shadow batch must be
    // all-or-nothing in any observable state.
    auto [visible, total] = shadow_install_visibility(dp, diff, rep.to_epoch);
    if (visible > 0 && visible < total) ++out.torn;
    // Heal (heartbeats consume the partition's blackhole budget), then
    // recover from the journal over the healed channel.
    for (int attempt = 0; attempt < 6 && journal.pending(); ++attempt) {
      heal();
      ++out.recoveries;
      RecoveryReport rec =
          recover_via_session(session, journal, update_options);
      if (rec.action == RecoveryAction::kRolledBack) {
        ++out.rollbacks;
        break;  // retry the whole update
      }
      if (rec.action == RecoveryAction::kRolledForward) {
        out.committed = true;
        break;
      }
    }
    if (!out.committed && journal.pending()) {
      out.error = "recovery never terminated";
      return out;
    }
  }
  if (!out.committed) {
    out.error = "update never committed within " +
                std::to_string(out.update_attempts) + " attempts";
    return out;
  }

  heal();
  ReconcileReport recon = session.reconcile();
  out.reconcile_converged = recon.converged;
  if (!recon.converged) out.error = "reconcile: " + recon.error;

  out.stale_rejected = agent.stale_rejected();
  out.duplicates_absorbed = agent.duplicates_absorbed();
  out.max_effect_count = agent.max_effect_count();
  out.channel = channel.stats();
  out.session = session.stats();
  out.final_text = take_snapshot(dp).to_text();
  out.ok = out.error.empty() && out.reconcile_converged && out.torn == 0 &&
           out.max_effect_count <= 1 && out.stale_rejected >= 1;
  return out;
}

/// Phase 4: the control-channel drill. Live replay traffic runs on
/// every worker; mid-replay, each worker's private replica executes
/// the session script over a channel driven by the seeded channel
/// fault lane. Oracle: per replica, the final switch state must be
/// byte-identical to the same script over a clean channel — and the
/// replicas (which see identical message sequences) must agree on
/// every channel-level counter.
void run_channel_drill(ChaosResult& r, const ChaosOptions& options) {
  ChaosResult::ChannelDrill& d = r.channel_drill;
  d.run = true;
  d.channel_seed = *options.channel_seed;

  std::mt19937_64 rng(d.channel_seed ^ 0x5e5510c4a7ULL);
  d.victim_nf = (rng() & 1) != 0 ? sfc::kLoadBalancer : sfc::kVgw;

  // The bypass update's plans, derived once on a fixture deployment —
  // pure functions of policies/placement, so they hold for every
  // worker's replica too.
  Fig2Deployment fx =
      options.fig9 ? make_fig9_deployment() : make_fig2_deployment();
  Deployment* dep = fx.deployment.get();
  sfc::PolicySet reduced;
  for (const sfc::ChainPolicy& p : dep->policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, d.victim_nf);
    reduced.add(std::move(rp));
  }
  const route::RoutingPlan to_plan = route::build_routing(
      reduced, dep->placement(), dep->dataplane().config());
  if (!to_plan.feasible) {
    d.error = "rerouted plan infeasible: " + to_plan.infeasible_reason;
    return;
  }
  const route::RoutingPlan& from_plan = dep->routing();

  const sim::FaultPlan channel_plan = sim::FaultPlan::from_seed(
      d.channel_seed, sim::FaultProfile::channel_default());

  std::mutex mu;
  std::vector<ChannelScriptOutcome> outcomes;

  sim::ReplayEngine engine(fig2_replay_factory(options.fig9));
  sim::ReplayConfig config;
  config.workers = options.workers;
  config.packets_per_flow = std::max<std::uint32_t>(options.packets_per_flow, 2);
  sim::ReplayConfig::ReplayUpdate update;
  update.at_packet = config.packets_per_flow / 2;
  update.apply = [&](sim::ReplayTarget& target, std::uint32_t worker) {
    (void)worker;
    sim::DataPlane& dp = target.dataplane();
    // Clean-channel reference from this replica's own mid-replay state
    // (register state is per-flow, hence per-shard — each replica is
    // its own reference).
    const Snapshot pre = take_snapshot(dp);
    sim::DataPlane reference(dp.program(), dp.ids(), dp.config());
    restore_snapshot(pre, reference);
    ChannelScriptOutcome ref = run_channel_script(
        reference, from_plan, to_plan, sim::FaultPlan{}, d.channel_seed);
    ChannelScriptOutcome live = run_channel_script(
        dp, from_plan, to_plan, channel_plan, d.channel_seed);
    if (!ref.ok) {
      live.ok = false;
      live.error = "clean-channel reference script failed: " + ref.error;
    } else if (live.error.empty() && live.final_text != ref.final_text) {
      live.ok = false;
      live.error = "final state diverges from the clean-channel reference";
    }
    std::lock_guard<std::mutex> lock(mu);
    outcomes.push_back(std::move(live));
  };
  config.update = update;
  d.replay = engine.run(fig2_replay_flows(options.flows, options.seed), config);

  d.replicas = static_cast<std::uint32_t>(outcomes.size());
  if (outcomes.empty()) {
    d.error = "no replica ran the session script";
    return;
  }
  const ChannelScriptOutcome& first = outcomes.front();
  d.update_attempts = first.update_attempts;
  d.recoveries = first.recoveries;
  d.rollbacks = first.rollbacks;
  d.duplicates_absorbed = first.duplicates_absorbed;
  d.channel = first.channel;
  d.session = first.session;
  d.committed = true;
  d.reconcile_converged = true;
  d.snapshots_identical = true;
  d.stale_rejected = first.stale_rejected;
  for (const ChannelScriptOutcome& o : outcomes) {
    d.committed = d.committed && o.committed;
    d.reconcile_converged = d.reconcile_converged && o.reconcile_converged;
    d.snapshots_identical = d.snapshots_identical && o.ok;
    d.stale_rejected = std::min(d.stale_rejected, o.stale_rejected);
    d.max_effect_count = std::max(d.max_effect_count, o.max_effect_count);
    d.torn_batches += o.torn;
    if (d.error.empty() && !o.error.empty()) d.error = o.error;
    // The channel is deterministic on message index: replicas see the
    // same fault schedule and must agree on every counter.
    if (d.error.empty() &&
        (o.update_attempts != first.update_attempts ||
         o.recoveries != first.recoveries || o.rollbacks != first.rollbacks ||
         o.channel.sent != first.channel.sent)) {
      d.error = "replicas diverged on session/channel counters";
    }
  }
}

/// One replica's run of the phase-5 state-corruption script: warm,
/// mirror, baseline, then per scheduled tick inject -> detect ->
/// quarantine -> scrub -> verify, ending with a full clean sweep.
/// Pure function of (replica state, flow set, state fault plan).
struct StateScriptOutcome {
  bool ok = false;
  std::uint64_t scheduled = 0;
  std::uint64_t applied = 0;
  std::uint64_t batches_injected = 0;
  std::uint64_t batches_detected = 0;
  std::uint64_t digest_detections = 0;
  std::uint64_t sample_detections = 0;
  std::uint64_t max_ticks_to_detect = 0;
  std::uint64_t packets_sampled = 0;
  std::uint64_t sample_divergences = 0;
  std::uint64_t packets_quarantined = 0;
  std::uint64_t quarantine_signals = 0;
  std::uint64_t scrubs = 0;
  std::uint64_t scrub_ops = 0;
  bool repaired_identical = true;
  std::uint64_t false_positives = 0;
  bool final_clean = false;
  std::string error;

  /// Everything that must agree bit-for-bit across replicas.
  std::string signature() const {
    std::string s;
    for (std::uint64_t v :
         {scheduled, applied, batches_injected, batches_detected,
          digest_detections, sample_detections, max_ticks_to_detect,
          packets_sampled, sample_divergences, packets_quarantined,
          quarantine_signals, scrubs, scrub_ops, false_positives,
          static_cast<std::uint64_t>(repaired_identical),
          static_cast<std::uint64_t>(final_clean)}) {
      s += std::to_string(v);
      s += '/';
    }
    return s;
  }
};

StateScriptOutcome run_state_script(sim::ReplayTarget& target,
                                    const std::vector<sim::ReplayFlow>& flows,
                                    const sim::FaultPlan& plan) {
  StateScriptOutcome out;
  sim::DataPlane& dp = target.dataplane();

  // Warm EVERY flow through the control plane (not just this worker's
  // shard) so the learned LB session tables are identical across
  // 1/2/8-worker runs: backend choice is hash-of-flow, so arrival
  // order does not matter, only membership.
  for (const sim::ReplayFlow& f : flows) {
    (void)target.inject(f.flow.packet(), f.in_port);
  }

  // The intended-state mirror: the controller's view of everything it
  // (and the learning path) ever installed, captured before any fault.
  sim::DataPlane mirror(dp.program(), dp.ids(), dp.config());
  restore_snapshot(take_snapshot(dp), mirror);

  AuditorOptions audit_options;
  audit_options.digest_objects_per_tick = 4;
  // Drill-rate sampling: dense enough that packet-visible corruption
  // also shows up in the sample lane within a batch. The production
  // default (AuditorOptions{}.sample_every) is benched separately.
  audit_options.sample_every = 4;
  Auditor auditor(dp, mirror, audit_options);
  // An empty hook: the drill only counts quarantine signals, which
  // report().quarantine_signals tallies only while a hook is set.
  auditor.set_quarantine_hook([] {});

  // Counters are filled on every exit path (success or error) so a
  // failing drill still reports what actually ran.
  auto fill_counters = [&] {
    const AuditReport& rep = auditor.report();
    out.digest_detections = rep.digest_mismatches;
    out.sample_detections = rep.sample_divergences;
    out.packets_sampled = rep.packets_sampled;
    out.sample_divergences = rep.sample_divergences;
    out.packets_quarantined = rep.packets_quarantined;
    out.quarantine_signals = rep.quarantine_signals;
    out.scrubs = rep.scrubs;
    out.scrub_ops = rep.scrub_ops;
  };

  const std::size_t objects = dp.state_digests().size();
  const std::uint64_t sweep =
      objects == 0 ? 1
                   : (objects + audit_options.digest_objects_per_tick - 1) /
                         audit_options.digest_objects_per_tick;

  // Deterministic probe traffic for the sample lane: round-robin over
  // the (identical) warmed flow set.
  std::size_t probe_ix = 0;
  auto probe = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const sim::ReplayFlow& f = flows[probe_ix++ % flows.size()];
      (void)auditor.process(f.flow.packet(), f.in_port);
    }
  };

  // Corruption-free baseline: one full digest sweep plus sampled probe
  // traffic must raise nothing (zero-false-positive pin).
  for (std::uint64_t t = 0; t < sweep + 1; ++t) {
    auditor.tick();
    probe(8);
  }
  out.false_positives = auditor.findings().size();
  if (out.false_positives != 0) {
    out.error = "baseline raised " + std::to_string(out.false_positives) +
                " findings on uncorrupted state: " +
                auditor.findings().front().to_string();
    fill_counters();
    return out;
  }

  sim::StateFaultInjector injector(plan, dp);
  out.scheduled = injector.scheduled_total();
  std::uint32_t last_tick = 0;
  for (const sim::FaultEvent* ev : plan.all_state_events()) {
    last_tick = std::max(last_tick, ev->tick);
  }

  for (std::uint32_t tick = 0; tick <= last_tick; ++tick) {
    const std::vector<std::string> injected = injector.apply_tick(tick);
    if (injected.empty()) continue;
    ++out.batches_injected;

    // Detection: the digest round-robin guarantees any table/register
    // corruption is seen within one full sweep; the sample lane may
    // fire first when the corruption is packet-visible.
    const std::size_t before = auditor.findings().size();
    std::uint64_t ticks_used = 0;
    bool detected = false;
    for (std::uint64_t t = 0; t < sweep + 2 && !detected; ++t) {
      ++ticks_used;
      auditor.tick();
      probe(8);
      detected = auditor.findings().size() > before;
    }
    if (!detected) {
      out.error = "corruption batch at tick " + std::to_string(tick) +
                  " went undetected (" + injected.front() + ")";
      out.applied = injector.applied_total();
      fill_counters();
      return out;
    }
    ++out.batches_detected;
    out.max_ticks_to_detect = std::max(out.max_ticks_to_detect, ticks_used);

    // Repair: one atomic reconcile write, then byte-identity.
    const ScrubReport rep = auditor.scrub();
    if (!rep.converged || !rep.identical) {
      out.repaired_identical = false;
      out.error = "scrub after tick " + std::to_string(tick) +
                  " failed: " + rep.to_string();
      out.applied = injector.applied_total();
      fill_counters();
      return out;
    }
  }

  // Final sweep: the repaired plane must read clean end-to-end.
  const std::size_t before_sweep = auditor.findings().size();
  for (std::uint64_t t = 0; t < sweep + 1; ++t) {
    auditor.tick();
    probe(4);
  }
  out.final_clean =
      auditor.findings().size() == before_sweep && !auditor.suspicious();

  out.applied = injector.applied_total();
  fill_counters();
  out.ok = out.error.empty() && out.false_positives == 0 &&
           out.batches_detected == out.batches_injected &&
           out.repaired_identical && out.final_clean;
  return out;
}

/// Phase 5: the silent state-corruption drill. Each worker's replica
/// runs the identical state script mid-replay; the oracle is
/// detect-everything / repair-byte-identical / zero-false-positives,
/// with every audit counter bit-identical across replicas.
void run_state_drill(ChaosResult& r, const ChaosOptions& options) {
  ChaosResult::StateDrill& d = r.state_drill;
  d.run = true;
  d.state_seed = *options.state_seed;

  const sim::FaultPlan plan = sim::FaultPlan::from_seed(
      d.state_seed, sim::FaultProfile::state_default());
  const std::vector<sim::ReplayFlow> flows =
      fig2_replay_flows(options.flows, options.seed);

  std::mutex mu;
  std::vector<StateScriptOutcome> outcomes;

  sim::ReplayEngine engine(fig2_replay_factory(options.fig9));
  sim::ReplayConfig config;
  config.workers = options.workers;
  config.packets_per_flow =
      std::max<std::uint32_t>(options.packets_per_flow, 2);
  sim::ReplayConfig::ReplayUpdate update;
  update.at_packet = config.packets_per_flow / 2;
  update.apply = [&](sim::ReplayTarget& target, std::uint32_t worker) {
    (void)worker;
    StateScriptOutcome o = run_state_script(target, flows, plan);
    std::lock_guard<std::mutex> lock(mu);
    outcomes.push_back(std::move(o));
  };
  config.update = update;
  d.replay = engine.run(flows, config);

  d.replicas = static_cast<std::uint32_t>(outcomes.size());
  if (outcomes.empty()) {
    d.error = "no replica ran the state script";
    return;
  }
  const StateScriptOutcome& first = outcomes.front();
  d.corruptions_scheduled = first.scheduled;
  d.corruptions_applied = first.applied;
  d.batches_injected = first.batches_injected;
  d.batches_detected = first.batches_detected;
  d.digest_detections = first.digest_detections;
  d.sample_detections = first.sample_detections;
  d.max_ticks_to_detect = first.max_ticks_to_detect;
  d.packets_sampled = first.packets_sampled;
  d.sample_divergences = first.sample_divergences;
  d.packets_quarantined = first.packets_quarantined;
  d.quarantine_signals = first.quarantine_signals;
  d.scrubs = first.scrubs;
  d.scrub_ops = first.scrub_ops;
  d.repaired_identical = true;
  d.final_sweep_clean = true;
  d.counters_agree = true;
  for (const StateScriptOutcome& o : outcomes) {
    d.repaired_identical = d.repaired_identical && o.repaired_identical;
    d.final_sweep_clean = d.final_sweep_clean && o.final_clean;
    if (d.error.empty() && !o.error.empty()) d.error = o.error;
    if (o.signature() != first.signature()) {
      d.counters_agree = false;
      if (d.error.empty()) {
        d.error = "replicas diverged on audit counters (" + o.signature() +
                  " vs " + first.signature() + ")";
      }
    }
  }
  d.false_positives = first.false_positives;
}

}  // namespace

ChaosResult run_chaos(const ChaosOptions& options) {
  ChaosResult r;
  r.options = options;
  r.plan =
      sim::FaultPlan::from_seed(options.seed, profile_for_schedule(options.schedule));

  // Phase 1: the full fault schedule against the parallel replay
  // engine, one fault-injecting shim per worker-private replica.
  std::vector<sim::ChaosTarget*> shims;
  sim::ReplayEngine engine(
      sim::chaos_factory(fig2_replay_factory(options.fig9), r.plan, &shims));
  sim::ReplayConfig config;
  config.workers = options.workers;
  config.packets_per_flow = options.packets_per_flow;
  r.replay = engine.run(fig2_replay_flows(options.flows, options.seed), config);
  for (const sim::ChaosTarget* shim : shims) {
    r.violations += shim->violations();
    for (const auto& [kind, count] : shim->faults_applied()) {
      r.faults_applied[kind] += count;
    }
  }

  // Phase 2: the sabotage -> detect -> repair -> recover drill.
  if (options.repair != "none") run_drill(r, options);

  // Phase 3: crash-inside-the-update-window drill.
  if (r.error.empty() && options.update_drill) run_update_drill(r, options);

  // Phase 4: the control-channel drill.
  if (r.error.empty() && options.channel_seed.has_value()) {
    run_channel_drill(r, options);
  }
  if (r.error.empty() && options.state_seed.has_value()) {
    run_state_drill(r, options);
  }
  return r;
}

bool ChaosResult::ok() const {
  if (!error.empty()) return false;
  if (violations.total() != 0) return false;
  if (drill_run && !repair_report.succeeded) return false;
  if (update_drill.run && !update_drill.consistent) return false;
  if (channel_drill.run) {
    if (!channel_drill.error.empty()) return false;
    if (!channel_drill.committed || !channel_drill.reconcile_converged ||
        !channel_drill.snapshots_identical) {
      return false;
    }
    if (channel_drill.torn_batches != 0 ||
        channel_drill.max_effect_count > 1 ||
        channel_drill.stale_rejected == 0) {
      return false;
    }
  }
  if (state_drill.run) {
    if (!state_drill.error.empty()) return false;
    if (state_drill.corruptions_applied == 0) return false;  // drill must bite
    if (state_drill.batches_detected != state_drill.batches_injected) {
      return false;
    }
    if (state_drill.false_positives != 0 || !state_drill.repaired_identical ||
        !state_drill.final_sweep_clean || !state_drill.counters_agree) {
      return false;
    }
  }
  return true;
}

std::string ChaosResult::to_string() const {
  std::string s = "chaos run (seed " + std::to_string(options.seed) +
                  ", schedule " + options.schedule + ", " +
                  std::to_string(options.workers) + " workers)\n";
  s += "  plan: " + std::to_string(plan.events.size()) + " fault events\n";
  s += "  replay: " + std::to_string(replay.counters.packets) + " packets, " +
       std::to_string(replay.counters.delivered) + " delivered, " +
       std::to_string(replay.counters.dropped) + " dropped, " +
       std::to_string(replay.counters.punted) + " punted\n";
  s += "  faults applied:";
  if (faults_applied.empty()) s += " none";
  for (const auto& [kind, count] : faults_applied) {
    s += " " + kind + "=" + std::to_string(count);
  }
  s += "\n  invariants: " + violations.to_string() + "\n";
  if (drill_run) {
    s += "  drill: victim " + victim_nf + ", strategy " + options.repair +
         "\n";
    s += "    detect after " + std::to_string(packets_to_detect) +
         " packets, recover after " + std::to_string(packets_to_recover) +
         " packets\n";
    s += "    delivery " + std::to_string(delivery_before) + " -> " +
         std::to_string(delivery_faulted) + " (faulted) -> " +
         std::to_string(delivery_recovered) + " (repaired)\n";
    s += "    " + repair_report.to_string() + "\n";
  }
  if (update_drill.run) {
    s += "  update drill: bypass " + update_drill.victim_nf + ", crash " +
         update_drill.crash_point + " -> " + update_drill.outcome +
         (update_drill.consistent ? " (consistent)" : " (INCONSISTENT)") +
         "\n";
    s += "    " + update_drill.update.to_string() + "\n";
    if (update_drill.update.crashed) {
      s += "    " + update_drill.recovery.to_string() + "\n";
    }
  }
  if (channel_drill.run) {
    const auto& c = channel_drill;
    s += "  channel drill: seed " + std::to_string(c.channel_seed) +
         ", bypass " + c.victim_nf + ", " + std::to_string(c.replicas) +
         " replicas\n";
    s += "    " + c.channel.to_string() + "\n";
    s += "    update attempts " + std::to_string(c.update_attempts) +
         ", recoveries " + std::to_string(c.recoveries) + ", rollbacks " +
         std::to_string(c.rollbacks) +
         (c.committed ? ", committed" : ", NOT COMMITTED") + "\n";
    s += "    invariants: stale rejected " +
         std::to_string(c.stale_rejected) + ", duplicates absorbed " +
         std::to_string(c.duplicates_absorbed) + ", max effect count " +
         std::to_string(c.max_effect_count) + ", torn batches " +
         std::to_string(c.torn_batches) + "\n";
    s += std::string("    reconcile ") +
         (c.reconcile_converged ? "converged" : "DID NOT CONVERGE") +
         "; snapshots " +
         (c.snapshots_identical ? "byte-identical to the clean reference"
                                : "DIVERGED") +
         "\n";
    if (!c.error.empty()) s += "    error: " + c.error + "\n";
  }
  if (state_drill.run) {
    const auto& sd = state_drill;
    s += "  state drill: seed " + std::to_string(sd.state_seed) + ", " +
         std::to_string(sd.replicas) + " replicas\n";
    s += "    corruptions: " + std::to_string(sd.corruptions_applied) + "/" +
         std::to_string(sd.corruptions_scheduled) + " applied in " +
         std::to_string(sd.batches_injected) + " batches, " +
         std::to_string(sd.batches_detected) + " detected (worst " +
         std::to_string(sd.max_ticks_to_detect) + " ticks)\n";
    s += "    detectors: digest " + std::to_string(sd.digest_detections) +
         ", sample " + std::to_string(sd.sample_detections) + " (" +
         std::to_string(sd.packets_sampled) + " sampled, " +
         std::to_string(sd.packets_quarantined) + " quarantined)\n";
    s += "    repair: " + std::to_string(sd.scrubs) + " scrubs, " +
         std::to_string(sd.scrub_ops) + " reconcile ops, " +
         (sd.repaired_identical ? "byte-identical" : "DIVERGENT") +
         (sd.final_sweep_clean ? ", final sweep clean" : ", FINAL SWEEP DIRTY") +
         "\n";
    s += "    false positives " + std::to_string(sd.false_positives) +
         "; counters " + (sd.counters_agree ? "agree" : "DISAGREE") +
         " across replicas\n";
    if (!sd.error.empty()) s += "    error: " + sd.error + "\n";
  }
  if (!error.empty()) s += "  error: " + error + "\n";
  s += ok() ? "  OK\n" : "  FAILED\n";
  return s;
}

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ChaosResult::to_json() const {
  std::string s = "{\n";
  s += "  \"ok\": " + std::string(ok() ? "true" : "false") + ",\n";
  s += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  s += "  \"schedule\": \"" + json_escape(options.schedule) + "\",\n";
  s += "  \"workers\": " + std::to_string(options.workers) + ",\n";
  s += "  \"fault_events\": " + std::to_string(plan.events.size()) + ",\n";
  s += "  \"replay\": {\"packets\": " +
       std::to_string(replay.counters.packets) +
       ", \"delivered\": " + std::to_string(replay.counters.delivered) +
       ", \"dropped\": " + std::to_string(replay.counters.dropped) +
       ", \"punted\": " + std::to_string(replay.counters.punted) + "},\n";
  s += "  \"faults_applied\": {";
  bool first = true;
  for (const auto& [kind, count] : faults_applied) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + json_escape(kind) + "\": " + std::to_string(count);
  }
  s += "},\n";
  s += "  \"violations\": {\"unattributed_drops\": " +
       std::to_string(violations.unattributed_drops) +
       ", \"corrupt_packets\": " + std::to_string(violations.corrupt_packets) +
       ", \"metadata_leaks\": " + std::to_string(violations.metadata_leaks) +
       ", \"forwarding_loops\": " +
       std::to_string(violations.forwarding_loops) + "},\n";
  s += "  \"drill\": ";
  if (drill_run) {
    s += "{\"victim\": \"" + json_escape(victim_nf) + "\", \"strategy\": \"" +
         json_escape(options.repair) + "\", \"repaired\": " +
         std::string(repair_report.succeeded ? "true" : "false") +
         ", \"packets_to_detect\": " + std::to_string(packets_to_detect) +
         ", \"packets_to_recover\": " + std::to_string(packets_to_recover) +
         ", \"delivery_before\": " + std::to_string(delivery_before) +
         ", \"delivery_faulted\": " + std::to_string(delivery_faulted) +
         ", \"delivery_recovered\": " + std::to_string(delivery_recovered) +
         "}";
  } else {
    s += "null";
  }
  s += ",\n";
  s += "  \"update_drill\": ";
  if (update_drill.run) {
    s += "{\"victim\": \"" + json_escape(update_drill.victim_nf) +
         "\", \"crash\": \"" + json_escape(update_drill.crash_point) +
         "\", \"outcome\": \"" + json_escape(update_drill.outcome) +
         "\", \"consistent\": " +
         std::string(update_drill.consistent ? "true" : "false") + "}";
  } else {
    s += "null";
  }
  s += ",\n";
  s += "  \"channel_drill\": ";
  if (channel_drill.run) {
    const auto& c = channel_drill;
    s += "{\"channel_seed\": " + std::to_string(c.channel_seed) +
         ", \"victim\": \"" + json_escape(c.victim_nf) +
         "\", \"replicas\": " + std::to_string(c.replicas) +
         ", \"update_attempts\": " + std::to_string(c.update_attempts) +
         ", \"recoveries\": " + std::to_string(c.recoveries) +
         ", \"rollbacks\": " + std::to_string(c.rollbacks) +
         ", \"committed\": " + std::string(c.committed ? "true" : "false") +
         ", \"reconcile_converged\": " +
         std::string(c.reconcile_converged ? "true" : "false") +
         ", \"stale_rejected\": " + std::to_string(c.stale_rejected) +
         ", \"duplicates_absorbed\": " +
         std::to_string(c.duplicates_absorbed) +
         ", \"max_effect_count\": " + std::to_string(c.max_effect_count) +
         ", \"torn_batches\": " + std::to_string(c.torn_batches) +
         ", \"snapshots_identical\": " +
         std::string(c.snapshots_identical ? "true" : "false") +
         ", \"channel\": {\"sent\": " + std::to_string(c.channel.sent) +
         ", \"delivered\": " + std::to_string(c.channel.delivered) +
         ", \"dropped\": " + std::to_string(c.channel.dropped) +
         ", \"acks_dropped\": " + std::to_string(c.channel.acks_dropped) +
         ", \"duplicated\": " + std::to_string(c.channel.duplicated) +
         ", \"blackholed\": " + std::to_string(c.channel.blackholed) +
         ", \"partitions\": " + std::to_string(c.channel.partitions) + "}" +
         ", \"error\": \"" + json_escape(c.error) + "\"}";
  } else {
    s += "null";
  }
  s += ",\n";
  s += "  \"state_drill\": ";
  if (state_drill.run) {
    const auto& sd = state_drill;
    s += "{\"state_seed\": " + std::to_string(sd.state_seed) +
         ", \"replicas\": " + std::to_string(sd.replicas) +
         ", \"corruptions_scheduled\": " +
         std::to_string(sd.corruptions_scheduled) +
         ", \"corruptions_applied\": " +
         std::to_string(sd.corruptions_applied) +
         ", \"batches_injected\": " + std::to_string(sd.batches_injected) +
         ", \"batches_detected\": " + std::to_string(sd.batches_detected) +
         ", \"digest_detections\": " + std::to_string(sd.digest_detections) +
         ", \"sample_detections\": " + std::to_string(sd.sample_detections) +
         ", \"max_ticks_to_detect\": " +
         std::to_string(sd.max_ticks_to_detect) +
         ", \"packets_sampled\": " + std::to_string(sd.packets_sampled) +
         ", \"sample_divergences\": " +
         std::to_string(sd.sample_divergences) +
         ", \"packets_quarantined\": " +
         std::to_string(sd.packets_quarantined) +
         ", \"quarantine_signals\": " +
         std::to_string(sd.quarantine_signals) +
         ", \"scrubs\": " + std::to_string(sd.scrubs) +
         ", \"scrub_ops\": " + std::to_string(sd.scrub_ops) +
         ", \"repaired_identical\": " +
         std::string(sd.repaired_identical ? "true" : "false") +
         ", \"false_positives\": " + std::to_string(sd.false_positives) +
         ", \"final_sweep_clean\": " +
         std::string(sd.final_sweep_clean ? "true" : "false") +
         ", \"counters_agree\": " +
         std::string(sd.counters_agree ? "true" : "false") +
         ", \"error\": \"" + json_escape(sd.error) + "\"}";
  } else {
    s += "null";
  }
  s += ",\n";
  s += "  \"error\": \"" + json_escape(error) + "\"\n";
  s += "}\n";
  return s;
}

}  // namespace dejavu::control
