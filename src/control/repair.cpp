#include "control/repair.hpp"

#include <algorithm>

#include "compile/report.hpp"
#include "merge/compose.hpp"
#include "merge/framework.hpp"
#include "route/routing.hpp"
#include "verify/verify.hpp"

namespace dejavu::control {

HealthMonitor::HealthMonitor(sim::DataPlane& dp,
                             const sfc::PolicySet& policies,
                             HealthThresholds thresholds)
    : dp_(&dp), policies_(&policies), thresholds_(thresholds) {
  reset();
}

std::optional<std::uint64_t> HealthMonitor::gate_hits(
    const std::string& nf) const {
  auto tables = dp_->tables_named(merge::check_next_nf_table(nf));
  if (tables.empty()) return std::nullopt;  // ungated (entry NF)
  std::uint64_t hits = 0;
  for (const sim::RuntimeTable* t : tables) hits += t->hits();
  return hits;
}

namespace {

// Two-sided debounce shared by the channel and state signals: `bad`
// consecutive bad notes enter the unhealthy latch, `good` consecutive
// good notes leave it. Mixed (flapping) sequences move neither way.
void debounce(bool ok, std::uint32_t bad, std::uint32_t good,
              std::uint32_t& bad_streak, std::uint32_t& good_streak,
              bool& unhealthy) {
  if (!ok) {
    good_streak = 0;
    ++bad_streak;
    if (bad_streak >= bad) unhealthy = true;
    return;
  }
  bad_streak = 0;
  if (!unhealthy) return;
  ++good_streak;
  if (good_streak >= good) {
    unhealthy = false;
    good_streak = 0;
  }
}

}  // namespace

void HealthMonitor::note_channel(bool healthy) {
  debounce(healthy, thresholds_.channel_sustained_misses,
           thresholds_.channel_recovery_streak, channel_miss_streak_,
           channel_heal_streak_, channel_unhealthy_);
}

void HealthMonitor::note_state(bool clean) {
  debounce(clean, thresholds_.state_sustained_mismatches,
           thresholds_.state_recovery_streak, state_mismatch_streak_,
           state_heal_streak_, state_unhealthy_);
}

void HealthMonitor::reset() {
  health_.clear();
  last_hits_.clear();
  windows_observed_ = 0;
  channel_miss_streak_ = 0;
  channel_heal_streak_ = 0;
  channel_unhealthy_ = false;
  state_mismatch_streak_ = 0;
  state_heal_streak_ = 0;
  state_unhealthy_ = false;
  for (const std::string& nf : policies_->all_nfs()) {
    if (auto hits = gate_hits(nf)) last_hits_[nf] = *hits;
  }
}

void HealthMonitor::observe(
    const std::map<std::uint16_t, PathWindow>& windows) {
  ++windows_observed_;
  // Current gate deltas for every observable NF.
  std::map<std::string, std::uint64_t> delta;
  for (const std::string& nf : policies_->all_nfs()) {
    auto hits = gate_hits(nf);
    if (!hits) continue;
    delta[nf] = *hits - last_hits_[nf];
    last_hits_[nf] = *hits;
    NfHealth& h = health_[nf];
    h.nf = nf;
    h.gate_delta = delta[nf];
  }

  std::uint64_t offered_total = 0;
  for (const auto& [path_id, w] : windows) offered_total += w.offered;
  if (offered_total < thresholds_.min_window_packets) return;

  // Per suffering path, the culprit is the first NF (chain order)
  // whose gate went silent while everything before it still fired.
  std::set<std::string> culprits;
  for (const auto& [path_id, w] : windows) {
    if (w.offered == 0) continue;
    const double drop_fraction =
        static_cast<double>(w.dropped) / static_cast<double>(w.offered);
    if (drop_fraction <= thresholds_.max_drop_fraction) continue;
    const sfc::ChainPolicy* policy = policies_->find(path_id);
    if (policy == nullptr) continue;
    bool upstream_fired = true;  // offered > 0 covers the chain head
    for (const std::string& nf : policy->nfs) {
      auto it = delta.find(nf);
      if (it == delta.end()) continue;  // ungated: no signal
      if (it->second == 0 && upstream_fired) {
        culprits.insert(nf);
        break;
      }
      upstream_fired = it->second > 0;
    }
  }

  for (auto& [nf, h] : health_) {
    if (culprits.count(nf) > 0) {
      ++h.suspect_windows;
    } else {
      h.suspect_windows = 0;
    }
    h.unhealthy = h.suspect_windows >= thresholds_.sustained_windows;
  }
}

std::vector<std::string> HealthMonitor::unhealthy() const {
  std::vector<std::string> out;
  for (const auto& [nf, h] : health_) {
    if (h.unhealthy) out.push_back(nf);
  }
  return out;
}

std::string RepairReport::to_string() const {
  std::string s = "repair " + strategy + " " + nf + ": ";
  s += succeeded ? "succeeded" : (attempted ? "failed" : "refused");
  s += " (removed " + std::to_string(rules_removed) + ", installed " +
       std::to_string(rules_installed) + " rules";
  if (attempted) {
    s += std::string(", verify ") + (verify_ok ? "ok" : "FAILED");
    s += std::string(", explore ") + (explore_ok ? "ok" : "FAILED");
  }
  s += ")";
  if (!error.empty()) s += " error: " + error;
  return s;
}

Snapshot nf_state_snapshot(sim::DataPlane& dp) {
  Snapshot snap = take_snapshot(dp);
  std::erase_if(snap.tables, [](const Snapshot::TableState& t) {
    return compile::is_framework_table(t.table);
  });
  return snap;
}

ChainRepair::ChainRepair(Deployment& deployment, RepairPolicy policy)
    : deployment_(&deployment), policy_(std::move(policy)) {}

std::string ChainRepair::bypass_policies(const std::string& nf,
                                         sfc::PolicySet& out) const {
  if (policy_.never_bypass.count(nf) > 0) {
    return "policy forbids bypassing " + nf;
  }
  bool used = false;
  for (const sfc::ChainPolicy& p : deployment_->policies().policies()) {
    sfc::ChainPolicy reduced = p;
    auto it = std::find(reduced.nfs.begin(), reduced.nfs.end(), nf);
    if (it != reduced.nfs.end()) {
      used = true;
      if (it + 1 == reduced.nfs.end()) {
        // The terminal NF (e.g. the Router) pops the SFC header and
        // picks the exit port; a chain without it strands its packets.
        return "cannot bypass terminal NF " + nf + " of path " +
               std::to_string(p.path_id);
      }
      reduced.nfs.erase(it);
      if (reduced.nfs.empty()) {
        return "bypassing " + nf + " would empty path " +
               std::to_string(p.path_id);
      }
    }
    out.add(std::move(reduced));
  }
  if (!used) return nf + " is not part of any chain";
  return "";
}

RepairReport ChainRepair::bypass(const std::string& nf,
                                 sim::FaultInjector* injector,
                                 DrainPump pump) {
  RepairReport report;
  report.nf = nf;
  report.strategy = "bypass";

  sfc::PolicySet reduced;
  report.error = bypass_policies(nf, reduced);
  if (!report.error.empty()) return report;

  sim::DataPlane& live = deployment_->dataplane();
  route::RoutingPlan plan = route::build_routing(
      reduced, deployment_->placement(), live.config());
  if (!plan.feasible) {
    report.error = "rerouted plan infeasible: " + plan.infeasible_reason;
    return report;
  }

  RuleDiff diff = routing_rule_diff(deployment_->routing(), plan, live);
  report.rules_installed = diff.installs();
  report.rules_removed = diff.removals();
  report.attempted = true;

  // Stage the repaired ruleset on a scratch switch: same program,
  // current live state, candidate diff applied — then prove it.
  sim::DataPlane staging(deployment_->program(), deployment_->ids(),
                         live.config());
  restore_snapshot(take_snapshot(live), staging);
  Transaction stage_txn(staging);
  fill_transaction(stage_txn, diff);
  Transaction::Result staged = stage_txn.commit();
  if (!staged.committed) {
    report.error = "staging failed: " + staged.error;
    return report;
  }
  verify::VerifyInput vin;
  vin.program = &deployment_->program();
  vin.ids = &deployment_->ids();
  vin.placement = &deployment_->placement();
  vin.policies = &reduced;
  vin.config = &live.config();
  vin.routing = &plan;
  verify::Report vreport = verify::run_all(vin);
  report.verify_ok = vreport.ok();
  explore::ExploreResult explored =
      explore::run(staging, reduced, policy_.explore_options);
  report.explore_ok = explored.report.ok();
  if (!report.verify_ok || !report.explore_ok) {
    report.error = "repair gates rejected the candidate ruleset";
    if (!report.verify_ok) report.error += "\n" + vreport.to_string();
    if (!report.explore_ok) {
      report.error += "\n" + explored.report.to_string();
    }
    return report;
  }

  // Two-phase hitless swap: in-flight packets (punted before the
  // repair, reinjected after) finish on the pre-repair generation.
  LiveUpdateOptions update_options;
  update_options.retry = policy_.retry;
  report.update =
      run_update(live, diff, nullptr, update_options, injector, std::move(pump));
  report.txn = report.update.shadow;
  if (!report.update.committed) {
    report.error = std::string("hitless swap failed") +
                   (report.update.rolled_back ? " (rolled back)" : "") + ": " +
                   report.update.error;
    return report;
  }
  deployment_->apply_repair(std::move(reduced), std::move(plan));
  report.succeeded = true;
  return report;
}

ChainRepair::Replacement ChainRepair::replace(const std::string& nf) {
  Replacement result;
  RepairReport& report = result.report;
  report.nf = nf;
  report.strategy = "replace";

  sfc::PolicySet reduced;
  report.error = bypass_policies(nf, reduced);
  if (!report.error.empty()) return result;
  report.attempted = true;

  // Rebuild with the failed NF's program dropped and the optimizer
  // free to re-place (and re-route recirculations for) the survivors.
  std::vector<p4ir::Program> programs;
  for (const p4ir::Program& p : deployment_->nf_programs()) {
    if (p.name() != nf) programs.push_back(p);
  }
  try {
    result.deployment = Deployment::build(
        std::move(programs), reduced, deployment_->dataplane().config(),
        deployment_->ids());
  } catch (const std::exception& e) {
    report.error = std::string("rebuild failed: ") + e.what();
    return result;
  }
  report.verify_ok = result.deployment->verification().ok();

  // Migrate surviving NF state (framework rules are freshly derived;
  // the failed NF's tables no longer exist and are filtered out).
  Snapshot snap = nf_state_snapshot(deployment_->dataplane());
  const std::string prefix = nf + ".";
  std::erase_if(snap.tables, [&prefix](const Snapshot::TableState& t) {
    return t.table.rfind(prefix, 0) == 0;
  });
  std::erase_if(snap.registers, [&prefix](const Snapshot::RegisterState& r) {
    return r.name.rfind(prefix, 0) == 0;
  });
  restore_snapshot(snap, result.deployment->dataplane());

  // Generation continuity: the rebuilt switch opens one epoch past the
  // deployment it replaces, so any packet still carrying an old stamp
  // at cutover drains instead of blending generations.
  const std::uint32_t old_epoch = deployment_->dataplane().epoch();
  result.deployment->dataplane().set_epoch(old_epoch + 1);
  result.deployment->dataplane().set_min_live_epoch(old_epoch + 1);
  const explore::ExploreResult& explored =
      result.deployment->run_explorer(policy_.explore_options);
  report.explore_ok = explored.report.ok();
  if (!report.explore_ok) {
    report.error = "explorer rejected the rebuilt deployment\n" +
                   explored.report.to_string();
    result.deployment.reset();
    return result;
  }
  report.succeeded = true;
  return result;
}

}  // namespace dejavu::control
