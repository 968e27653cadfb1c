#include "control/live_update.hpp"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "merge/compose.hpp"
#include "merge/framework.hpp"

namespace dejavu::control {

std::string UpdateReport::to_string() const {
  std::string s = "update " + std::to_string(from_epoch) + "->" +
                  std::to_string(to_epoch) + ": ";
  if (committed) {
    s += "committed";
  } else if (channel_lost) {
    s += "CHANNEL LOST mid-flight";
  } else if (crashed) {
    s += "CRASHED mid-flight";
  } else {
    s += rolled_back ? "rolled back" : "refused";
  }
  s += " (drained " + std::to_string(drained) + ", flushed " +
       std::to_string(flushed) + ")";
  if (!error.empty()) s += " error: " + error;
  return s;
}

std::string RecoveryReport::to_string() const {
  std::string s = "recovery: ";
  switch (action) {
    case RecoveryAction::kNone:
      return s + "no pending update";
    case RecoveryAction::kRolledBack:
      s += "rolled back";
      break;
    case RecoveryAction::kRolledForward:
      s += "rolled forward";
      break;
  }
  s += " update " + std::to_string(update_id) + " (" +
       std::to_string(from_epoch) + "->" + std::to_string(to_epoch) + ")";
  if (!detail.empty()) s += ": " + detail;
  return s;
}

namespace {

int rank(JournalState state) { return static_cast<int>(state); }

std::vector<sim::RuntimeTable*> resolve_op(sim::DataPlane& dp,
                                           const RuleOp& op) {
  if (!op.control.empty()) {
    sim::RuntimeTable* t = dp.table_in(op.control, op.table);
    if (t == nullptr) return {};
    return {t};
  }
  return dp.tables_named(op.table);
}

/// Dedup identity of a ternary op (TernaryField is not ordered).
std::string ternary_id(const RuleOp& op) {
  std::string s = op.table + "|" + std::to_string(op.priority);
  for (const auto& f : op.tkey) {
    s += "|" + std::to_string(f.value) + "/" + std::to_string(f.mask);
  }
  return s;
}

/// The ternary version of `op`'s key+priority with exactly `window`.
std::optional<std::size_t> ternary_version(const sim::RuntimeTable& rt,
                                           const RuleOp& op,
                                           sim::EpochWindow window) {
  for (const auto& v : rt.ternary_versions(op.tkey, op.priority)) {
    if (v.window == window) return v.handle;
  }
  return std::nullopt;
}

/// Does `rt` serve install `op`'s intended action at generation `to`?
bool install_visible(sim::RuntimeTable& rt, const RuleOp& op,
                     std::uint32_t to) {
  if (op.kind == RuleOp::Kind::kExact) {
    const auto e = rt.find_exact(op.key, to);
    return e && e->action == op.action;
  }
  for (const auto& v : rt.ternary_versions(op.tkey, op.priority)) {
    if (v.window.contains(to) && v.action == op.action) return true;
  }
  return false;
}

}  // namespace

bool shadow_observed(sim::DataPlane& dp, const RuleDiff& diff,
                     std::uint32_t from, std::uint32_t to) {
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister) continue;
    auto tables = resolve_op(dp, op);
    if (tables.empty()) return false;
    for (sim::RuntimeTable* rt : tables) {
      if (op.install) {
        if (!install_visible(*rt, op, to)) return false;
      } else if (op.kind == RuleOp::Kind::kExact) {
        for (const auto& v : rt->exact_versions(op.key)) {
          if (v.window.open() && v.window.from <= from) return false;
        }
      } else if (auto h = rt->find_ternary(op.tkey, op.priority)) {
        if (rt->ternary_window(*h).from <= from) return false;
      }
    }
  }
  return true;
}

std::pair<std::size_t, std::size_t> shadow_install_visibility(
    sim::DataPlane& dp, const RuleDiff& diff, std::uint32_t to) {
  std::size_t visible = 0;
  std::size_t total = 0;
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister || !op.install) continue;
    ++total;
    for (sim::RuntimeTable* rt : resolve_op(dp, op)) {
      if (install_visible(*rt, op, to)) {
        ++visible;
        break;
      }
    }
  }
  return {visible, total};
}

void apply_register_banks(sim::DataPlane& dp, const RuleDiff& diff,
                          std::uint32_t to) {
  std::map<std::pair<std::string, std::string>, std::vector<const RuleOp*>>
      banks;
  for (const RuleOp& op : diff.ops) {
    if (op.kind != RuleOp::Kind::kRegister) continue;
    banks[{op.control, op.reg}].push_back(&op);
  }
  for (const auto& [bank, ops] : banks) {
    if (dp.register_epoch(bank.first, bank.second) == to) {
      continue;  // this bank's writes already landed (crash or re-send)
    }
    auto* cells = dp.register_array(bank.first, bank.second);
    if (cells == nullptr) continue;
    for (const RuleOp* op : ops) {
      if (op->index < cells->size()) (*cells)[op->index] = op->value;
    }
    dp.set_register_epoch(bank.first, bank.second, to);
  }
}

std::pair<std::uint64_t, std::uint64_t> drain_epochs(sim::DataPlane& dp,
                                                     std::uint32_t to,
                                                     std::uint32_t max_rounds,
                                                     const DrainPump& pump) {
  std::uint64_t pumped = 0;
  std::uint32_t rounds = 0;
  while (pump && dp.punts_outstanding_below(to) > 0 && rounds < max_rounds) {
    pumped += pump();
    ++rounds;
  }
  const std::uint64_t flushed = dp.flush_stale_punts(to - 1);
  return {pumped, flushed};
}

void fill_shadow_transaction(Transaction& txn, const RuleDiff& diff,
                             sim::DataPlane& dp, std::uint32_t from,
                             std::uint32_t to) {
  // Retires are queued before installs: a shadow window [to, open]
  // overlaps the live [x, open] version until the old one is capped at
  // `from`.
  std::set<std::tuple<std::string, std::string, std::vector<std::uint64_t>>>
      retiring_exact;
  std::set<std::string> retiring_ternary;
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister || op.install) continue;
    if (op.kind == RuleOp::Kind::kExact) {
      if (op.control.empty()) {
        txn.retire_exact(op.table, op.key, from);
      } else {
        txn.retire_exact_in(op.control, op.table, op.key, from);
      }
      retiring_exact.insert({op.control, op.table, op.key});
    } else {
      txn.retire_ternary(op.table, op.tkey, op.priority, from);
      retiring_ternary.insert(ternary_id(op));
    }
  }
  // An install whose key already has a live version is an overwrite:
  // the old version retires (generation `from` keeps seeing it) and
  // the new one rides in shadowed.
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister || !op.install) continue;
    if (op.kind == RuleOp::Kind::kExact) {
      if (retiring_exact.count({op.control, op.table, op.key}) > 0) continue;
      bool live = false;
      for (sim::RuntimeTable* rt : resolve_op(dp, op)) {
        const auto e = rt->find_exact(op.key);
        live |= e && e->window.from <= from;
      }
      if (!live) continue;
      if (op.control.empty()) {
        txn.retire_exact(op.table, op.key, from);
      } else {
        txn.retire_exact_in(op.control, op.table, op.key, from);
      }
      retiring_exact.insert({op.control, op.table, op.key});
    } else {
      if (retiring_ternary.count(ternary_id(op)) > 0) continue;
      bool live = false;
      for (sim::RuntimeTable* rt : resolve_op(dp, op)) {
        auto h = rt->find_ternary(op.tkey, op.priority);
        live |= h && rt->ternary_window(*h).from <= from;
      }
      if (!live) continue;
      txn.retire_ternary(op.table, op.tkey, op.priority, from);
      retiring_ternary.insert(ternary_id(op));
    }
  }
  const sim::EpochWindow shadow_window{to, sim::kEpochOpen};
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister || !op.install) continue;
    if (op.kind == RuleOp::Kind::kExact) {
      if (op.control.empty()) {
        txn.install_exact(op.table, op.key, op.action, shadow_window);
      } else {
        txn.install_exact_in(op.control, op.table, op.key, op.action,
                             shadow_window);
      }
    } else {
      txn.install_ternary(op.table, op.tkey, op.priority, op.action,
                          shadow_window);
    }
  }
}

void undo_shadow(sim::DataPlane& dp, const RuleDiff& diff, std::uint32_t from,
                 std::uint32_t to) {
  const sim::EpochWindow shadow_window{to, sim::kEpochOpen};
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister || !op.install) continue;
    for (sim::RuntimeTable* rt : resolve_op(dp, op)) {
      if (op.kind == RuleOp::Kind::kExact) {
        rt->remove_exact_version(op.key, shadow_window);
      } else if (auto h = ternary_version(*rt, op, shadow_window)) {
        rt->erase_ternary(*h);
      }
    }
  }
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister) continue;
    for (sim::RuntimeTable* rt : resolve_op(dp, op)) {
      if (op.kind == RuleOp::Kind::kExact) {
        rt->unretire_exact(op.key, from);
      } else {
        for (const auto& v : rt->ternary_versions(op.tkey, op.priority)) {
          if (v.window.to == from) rt->unretire_ternary(v.handle, from);
        }
      }
    }
  }
  for (const RuleOp& op : diff.ops) {
    if (op.kind != RuleOp::Kind::kRegister) continue;
    if (dp.register_epoch(op.control, op.reg) != to) continue;
    auto* cells = dp.register_array(op.control, op.reg);
    if (cells != nullptr && op.index < cells->size()) {
      (*cells)[op.index] = op.old_value;
    }
  }
  for (const RuleOp& op : diff.ops) {
    if (op.kind != RuleOp::Kind::kRegister) continue;
    if (dp.register_epoch(op.control, op.reg) == to) {
      dp.set_register_epoch(op.control, op.reg, op.old_bank_epoch);
    }
  }
  if (dp.epoch() >= to) dp.set_epoch(from);
}

std::string capture_register_intent(sim::DataPlane& dp, RuleDiff& intent) {
  for (RuleOp& op : intent.ops) {
    if (op.kind == RuleOp::Kind::kRegister) {
      auto* cells = dp.register_array(op.control, op.reg);
      if (cells == nullptr) {
        return "unknown register " + op.control + "." + op.reg;
      }
      if (op.index >= cells->size()) {
        return "register " + op.reg + " index " + std::to_string(op.index) +
               " out of range";
      }
      op.old_value = (*cells)[op.index];
      op.old_bank_epoch = dp.register_epoch(op.control, op.reg);
    } else if (op.kind == RuleOp::Kind::kTernary && !op.control.empty()) {
      return "control-scoped ternary ops are not supported";
    }
  }
  return "";
}

namespace {

/// Sends one phase command to the switch and reports the outcome.
using PhaseWriter = std::function<WriteResult(WriteCommand)>;

/// The update's phases in WAL order: the command each sends, the
/// journal state its confirmation records, and the crash point after it.
struct Phase {
  WriteCommand::Verb verb;
  JournalState done;
  CrashPoint crash;
  const char* name;
};
constexpr Phase kPhases[] = {
    {WriteCommand::Verb::kShadowDiff, JournalState::kShadowed,
     CrashPoint::kAfterShadow, "shadow"},
    {WriteCommand::Verb::kFlip, JournalState::kFlipped, CrashPoint::kAfterFlip,
     "flip"},
    {WriteCommand::Verb::kDrain, JournalState::kDrained,
     CrashPoint::kAfterDrain, "drain"},
    {WriteCommand::Verb::kCommitGc, JournalState::kCommitted, CrashPoint::kNone,
     "commit"},
};

WriteCommand phase_command(WriteCommand::Verb verb, const RuleDiff& diff,
                           std::uint32_t from, std::uint32_t to) {
  WriteCommand cmd;
  cmd.verb = verb;
  // Drain and gc act on epochs alone; only the others ship the diff.
  if (verb != WriteCommand::Verb::kDrain &&
      verb != WriteCommand::Verb::kCommitGc) {
    cmd.diff = diff;
  }
  cmd.from_epoch = from;
  cmd.to_epoch = to;
  return cmd;
}

/// The journal note a confirmed phase carries.
std::string phase_note(WriteCommand::Verb verb, const AckMsg& ack) {
  if (verb == WriteCommand::Verb::kDrain) {
    return "pumped " + std::to_string(ack.drained) + " flushed " +
           std::to_string(ack.flushed);
  }
  if (verb == WriteCommand::Verb::kCommitGc) {
    return "gc removed " + std::to_string(ack.applied);
  }
  return "";
}

/// The update sequence. `state` is what the controller believes the
/// switch holds (the switch itself, or the session's mirror): it names
/// the epochs and supplies the register pre-images.
UpdateReport sequence_update(const PhaseWriter& write, sim::DataPlane& state,
                             const RuleDiff& diff, Journal* journal,
                             CrashPoint crash_point) {
  UpdateReport report;
  report.from_epoch = state.epoch();
  report.to_epoch = report.from_epoch + 1;
  const std::uint32_t from = report.from_epoch;
  const std::uint32_t to = report.to_epoch;

  if (diff.empty()) {
    report.error = "refusing an empty update diff";
    return report;
  }

  // Capture pre-update register state into the journaled intent, so a
  // post-crash rollback can restore it from the journal alone.
  RuleDiff intent = diff;
  const std::string invalid = capture_register_intent(state, intent);

  if (journal != nullptr) {
    report.update_id = journal->begin(from, to, intent);
  }
  auto mark = [&](JournalState done, std::string note) {
    if (journal != nullptr) {
      journal->append(report.update_id, done, std::move(note));
    }
  };

  if (!invalid.empty()) {
    report.error = invalid;
    mark(JournalState::kAborted, invalid);
    return report;
  }

  for (const Phase& phase : kPhases) {
    const WriteResult wr = write(phase_command(phase.verb, intent, from, to));
    if (wr.gave_up) {
      report.channel_lost = true;
      report.crashed = true;
      report.error = std::string("channel lost during the ") + phase.name +
                     " phase; journal holds the last confirmed phase";
      return report;
    }
    const bool shadow = phase.verb == WriteCommand::Verb::kShadowDiff;
    if (shadow) {
      report.shadow.committed = wr.ok;
      report.shadow.attempts = wr.attempts;
      report.shadow.total_backoff_ms = wr.backoff_ms;
      report.shadow.applied = wr.ack.applied;
      report.shadow.rolled_back = wr.ack.rolled_back;
      report.shadow.error = wr.error;
    }
    if (!wr.ok) {
      report.error = wr.error;
      if (shadow) {
        report.rolled_back = wr.ack.rolled_back;
        mark(JournalState::kAborted, wr.error);
      }
      return report;
    }
    if (phase.verb == WriteCommand::Verb::kDrain) {
      report.drained = wr.ack.drained;
      report.flushed = wr.ack.flushed;
    }
    mark(phase.done, phase_note(phase.verb, wr.ack));
    if (phase.crash != CrashPoint::kNone && phase.crash == crash_point) {
      report.crashed = true;
      report.error = std::string("controller crashed after the ") +
                     phase.name + " phase";
      return report;
    }
  }
  report.committed = true;
  return report;
}

/// The recovery sequence. `observed` is the switch state as read back:
/// the decision comes from it AND the journal, never the journal alone.
RecoveryReport sequence_recovery(const PhaseWriter& write,
                                 sim::DataPlane& observed, Journal& journal) {
  RecoveryReport report;
  auto pending = journal.pending();
  if (!pending) return report;
  report.update_id = pending->update_id;
  report.from_epoch = pending->from_epoch;
  report.to_epoch = pending->to_epoch;
  // A copy: appending to the journal may move the record it points at.
  const RuleDiff diff = *pending->diff;
  const std::uint32_t from = pending->from_epoch;
  const std::uint32_t to = pending->to_epoch;
  const int last = rank(pending->last_state);

  // The gate already moved, or the full shadow is visible on the
  // switch: the writes landed, so the update rolls forward — adopt,
  // never reinstall. Anything less rolls back.
  const bool flipped =
      observed.epoch() >= to || last >= rank(JournalState::kFlipped);
  const bool shadowed = last >= rank(JournalState::kShadowed) ||
                        shadow_observed(observed, diff, from, to);

  if (!flipped && !shadowed) {
    // Roll back from the observed state only: remove whatever fraction
    // of the shadow landed, re-open whatever was retired, restore
    // register banks that were already tagged with the new generation.
    const WriteResult wr =
        write(phase_command(WriteCommand::Verb::kRollback, diff, from, to));
    if (!wr.ok) {
      report.detail = "channel lost during rollback";
      return report;
    }
    journal.append(pending->update_id, JournalState::kRolledBack,
                   "recovery: shadow incomplete, undone from observed state");
    report.action = RecoveryAction::kRolledBack;
    report.detail = "shadow incomplete when the controller stopped";
    return report;
  }

  if (last < rank(JournalState::kShadowed)) {
    journal.append(pending->update_id, JournalState::kShadowed,
                   "recovery: adopted shadow observed on the switch");
  }
  for (const Phase& phase : kPhases) {
    if (phase.verb == WriteCommand::Verb::kShadowDiff) continue;
    const WriteResult wr = write(phase_command(phase.verb, diff, from, to));
    if (!wr.ok) {
      report.detail =
          std::string("channel lost during roll-forward ") + phase.name;
      return report;
    }
    if (phase.verb == WriteCommand::Verb::kDrain) {
      report.drained = wr.ack.drained;
      report.flushed = wr.ack.flushed;
    }
    if (last < rank(phase.done)) {
      const std::string note = phase_note(phase.verb, wr.ack);
      journal.append(pending->update_id, phase.done,
                     note.empty() ? "recovery" : "recovery: " + note);
    }
  }
  report.action = RecoveryAction::kRolledForward;
  report.detail = "resumed from " + std::string(to_string(pending->last_state));
  return report;
}

/// The direct entry points' switch side: a channel-less agent over
/// `dp`, with the options' retry and drain budget.
SwitchAgent local_agent(sim::DataPlane& dp, const LiveUpdateOptions& options,
                        sim::FaultInjector* injector, DrainPump pump) {
  SwitchAgent agent(dp, AgentOptions{.retry = options.retry,
                                     .max_drain_rounds =
                                         options.max_drain_rounds});
  agent.set_injector(injector);
  agent.set_drain_pump(std::move(pump));
  return agent;
}

/// Executes each command on `agent` at once, without arbitration or
/// dedup: one attempt, no channel.
PhaseWriter local_writer(SwitchAgent& agent) {
  return [&agent](WriteCommand cmd) {
    WriteResult wr;
    wr.ack = agent.apply(cmd);
    wr.ok = wr.ack.ok;
    wr.attempts = 1;
    wr.error = wr.ack.error;
    return wr;
  };
}

PhaseWriter session_writer(Session& session) {
  return [&session](WriteCommand cmd) { return session.write(std::move(cmd)); };
}

}  // namespace

UpdateReport run_update(sim::DataPlane& dp, const RuleDiff& diff,
                        Journal* journal, LiveUpdateOptions options,
                        sim::FaultInjector* injector, DrainPump pump) {
  SwitchAgent agent = local_agent(dp, options, injector, std::move(pump));
  return sequence_update(local_writer(agent), dp, diff, journal,
                         options.crash_point);
}

RecoveryReport recover(sim::DataPlane& dp, Journal& journal,
                       LiveUpdateOptions options, DrainPump pump) {
  SwitchAgent agent = local_agent(dp, options, nullptr, std::move(pump));
  return sequence_recovery(local_writer(agent), dp, journal);
}

UpdateReport run_update_via_session(Session& session, const RuleDiff& diff,
                                    Journal* journal,
                                    LiveUpdateOptions options) {
  // The mirror stands in for the switch: byte-identical to it when the
  // session is converged, which an update demands.
  return sequence_update(session_writer(session), session.mirror(), diff,
                         journal, options.crash_point);
}

RecoveryReport recover_via_session(Session& session, Journal& journal,
                                   LiveUpdateOptions /*options*/) {
  if (!journal.pending()) return {};
  std::optional<Snapshot> actual = session.read_snapshot();
  if (!actual.has_value()) {
    RecoveryReport report;
    report.detail = "channel unreachable; recovery deferred";
    return report;  // action kNone, journal untouched
  }
  const sim::DataPlane& mirror = session.mirror();
  sim::DataPlane observed(mirror.program(), mirror.ids(), mirror.config());
  restore_snapshot(*actual, observed);
  return sequence_recovery(session_writer(session), observed, journal);
}

std::string committed_reference(sim::DataPlane& dp, const RuleDiff& diff,
                                std::string* error) {
  sim::DataPlane scratch(dp.program(), dp.ids(), dp.config());
  restore_snapshot(take_snapshot(dp), scratch);
  const UpdateReport report = run_update(scratch, diff);
  if (!report.committed) {
    if (error != nullptr) *error = report.error;
    return "";
  }
  return take_snapshot(scratch).to_text();
}

RuleDiff routing_rule_diff(const route::RoutingPlan& from,
                           const route::RoutingPlan& to, sim::DataPlane& dp) {
  RuleDiff diff;
  auto branching_action = [](const route::BranchingRule& rule) {
    sim::ActionCall call;
    if (rule.kind == route::BranchingRule::Kind::kResubmit) {
      call.action = merge::kActRouteResubmit;
    } else {
      call.action = merge::kActRouteToEgress;
      call.args["port"] = rule.port;
    }
    return call;
  };

  using BranchKey = std::tuple<std::string, std::uint16_t, std::uint8_t>;
  std::map<BranchKey, sim::ActionCall> old_branch;
  std::map<BranchKey, sim::ActionCall> new_branch;
  for (const route::BranchingRule& r : from.branching) {
    old_branch[{merge::pipelet_control_name(r.pipelet), r.path_id,
                r.service_index}] = branching_action(r);
  }
  for (const route::BranchingRule& r : to.branching) {
    new_branch[{merge::pipelet_control_name(r.pipelet), r.path_id,
                r.service_index}] = branching_action(r);
  }
  for (const auto& entry : old_branch) {
    const BranchKey& key = entry.first;
    if (new_branch.count(key) == 0) {
      RuleOp op;
      op.install = false;
      op.control = std::get<0>(key);
      op.table = merge::kBranchingTable;
      op.key = {std::get<1>(key), std::get<2>(key)};
      diff.ops.push_back(std::move(op));
    }
  }
  for (const auto& [key, action] : new_branch) {
    auto it = old_branch.find(key);
    if (it != old_branch.end() && it->second == action) {
      // Both plans agree — but the fault being repaired may have
      // evicted the live entry (that is often the sabotage itself), so
      // only skip when the switch really holds the desired rule.
      sim::RuntimeTable* t =
          dp.table_in(std::get<0>(key), merge::kBranchingTable);
      const auto live =
          t != nullptr
              ? t->find_exact({std::get<1>(key), std::get<2>(key)})
              : std::nullopt;
      if (live && live->action == action) continue;
    }
    RuleOp op;
    op.control = std::get<0>(key);
    op.table = merge::kBranchingTable;
    op.key = {std::get<1>(key), std::get<2>(key)};
    op.action = action;
    diff.ops.push_back(std::move(op));
  }

  // Check-gate entries: keyed {path, index, toCpu=0, drop=0} in the
  // NF's check table. NFs without a check table (the entry NF) have
  // no installable gate — skip, matching install_routing.
  auto check_key = [](const route::CheckRule& r) {
    return std::vector<std::uint64_t>{r.path_id, r.service_index, 0, 0};
  };
  auto has_gate = [&dp](const std::string& nf) {
    return !dp.tables_named(merge::check_next_nf_table(nf)).empty();
  };
  std::set<std::tuple<std::string, std::uint16_t, std::uint8_t>> old_checks;
  std::set<std::tuple<std::string, std::uint16_t, std::uint8_t>> new_checks;
  for (const route::CheckRule& r : from.checks) {
    old_checks.insert({r.nf, r.path_id, r.service_index});
  }
  for (const route::CheckRule& r : to.checks) {
    new_checks.insert({r.nf, r.path_id, r.service_index});
  }
  for (const route::CheckRule& r : from.checks) {
    if (new_checks.count({r.nf, r.path_id, r.service_index}) > 0) continue;
    if (!has_gate(r.nf)) continue;
    RuleOp op;
    op.install = false;
    op.table = merge::check_next_nf_table(r.nf);
    op.key = check_key(r);
    diff.ops.push_back(std::move(op));
  }
  for (const route::CheckRule& r : to.checks) {
    if (old_checks.count({r.nf, r.path_id, r.service_index}) > 0) {
      // Same live-existence caveat as branching entries above.
      bool live_everywhere = true;
      for (sim::RuntimeTable* t :
           dp.tables_named(merge::check_next_nf_table(r.nf))) {
        live_everywhere &= t->find_exact(check_key(r)).has_value();
      }
      if (live_everywhere) continue;
    }
    if (!has_gate(r.nf)) continue;
    RuleOp op;
    op.table = merge::check_next_nf_table(r.nf);
    op.key = check_key(r);
    op.action = sim::ActionCall{merge::check_hit_action(r.nf), {}};
    diff.ops.push_back(std::move(op));
  }

  // Planned removals may already be gone from the live switch (the
  // very fault being repaired can have evicted them); removing a
  // phantom entry would fail the whole transaction, so drop those.
  std::erase_if(diff.ops, [&dp](const RuleOp& op) {
    if (op.install) return false;
    if (!op.control.empty()) {
      sim::RuntimeTable* t = dp.table_in(op.control, op.table);
      return t == nullptr || !t->find_exact(op.key);
    }
    for (sim::RuntimeTable* t : dp.tables_named(op.table)) {
      if (t->find_exact(op.key)) return false;
    }
    return true;
  });
  return diff;
}

void fill_transaction(Transaction& txn, const RuleDiff& diff) {
  // Removals first: an overwrite-install of a key another rule is
  // about to vacate must not race the capacity check.
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister || op.install) continue;
    if (op.kind == RuleOp::Kind::kExact) {
      if (op.control.empty()) {
        txn.remove_exact(op.table, op.key);
      } else {
        txn.remove_exact_in(op.control, op.table, op.key);
      }
    } else {
      txn.remove_ternary(op.table, op.tkey, op.priority);
    }
  }
  for (const RuleOp& op : diff.ops) {
    if (op.kind == RuleOp::Kind::kRegister || !op.install) continue;
    if (op.kind == RuleOp::Kind::kExact) {
      if (op.control.empty()) {
        txn.install_exact(op.table, op.key, op.action);
      } else {
        txn.install_exact_in(op.control, op.table, op.key, op.action);
      }
    } else {
      txn.install_ternary(op.table, op.tkey, op.priority, op.action);
    }
  }
  for (const RuleOp& op : diff.ops) {
    if (op.kind != RuleOp::Kind::kRegister) continue;
    txn.write_register(op.control, op.reg, op.index, op.value);
  }
}

}  // namespace dejavu::control
