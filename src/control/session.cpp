#include "control/session.hpp"

#include <algorithm>
#include <tuple>

namespace dejavu::control {

namespace {

/// Ordered stand-in for an EpochWindow (map keys).
std::pair<std::uint32_t, std::uint32_t> win_key(sim::EpochWindow w) {
  return {w.from, w.to};
}

/// Ordered stand-in for a ternary key (TernaryField is not ordered).
std::vector<std::pair<std::uint64_t, std::uint64_t>> tern_key(
    const std::vector<net::TernaryField>& key) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> k;
  k.reserve(key.size());
  for (const auto& f : key) k.emplace_back(f.value, f.mask);
  return k;
}

}  // namespace

// ---------------------------------------------------------------------------
// snapshot_diff

WriteCommand snapshot_diff(const Snapshot& actual, const Snapshot& intended) {
  // Removals ship before additions so an overwrite (same key+window,
  // different action) never trips the overlap validation, and register
  // cells after them; the scalar state is set once they all commit.
  WriteCommand plan;
  plan.verb = WriteCommand::Verb::kReconcile;
  std::vector<RuleOp> adds;
  std::vector<RuleOp> regs;

  using TableId = std::pair<std::string, std::string>;
  using ExactId = std::pair<std::vector<std::uint64_t>,
                            std::pair<std::uint32_t, std::uint32_t>>;
  using TernId = std::tuple<std::vector<std::pair<std::uint64_t, std::uint64_t>>,
                            std::int32_t,
                            std::pair<std::uint32_t, std::uint32_t>>;

  struct TableView {
    std::map<ExactId, const sim::RuntimeTable::ExactEntry*> exact;
    std::map<TernId, const sim::RuntimeTable::TernaryEntry*> ternary;
  };

  auto index_tables = [](const Snapshot& snap) {
    std::map<TableId, TableView> views;
    for (const Snapshot::TableState& t : snap.tables) {
      TableView& view = views[{t.control, t.table}];
      for (const auto& e : t.exact) {
        view.exact[{e.key, win_key(e.window)}] = &e;
      }
      for (const auto& e : t.ternary) {
        view.ternary[{tern_key(e.key), e.priority, win_key(e.window)}] = &e;
      }
    }
    return views;
  };
  const auto have = index_tables(actual);
  const auto want = index_tables(intended);

  std::map<TableId, const TableView*> all;
  for (const auto& [id, view] : have) all.emplace(id, nullptr);
  for (const auto& [id, view] : want) all.emplace(id, nullptr);

  // One edit of the version `window` of an entry in table `id`; an
  // install when `action` is given.
  auto edit = [](const TableId& id, const sim::ActionCall* action,
                 sim::EpochWindow window) {
    RuleOp op;
    op.install = action != nullptr;
    op.control = id.first;
    op.table = id.second;
    if (action != nullptr) op.action = *action;
    op.window = window;
    return op;
  };
  static const TableView kEmpty;
  for (const auto& [id, unused] : all) {
    auto hit = have.find(id);
    auto wit = want.find(id);
    const TableView& h = hit != have.end() ? hit->second : kEmpty;
    const TableView& w = wit != want.end() ? wit->second : kEmpty;

    for (const auto& [eid, entry] : h.exact) {
      auto it = w.exact.find(eid);
      if (it != w.exact.end() && it->second->action == entry->action) continue;
      RuleOp op = edit(id, nullptr, entry->window);
      op.key = entry->key;
      plan.diff.ops.push_back(std::move(op));
    }
    for (const auto& [eid, entry] : w.exact) {
      auto it = h.exact.find(eid);
      if (it != h.exact.end() && it->second->action == entry->action) continue;
      RuleOp op = edit(id, &entry->action, entry->window);
      op.key = entry->key;
      adds.push_back(std::move(op));
    }

    for (const auto& [tid, entry] : h.ternary) {
      auto it = w.ternary.find(tid);
      if (it != w.ternary.end() && it->second->action == entry->action) {
        continue;
      }
      RuleOp op = edit(id, nullptr, entry->window);
      op.kind = RuleOp::Kind::kTernary;
      op.tkey = entry->key;
      op.priority = entry->priority;
      plan.diff.ops.push_back(std::move(op));
    }
    for (const auto& [tid, entry] : w.ternary) {
      auto it = h.ternary.find(tid);
      if (it != h.ternary.end() && it->second->action == entry->action) {
        continue;
      }
      RuleOp op = edit(id, &entry->action, entry->window);
      op.kind = RuleOp::Kind::kTernary;
      op.tkey = entry->key;
      op.priority = entry->priority;
      adds.push_back(std::move(op));
    }
  }

  // Registers: converge every differing cell (extras zero out) and
  // every bank tag.
  using RegId = std::pair<std::string, std::string>;
  std::map<RegId, const Snapshot::RegisterState*> have_regs;
  std::map<RegId, const Snapshot::RegisterState*> want_regs;
  for (const auto& r : actual.registers) have_regs[{r.control, r.name}] = &r;
  for (const auto& r : intended.registers) want_regs[{r.control, r.name}] = &r;
  std::map<RegId, const Snapshot::RegisterState*> all_regs = have_regs;
  all_regs.insert(want_regs.begin(), want_regs.end());
  for (const auto& [rid, unused] : all_regs) {
    auto hit = have_regs.find(rid);
    auto wit = want_regs.find(rid);
    const Snapshot::RegisterState* h =
        hit != have_regs.end() ? hit->second : nullptr;
    const Snapshot::RegisterState* w =
        wit != want_regs.end() ? wit->second : nullptr;
    std::map<std::uint64_t, std::uint64_t> cells;
    if (h != nullptr) {
      for (const auto& [index, value] : h->cells) cells.emplace(index, 0);
    }
    if (w != nullptr) {
      for (const auto& [index, value] : w->cells) cells[index] = value;
    }
    for (const auto& [index, intended_value] : cells) {
      const std::uint64_t actual_value =
          h != nullptr && h->cells.count(index) > 0 ? h->cells.at(index) : 0;
      if (actual_value == intended_value) continue;
      RuleOp op;
      op.kind = RuleOp::Kind::kRegister;
      op.control = rid.first;
      op.reg = rid.second;
      op.index = index;
      op.value = intended_value;
      regs.push_back(std::move(op));
    }
    const std::uint32_t actual_epoch = h != nullptr ? h->epoch : 0;
    const std::uint32_t intended_epoch = w != nullptr ? w->epoch : 0;
    if (actual_epoch != intended_epoch) {
      plan.bank_epochs[rid] = intended_epoch;
    }
  }

  if (actual.epoch != intended.epoch) plan.epoch = intended.epoch;
  if (actual.min_live_epoch != intended.min_live_epoch) {
    plan.min_live_epoch = intended.min_live_epoch;
  }

  for (std::vector<RuleOp>* from : {&adds, &regs}) {
    for (RuleOp& op : *from) plan.diff.ops.push_back(std::move(op));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// SwitchAgent

SwitchAgent::SwitchAgent(sim::DataPlane& dp, AgentOptions options)
    : dp_(&dp), options_(options) {}

std::uint64_t SwitchAgent::max_effect_count() const {
  std::uint64_t max = settled_max_;
  for (const auto& [id, count] : effects_) max = std::max<std::uint64_t>(max, count);
  return max;
}

AckMsg SwitchAgent::handle(const SessionMsg& msg) {
  // Master arbitration: the highest election id wins. A newer master
  // resets the dedup window — its seqs restart at 1.
  if (msg.election_id < master_) {
    ++stale_;
    AckMsg nack;
    nack.not_master = true;
    nack.seq = msg.seq;
    nack.epoch = dp_->epoch();
    nack.error = "stale election id " + std::to_string(msg.election_id) +
                 " (master is " + std::to_string(master_) + ")";
    return nack;
  }
  if (msg.election_id > master_) {
    // The deposed master's writes are nacked from now on: settled.
    for (const auto& [id, count] : effects_) {
      settled_max_ = std::max(settled_max_, count);
    }
    effects_.clear();
    master_ = msg.election_id;
    window_.clear();
    ack_floor_ = 0;
  }

  switch (msg.kind) {
    case SessionMsg::Kind::kHello:
    case SessionMsg::Kind::kHeartbeat: {
      AckMsg ack;
      ack.ok = true;
      ack.seq = msg.seq;
      ack.epoch = dp_->epoch();
      return ack;
    }
    case SessionMsg::Kind::kReadSnapshot: {
      AckMsg ack;
      ack.ok = true;
      ack.seq = msg.seq;
      ack.epoch = dp_->epoch();
      ack.snapshot = std::make_shared<const Snapshot>(take_snapshot(*dp_));
      return ack;
    }
    case SessionMsg::Kind::kWrite:
      break;
  }

  // Exactly-once: a seq at or below the floor, or still in the window,
  // already ran — return the (cached) ack without re-applying.
  if (msg.seq <= ack_floor_) {
    ++duplicates_;
    AckMsg dup;
    dup.ok = true;
    dup.duplicate = true;
    dup.seq = msg.seq;
    dup.epoch = dp_->epoch();
    return dup;
  }
  if (auto it = window_.find(msg.seq); it != window_.end()) {
    ++duplicates_;
    AckMsg dup = it->second;
    dup.duplicate = true;
    return dup;
  }

  AckMsg ack = apply(msg.write);
  ack.seq = msg.seq;
  ack.epoch = dp_->epoch();
  ++effects_[{master_, msg.seq}];
  ++writes_applied_;
  window_[msg.seq] = ack;
  while (window_.size() > options_.dedup_window) {
    // At or below the floor a seq never runs again: settle its count.
    auto first = window_.begin();
    ack_floor_ = std::max(ack_floor_, first->first);
    const auto effect = effects_.find({master_, first->first});
    settled_max_ = std::max(settled_max_, effect->second);
    effects_.erase(effect);
    window_.erase(first);
  }
  return ack;
}

AckMsg SwitchAgent::apply(const WriteCommand& cmd) {
  AckMsg ack;
  switch (cmd.verb) {
    case WriteCommand::Verb::kLegacyDiff: {
      Transaction txn(*dp_, options_.retry, injector_);
      fill_transaction(txn, cmd.diff);
      Transaction::Result res = txn.commit();
      ack.ok = res.committed;
      ack.applied = res.applied;
      ack.rolled_back = res.rolled_back;
      if (!res.committed) ack.error = "legacy diff failed: " + res.error;
      return ack;
    }
    case WriteCommand::Verb::kShadowDiff: {
      // Idempotent: a re-delivered shadow whose writes already landed
      // (ack lost, window evicted) is a no-op, never a double-install.
      if (shadow_observed(*dp_, cmd.diff, cmd.from_epoch, cmd.to_epoch)) {
        ack.ok = true;
        return ack;
      }
      Transaction txn(*dp_, options_.retry, injector_);
      fill_shadow_transaction(txn, cmd.diff, *dp_, cmd.from_epoch,
                              cmd.to_epoch);
      Transaction::Result res = txn.commit();
      ack.ok = res.committed;
      ack.applied = res.applied;
      ack.rolled_back = res.rolled_back;
      if (!res.committed) ack.error = "shadow install failed: " + res.error;
      return ack;
    }
    case WriteCommand::Verb::kFlip:
      // Tagged banks are skipped and the gate only moves forward, so a
      // duplicate flip is a no-op.
      apply_register_banks(*dp_, cmd.diff, cmd.to_epoch);
      if (dp_->epoch() < cmd.to_epoch) dp_->set_epoch(cmd.to_epoch);
      ack.ok = true;
      return ack;
    case WriteCommand::Verb::kDrain: {
      auto [pumped, flushed] = drain_epochs(*dp_, cmd.to_epoch, pump_);
      ack.drained = pumped;
      ack.flushed = flushed;
      ack.ok = true;
      return ack;
    }
    case WriteCommand::Verb::kCommitGc:
      ack.applied = dp_->gc_epochs(cmd.to_epoch);
      ack.ok = true;
      return ack;
    case WriteCommand::Verb::kRollback:
      undo_shadow(*dp_, cmd.diff, cmd.from_epoch, cmd.to_epoch);
      ack.ok = true;
      return ack;
    case WriteCommand::Verb::kReconcile:
      return apply_reconcile(cmd);
  }
  ack.error = "unknown verb";
  return ack;
}

AckMsg SwitchAgent::apply_reconcile(const WriteCommand& cmd) {
  AckMsg ack;
  // Atomic through the transaction's undo log: a failing edit rolls the
  // applied ones back, so no torn reconcile is ever visible. Each
  // install refuses an action its table cannot run, like any other.
  Transaction txn(*dp_, options_.retry);
  for (const RuleOp& op : cmd.diff.ops) txn.add(op);
  const Transaction::Result res = txn.commit();
  if (!res.committed) {
    ack.error = "reconcile failed (rolled back): " + res.error;
    return ack;
  }
  for (const auto& [bank, epoch] : cmd.bank_epochs) {
    dp_->set_register_epoch(bank.first, bank.second, epoch);
  }
  if (cmd.epoch) dp_->set_epoch(*cmd.epoch);
  if (cmd.min_live_epoch) {
    const std::uint32_t floor = *cmd.min_live_epoch;
    dp_->set_min_live_epoch(floor);
    // The raised floor invalidates punts stamped below it.
    if (floor > 0) dp_->flush_stale_punts(floor - 1);
  }
  ack.ok = true;
  ack.applied = cmd.edits();
  return ack;
}

// ---------------------------------------------------------------------------
// Session

const char* to_string(LinkState state) {
  switch (state) {
    case LinkState::kHealthy:
      return "healthy";
    case LinkState::kDegraded:
      return "degraded";
    case LinkState::kPartitioned:
      return "partitioned";
  }
  return "?";
}

std::string WriteResult::to_string() const {
  std::string s = "write seq=" + std::to_string(seq) + ": ";
  if (ok) {
    s += was_duplicate ? "ok (duplicate ack)" : "ok";
  } else if (gave_up) {
    s += "GAVE UP (channel lost)";
  } else if (not_master) {
    s += "rejected (not master)";
  } else {
    s += "failed";
  }
  s += " attempts=" + std::to_string(attempts) + " backoff=" +
       std::to_string(backoff_ms) + "ms";
  if (!error.empty()) s += " error: " + error;
  return s;
}

std::string ReconcileReport::to_string() const {
  std::string s = "reconcile: ";
  if (converged) {
    s += ops == 0 ? "already converged" : "converged";
  } else if (unreachable) {
    s += "UNREACHABLE";
  } else {
    s += "FAILED";
  }
  s += " (" + std::to_string(ops) + " ops)";
  if (!error.empty()) s += " error: " + error;
  return s;
}

Session::Session(Channel& channel, std::unique_ptr<sim::DataPlane> mirror,
                 SessionOptions options)
    : channel_(&channel), mirror_(std::move(mirror)), options_(options) {
  AgentOptions agent_options;
  agent_options.retry = options_.retry;
  mirror_agent_ = std::make_unique<SwitchAgent>(*mirror_, agent_options);
}

Session::~Session() = default;

std::optional<AckMsg> Session::exchange_with_retry(const SessionMsg& msg,
                                                   std::uint32_t* attempts,
                                                   std::uint64_t* backoff) {
  for (std::uint32_t attempt = 1; attempt <= options_.retry.max_attempts;
       ++attempt) {
    ++*attempts;
    std::optional<AckMsg> ack = channel_->exchange(msg);
    if (ack.has_value()) return ack;
    if (attempt < options_.retry.max_attempts) {
      *backoff += options_.retry.backoff_ms(attempt);
    }
  }
  return std::nullopt;
}

bool Session::hello() {
  SessionMsg msg;
  msg.kind = SessionMsg::Kind::kHello;
  msg.election_id = options_.election_id;
  mirror_agent_->handle(msg);
  std::uint32_t attempts = 0;
  std::uint64_t backoff = 0;
  std::optional<AckMsg> ack = exchange_with_retry(msg, &attempts, &backoff);
  stats_.total_backoff_ms += backoff;
  if (!ack.has_value()) {
    link_ = LinkState::kPartitioned;
    return false;
  }
  link_ = LinkState::kHealthy;
  heartbeat_miss_streak_ = 0;
  return ack->ok && !ack->not_master;
}

WriteResult Session::write(WriteCommand cmd) {
  WriteResult result;
  SessionMsg msg;
  msg.kind = SessionMsg::Kind::kWrite;
  msg.election_id = options_.election_id;
  msg.seq = next_seq_++;
  msg.write = std::move(cmd);
  result.seq = msg.seq;
  ++stats_.writes;

  // Intent first: the mirror applies at send time, so even a write the
  // channel swallows is part of the intended state reconciliation
  // restores after the partition heals.
  mirror_agent_->handle(msg);

  std::uint32_t attempts = 0;
  std::uint64_t backoff = 0;
  std::optional<AckMsg> ack = exchange_with_retry(msg, &attempts, &backoff);
  result.attempts = attempts;
  result.backoff_ms = backoff;
  stats_.write_attempts += attempts;
  if (attempts > 1) stats_.write_retries += attempts - 1;
  stats_.total_backoff_ms += backoff;

  if (!ack.has_value()) {
    result.gave_up = true;
    result.error = "channel lost: no ack after " + std::to_string(attempts) +
                   " attempts";
    ++stats_.writes_gave_up;
    link_ = LinkState::kPartitioned;
    return result;
  }
  link_ = LinkState::kHealthy;
  heartbeat_miss_streak_ = 0;
  result.ack = *ack;
  result.was_duplicate = ack->duplicate;
  if (ack->not_master) {
    result.not_master = true;
    result.error = ack->error;
    return result;
  }
  result.ok = ack->ok;
  if (!ack->ok) result.error = ack->error;
  return result;
}

bool Session::heartbeat() {
  ++stats_.heartbeats;
  SessionMsg msg;
  msg.kind = SessionMsg::Kind::kHeartbeat;
  msg.election_id = options_.election_id;
  // One probe, no retry: heartbeats are periodic, the *streak* is the
  // retry policy.
  std::optional<AckMsg> ack = channel_->exchange(msg);
  const bool healthy = ack.has_value() && !ack->not_master;
  if (healthy) {
    heartbeat_miss_streak_ = 0;
    link_ = LinkState::kHealthy;
  } else if (!ack.has_value()) {
    ++stats_.heartbeat_misses;
    ++heartbeat_miss_streak_;
    link_ = heartbeat_miss_streak_ >= kHeartbeatLossThreshold
                ? LinkState::kPartitioned
                : LinkState::kDegraded;
  }
  if (health_hook_) health_hook_(healthy);
  return healthy;
}

std::optional<Snapshot> Session::read_snapshot() {
  SessionMsg msg;
  msg.kind = SessionMsg::Kind::kReadSnapshot;
  msg.election_id = options_.election_id;
  std::uint32_t attempts = 0;
  std::uint64_t backoff = 0;
  std::optional<AckMsg> ack = exchange_with_retry(msg, &attempts, &backoff);
  stats_.total_backoff_ms += backoff;
  if (!ack.has_value()) {
    link_ = LinkState::kPartitioned;
    return std::nullopt;
  }
  link_ = LinkState::kHealthy;
  heartbeat_miss_streak_ = 0;
  if (!ack->ok || ack->snapshot == nullptr) return std::nullopt;
  return *ack->snapshot;
}

ReconcileReport Session::reconcile() {
  ReconcileReport report;
  ++stats_.reconciles;
  // A zombie write (abandoned by the session, delivered late by the
  // channel) can land between the readback and the reconcile write, so
  // converge-and-verify loops a bounded number of passes.
  constexpr int kMaxPasses = 3;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    std::optional<Snapshot> actual = read_snapshot();
    if (!actual.has_value()) {
      report.unreachable = true;
      report.error = "channel unreachable: snapshot readback failed";
      return report;
    }
    const Snapshot intended = take_snapshot(*mirror_);
    WriteCommand plan = snapshot_diff(*actual, intended);
    const std::size_t edits = plan.edits();
    if (edits == 0) {
      // Byte-identity is the contract, not just an empty diff.
      if (actual->to_text() == intended.to_text()) {
        report.converged = true;
        return report;
      }
      report.error = "empty diff but snapshots differ textually";
      return report;
    }
    report.ops += edits;
    stats_.reconcile_ops += edits;
    WriteResult wr = write(std::move(plan));
    if (!wr.ok) {
      report.unreachable = wr.gave_up;
      report.error = wr.error.empty() ? "reconcile write failed" : wr.error;
      return report;
    }
  }
  report.error = "did not converge within " + std::to_string(kMaxPasses) +
                 " passes";
  return report;
}

}  // namespace dejavu::control
