#include "control/session.hpp"

#include <algorithm>
#include <compare>
#include <span>
#include <tuple>

namespace dejavu::control {

namespace {

using Table = Snapshot::TableState;

/// Walk two sorted sequences of `n` and `m` items in step: `cmp(i, j)`
/// compares item i of the first with item j of the second (negative,
/// zero or positive), and `visit(i, j)` takes each pair, an item only
/// one side holds pairing with kNone.
constexpr std::size_t kNone = ~std::size_t{0};
template <class Cmp, class Visit>
void merge(std::size_t n, std::size_t m, Cmp cmp, Visit visit) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < n || j < m) {
    const int c = i == n ? 1 : j == m ? -1 : cmp(i, j);
    if (c < 0) {
      visit(i++, kNone);
    } else if (c > 0) {
      visit(kNone, j++);
    } else {
      visit(i++, j++);
    }
  }
}

int three_way(std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) {
  const auto c = std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                        b.begin(), b.end());
  return c < 0 ? -1 : c > 0 ? 1 : 0;
}

/// `items` by (control, name), the order the reconcile plan lists them.
template <class T, class Name>
std::vector<const T*> by_name(const std::vector<T>& items, Name name) {
  std::vector<const T*> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(&item);
  std::sort(out.begin(), out.end(),
            [&](const T* a, const T* b) { return name(*a) < name(*b); });
  return out;
}

/// The reconcile edits of one table: removals of the versions `have`
/// holds and `want` does not hold with the same action, installs of the
/// converse; exact versions by (key, window), then ternary ones by
/// (key, priority, window). Either side may be missing (nullptr).
void diff_table(const Table* have, const Table* want,
                std::vector<RuleOp>& removals, std::vector<RuleOp>& adds) {
  static const Table kEmpty;
  const Table& h = have != nullptr ? *have : kEmpty;
  const Table& w = want != nullptr ? *want : kEmpty;
  // Over one program (a switch and its mirror) the names tables agree
  // and the bound words compare as they are; otherwise the text forms
  // compare, as the action names and arguments they stand for.
  const bool same_names = h.actions == w.actions;
  for (const bool ternary : {false, true}) {
    const Snapshot::Versions& hv = ternary ? h.ternary : h.exact;
    const Snapshot::Versions& wv = ternary ? w.ternary : w.exact;
    // One edit of version `i` of `t`: an install carries its action.
    auto edit = [&](const Table& t, std::size_t i, bool install) {
      const Snapshot::Versions& v = ternary ? t.ternary : t.exact;
      RuleOp op;
      op.install = install;
      op.control = t.control;
      op.table = t.table;
      op.window = v.window(i);
      if (install) op.action = t.text(v.action(i), v.args(i));
      if (!ternary) {
        const auto key = t.exact_key(i);
        op.key.assign(key.begin(), key.end());
        return op;
      }
      op.kind = RuleOp::Kind::kTernary;
      op.tkey = t.ternary_key(i);
      op.priority = t.priority(i);
      return op;
    };
    const auto ho = hv.order();
    const auto wo = wv.order();
    merge(
        ho.size(), wo.size(),
        [&](std::size_t i, std::size_t j) {
          return three_way(hv.id(ho[i]), wv.id(wo[j]));
        },
        [&](std::size_t i, std::size_t j) {
          if (i != kNone && j != kNone) {
            const std::uint32_t a = hv.action(ho[i]);
            const std::uint64_t* x = hv.args(ho[i]);
            const std::uint64_t* y = wv.args(wo[j]);
            if (same_names ? a == wv.action(wo[j]) &&
                                 std::equal(x, x + hv.width, y)
                           : h.text(a, x) == w.text(wv.action(wo[j]), y)) {
              return;
            }
          }
          if (i != kNone) removals.push_back(edit(h, ho[i], false));
          if (j != kNone) adds.push_back(edit(w, wo[j], true));
        });
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// snapshot_diff

WriteCommand snapshot_diff(const Snapshot& actual, const Snapshot& intended) {
  // Removals ship before additions so an overwrite (same key+window,
  // different action) never trips the overlap validation, and register
  // cells after them; the scalar state is set once they all commit.
  // Tables and registers pair up by (control, name), versions by key
  // and window: both sides are sorted once and merged, no text built
  // except for the edits.
  WriteCommand plan;
  plan.verb = WriteCommand::Verb::kReconcile;
  std::vector<RuleOp> adds;
  std::vector<RuleOp> regs;

  auto table_name = [](const Table& t) { return std::tie(t.control, t.table); };
  const auto have = by_name(actual.tables, table_name);
  const auto want = by_name(intended.tables, table_name);
  merge(
      have.size(), want.size(),
      [&](std::size_t i, std::size_t j) {
        const auto a = table_name(*have[i]);
        const auto b = table_name(*want[j]);
        return a < b ? -1 : b < a ? 1 : 0;
      },
      [&](std::size_t i, std::size_t j) {
        diff_table(i != kNone ? have[i] : nullptr,
                   j != kNone ? want[j] : nullptr, plan.diff.ops, adds);
      });

  // Registers: converge every differing cell (extras zero out) and
  // every bank tag.
  using Register = Snapshot::RegisterState;
  auto reg_name = [](const Register& r) { return std::tie(r.control, r.name); };
  const auto have_regs = by_name(actual.registers, reg_name);
  const auto want_regs = by_name(intended.registers, reg_name);
  merge(
      have_regs.size(), want_regs.size(),
      [&](std::size_t i, std::size_t j) {
        const auto a = reg_name(*have_regs[i]);
        const auto b = reg_name(*want_regs[j]);
        return a < b ? -1 : b < a ? 1 : 0;
      },
      [&](std::size_t i, std::size_t j) {
        static const Register kAbsent;
        const Register& h = i != kNone ? *have_regs[i] : kAbsent;
        const Register& w = j != kNone ? *want_regs[j] : kAbsent;
        const Register& named = i != kNone ? h : w;
        merge(
            h.cells.size(), w.cells.size(),
            [&](std::size_t a, std::size_t b) {
              const std::uint64_t x = h.cells[a].first;
              const std::uint64_t y = w.cells[b].first;
              return x < y ? -1 : x > y ? 1 : 0;
            },
            [&](std::size_t a, std::size_t b) {
              const std::uint64_t actual_value =
                  a != kNone ? h.cells[a].second : 0;
              const std::uint64_t intended_value =
                  b != kNone ? w.cells[b].second : 0;
              if (actual_value == intended_value) return;
              RuleOp op;
              op.kind = RuleOp::Kind::kRegister;
              op.control = named.control;
              op.reg = named.name;
              op.index = a != kNone ? h.cells[a].first : w.cells[b].first;
              op.value = intended_value;
              regs.push_back(std::move(op));
            });
        if (h.epoch != w.epoch) {
          plan.bank_epochs[{named.control, named.name}] = w.epoch;
        }
      });

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
