#include "control/transaction.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace dejavu::control {

std::vector<sim::RuntimeTable*> resolve_op(sim::DataPlane& dp,
                                           const RuleOp& op) {
  if (op.control.empty()) return dp.tables_named(op.table);
  sim::RuntimeTable* t = dp.table_in(op.control, op.table);
  if (t == nullptr) return {};
  return {t};
}

std::string entry_identity(const RuleOp& op) {
  std::string s;
  if (op.kind == RuleOp::Kind::kTernary) {
    s = std::to_string(op.priority);
    for (const auto& f : op.tkey) {
      s += "|" + std::to_string(f.value) + "/" + std::to_string(f.mask);
    }
    return s;
  }
  for (const std::uint64_t v : op.key) s += std::to_string(v) + ",";
  return s;
}

Transaction::Transaction(sim::DataPlane& dp, Backoff retry,
                         sim::FaultInjector* injector)
    : dp_(&dp), retry_(retry), injector_(injector) {}

std::string Transaction::Result::to_string() const {
  std::string s = committed ? "committed" : "failed";
  s += " applied=" + std::to_string(applied) +
       " attempts=" + std::to_string(attempts) +
       " retries=" + std::to_string(retries) +
       " backoff_ms=" + std::to_string(total_backoff_ms);
  if (rolled_back) s += " rolled-back";
  if (!error.empty()) s += " error: " + error;
  return s;
}

namespace {

/// How a failing op names itself in an error.
std::string label(const RuleOp& op) {
  if (op.kind == RuleOp::Kind::kRegister) {
    return "write_register " + op.control + "." + op.reg;
  }
  const char* verb = op.install ? "install " : op.retire_at ? "retire "
                                                            : "remove ";
  return verb + op.table;
}

/// The windows of every installed version of the entry `op` writes, in
/// the store's order (match order for ternary).
std::vector<sim::EpochWindow> version_windows(const sim::RuntimeTable& t,
                                              const RuleOp& op) {
  std::vector<sim::EpochWindow> windows;
  if (op.kind == RuleOp::Kind::kTernary) {
    for (const auto& v : t.ternary_versions(op.tkey, op.priority)) {
      windows.push_back(v.window);
    }
  } else {
    for (const auto& v : t.exact_versions(op.key)) windows.push_back(v.window);
  }
  return windows;
}

/// Is the version with window `w` one removal or retire `op` may take?
/// Each takes the first such version in the store's order. A legacy
/// removal (no window, no retire) takes the open version, exact or
/// ternary alike.
bool takes(const RuleOp& op, sim::EpochWindow w) {
  if (op.retire_at) return w.open() && w.from <= *op.retire_at;
  if (op.window) return w == *op.window;
  return w.open();
}

}  // namespace

std::string Transaction::validate() const {
  // The batch's running state: the version windows of every entry an
  // op touched and each instance's entry count, as the ops so far
  // leave them. A retire caps a window for the installs after it (the
  // live update's shadow phase); a removal frees its window and its
  // capacity slot.
  std::map<std::pair<const sim::RuntimeTable*, std::string>,
           std::vector<sim::EpochWindow>>
      versions;
  std::map<const sim::RuntimeTable*, std::size_t> entries;
  for (const RuleOp& op : ops_) {
    if (op.kind == RuleOp::Kind::kRegister) {
      auto* arr = dp_->register_array(op.control, op.reg);
      if (arr == nullptr) {
        return label(op) + ": no such register";
      }
      if (op.index >= arr->size()) {
        return label(op) + ": index " + std::to_string(op.index) +
               " out of range (size " + std::to_string(arr->size()) + ")";
      }
      continue;
    }
    const std::vector<sim::RuntimeTable*> instances = resolve_op(*dp_, op);
    if (instances.empty()) {
      return label(op) + ": table does not exist in the deployment";
    }
    const bool ternary = op.kind == RuleOp::Kind::kTernary;
    const sim::EpochWindow window = op.window.value_or(sim::EpochWindow{});
    bool found = false;
    for (sim::RuntimeTable* t : instances) {
      const p4ir::Table& def = t->def();
      if (def.needs_tcam() != ternary) {
        return label(op) +
               (ternary ? ": table is exact" : ": table is ternary/LPM");
      }
      if ((ternary ? op.tkey.size() : op.key.size()) != def.keys.size()) {
        return label(op) + ": key arity mismatch";
      }
      if (op.install) {
        if (!window.well_formed()) {
          return label(op) + ": malformed epoch window";
        }
        const std::string bad = t->action_error(op.action);
        if (!bad.empty()) return label(op) + ": " + bad;
      }
      auto [it, fresh] = versions.try_emplace({t, entry_identity(op)});
      std::vector<sim::EpochWindow>& windows = it->second;
      if (fresh) windows = version_windows(*t, op);
      std::size_t& count =
          entries.try_emplace(t, t->entry_count()).first->second;
      if (op.install) {
        bool overwrite = false;
        for (const sim::EpochWindow& w : windows) {
          if (!ternary && w == window) {
            overwrite = true;
          } else if (w.overlaps(window)) {
            return label(op) +
                   ": epoch window overlaps an installed version (a "
                   "packet could see two generations)";
          }
        }
        if (overwrite) continue;
        windows.push_back(window);
        if (++count > def.max_entries) {
          return "table '" + def.name + "' cannot fit " +
                 std::to_string(count - t->entry_count()) +
                 " new entries (" + std::to_string(t->entry_count()) + "/" +
                 std::to_string(def.max_entries) + " used)";
        }
        continue;
      }
      const auto v = std::find_if(windows.begin(), windows.end(),
                                  [&](sim::EpochWindow w) {
                                    return takes(op, w);
                                  });
      if (v == windows.end()) continue;  // a replica without it
      found = true;
      if (op.retire_at) {
        v->to = *op.retire_at;
      } else {
        windows.erase(v);
        --count;
      }
    }
    // Removals must find an installed entry somewhere (removing a
    // phantom rule is a control-plane bug worth failing loudly on).
    // One naming its version is a reconcile edit, planned against a
    // snapshot the switch may have moved past since: a version already
    // gone is already reconciled.
    const bool named = op.window && !op.retire_at;
    if (!op.install && !found && !named) {
      return label(op) + (op.retire_at ? ": no live entry to retire"
                                       : ": entry not installed");
    }
  }
  return "";
}

void Transaction::apply(const RuleOp& op, std::vector<UndoEntry>& undo) {
  if (op.kind == RuleOp::Kind::kRegister) {
    auto* arr = dp_->register_array(op.control, op.reg);
    UndoEntry u;
    u.kind = UndoEntry::Kind::kWriteRegister;
    u.reg_array = arr;
    u.reg_index = op.index;
    u.reg_value = (*arr)[op.index];
    (*arr)[op.index] = op.value;
    undo.push_back(std::move(u));
    return;
  }
  const bool ternary = op.kind == RuleOp::Kind::kTernary;
  for (sim::RuntimeTable* t : resolve_op(*dp_, op)) {
    UndoEntry u;
    u.target = t;
    u.exact_key = op.key;
    if (op.install) {
      u.window = op.window.value_or(sim::EpochWindow{});
      if (ternary) {
        u.kind = UndoEntry::Kind::kEraseTernary;
        u.handle = t->add_ternary(op.tkey, op.priority, op.action, u.window);
      } else {
        u.kind = UndoEntry::Kind::kRemoveExact;
        for (auto& v : t->exact_versions(op.key)) {
          if (v.window != u.window) continue;
          u.kind = UndoEntry::Kind::kReinstallExact;  // an overwrite
          u.action = std::move(v.action);
        }
        t->add_exact(op.key, op.action, u.window);
      }
      undo.push_back(std::move(u));
      continue;
    }
    // A removal or retire takes one version per instance; a replica
    // without it is skipped.
    if (ternary) {
      auto versions = t->ternary_versions(op.tkey, op.priority);
      const auto v = std::find_if(
          versions.begin(), versions.end(),
          [&](const auto& x) { return takes(op, x.window); });
      if (v == versions.end()) continue;
      if (op.retire_at) {
        if (!t->retire_ternary(v->handle, *op.retire_at)) {
          throw std::invalid_argument("retire would malform the window");
        }
        u.kind = UndoEntry::Kind::kUnretireTernary;
        u.handle = v->handle;
      } else {
        t->erase_ternary(v->handle);
        u.kind = UndoEntry::Kind::kReinstallTernary;
        u.ternary_key = op.tkey;
        u.priority = op.priority;
        u.action = std::move(v->action);
        u.window = v->window;
      }
    } else {
      auto versions = t->exact_versions(op.key);
      const auto v = std::find_if(
          versions.begin(), versions.end(),
          [&](const auto& x) { return takes(op, x.window); });
      if (v == versions.end()) continue;
      if (op.retire_at) {
        if (!t->retire_exact(op.key, *op.retire_at)) {
          throw std::invalid_argument("retire would malform the window");
        }
        u.kind = UndoEntry::Kind::kUnretireExact;
      } else {
        t->remove_exact_version(op.key, v->window);
        u.kind = UndoEntry::Kind::kReinstallExact;
        u.action = std::move(v->action);
        u.window = v->window;
      }
    }
    u.last_epoch = op.retire_at.value_or(0);
    undo.push_back(std::move(u));
  }
}

void Transaction::rollback(std::vector<UndoEntry>& undo) {
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    switch (it->kind) {
      case UndoEntry::Kind::kRemoveExact:
        it->target->remove_exact_version(it->exact_key, it->window);
        break;
      case UndoEntry::Kind::kReinstallExact:
        it->target->add_exact(it->exact_key, it->action, it->window);
        break;
      case UndoEntry::Kind::kEraseTernary:
        it->target->erase_ternary(it->handle);
        break;
      case UndoEntry::Kind::kReinstallTernary:
        it->target->add_ternary(it->ternary_key, it->priority, it->action,
                                it->window);
        break;
      case UndoEntry::Kind::kUnretireExact:
        it->target->unretire_exact(it->exact_key, it->last_epoch);
        break;
      case UndoEntry::Kind::kUnretireTernary:
        it->target->unretire_ternary(it->handle, it->last_epoch);
        break;
      case UndoEntry::Kind::kWriteRegister:
        (*it->reg_array)[it->reg_index] = it->reg_value;
        break;
    }
  }
  undo.clear();
}

Transaction::Result Transaction::commit() {
  if (committed_) {
    throw std::logic_error("Transaction::commit called twice");
  }
  committed_ = true;
  Result result;
  std::string err = validate();
  if (!err.empty()) {
    result.error = std::move(err);
    return result;
  }
  std::vector<UndoEntry> undo;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    std::uint32_t attempt = 0;
    for (;;) {
      ++result.attempts;
      ++attempt;
      try {
        if (injector_ != nullptr) {
          injector_->on_write(static_cast<std::uint32_t>(i));
        }
        apply(ops_[i], undo);
        break;
      } catch (const sim::TransientWriteError& e) {
        if (attempt >= retry_.max_attempts) {
          result.error =
              label(ops_[i]) + ": " + e.what() + " (retries exhausted)";
          rollback(undo);
          result.rolled_back = true;
          return result;
        }
        ++result.retries;
        result.total_backoff_ms += retry_.backoff_ms(attempt);
      } catch (const std::exception& e) {
        result.error = label(ops_[i]) + ": " + e.what();
        rollback(undo);
        result.rolled_back = true;
        return result;
      }
    }
    ++result.applied;
  }
  result.committed = true;
  return result;
}

}  // namespace dejavu::control
