#include "control/transaction.hpp"

#include <map>
#include <optional>
#include <stdexcept>

namespace dejavu::control {

Transaction::Transaction(sim::DataPlane& dp, Backoff retry,
                         sim::FaultInjector* injector)
    : dp_(&dp), retry_(retry), injector_(injector) {}

void Transaction::install_exact(std::string table,
                                std::vector<std::uint64_t> key,
                                sim::ActionCall action,
                                sim::EpochWindow window) {
  Op op;
  op.kind = OpKind::kInstallExact;
  op.table = std::move(table);
  op.exact_key = std::move(key);
  op.action = std::move(action);
  op.window = window;
  ops_.push_back(std::move(op));
}

void Transaction::install_exact_in(std::string control, std::string table,
                                   std::vector<std::uint64_t> key,
                                   sim::ActionCall action,
                                   sim::EpochWindow window) {
  install_exact(std::move(table), std::move(key), std::move(action), window);
  ops_.back().control = std::move(control);
}

void Transaction::remove_exact_in(std::string control, std::string table,
                                  std::vector<std::uint64_t> key) {
  remove_exact(std::move(table), std::move(key));
  ops_.back().control = std::move(control);
}

void Transaction::install_ternary(std::string table,
                                  std::vector<net::TernaryField> key,
                                  std::int32_t priority,
                                  sim::ActionCall action,
                                  sim::EpochWindow window) {
  Op op;
  op.kind = OpKind::kInstallTernary;
  op.table = std::move(table);
  op.ternary_key = std::move(key);
  op.priority = priority;
  op.action = std::move(action);
  op.window = window;
  ops_.push_back(std::move(op));
}

void Transaction::install_lpm(std::string table, std::uint64_t value,
                              std::uint8_t prefix_len, sim::ActionCall action,
                              sim::EpochWindow window) {
  Op op;
  op.kind = OpKind::kInstallLpm;
  op.table = std::move(table);
  op.lpm_value = value;
  op.prefix_len = prefix_len;
  op.action = std::move(action);
  op.window = window;
  ops_.push_back(std::move(op));
}

void Transaction::remove_exact(std::string table,
                               std::vector<std::uint64_t> key) {
  Op op;
  op.kind = OpKind::kRemoveExact;
  op.table = std::move(table);
  op.exact_key = std::move(key);
  ops_.push_back(std::move(op));
}

void Transaction::remove_ternary(std::string table,
                                 std::vector<net::TernaryField> key,
                                 std::int32_t priority) {
  Op op;
  op.kind = OpKind::kRemoveTernary;
  op.table = std::move(table);
  op.ternary_key = std::move(key);
  op.priority = priority;
  ops_.push_back(std::move(op));
}

void Transaction::retire_exact(std::string table,
                               std::vector<std::uint64_t> key,
                               std::uint32_t last_epoch) {
  Op op;
  op.kind = OpKind::kRetireExact;
  op.table = std::move(table);
  op.exact_key = std::move(key);
  op.last_epoch = last_epoch;
  ops_.push_back(std::move(op));
}

void Transaction::retire_exact_in(std::string control, std::string table,
                                  std::vector<std::uint64_t> key,
                                  std::uint32_t last_epoch) {
  retire_exact(std::move(table), std::move(key), last_epoch);
  ops_.back().control = std::move(control);
}

void Transaction::retire_ternary(std::string table,
                                 std::vector<net::TernaryField> key,
                                 std::int32_t priority,
                                 std::uint32_t last_epoch) {
  Op op;
  op.kind = OpKind::kRetireTernary;
  op.table = std::move(table);
  op.ternary_key = std::move(key);
  op.priority = priority;
  op.last_epoch = last_epoch;
  ops_.push_back(std::move(op));
}

void Transaction::write_register(std::string control, std::string reg,
                                 std::uint64_t index, std::uint64_t value) {
  Op op;
  op.kind = OpKind::kWriteRegister;
  op.table = std::move(control);
  op.reg = std::move(reg);
  op.reg_index = index;
  op.reg_value = value;
  ops_.push_back(std::move(op));
}

std::vector<sim::RuntimeTable*> Transaction::resolve(const Op& op) const {
  if (op.control.empty()) return dp_->tables_named(op.table);
  sim::RuntimeTable* t = dp_->table_in(op.control, op.table);
  if (t == nullptr) return {};
  return {t};
}

std::string Transaction::Op::describe() const {
  switch (kind) {
    case OpKind::kInstallExact:
      return "install_exact " + table;
    case OpKind::kInstallTernary:
      return "install_ternary " + table;
    case OpKind::kInstallLpm:
      return "install_lpm " + table;
    case OpKind::kRemoveExact:
      return "remove_exact " + table;
    case OpKind::kRemoveTernary:
      return "remove_ternary " + table;
    case OpKind::kRetireExact:
      return "retire_exact " + table;
    case OpKind::kRetireTernary:
      return "retire_ternary " + table;
    case OpKind::kWriteRegister:
      return "write_register " + table + "." + reg;
  }
  return "op";
}

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

/// Dedup identity for a ternary (key, priority) pair; TernaryField has
/// no ordering, so the map key is a serialized string.
std::string ternary_identity(const std::vector<net::TernaryField>& key,
                             std::int32_t priority) {
  std::string s = std::to_string(priority);
  for (const auto& f : key) {
    s += "|" + std::to_string(f.value) + "/" + std::to_string(f.mask);
  }
  return s;
}

}  // namespace

std::string Transaction::validate() const {
  // Net installs queued per table instance, for the capacity check.
  std::map<const sim::RuntimeTable*, std::size_t> pending;
  // Versions a retire queued *earlier in this batch* will cap at
  // last_epoch. The install overlap checks below must judge against
  // the post-retire window, or a retire-then-overwrite batch — the
  // live update's shadow phase — is rejected against state the batch
  // itself replaces.
  std::map<std::pair<const sim::RuntimeTable*, std::vector<std::uint64_t>>,
           std::uint32_t>
      capped_exact;
  std::map<std::pair<const sim::RuntimeTable*, std::string>, std::uint32_t>
      capped_ternary;
  for (const Op& op : ops_) {
    if (op.kind == OpKind::kWriteRegister) {
      auto* arr = dp_->register_array(op.table, op.reg);
      if (arr == nullptr) {
        return op.describe() + ": no such register";
      }
      if (op.reg_index >= arr->size()) {
        return op.describe() + ": index " + std::to_string(op.reg_index) +
               " out of range (size " + std::to_string(arr->size()) + ")";
      }
      continue;
    }
    std::vector<sim::RuntimeTable*> instances = resolve(op);
    if (instances.empty()) {
      return op.describe() + ": table does not exist in the deployment";
    }
    for (sim::RuntimeTable* t : instances) {
      const p4ir::Table& def = t->def();
      const bool tcam = def.needs_tcam();
      if (op.kind == OpKind::kInstallExact ||
          op.kind == OpKind::kInstallTernary ||
          op.kind == OpKind::kInstallLpm) {
        const std::string bad = t->action_error(op.action);
        if (!bad.empty()) return op.describe() + ": " + bad;
      }
      switch (op.kind) {
        case OpKind::kInstallExact: {
          if (tcam) return op.describe() + ": table is ternary/LPM";
          if (op.exact_key.size() != def.keys.size()) {
            return op.describe() + ": key arity mismatch";
          }
          if (!op.window.well_formed()) {
            return op.describe() + ": malformed epoch window";
          }
          bool overwrite = false;
          const auto cap = capped_exact.find({t, op.exact_key});
          for (const auto& v : t->exact_versions(op.exact_key)) {
            sim::EpochWindow w = v.window;
            if (w.open() && cap != capped_exact.end() &&
                w.from <= cap->second) {
              w.to = cap->second;  // an earlier retire closes it
            }
            if (v.window == op.window) {
              overwrite = true;
            } else if (w.overlaps(op.window)) {
              return op.describe() +
                     ": epoch window overlaps an installed version (a "
                     "packet could see two generations)";
            }
          }
          if (!overwrite) ++pending[t];
          break;
        }
        case OpKind::kInstallTernary: {
          if (!tcam) return op.describe() + ": table is exact";
          if (op.ternary_key.size() != def.keys.size()) {
            return op.describe() + ": key arity mismatch";
          }
          if (!op.window.well_formed()) {
            return op.describe() + ": malformed epoch window";
          }
          const auto cap = capped_ternary.find(
              {t, ternary_identity(op.ternary_key, op.priority)});
          for (const auto& v :
               t->ternary_versions(op.ternary_key, op.priority)) {
            sim::EpochWindow w = v.window;
            if (w.open() && cap != capped_ternary.end() &&
                w.from <= cap->second) {
              w.to = cap->second;  // an earlier retire closes it
            }
            if (w.overlaps(op.window)) {
              return op.describe() +
                     ": epoch window overlaps an installed entry";
            }
          }
          ++pending[t];
          break;
        }
        case OpKind::kInstallLpm: {
          if (!tcam) return op.describe() + ": table is exact";
          bool has_lpm = false;
          for (const auto& k : def.keys) {
            if (k.kind == p4ir::MatchKind::kLpm) {
              has_lpm = true;
              if (op.prefix_len > k.bits) {
                return op.describe() + ": prefix length exceeds key width";
              }
            }
          }
          if (!has_lpm) {
            return op.describe() + ": table has no LPM key component";
          }
          ++pending[t];
          break;
        }
        case OpKind::kRemoveExact:
          if (tcam) return op.describe() + ": table is ternary/LPM";
          if (op.exact_key.size() != def.keys.size()) {
            return op.describe() + ": key arity mismatch";
          }
          break;
        case OpKind::kRemoveTernary:
          if (!tcam) return op.describe() + ": table is exact";
          break;
        case OpKind::kRetireExact:
          if (tcam) return op.describe() + ": table is ternary/LPM";
          if (op.exact_key.size() != def.keys.size()) {
            return op.describe() + ": key arity mismatch";
          }
          break;
        case OpKind::kRetireTernary:
          if (!tcam) return op.describe() + ": table is exact";
          break;
        case OpKind::kWriteRegister:
          break;
      }
    }
    // Removals must name an installed entry somewhere (removing a
    // phantom rule is a control-plane bug worth failing loudly on).
    if (op.kind == OpKind::kRemoveExact) {
      bool found = false;
      for (sim::RuntimeTable* t : instances) {
        if (t->find_exact(op.exact_key)) found = true;
      }
      if (!found) return op.describe() + ": entry not installed";
    }
    if (op.kind == OpKind::kRemoveTernary) {
      bool found = false;
      for (sim::RuntimeTable* t : instances) {
        found |= !t->ternary_versions(op.ternary_key, op.priority).empty();
      }
      if (!found) return op.describe() + ": entry not installed";
    }
    // Retires must find a live (open-window) version old enough to cap
    // at last_epoch in at least one instance.
    if (op.kind == OpKind::kRetireExact) {
      bool found = false;
      for (sim::RuntimeTable* t : instances) {
        const auto live = t->find_exact(op.exact_key);
        if (live && live->window.from <= op.last_epoch) {
          found = true;
          capped_exact[{t, op.exact_key}] = op.last_epoch;
        }
      }
      if (!found) return op.describe() + ": no live entry to retire";
    }
    if (op.kind == OpKind::kRetireTernary) {
      bool found = false;
      for (sim::RuntimeTable* t : instances) {
        auto handle = t->find_ternary(op.ternary_key, op.priority);
        if (handle && t->ternary_window(*handle).from <= op.last_epoch) {
          found = true;
          capped_ternary[{t, ternary_identity(op.ternary_key, op.priority)}] =
              op.last_epoch;
        }
      }
      if (!found) return op.describe() + ": no live entry to retire";
    }
  }
  // Capacity: every queued install must fit alongside what is already
  // there (removals in the same batch are not credited — conservative,
  // like reserving the space up front).
  for (const auto& [t, added] : pending) {
    if (t->entry_count() + added > t->def().max_entries) {
      return "table '" + t->def().name + "' cannot fit " +
             std::to_string(added) + " new entries (" +
             std::to_string(t->entry_count()) + "/" +
             std::to_string(t->def().max_entries) + " used)";
    }
  }
  return "";
}

void Transaction::apply(const Op& op, std::vector<UndoEntry>& undo) {
  if (op.kind == OpKind::kWriteRegister) {
    auto* arr = dp_->register_array(op.table, op.reg);
    const std::uint64_t old = (*arr)[op.reg_index];
    (*arr)[op.reg_index] = op.reg_value;
    UndoEntry u;
    u.kind = UndoEntry::Kind::kWriteRegister;
    u.reg_array = arr;
    u.reg_index = op.reg_index;
    u.reg_value = old;
    undo.push_back(std::move(u));
    return;
  }
  for (sim::RuntimeTable* t : resolve(op)) {
    switch (op.kind) {
      case OpKind::kInstallExact: {
        UndoEntry u;
        u.target = t;
        u.exact_key = op.exact_key;
        u.window = op.window;
        std::optional<sim::ActionCall> old;
        for (const auto& v : t->exact_versions(op.exact_key)) {
          if (v.window == op.window) old = v.action;
        }
        if (old) {
          u.kind = UndoEntry::Kind::kReinstallExact;
          u.action = std::move(*old);
        } else {
          u.kind = UndoEntry::Kind::kRemoveExact;
        }
        t->add_exact(op.exact_key, op.action, op.window);
        undo.push_back(std::move(u));
        break;
      }
      case OpKind::kInstallTernary: {
        UndoEntry u;
        u.kind = UndoEntry::Kind::kEraseTernary;
        u.target = t;
        u.handle =
            t->add_ternary(op.ternary_key, op.priority, op.action, op.window);
        undo.push_back(std::move(u));
        break;
      }
      case OpKind::kInstallLpm: {
        UndoEntry u;
        u.kind = UndoEntry::Kind::kEraseTernary;
        u.target = t;
        u.handle =
            t->add_lpm(op.lpm_value, op.prefix_len, op.action, op.window);
        undo.push_back(std::move(u));
        break;
      }
      case OpKind::kRemoveExact: {
        const auto old = t->find_exact(op.exact_key);
        if (!old) break;  // replica without the entry
        UndoEntry u;
        u.kind = UndoEntry::Kind::kReinstallExact;
        u.target = t;
        u.exact_key = op.exact_key;
        u.action = old->action;
        u.window = old->window;
        t->remove_exact(op.exact_key);
        undo.push_back(std::move(u));
        break;
      }
      case OpKind::kRemoveTernary: {
        // One version per instance: the first in match order.
        auto versions = t->ternary_versions(op.ternary_key, op.priority);
        if (versions.empty()) break;
        UndoEntry u;
        u.kind = UndoEntry::Kind::kReinstallTernary;
        u.target = t;
        u.ternary_key = op.ternary_key;
        u.priority = op.priority;
        u.action = std::move(versions.front().action);
        u.window = versions.front().window;
        t->erase_ternary(versions.front().handle);
        undo.push_back(std::move(u));
        break;
      }
      case OpKind::kRetireExact: {
        const auto live = t->find_exact(op.exact_key);
        if (!live || live->window.from > op.last_epoch) {
          break;  // replica without a live version old enough
        }
        if (!t->retire_exact(op.exact_key, op.last_epoch)) {
          throw std::invalid_argument("retire would malform the window");
        }
        UndoEntry u;
        u.kind = UndoEntry::Kind::kUnretireExact;
        u.target = t;
        u.exact_key = op.exact_key;
        u.last_epoch = op.last_epoch;
        undo.push_back(std::move(u));
        break;
      }
      case OpKind::kRetireTernary: {
        auto handle = t->find_ternary(op.ternary_key, op.priority);
        if (!handle ||
            t->ternary_window(*handle).from > op.last_epoch) {
          break;  // replica without a live version old enough
        }
        if (!t->retire_ternary(*handle, op.last_epoch)) {
          throw std::invalid_argument("retire would malform the window");
        }
        UndoEntry u;
        u.kind = UndoEntry::Kind::kUnretireTernary;
        u.target = t;
        u.handle = *handle;
        u.last_epoch = op.last_epoch;
        undo.push_back(std::move(u));
        break;
      }
      case OpKind::kWriteRegister:
        break;
    }
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
              ops_[i].describe() + ": " + e.what() + " (retries exhausted)";
          rollback(undo);
          result.rolled_back = true;
          return result;
        }
        ++result.retries;
        result.total_backoff_ms += retry_.backoff_ms(attempt);
      } catch (const std::exception& e) {
        result.error = ops_[i].describe() + ": " + e.what();
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
