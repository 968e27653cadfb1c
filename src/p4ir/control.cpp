#include "p4ir/control.hpp"

#include <algorithm>
#include <stdexcept>

namespace dejavu::p4ir {

void ControlBlock::add_action(Action action) {
  if (find_action(action.name) != nullptr) {
    throw std::invalid_argument("duplicate action '" + action.name +
                                "' in control '" + name_ + "'");
  }
  actions_.push_back(std::move(action));
}

void ControlBlock::add_table(Table table) {
  if (find_table(table.name) != nullptr) {
    throw std::invalid_argument("duplicate table '" + table.name +
                                "' in control '" + name_ + "'");
  }
  tables_.push_back(std::move(table));
}

void ControlBlock::add_register(RegisterDef reg) {
  if (find_register(reg.name) != nullptr) {
    throw std::invalid_argument("duplicate register '" + reg.name +
                                "' in control '" + name_ + "'");
  }
  if (reg.size == 0 || reg.width_bits == 0 || reg.width_bits > 64) {
    throw std::invalid_argument("register '" + reg.name +
                                "' has invalid geometry");
  }
  registers_.push_back(std::move(reg));
}

const RegisterDef* ControlBlock::find_register(const std::string& name) const {
  auto it = std::find_if(registers_.begin(), registers_.end(),
                         [&](const RegisterDef& r) {
                           return r.name == name;
                         });
  return it == registers_.end() ? nullptr : &*it;
}

void ControlBlock::apply(ApplyEntry entry) {
  if (find_table(entry.table) == nullptr) {
    throw std::invalid_argument("apply of unknown table '" + entry.table +
                                "' in control '" + name_ + "'");
  }
  for (const auto& guard : entry.guard_tables) {
    if (find_table(guard) == nullptr) {
      throw std::invalid_argument("guard references unknown table '" + guard +
                                  "' in control '" + name_ + "'");
    }
  }
  apply_.push_back(std::move(entry));
}

const Action* ControlBlock::find_action(const std::string& name) const {
  auto it = std::find_if(actions_.begin(), actions_.end(),
                         [&](const Action& a) { return a.name == name; });
  return it == actions_.end() ? nullptr : &*it;
}

const Table* ControlBlock::find_table(const std::string& name) const {
  auto it = std::find_if(tables_.begin(), tables_.end(),
                         [&](const Table& t) { return t.name == name; });
  return it == tables_.end() ? nullptr : &*it;
}

Table* ControlBlock::find_table(const std::string& name) {
  auto it = std::find_if(tables_.begin(), tables_.end(),
                         [&](const Table& t) { return t.name == name; });
  return it == tables_.end() ? nullptr : &*it;
}

namespace {

template <typename Fn>
std::set<std::string> union_over_actions(const ControlBlock& block,
                                         const Table& table, Fn&& fn) {
  std::set<std::string> out;
  auto absorb = [&](const std::string& action_name) {
    if (const Action* a = block.find_action(action_name)) {
      auto fields = fn(*a);
      out.insert(fields.begin(), fields.end());
    }
  };
  for (const auto& name : table.actions) absorb(name);
  if (!table.default_action.empty()) absorb(table.default_action);
  return out;
}

}  // namespace

std::set<std::string> ControlBlock::table_action_reads(
    const Table& table) const {
  return union_over_actions(*this, table,
                            [](const Action& a) { return a.reads(); });
}

std::set<std::string> ControlBlock::table_action_writes(
    const Table& table) const {
  return union_over_actions(*this, table,
                            [](const Action& a) { return a.writes(); });
}

std::uint32_t ControlBlock::table_vliw_slots(const Table& table) const {
  std::uint32_t slots = 0;
  auto absorb = [&](const std::string& action_name) {
    if (const Action* a = find_action(action_name)) {
      slots = std::max(slots, a->vliw_slots());
    }
  };
  for (const auto& name : table.actions) absorb(name);
  if (!table.default_action.empty()) absorb(table.default_action);
  return slots;
}

bool ControlBlock::validate(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = "control '" + name_ + "': " + msg;
    return false;
  };
  for (const Table& t : tables_) {
    for (const auto& action_name : t.actions) {
      if (find_action(action_name) == nullptr) {
        return fail("table '" + t.name + "' binds unknown action '" +
                    action_name + "'");
      }
    }
    if (!t.default_action.empty() &&
        find_action(t.default_action) == nullptr) {
      return fail("table '" + t.name + "' has unknown default action '" +
                  t.default_action + "'");
    }
  }
  return runnable(why);
}

bool ControlBlock::runnable(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = "control '" + name_ + "': " + msg;
    return false;
  };
  for (const ApplyEntry& e : apply_) {
    if (find_table(e.table) == nullptr) {
      return fail("apply of unknown table '" + e.table + "'");
    }
  }
  for (const Action& a : actions_) {
    for (const Primitive& p : a.primitives) {
      const bool is_register_op = p.op == PrimitiveOp::kRegisterRead ||
                                  p.op == PrimitiveOp::kRegisterAdd ||
                                  p.op == PrimitiveOp::kRegisterWrite;
      if (is_register_op && find_register(p.param) == nullptr) {
        return fail("action '" + a.name + "' references unknown register '" +
                    p.param + "'");
      }
    }
  }
  return true;
}

}  // namespace dejavu::p4ir
