#include "control/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <stdexcept>

namespace dejavu::control {

namespace {

using Table = Snapshot::TableState;
using Versions = Snapshot::Versions;

/// A priority as an id word: unsigned order is the priority's order.
std::uint64_t priority_word(std::int32_t priority) {
  return static_cast<std::uint32_t>(priority) ^ 0x80000000u;
}

/// The indices of `n` versions ordered by `less`, ties in snapshot
/// order.
template <class Less>
std::vector<std::uint32_t> sorted(std::size_t n, Less less) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), less);
  return order;
}

template <class Int>
void append(std::string& out, Int v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

sim::EpochWindow Versions::window(std::size_t i) const {
  const std::uint64_t w = words[i * stride() + key_words];
  return {static_cast<std::uint32_t>(w >> 32), static_cast<std::uint32_t>(w)};
}

void Versions::add(std::span<const std::uint64_t> key, sim::EpochWindow window,
                   std::uint32_t action, std::span<const std::uint64_t> args) {
  words.insert(words.end(), key.begin(), key.end());
  words.push_back(std::uint64_t{window.from} << 32 | window.to);
  words.push_back(action);
  words.insert(words.end(), args.begin(), args.end());
  words.resize(words.size() + width - args.size(), 0);
}

std::vector<std::uint32_t> Versions::order() const {
  // Each item carries its id's first word, so most comparisons read no
  // version; equal first words compare the whole id.
  struct Item {
    std::uint64_t first;
    std::uint32_t index;
  };
  std::vector<Item> items(count());
  for (std::uint32_t i = 0; i < items.size(); ++i) items[i] = {id(i)[0], i};
  std::sort(items.begin(), items.end(), [&](const Item& a, const Item& b) {
    if (a.first != b.first) return a.first < b.first;
    const auto x = id(a.index);
    const auto y = id(b.index);
    const auto c = std::lexicographical_compare_three_way(x.begin(), x.end(),
                                                          y.begin(), y.end());
    return c != 0 ? c < 0 : a.index < b.index;
  });
  std::vector<std::uint32_t> out(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) out[i] = items[i].index;
  return out;
}

std::vector<net::TernaryField> Table::ternary_key(std::size_t i) const {
  const auto id = ternary.id(i);
  std::vector<net::TernaryField> key(arity);
  for (std::size_t f = 0; f < arity; ++f) key[f] = {id[2 * f], id[2 * f + 1]};
  return key;
}

std::int32_t Table::priority(std::size_t i) const {
  const std::uint64_t w = ternary.id(i)[2 * arity];
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(w) ^ 0x80000000u);
}

sim::ActionCall Table::text(std::uint32_t action,
                            const std::uint64_t* args) const {
  sim::ActionCall call;
  call.action = actions[action].name;
  const auto& params = actions[action].params;
  for (std::size_t i = 0; i < params.size(); ++i) {
    call.args.emplace(params[i], args[i]);
  }
  return call;
}

std::size_t Snapshot::entry_count() const {
  std::size_t n = 0;
  for (const TableState& t : tables) n += t.exact.count() + t.ternary.count();
  for (const RegisterState& r : registers) n += r.cells.size();
  return n;
}

std::string Snapshot::to_text() const {
  std::string out;
  if (epoch != 0 || min_live_epoch != 0) {
    out += "epoch " + std::to_string(epoch) + " min-live " +
           std::to_string(min_live_epoch) + "\n";
  }
  for (const TableState& t : tables) {
    if (t.exact.count() + t.ternary.count() == 0) continue;
    out += "table " + t.control + " " + t.table + "\n";
    // Arguments print in name order, as the text form's map holds them.
    std::vector<std::vector<std::uint32_t>> by_name(t.actions.size());
    for (std::size_t id = 0; id < t.actions.size(); ++id) {
      const auto& params = t.actions[id].params;
      by_name[id] = sorted(params.size(),
                           [&](std::uint32_t a, std::uint32_t b) {
                             return params[a] < params[b];
                           });
    }
    // " -> action args" and, for non-default windows, " win=from..to"
    // (nothing for [0, open], so snapshots of never-updated
    // deployments keep their old byte layout).
    auto finish = [&](const Versions& v, std::size_t i) {
      const std::uint32_t action = v.action(i);
      out += " -> ";
      out += t.actions[action].name;
      for (const std::uint32_t j : by_name[action]) {
        out += ' ';
        out += t.actions[action].params[j];
        out += '=';
        append(out, v.args(i)[j]);
      }
      if (const sim::EpochWindow w = v.window(i); !w.is_default()) {
        out += " win=";
        append(out, w.from);
        out += "..";
        if (w.open()) {
          out += "open";
        } else {
          append(out, w.to);
        }
      }
      out += '\n';
    };
    // Stable ordering for diffability (versions of one key ordered by
    // window so shadow and retiring generations diff cleanly).
    for (const std::uint32_t i : t.exact.order()) {
      out += "  exact";
      for (const std::uint64_t word : t.exact_key(i)) {
        out += ' ';
        append(out, word);
      }
      finish(t.exact, i);
    }
    // Ternary entries sort by (priority, key, window) — NOT by TCAM
    // handle, which encodes insertion order. Reconciliation diffs and
    // the byte-identity oracles compare snapshots of switches whose
    // entries arrived in different orders (retries, recoveries); the
    // text must be a pure function of the state.
    const std::size_t fields = 2 * t.arity;
    const auto ternary = sorted(
        t.ternary.count(), [&](std::uint32_t a, std::uint32_t b) {
          const auto x = t.ternary.id(a);
          const auto y = t.ternary.id(b);
          if (x[fields] != y[fields]) return x[fields] < y[fields];
          const auto c = std::lexicographical_compare_three_way(
              x.begin(), x.begin() + fields, y.begin(), y.begin() + fields);
          return c != 0 ? c < 0 : x.back() < y.back();
        });
    for (const std::uint32_t i : ternary) {
      out += "  ternary";
      for (std::size_t k = 0; k < fields; k += 2) {
        out += ' ';
        append(out, t.ternary.id(i)[k]);
        out += '/';
        append(out, t.ternary.id(i)[k + 1]);
      }
      out += " prio=";
      append(out, t.priority(i));
      finish(t.ternary, i);
    }
  }
  for (const RegisterState& r : registers) {
    if (r.cells.empty() && r.epoch == 0) continue;
    out += "register " + r.control + " " + r.name;
    if (r.epoch != 0) out += " epoch=" + std::to_string(r.epoch);
    out += "\n";
    for (const auto& [index, value] : r.cells) {
      out += "  [";
      append(out, index);
      out += "] = ";
      append(out, value);
      out += '\n';
    }
  }
  return out;
}

Snapshot take_snapshot(const sim::DataPlane& dp) {
  Snapshot snap;
  snap.epoch = dp.epoch();
  snap.min_live_epoch = dp.min_live_epoch();
  // Id order: the program's declaration order.
  snap.tables.reserve(dp.table_count());
  for (sim::TableId id = 0; id < dp.table_count(); ++id) {
    const sim::RuntimeTable& rt = dp.table(id);
    Table& state = snap.tables.emplace_back();
    state.control = rt.control().name();
    state.table = rt.def().name;
    state.arity = rt.def().keys.size();
    // The names table: every action the table declares, by id.
    const std::vector<p4ir::Action>& actions = rt.control().actions();
    std::size_t width = 0;
    for (const std::string& name : rt.def().actions) {
      const p4ir::Action* a = rt.control().find_action(name);
      if (a == nullptr) continue;
      const std::size_t action = static_cast<std::size_t>(a - actions.data());
      if (action >= state.actions.size()) state.actions.resize(action + 1);
      Snapshot::ActionNames& names = state.actions[action];
      names.name = a->name;
      for (const p4ir::Action::Param& p : a->params) {
        names.params.push_back(p.name);
      }
      width = std::max(width, names.params.size());
    }
    state.exact = {state.arity, width, {}};
    state.ternary = {2 * state.arity + 1, width, {}};
    const auto tcam = rt.ternary_store();
    if (tcam.empty()) {
      state.exact.words.reserve(rt.entry_count() * state.exact.stride());
      rt.for_each_exact([&](const sim::RuntimeTable::ExactVersion& v) {
        const std::size_t n = state.actions[v.action].params.size();
        state.exact.add(v.key, v.window, v.action, {v.args, n});
      });
      continue;
    }
    state.ternary.words.reserve(tcam.size() * state.ternary.stride());
    for (const sim::RuntimeTable::TcamEntry& e : tcam) {
      std::uint64_t key[2 * sim::kMaxKeyArity + 1];
      for (std::size_t f = 0; f < e.key.size(); ++f) {
        key[2 * f] = e.key[f].value;
        key[2 * f + 1] = e.key[f].mask;
      }
      key[2 * e.key.size()] = priority_word(e.priority);
      state.ternary.add({key, 2 * e.key.size() + 1}, e.value.window,
                        e.value.action, e.value.args);
    }
  }
  snap.registers.reserve(dp.register_count());
  for (sim::RegisterId id = 0; id < dp.register_count(); ++id) {
    const sim::DataPlane::RegisterBank& bank = dp.register_bank(id);
    Snapshot::RegisterState& state = snap.registers.emplace_back();
    state.control = bank.control->name();
    state.name = bank.def->name;
    state.epoch = bank.epoch;
    for (std::uint64_t i = 0; i < bank.cells.size(); ++i) {
      if (bank.cells[i] != 0) state.cells.emplace_back(i, bank.cells[i]);
    }
  }
  return snap;
}

namespace {

/// One source action resolved against a target table.
struct Resolved {
  std::string error;  // why the target cannot run it; "" when it can
  std::uint32_t action = sim::kNoAction;  // the target's action id
  std::size_t params = 0;  // the target action's param count
  std::uint64_t from[sim::kMaxActionArgs] = {};  // target arg i <- from[i]
};

/// Resolve every action `state` names against `rt` once, through the
/// bind() a text install runs: an ActionCall whose arguments carry
/// their source positions comes back as the argument permutation.
std::vector<Resolved> resolve(const Table& state, const sim::RuntimeTable& rt) {
  std::vector<Resolved> out(state.actions.size());
  for (std::size_t id = 0; id < state.actions.size(); ++id) {
    const Snapshot::ActionNames& names = state.actions[id];
    if (names.name.empty()) continue;
    sim::ActionCall call{names.name, {}};
    for (std::size_t j = 0; j < names.params.size(); ++j) {
      call.args.emplace(names.params[j], j);
    }
    sim::BoundAction bound;
    out[id].error = rt.bind(call, bound);
    if (!out[id].error.empty()) continue;
    out[id].action = bound.action;
    out[id].params = rt.control().actions()[bound.action].params.size();
    std::copy_n(bound.args, sim::kMaxActionArgs, out[id].from);
  }
  return out;
}

}  // namespace

std::vector<std::string> restore_snapshot(const Snapshot& snapshot,
                                          sim::DataPlane& dp) {
  std::vector<std::string> missing;
  // Every check first; no table is touched until all of them passed.
  struct Plan {
    const Table* state;
    sim::RuntimeTable* target;
    std::vector<Resolved> resolved;  // by source action id
  };
  std::vector<Plan> plans;
  for (const Table& state : snapshot.tables) {
    sim::RuntimeTable* rt = dp.table_in(state.control, state.table);
    if (rt == nullptr) {
      if (state.exact.count() + state.ternary.count() > 0) {
        missing.push_back(state.control + "/" + state.table);
      }
      continue;
    }
    const Plan& plan =
        plans.emplace_back(Plan{&state, rt, resolve(state, *rt)});
    // An entry the table cannot run is reported and left out: exact
    // entries in canonical order, then ternary ones in match order.
    auto kept = [&](const Versions& v, std::size_t i) {
      return plan.resolved[v.action(i)].error.empty();
    };
    auto refuse = [&](const Versions& v, std::size_t i) {
      missing.push_back(state.control + "/" + state.table + ": " +
                        plan.resolved[v.action(i)].error);
    };
    std::size_t exact = 0;
    for (std::size_t i = 0; i < state.exact.count(); ++i) {
      exact += kept(state.exact, i);
    }
    if (exact < state.exact.count()) {
      for (const std::uint32_t i : state.exact.order()) {
        if (!kept(state.exact, i)) refuse(state.exact, i);
      }
    }
    std::size_t ternary = 0;
    for (std::size_t i = 0; i < state.ternary.count(); ++i) {
      if (kept(state.ternary, i)) {
        ++ternary;
      } else {
        refuse(state.ternary, i);
      }
    }
    const p4ir::Table& def = rt->def();
    if (exact + ternary == 0) continue;
    if ((exact > 0) == def.needs_tcam() || state.arity != def.keys.size()) {
      throw std::invalid_argument("table '" + def.name +
                                  "' changed kind or key arity");
    }
    if (exact + ternary > def.max_entries) {
      throw std::invalid_argument(
          "table '" + def.name + "' is full" +
          (exact > 0 ? " (" + std::to_string(def.max_entries) + ")" : ""));
    }
  }
  for (const Snapshot::RegisterState& state : snapshot.registers) {
    const auto* cells = dp.register_array(state.control, state.name);
    if (cells != nullptr && !state.cells.empty() &&
        state.cells.back().first >= cells->size()) {
      throw std::invalid_argument("register " + state.name +
                                  " shrank below snapshot index " +
                                  std::to_string(state.cells.back().first));
    }
  }

  for (const Plan& plan : plans) {
    const Table& state = *plan.state;
    sim::RuntimeTable& rt = *plan.target;
    // `r` applied to a version's source arguments.
    auto rebind = [](const Resolved& r, const std::uint64_t* args) {
      sim::BoundAction b;
      b.action = r.action;
      for (std::size_t i = 0; i < r.params; ++i) b.args[i] = args[r.from[i]];
      return b;
    };
    rt.clear();
    rt.reserve(state.exact.count());
    for (std::size_t i = 0; i < state.exact.count(); ++i) {
      const Resolved& r = plan.resolved[state.exact.action(i)];
      if (!r.error.empty()) continue;
      rt.add_exact(state.exact_key(i), rebind(r, state.exact.args(i)),
                   state.exact.window(i));
    }
    for (std::size_t i = 0; i < state.ternary.count(); ++i) {
      const Resolved& r = plan.resolved[state.ternary.action(i)];
      if (!r.error.empty()) continue;
      rt.add_ternary(state.ternary_key(i), state.priority(i),
                     rebind(r, state.ternary.args(i)), state.ternary.window(i));
    }
  }
  for (const Snapshot::RegisterState& state : snapshot.registers) {
    auto* cells = dp.register_array(state.control, state.name);
    if (cells == nullptr) {
      if (!state.cells.empty()) {
        missing.push_back(state.control + "/" + state.name);
      }
      continue;
    }
    dp.set_register_epoch(state.control, state.name, state.epoch);
    std::fill(cells->begin(), cells->end(), 0);
    for (const auto& [index, value] : state.cells) (*cells)[index] = value;
  }
  dp.set_epoch(snapshot.epoch);
  dp.set_min_live_epoch(snapshot.min_live_epoch);
  // The restored floor invalidates any punt stamped below it (late
  // reinjections drop as kUpdateDrained); flush their ledger entries
  // so punts_outstanding() converges to zero instead of stranding
  // counts from the pre-restore generation.
  if (snapshot.min_live_epoch > 0) {
    dp.flush_stale_punts(snapshot.min_live_epoch - 1);
  }
  return missing;
}

}  // namespace dejavu::control
