#include "control/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace dejavu::control {

std::size_t Snapshot::entry_count() const {
  std::size_t n = 0;
  for (const TableState& t : tables) n += t.exact.size() + t.ternary.size();
  for (const RegisterState& r : registers) n += r.cells.size();
  return n;
}

namespace {

/// " win=from..to" for non-default windows; nothing for [0, open], so
/// snapshots of never-updated deployments keep their old byte layout.
std::string window_suffix(sim::EpochWindow window) {
  if (window.is_default()) return "";
  std::string s = " win=" + std::to_string(window.from) + "..";
  s += window.open() ? "open" : std::to_string(window.to);
  return s;
}

}  // namespace

std::string Snapshot::to_text() const {
  std::string out;
  if (epoch != 0 || min_live_epoch != 0) {
    out += "epoch " + std::to_string(epoch) + " min-live " +
           std::to_string(min_live_epoch) + "\n";
  }
  for (const TableState& t : tables) {
    if (t.exact.empty() && t.ternary.empty()) continue;
    out += "table " + t.control + " " + t.table + "\n";
    // Stable ordering for diffability (versions of one key ordered by
    // window so shadow and retiring generations diff cleanly).
    auto exact = t.exact;
    std::sort(exact.begin(), exact.end(), [](const auto& a, const auto& b) {
      return std::tie(a.key, a.window.from) < std::tie(b.key, b.window.from);
    });
    for (const auto& e : exact) {
      out += "  exact";
      for (auto v : e.key) out += " " + std::to_string(v);
      out += " -> " + e.action.action;
      for (const auto& [param, value] : e.action.args) {
        out += " " + param + "=" + std::to_string(value);
      }
      out += window_suffix(e.window);
      out += "\n";
    }
    // Ternary entries sort by (priority, key, window) — NOT by TCAM
    // handle, which encodes insertion order. Reconciliation diffs and
    // the byte-identity oracles compare snapshots of switches whose
    // entries arrived in different orders (retries, recoveries); the
    // text must be a pure function of the state.
    auto tkey = [](const sim::RuntimeTable::TernaryEntry& e) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> k;
      k.reserve(e.key.size());
      for (const auto& f : e.key) k.emplace_back(f.value, f.mask);
      return k;
    };
    auto ternary = t.ternary;
    std::sort(ternary.begin(), ternary.end(),
              [&](const auto& a, const auto& b) {
                return std::tuple(a.priority, tkey(a), a.window.from) <
                       std::tuple(b.priority, tkey(b), b.window.from);
              });
    for (const auto& e : ternary) {
      out += "  ternary";
      for (const auto& f : e.key) {
        out += " " + std::to_string(f.value) + "/" + std::to_string(f.mask);
      }
      out += " prio=" + std::to_string(e.priority) + " -> " +
             e.action.action;
      for (const auto& [param, value] : e.action.args) {
        out += " " + param + "=" + std::to_string(value);
      }
      out += window_suffix(e.window);
      out += "\n";
    }
  }
  for (const RegisterState& r : registers) {
    if (r.cells.empty() && r.epoch == 0) continue;
    out += "register " + r.control + " " + r.name;
    if (r.epoch != 0) out += " epoch=" + std::to_string(r.epoch);
    out += "\n";
    for (const auto& [index, value] : r.cells) {
      out += "  [" + std::to_string(index) + "] = " + std::to_string(value) +
             "\n";
    }
  }
  return out;
}

Snapshot take_snapshot(sim::DataPlane& dp) {
  Snapshot snap;
  snap.epoch = dp.epoch();
  snap.min_live_epoch = dp.min_live_epoch();
  // Id order: the program's declaration order.
  for (sim::TableId id = 0; id < dp.table_count(); ++id) {
    const sim::RuntimeTable& rt = dp.table(id);
    Snapshot::TableState state;
    state.control = rt.control().name();
    state.table = rt.def().name;
    state.exact = rt.exact_entries();
    state.ternary = rt.ternary_entries();
    snap.tables.push_back(std::move(state));
  }
  for (sim::RegisterId id = 0; id < dp.register_count(); ++id) {
    const sim::DataPlane::RegisterBank& bank = dp.register_bank(id);
    Snapshot::RegisterState state;
    state.control = bank.control->name();
    state.name = bank.def->name;
    state.epoch = bank.epoch;
    for (std::uint64_t i = 0; i < bank.cells.size(); ++i) {
      if (bank.cells[i] != 0) state.cells[i] = bank.cells[i];
    }
    snap.registers.push_back(std::move(state));
  }
  return snap;
}

std::vector<std::string> restore_snapshot(const Snapshot& snapshot,
                                          sim::DataPlane& dp) {
  std::vector<std::string> missing;
  for (const Snapshot::TableState& state : snapshot.tables) {
    sim::RuntimeTable* rt = dp.table_in(state.control, state.table);
    if (rt == nullptr) {
      if (!state.exact.empty() || !state.ternary.empty()) {
        missing.push_back(state.control + "/" + state.table);
      }
      continue;
    }
    // Bind each entry once, exact entries first, then ternary; one the
    // table cannot run stays unbound (kNoAction) and is reported.
    std::vector<sim::BoundAction> bound(state.exact.size() +
                                        state.ternary.size());
    std::size_t n = 0;
    auto bind = [&](const sim::ActionCall& action) {
      const std::string bad = rt->bind(action, bound[n++]);
      if (!bad.empty()) {
        missing.push_back(state.control + "/" + state.table + ": " + bad);
      }
    };
    for (const auto& e : state.exact) bind(e.action);
    for (const auto& e : state.ternary) bind(e.action);
    rt->clear();
    n = 0;
    for (const auto& e : state.exact) {
      if (const auto& b = bound[n++]; b.action != sim::kNoAction) {
        rt->add_exact(std::span<const std::uint64_t>(e.key), b, e.window);
      }
    }
    for (const auto& e : state.ternary) {
      if (const auto& b = bound[n++]; b.action != sim::kNoAction) {
        rt->add_ternary(e.key, e.priority, b, e.window);
      }
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
    for (const auto& [index, value] : state.cells) {
      if (index >= cells->size()) {
        throw std::invalid_argument("register " + state.name +
                                    " shrank below snapshot index " +
                                    std::to_string(index));
      }
      (*cells)[index] = value;
    }
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
