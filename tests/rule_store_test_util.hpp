// Shared helpers for the rule-store tests: a table's whole contents in
// text form, for tests that compare versions by value. The store's
// readers walk it in place (for_each_exact, ternary_store); these
// rebuild each version's action text.
#pragma once

#include <vector>

#include "sim/runtime_table.hpp"

namespace dejavu::test {

/// Every exact version, in canonical order (key, then window).
inline std::vector<sim::RuntimeTable::ExactEntry> exact_entries(
    const sim::RuntimeTable& rt) {
  std::vector<sim::RuntimeTable::ExactEntry> out;
  for (const auto& v : rt.exact_where([](const auto&) { return true; })) {
    out.push_back({{v.key.begin(), v.key.end()}, rt.text(v), v.window});
  }
  return out;
}

/// Every ternary/LPM version, in match order.
inline std::vector<sim::RuntimeTable::TernaryEntry> ternary_entries(
    const sim::RuntimeTable& rt) {
  std::vector<sim::RuntimeTable::TernaryEntry> out;
  for (const sim::RuntimeTable::TcamEntry& e : rt.ternary_store()) {
    out.push_back(
        {e.handle, e.priority, e.key, rt.text(e.value), e.value.window});
  }
  return out;
}

}  // namespace dejavu::test
