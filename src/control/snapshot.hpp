// Data-plane state snapshot and restore — the §7 "service upgrade and
// expansion, failure handling" primitives: capture every installed
// table entry and register cell of a running deployment, and replay
// them into a freshly built (e.g. upgraded or fail-over) data plane
// whose program exposes the same tables.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/tcam.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::control {

/// Captured state of one deployment's data plane.
struct Snapshot {
  struct TableState {
    std::string control;
    std::string table;
    std::vector<sim::RuntimeTable::ExactEntry> exact;
    std::vector<net::Tcam<sim::ActionCall>::Entry> ternary;
    /// Epoch window of each ternary entry, aligned with `ternary`
    /// (windows live beside the TCAM, not in it).
    std::vector<sim::EpochWindow> ternary_windows;
  };
  struct RegisterState {
    std::string control;
    std::string name;
    /// Sparse non-zero cells (index -> value).
    std::map<std::uint64_t, std::uint64_t> cells;
    /// Generation tag of the bank (0 = never touched by an update).
    std::uint32_t epoch = 0;
  };

  std::vector<TableState> tables;
  std::vector<RegisterState> registers;
  /// The version gate and drain floor at capture time (§11).
  std::uint32_t epoch = 0;
  std::uint32_t min_live_epoch = 0;

  std::size_t entry_count() const;
  /// Human-readable dump (diffable, stable ordering).
  std::string to_text() const;
};

/// Capture every installed entry and non-zero register cell.
Snapshot take_snapshot(sim::DataPlane& dp);

/// Replay a snapshot into a data plane. Tables/registers missing from
/// the target are reported in the returned list (e.g. an upgrade that
/// removed an NF); matching tables are cleared first, then refilled.
/// Entries whose action the target table cannot run
/// (RuntimeTable::action_error) are reported as "control/table: why"
/// and left out, checked before their table is cleared. Entries that
/// no longer fit (smaller tables after the upgrade) throw.
std::vector<std::string> restore_snapshot(const Snapshot& snapshot,
                                          sim::DataPlane& dp);

}  // namespace dejavu::control
