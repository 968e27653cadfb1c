// Data-plane state snapshot and restore — the §7 "service upgrade and
// expansion, failure handling" primitives: capture every installed
// table entry and register cell of a running deployment, and replay
// them into a freshly built (e.g. upgraded or fail-over) data plane
// whose program exposes the same tables.
//
// A snapshot holds each table's versions in the store's bound form, as
// P4 defines an entry: match key, window, action id and action data,
// as flat words with no per-version heap allocation or string. Names
// live once per table, in its names table (each declared action's name
// and parameter names), so a snapshot restores into a program whose
// actions were renumbered or whose parameters moved. Versions keep the
// store's walk order; to_text() and snapshot_diff sort them, since
// only they observe an order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/tcam.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::control {

/// Captured state of one deployment's data plane.
struct Snapshot {
  /// One action in a table's names table.
  struct ActionNames {
    std::string name;  ///< "" for an action the table does not declare
    std::vector<std::string> params;  ///< in the action's param order
    bool operator==(const ActionNames&) const = default;
  };
  /// One kind of a table's versions, stride() words each: the id (the
  /// key words of an exact version; the (value, mask) pair of each
  /// component and the priority of a ternary one), the window, the
  /// action id and `width` argument words in the action's param order.
  /// Ids and windows are packed so that comparing id() word by word
  /// orders versions by key (and priority), then window.
  struct Versions {
    std::size_t key_words = 0;  ///< id words before the window
    std::size_t width = 0;      ///< argument words per version
    std::vector<std::uint64_t> words;

    std::size_t stride() const { return key_words + 2 + width; }
    std::size_t count() const { return words.size() / stride(); }
    /// The id of version `i`: its key words and its window word.
    std::span<const std::uint64_t> id(std::size_t i) const {
      return {words.data() + i * stride(), key_words + 1};
    }
    sim::EpochWindow window(std::size_t i) const;
    std::uint32_t action(std::size_t i) const {
      return static_cast<std::uint32_t>(words[i * stride() + key_words + 1]);
    }
    const std::uint64_t* args(std::size_t i) const {
      return words.data() + i * stride() + key_words + 2;
    }
    /// Append a version whose action takes `args.size()` arguments.
    void add(std::span<const std::uint64_t> key, sim::EpochWindow window,
             std::uint32_t action, std::span<const std::uint64_t> args);
    /// The versions' indices ordered by id, ties in snapshot order.
    std::vector<std::uint32_t> order() const;
  };
  struct TableState {
    std::string control;
    std::string table;
    /// By action id (the owning control's actions() index).
    std::vector<ActionNames> actions;
    std::size_t arity = 0;  ///< key components
    Versions exact;
    Versions ternary;

    /// An exact version's key words.
    std::span<const std::uint64_t> exact_key(std::size_t i) const {
      return exact.id(i).first(arity);
    }
    /// A ternary version's key, one (value, mask) field per component.
    std::vector<net::TernaryField> ternary_key(std::size_t i) const;
    /// A ternary version's priority (the last word of its key).
    std::int32_t priority(std::size_t i) const;
    /// The text form of a version's action.
    sim::ActionCall text(std::uint32_t action, const std::uint64_t* args) const;
  };
  struct RegisterState {
    std::string control;
    std::string name;
    /// Sparse non-zero cells (index, value), by index.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cells;
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

/// Capture every installed entry and non-zero register cell: one walk
/// of each store, no per-entry allocation.
Snapshot take_snapshot(const sim::DataPlane& dp);

/// Replay a snapshot into a data plane. Tables/registers missing from
/// the target are reported in the returned list (e.g. an upgrade that
/// removed an NF). Each table's actions resolve against the target by
/// name once; entries whose action the target table cannot run
/// (RuntimeTable::bind) are reported as "control/table: why" and left
/// out. Before any table is touched, a table that changed kind or key
/// arity, or is now too small for its entries, and a register bank too
/// small for its cells throw std::invalid_argument, leaving the target
/// as it was. Then matching tables are cleared, sized once and refilled
/// through the checked installs (an overlapping or malformed window,
/// which only a corrupted source holds, still throws from there).
std::vector<std::string> restore_snapshot(const Snapshot& snapshot,
                                          sim::DataPlane& dp);

}  // namespace dejavu::control
