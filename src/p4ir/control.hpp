// Control blocks: the modular NF unit of the Dejavu programming
// interface (§3.1) — `control XX_control(inout all_headers_t hdr)`.
// A block owns actions and tables and an ordered apply list; each apply
// entry may be gated by a condition (compiled to a gateway on the ASIC).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "p4ir/action.hpp"
#include "p4ir/table.hpp"

namespace dejavu::p4ir {

/// Runtime semantics of a guard: run the table always, only when the
/// first guard table hit, or only when it missed.
enum class GuardMode : std::uint8_t { kAlways, kIfHit, kIfMiss };

/// Comparison op of a gateway condition (RMT gateways support
/// equality and range checks).
enum class GuardCmp : std::uint8_t { kEq, kNe, kGt, kLt };

/// A runtime-evaluable gateway condition: run the entry when
/// `field <cmp> value` holds. `negate` is a legacy convenience alias
/// for kNe (setting it flips kEq to kNe at construction sites).
struct FieldGuard {
  std::string field;
  std::uint64_t value = 0;
  bool negate = false;  // kept for brace-init ergonomics: true => kNe
  GuardCmp cmp = GuardCmp::kEq;

  GuardCmp effective_cmp() const {
    if (cmp == GuardCmp::kEq && negate) return GuardCmp::kNe;
    return cmp;
  }
  bool holds(std::uint64_t v) const {
    switch (effective_cmp()) {
      case GuardCmp::kEq:
        return v == value;
      case GuardCmp::kNe:
        return v != value;
      case GuardCmp::kGt:
        return v > value;
      case GuardCmp::kLt:
        return v < value;
    }
    return false;
  }

  bool operator==(const FieldGuard&) const = default;
};

/// One step of a control block's apply{} body: run `table`, optionally
/// under a gateway condition. `guard_fields` are the fields the
/// condition reads (e.g. sfc.service_index); `guard_tables` are tables
/// whose hit/miss result the condition consumes (successor deps).
/// Entries carrying different non-empty `branch_id`s are mutually
/// exclusive (if/else branches of parallel composition): no packet
/// executes both, so no dependency arises between them and they may
/// share MAU stages.
struct ApplyEntry {
  std::string table;
  std::vector<std::string> guard_fields;
  std::vector<std::string> guard_tables;
  GuardMode mode = GuardMode::kAlways;
  std::string branch_id;
  std::optional<FieldGuard> field_guard;

  bool gated() const {
    return !guard_fields.empty() || !guard_tables.empty() ||
           field_guard.has_value();
  }
  bool operator==(const ApplyEntry&) const = default;
};

/// A stateful register array (P4 `register<bit<W>>(size)`): per-cell
/// state persisting across packets, read/modified by the kRegister*
/// primitives. Indexing wraps modulo `size` like hardware index
/// truncation.
struct RegisterDef {
  std::string name;
  std::uint16_t width_bits = 32;
  std::uint32_t size = 1024;

  bool operator==(const RegisterDef&) const = default;
};

class ControlBlock {
 public:
  ControlBlock() = default;
  explicit ControlBlock(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Add definitions. Throws std::invalid_argument on duplicate names.
  void add_action(Action action);
  void add_table(Table table);
  void add_register(RegisterDef reg);

  /// Append an apply step. The table (and any guard tables) must exist.
  void apply(ApplyEntry entry);
  void apply_table(const std::string& table) {
    ApplyEntry entry;
    entry.table = table;
    apply(std::move(entry));
  }

  const std::vector<Action>& actions() const { return actions_; }
  const std::vector<Table>& tables() const { return tables_; }
  const std::vector<RegisterDef>& registers() const { return registers_; }
  const std::vector<ApplyEntry>& apply_order() const { return apply_; }

  const Action* find_action(const std::string& name) const;
  const Table* find_table(const std::string& name) const;
  Table* find_table(const std::string& name);
  const RegisterDef* find_register(const std::string& name) const;

  /// All fields the actions bound to `table` may read / write,
  /// including the default action.
  std::set<std::string> table_action_reads(const Table& table) const;
  std::set<std::string> table_action_writes(const Table& table) const;

  /// Max VLIW slots across the table's bound actions — the instruction
  /// memory the table needs in its stage.
  std::uint32_t table_vliw_slots(const Table& table) const;

  /// Check internal consistency (all referenced actions/tables exist).
  /// Returns true and leaves `why` untouched on success.
  bool validate(std::string* why = nullptr) const;
  /// The part of validate() execution depends on: every applied table
  /// and every register an action uses exists. (A table may bind an
  /// undefined action; the rule store refuses installs of it.)
  bool runnable(std::string* why = nullptr) const;

  bool operator==(const ControlBlock&) const = default;

 private:
  std::string name_;
  std::vector<Action> actions_;
  std::vector<Table> tables_;
  std::vector<RegisterDef> registers_;
  std::vector<ApplyEntry> apply_;
};

}  // namespace dejavu::p4ir
