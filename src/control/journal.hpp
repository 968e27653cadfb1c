// Write-ahead intent journal for live updates (§11 crash recovery):
// before a live update touches the switch it journals the full intended
// rule diff (kBegun), then appends a marker as each phase completes —
// kShadowed after the phase-1 transaction, kFlipped after the version
// gate moves, kDrained after in-flight packets finish, and a terminal
// kCommitted / kRolledBack / kAborted. A controller that crashes
// mid-update replays the journal on restart: control::recover() reads
// the last non-terminal intent, compares it against what the live
// switch actually holds (control::Snapshot — adopt what is observed,
// never reinstall blindly), and rolls the update forward or back to a
// clean generation.
//
// The journal round-trips through a line-based text format (to_text /
// from_text) — the on-disk WAL representation — so recovery works from
// a re-parsed journal exactly as from the in-memory one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/tcam.hpp"
#include "sim/runtime_table.hpp"

namespace dejavu::control {

/// One primitive of a generation diff. `install == false` means the
/// entry leaves the new generation: a hitless update retires it (caps
/// its window), a legacy stop-the-world swap removes it outright.
struct RuleOp {
  enum class Kind : std::uint8_t { kExact, kTernary, kRegister };
  Kind kind = Kind::kExact;
  bool install = true;
  std::string control;  // empty = every instance of `table`
  std::string table;
  std::vector<std::uint64_t> key;            // kExact
  std::vector<net::TernaryField> tkey;       // kTernary
  std::int32_t priority = 0;                 // kTernary
  std::string reg;                           // kRegister
  std::uint64_t index = 0;                   // kRegister
  std::uint64_t value = 0;                   // kRegister
  /// The cell's pre-update value, captured when the update begins, so
  /// a post-crash rollback can restore it from the journal alone.
  std::uint64_t old_value = 0;
  /// The register bank's pre-update epoch tag (kRegister), so rollback
  /// restores the tag, not just the cells.
  std::uint32_t old_bank_epoch = 0;
  sim::ActionCall action;

  bool operator==(const RuleOp&) const = default;
};

/// The installable delta between two chain generations.
struct RuleDiff {
  std::vector<RuleOp> ops;

  std::size_t installs() const;
  std::size_t removals() const;
  std::size_t register_writes() const;
  bool empty() const { return ops.empty(); }

  bool operator==(const RuleDiff&) const = default;
};

/// The live-update state machine's states, in WAL order.
enum class JournalState : std::uint8_t {
  kBegun,       ///< intent recorded; nothing touched yet
  kShadowed,    ///< phase 1 done: next generation installed shadowed
  kFlipped,     ///< phase 2 done: version gate moved to the new epoch
  kDrained,     ///< in-flight packets of the old epoch finished
  kCommitted,   ///< old generation garbage-collected (terminal)
  kRolledBack,  ///< update undone, switch back on the old generation
  kAborted,     ///< refused before touching the switch (terminal)
};

const char* to_string(JournalState state);

struct JournalRecord {
  JournalState state = JournalState::kBegun;
  std::uint64_t update_id = 0;
  std::uint32_t from_epoch = 0;
  std::uint32_t to_epoch = 0;
  RuleDiff diff;     // kBegun records only
  std::string note;  // free-form detail (abort reason, drain stats)

  bool operator==(const JournalRecord&) const = default;
};

class Journal {
 public:
  /// Record the intent of a new update; returns its update id.
  std::uint64_t begin(std::uint32_t from_epoch, std::uint32_t to_epoch,
                      RuleDiff diff);

  /// Append a phase marker for a begun update.
  void append(std::uint64_t update_id, JournalState state,
              std::string note = "");

  const std::vector<JournalRecord>& records() const { return records_; }

  /// The most recent update with no terminal record — what a restarted
  /// controller must reconcile.
  struct Pending {
    std::uint64_t update_id = 0;
    std::uint32_t from_epoch = 0;
    std::uint32_t to_epoch = 0;
    const RuleDiff* diff = nullptr;
    /// The furthest phase the journal recorded (>= kBegun).
    JournalState last_state = JournalState::kBegun;
  };
  std::optional<Pending> pending() const;

  /// Line-based WAL text; from_text(to_text()) round-trips exactly.
  std::string to_text() const;
  /// Throws std::invalid_argument on malformed input.
  static Journal from_text(const std::string& text);

  bool operator==(const Journal&) const = default;

 private:
  std::vector<JournalRecord> records_;
  std::uint64_t next_id_ = 1;
};

}  // namespace dejavu::control
