// Runtime match-action tables: the installable state behind each IR
// table definition. Exact tables use a hash map; ternary and LPM
// tables use the TCAM model (LPM entries become ternary entries whose
// priority is the prefix length).
//
// Every installed entry carries an epoch window [from, to]: the range
// of chain generations it is visible to. A hitless live update (§11)
// installs the next generation shadowed (window [e+1, open]) next to
// the retiring one (capped at [.., e]); lookups filter by the packet's
// stamped epoch, so a packet sees exactly one generation — old or new,
// never a blend. Entries installed without a window get [0, open] and
// behave exactly as before.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/tcam.hpp"
#include "p4ir/table.hpp"

namespace dejavu::sim {

/// Epoch value meaning "still live" (an un-retired entry's window.to).
inline constexpr std::uint32_t kEpochOpen = 0xffffffff;

/// The half-open-ended generation range an entry is visible to.
struct EpochWindow {
  std::uint32_t from = 0;
  std::uint32_t to = kEpochOpen;

  bool contains(std::uint32_t epoch) const {
    return from <= epoch && epoch <= to;
  }
  bool open() const { return to == kEpochOpen; }
  bool well_formed() const { return from <= to; }
  bool overlaps(const EpochWindow& o) const {
    return from <= o.to && o.from <= to;
  }
  /// True for the default [0, open] window (entries that predate any
  /// live update); snapshots omit it to keep texts stable.
  bool is_default() const { return from == 0 && to == kEpochOpen; }
  bool operator==(const EpochWindow&) const = default;
};

/// A bound action: name + runtime arguments (per-entry action data).
struct ActionCall {
  std::string action;
  std::map<std::string, std::uint64_t> args;

  bool operator==(const ActionCall&) const = default;
};

/// The result of a lookup: hit/miss plus the action to run (the
/// table's default action on miss; may be empty).
struct LookupResult {
  bool hit = false;
  ActionCall action;
};

class RuntimeTable {
 public:
  explicit RuntimeTable(const p4ir::Table& def);

  const p4ir::Table& def() const { return *def_; }

  /// One installed exact entry (state export, §7 service upgrade /
  /// failure handling).
  struct ExactEntry {
    std::vector<std::uint64_t> key;
    ActionCall action;
    EpochWindow window;
  };

  /// Install an exact-match entry: one value per key component.
  /// Reinstalling the same key with the same window overwrites the
  /// action; a window overlapping a different installed version is
  /// refused (that would make two generations visible to one packet).
  /// Throws std::invalid_argument on arity mismatch, table kind
  /// mismatch, window overlap, or table-full.
  void add_exact(const std::vector<std::uint64_t>& key, ActionCall action,
                 EpochWindow window = {});

  /// Install a ternary entry (value/mask per component, priority).
  /// Returns the entry's handle (usable with erase_ternary).
  std::size_t add_ternary(const std::vector<net::TernaryField>& key,
                          std::int32_t priority, ActionCall action,
                          EpochWindow window = {});

  /// Install an LPM entry on the (single) LPM key component:
  /// value/prefix_len, with exact values for any other components.
  /// Returns the entry's handle (usable with erase_ternary).
  std::size_t add_lpm(std::uint64_t value, std::uint8_t prefix_len,
                      ActionCall action, EpochWindow window = {});

  /// The ternary key an LPM install expands to (so callers can diff or
  /// retire LPM entries without re-deriving the wildcard layout).
  std::vector<net::TernaryField> lpm_key(std::uint64_t value,
                                         std::uint8_t prefix_len) const;

  /// Remove the live (open-window) version of an exact entry; false
  /// when no live version is installed (entry eviction and
  /// transactional rollback).
  bool remove_exact(const std::vector<std::uint64_t>& key);

  /// Remove the specific version whose window equals `window` exactly
  /// (undo of a shadow install); false when absent.
  bool remove_exact_version(const std::vector<std::uint64_t>& key,
                            EpochWindow window);

  /// Remove one ternary/LPM entry by handle; false when absent.
  bool erase_ternary(std::size_t handle);

  /// Cap the live version's window at `last_epoch` (it stops matching
  /// packets stamped later). False when there is no live version or
  /// the cap would make the window malformed.
  bool retire_exact(const std::vector<std::uint64_t>& key,
                    std::uint32_t last_epoch);
  /// Undo of retire_exact: re-open the version capped at `last_epoch`.
  /// False when absent or re-opening would overlap another version.
  bool unretire_exact(const std::vector<std::uint64_t>& key,
                      std::uint32_t last_epoch);

  /// Ternary/LPM analogues, addressed by handle.
  bool retire_ternary(std::size_t handle, std::uint32_t last_epoch);
  bool unretire_ternary(std::size_t handle, std::uint32_t last_epoch);

  /// The live (open-window) ternary/LPM entry matching key+priority
  /// exactly, or nullopt (how a retire addresses an entry installed by
  /// an earlier generation).
  std::optional<std::size_t> find_ternary(
      const std::vector<net::TernaryField>& key, std::int32_t priority) const;

  /// The window of a ternary/LPM entry ([0, open] when never tagged).
  EpochWindow ternary_window(std::size_t handle) const;

  /// Drop every version retired before `min_live` (window.to <
  /// min_live): generation garbage collection after an update's drain
  /// completes. Returns the number of entries removed.
  std::size_t gc(std::uint32_t min_live);

  /// All installed versions of `key`, or nullptr when none (exact
  /// tables only) — how a validator or recovery pass inspects windows.
  const std::vector<ExactEntry>* exact_versions(
      const std::vector<std::uint64_t>& key) const;

  /// The live (open-window) version for `key`, or nullptr (exact
  /// tables only).
  const ExactEntry* find_exact(const std::vector<std::uint64_t>& key) const;
  /// The version visible to a packet stamped `epoch`, or nullptr.
  const ExactEntry* find_exact(const std::vector<std::uint64_t>& key,
                               std::uint32_t epoch) const;

  /// Look up the key values in key-component order, as seen by a
  /// packet stamped `epoch` (entries whose window excludes the epoch
  /// are invisible). Missing fields in the packet are the caller's
  /// concern (pass nullopt -> miss).
  LookupResult lookup(const std::vector<std::optional<std::uint64_t>>& key,
                      std::uint32_t epoch = 0) const;

  std::size_t entry_count() const { return size_; }
  void clear();

  /// Monotone mutation stamp: bumped once by every entry mutation
  /// (install, overwrite, remove, retire, unretire, gc, clear), never
  /// by corrupt(). Each bump also lands in a bounded change log, so a
  /// reader holding an older stamp can ask changes_since() which exact
  /// keys moved. The compiled fast path (sim::CompiledPipeline)
  /// snapshots the stamp when it lowers the table and patches only the
  /// logged keys when it moves — the invalidation contract of
  /// DESIGN.md §12.
  std::uint64_t revision() const { return revision_; }

  /// Mutations the change log remembers; older history reads as
  /// "whole table".
  static constexpr std::uint64_t kChangeLogCapacity = 256;

  /// Visit every exact key mutated after revision `since` (oldest
  /// first; a key touched twice is visited twice) and return true.
  /// Returns false, visiting nothing, when the log cannot name the
  /// keys: a gc(), clear() or ternary/LPM mutation happened after
  /// `since`, or more than kChangeLogCapacity mutations did. The
  /// caller must then re-read the whole table.
  template <typename F>
  bool changes_since(std::uint64_t since, F&& visit) const {
    if (since > revision_ || whole_at_ > since ||
        revision_ - since > kChangeLogCapacity) {
      return false;
    }
    for (std::uint64_t r = since + 1; r <= revision_; ++r) {
      visit(log_[r % kChangeLogCapacity]);
    }
    return true;
  }

  /// Visit every installed exact version in place (retired and
  /// shadowed included) — the copy-free form of exact_entries().
  template <typename F>
  void for_each_exact(F&& visit) const {
    for (const auto& [key_string, versions] : exact_) {
      for (const ExactEntry& version : versions) visit(version);
    }
  }

  /// Per-table hit/miss counters (direct counters in P4 terms),
  /// incremented by lookup().
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_counters() { hits_ = misses_ = 0; }

  /// Fold an externally-executed lookup into the hit/miss counters.
  /// The compiled fast path matches against its own lowered entry maps
  /// instead of calling lookup(), but the direct counters must stay
  /// truthful — the §7 health monitor reads them as liveness gates.
  void record_lookup(bool hit) const { (hit ? hits_ : misses_) += 1; }

  /// State export (§7 service upgrade / failure handling): enumerate
  /// installed entries — every version, retired and shadowed included.
  std::vector<ExactEntry> exact_entries() const;
  /// Ternary/LPM entries (empty for exact tables).
  const std::vector<net::Tcam<ActionCall>::Entry>& ternary_entries() const;

  // --- state-integrity surface (DESIGN.md §16) ---

  /// How the fault model's state lane mauls one installed entry.
  enum class CorruptKind : std::uint8_t {
    kKeyFlip,     ///< flip one key bit (exact: re-buckets the entry)
    kActionFlip,  ///< flip one bit of the entry's action data
    kWindowFlip,  ///< flip one bit of the entry's epoch window
    kDelete,      ///< the entry silently vanishes
    kDuplicate,   ///< a ghost copy appears under a perturbed window/priority
  };

  /// Inject one silent corruption: pick a victim entry deterministically
  /// from `salt` and apply `kind`, WITHOUT bumping revision() — that is
  /// the point: an SRAM/TCAM upset leaves no mutation stamp, so the
  /// compiled fast path's revision check cannot see it and detection is
  /// the auditor's job. Returns a description of what was corrupted, or
  /// "" when the table has no eligible victim (corruption did not land).
  std::string corrupt(CorruptKind kind, std::uint64_t salt);

  /// Order-independent FNV-1a digest of the full installed state:
  /// every exact version (key, action, window) and every ternary entry
  /// (key, priority, action, window), in canonical sorted order. Two
  /// tables with identical content — regardless of install order —
  /// digest equal; any corrupt() lands as a digest change. O(n log n).
  std::uint64_t state_digest() const;

 private:
  // Every mutation ends in exactly one of these: bump revision() and
  // log the touched key, or log "whole table".
  void note_key(const std::vector<std::uint64_t>& key);
  void note_whole();

  const p4ir::Table* def_;
  std::size_t size_ = 0;
  std::uint64_t revision_ = 0;
  // Change log: log_[r % kChangeLogCapacity] holds the exact key
  // mutation r touched (sized on first use); whole_at_ is the latest
  // revision whose mutation the log cannot name by key.
  std::vector<std::vector<std::uint64_t>> log_;
  std::uint64_t whole_at_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  // Exact storage: concatenated key string -> installed versions of
  // that key (pairwise non-overlapping windows; at most one open).
  std::unordered_map<std::string, std::vector<ExactEntry>> exact_;
  // Ternary/LPM storage; windows ride in a side map so the TCAM model
  // stays epoch-agnostic (absent handle = default window).
  std::optional<net::Tcam<ActionCall>> tcam_;
  std::map<std::size_t, EpochWindow> ternary_windows_;
};

}  // namespace dejavu::sim
