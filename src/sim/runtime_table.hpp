// Runtime match-action tables: the one store of installed rules.
// Exact tables keep a flat open-addressing index; ternary and LPM
// tables use the TCAM model (LPM entries become ternary entries whose
// priority is the prefix length).
//
// The exact index is one array of fixed-stride slots per table, probed
// linearly from the key's home slot. A slot holds the key packed at
// the table's arity, the epoch window, the action id and the action's
// arguments inline (room for the table's widest action). Each version
// of a key takes its own slot, so a shadow and a retiring version sit
// in one probe cluster and probe() picks the one whose window holds
// the packet's epoch. Versions of one key keep their install order
// along the cluster. A remove shifts the rest of the cluster back
// (backward-shift deletion), so install/remove churn leaves no
// tombstones. The slot count is a power of two sized from the live
// count (load at most 0.7), growing on install and shrinking after
// removes. The home slot is FNV-1a over the key words passed through
// splitmix64's finalizer: FNV's low bits depend only on the keys' low
// bits, and the mask keeps only low bits.
//
// Every install binds its action once, by the control's definition: an
// action id plus its arguments in the action's parameter order. An
// install the table could not run is refused right there, so neither
// engine meets an unknown action or a missing argument. Both engines
// read the store in place through probe(); the text form (ActionCall,
// ExactEntry) is rebuilt on demand for snapshots, journals and the
// analyzers.
//
// Every installed entry carries an epoch window [from, to]: the range
// of chain generations it is visible to. A hitless live update (§11)
// installs the next generation shadowed (window [e+1, open]) next to
// the retiring one (capped at [.., e]); lookups filter by the packet's
// stamped epoch, so a packet sees exactly one generation — old or new,
// never a blend. Entries installed without a window get [0, open] and
// behave exactly as before.
//
// A commit costs what it changes. The table counts its closed versions
// (window.to != open) wherever a window or an occupancy changes, so
// gc() is O(1) when an update retired nothing, and otherwise erases
// just the retired versions in place by backward shift, without
// re-laying the index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/tcam.hpp"
#include "p4ir/control.hpp"
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

/// An action call in text form: name + runtime arguments (per-entry
/// action data), as the control plane writes it.
struct ActionCall {
  std::string action;
  std::map<std::string, std::uint64_t> args;

  bool operator==(const ActionCall&) const = default;
};

/// The result of a text-form lookup: hit/miss plus the action to run
/// (the table's default action on miss; may be empty).
struct LookupResult {
  bool hit = false;
  ActionCall action;
};

/// Most key components a table may have.
inline constexpr std::size_t kMaxKeyArity = 8;

/// A fixed-width exact-match key: the key values in key-component order.
struct ExactKey {
  std::uint64_t v[kMaxKeyArity] = {};
  std::uint8_t n = 0;

  bool operator==(const ExactKey& o) const {
    return n == o.n && std::equal(v, v + n, o.v);
  }
};

/// Action id meaning "run nothing" (a miss on a table without a
/// default action).
inline constexpr std::uint32_t kNoAction = 0xffffffff;

class RuntimeTable {
 public:
  /// `def` is one of `control`'s tables; both must outlive the store.
  /// Throws std::invalid_argument when the table cannot run at all:
  /// more than kMaxKeyArity key components, or a default action that
  /// is undefined or needs arguments.
  RuntimeTable(const p4ir::ControlBlock& control, const p4ir::Table& def);

  const p4ir::Table& def() const { return *def_; }

  /// Why the table cannot run `call` ("" when it can): the action must
  /// be one the table declares, defined in the owning control, given
  /// exactly that action's parameters, and read no parameter it does
  /// not declare. Every install applies this check and throws
  /// std::invalid_argument with the reason.
  std::string action_error(const ActionCall& call) const;

  /// What a probe matched: hit or miss, and the action to run (the
  /// default action on a miss; kNoAction when there is none).
  struct Match {
    bool hit = false;
    std::uint32_t action = kNoAction;  ///< index into control().actions()
    const std::uint64_t* args = nullptr;  ///< the action's params, in order
  };

  /// The one lookup both engines run, counted in hits()/misses(): the
  /// entry visible to a packet stamped `epoch` whose key matches `key`,
  /// the default action otherwise. `key` is nullptr when the packet
  /// lacks a key field, which is a miss. Keyless tables always hit
  /// their default action. The result points into the store: it is
  /// valid until the next mutation.
  Match probe(const ExactKey* key, std::uint32_t epoch) const;

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
  /// mismatch, an action_error(), window overlap, or table-full.
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

  /// One installed version of a ternary/LPM (key, priority).
  struct TernaryVersion {
    std::size_t handle;
    EpochWindow window;
    ActionCall action;
  };
  /// Every installed version of the ternary/LPM entry `key` at
  /// `priority`, in match order; empty when none (or an exact table).
  /// One pass over the entries.
  std::vector<TernaryVersion> ternary_versions(
      const std::vector<net::TernaryField>& key, std::int32_t priority) const;

  /// Drop every version retired before `min_live` (window.to <
  /// min_live): generation garbage collection after an update's drain
  /// completes. Returns the number of entries removed. O(1) when
  /// retired_count() is 0; otherwise the retired versions are erased in
  /// place (no new slot array), and the index shrinks afterwards only
  /// when it fell under 1/8 load.
  std::size_t gc(std::uint32_t min_live);

  /// How many installed versions have a closed window (window.to !=
  /// open), exact and ternary alike: the most the next gc() can remove.
  std::size_t retired_count() const { return retired_; }

  /// All installed versions of `key`, empty when none (exact tables
  /// only) — how a validator or recovery pass inspects windows.
  std::vector<ExactEntry> exact_versions(
      const std::vector<std::uint64_t>& key) const;

  /// The live (open-window) version for `key`, or nullopt (exact
  /// tables only).
  std::optional<ExactEntry> find_exact(
      const std::vector<std::uint64_t>& key) const;
  /// The version visible to a packet stamped `epoch`, or nullopt.
  std::optional<ExactEntry> find_exact(const std::vector<std::uint64_t>& key,
                                       std::uint32_t epoch) const;

  /// probe() in text form: look up the key values in key-component
  /// order, as seen by a packet stamped `epoch` (a nullopt value is a
  /// missing packet field, so a miss).
  LookupResult lookup(const std::vector<std::optional<std::uint64_t>>& key,
                      std::uint32_t epoch = 0) const;

  std::size_t entry_count() const { return size_; }
  void clear();

  /// Heap bytes held by the exact index's slot array: the per-table
  /// cost of the exact entries, which grows and shrinks with them.
  std::size_t exact_index_bytes() const {
    return slots_.capacity() * sizeof(std::uint64_t);
  }

  /// Monotone mutation stamp: bumped once by every entry mutation
  /// (install, overwrite, remove, retire, unretire, gc, clear), never
  /// by corrupt(). The compiled fast path (sim::CompiledPipeline)
  /// reads it only to advance its generation() — the invalidation
  /// contract of DESIGN.md §12.
  std::uint64_t revision() const { return revision_; }

  /// Per-table hit/miss counters (direct counters in P4 terms),
  /// incremented by probe().
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_counters() { hits_ = misses_ = 0; }

  /// State export (§7 service upgrade / failure handling): enumerate
  /// installed entries — every version, retired and shadowed included —
  /// sorted by key, then window. The explorer and the cost walker fork
  /// in this order.
  std::vector<ExactEntry> exact_entries() const;
  /// Ternary/LPM entries in match-priority order (empty for exact
  /// tables).
  std::vector<net::Tcam<ActionCall>::Entry> ternary_entries() const;

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
  /// One installed version: its window and its action, bound at
  /// install time.
  struct Stored {
    EpochWindow window;
    std::uint32_t action = kNoAction;  // index into the control's actions()
    std::vector<std::uint64_t> args;   // in the action's param order
  };

  /// action_error() minus the "declared by the table" rule (a default
  /// action need not be in def().actions).
  std::string call_error(const ActionCall& call) const;
  /// Bind `call` for an entry visible in `window`, or throw
  /// std::invalid_argument(action_error(call)).
  Stored bind(const ActionCall& call, EpochWindow window) const;
  /// The text form of a bound action.
  ActionCall text(std::uint32_t id, const std::uint64_t* args) const;
  ActionCall text(const Stored& stored) const {
    return text(stored.action, stored.args.data());
  }
  /// Remove the version of `key` whose window equals `*window`, or the
  /// live one when `window` is nullptr.
  bool erase_version(const std::vector<std::uint64_t>& key,
                     const EpochWindow* window);
  Stored* ternary_stored(std::size_t handle);

  // --- the exact index (layout in the file comment) ---
  // Slot words: key[0, arity_), window at arity_ (from | to << 32),
  // action id at arity_ + 1 (kEmptySlot when free), args after it.
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  std::size_t slot_count() const { return slots_.size() / stride_; }
  std::uint64_t* slot(std::size_t i) { return slots_.data() + i * stride_; }
  const std::uint64_t* slot(std::size_t i) const {
    return slots_.data() + i * stride_;
  }
  bool used(const std::uint64_t* s) const {
    return s[arity_ + 1] != kEmptySlot;
  }
  EpochWindow window_at(const std::uint64_t* s) const {
    return {static_cast<std::uint32_t>(s[arity_]),
            static_cast<std::uint32_t>(s[arity_] >> 32)};
  }
  static std::uint64_t packed(EpochWindow w) {
    return w.from | (std::uint64_t{w.to} << 32);
  }
  /// Re-window the version in index slot `s`, keeping retired_ exact.
  void set_window(std::uint64_t* s, EpochWindow w) {
    retired_ = retired_ + !w.open() - !window_at(s).open();
    s[arity_] = packed(w);
  }
  /// Re-window a ternary version, keeping retired_ exact.
  void set_window(Stored& stored, EpochWindow w) {
    retired_ = retired_ + !w.open() - !stored.window.open();
    stored.window = w;
  }
  std::uint32_t action_at(const std::uint64_t* s) const {
    return static_cast<std::uint32_t>(s[arity_ + 1]);
  }
  const std::uint64_t* args_at(const std::uint64_t* s) const {
    return s + arity_ + 2;
  }
  ExactEntry entry_at(const std::uint64_t* s) const {
    return {{s, s + arity_}, text(action_at(s), args_at(s)), window_at(s)};
  }
  /// The home slot of a key of arity_ words.
  std::size_t home(const std::uint64_t* key) const;
  /// The first slot, in probe order, holding a version of `key` that
  /// satisfies `pred(slot)`; kNoSlot when none. Versions of one key are
  /// visited in install order.
  template <class Pred>
  std::size_t find_slot(const std::uint64_t* key, Pred pred) const;
  /// A free slot, from which a walk visits whole clusters (kNoSlot
  /// when the index is empty).
  std::size_t free_slot() const;
  /// Every used slot, each cluster walked in probe order.
  std::vector<std::size_t> used_slots() const;
  /// Copy a slot image into the first free slot from its home.
  void place(const std::uint64_t* image);
  /// Add a version from its slot image (not one inside the index),
  /// growing the index first when it would pass 0.7 load. Counts it in
  /// size_ and retired_.
  void insert_slot(const std::uint64_t* image);
  /// Remove the version in slot `i` by backward shift (each key's
  /// install order kept). Uncounts it from size_ and retired_.
  void erase_slot(std::size_t i);
  /// Shrink the index when it fell under 1/8 load.
  void shrink_if_sparse();
  /// Re-lay every version at the slot count for size_ + `extra` (each
  /// key's install order kept).
  void rehash(std::size_t extra);
  /// The slot image of `version` under `key` (which must not point
  /// into the index: an insert may move it).
  std::vector<std::uint64_t> image(const std::vector<std::uint64_t>& key,
                                   const Stored& version) const;

  const p4ir::ControlBlock* control_;
  const p4ir::Table* def_;
  std::uint32_t default_action_ = kNoAction;
  // Versions with a closed window. 32 bits fill the padding after
  // default_action_: growing the store by a word slowed the packet path
  // measurably.
  std::uint32_t retired_ = 0;
  std::size_t size_ = 0;
  std::uint64_t revision_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  // Exact storage: the flat index. A key's versions have pairwise
  // non-overlapping windows, at most one open.
  std::size_t arity_ = 0;
  std::size_t stride_ = 0;  // words per slot
  std::size_t mask_ = 0;    // slot_count() - 1
  std::vector<std::uint64_t> slots_;
  // Ternary/LPM storage; each entry carries its own window.
  std::optional<net::Tcam<Stored>> tcam_;
};

}  // namespace dejavu::sim
