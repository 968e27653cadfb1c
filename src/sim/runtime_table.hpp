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
// action id plus its arguments in the action's parameter order (a
// BoundAction). The table checks each declared action's shape at
// construction, so bind() only matches names and builds no string
// unless it refuses. An install the table could not run is refused
// right there, so neither engine meets an unknown action or a missing
// argument. A text install binds and then takes the bound install, the
// one path; a writer repeating one action (the LB's learning write)
// binds it once. Both engines
// read the store in place through probe(), and whole-table readers walk
// it in place (for_each_exact(), ternary_store()); snapshots copy the
// bound words as they are. The text form (ActionCall, ExactEntry) is
// rebuilt on demand for journals and the few versions an analyzer
// keeps.
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
#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
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

/// Lexicographic order on exact keys, vectors and borrowed spans alike:
/// a set ordered by it answers for a borrowed key without a copy.
struct ExactKeyLess {
  using is_transparent = void;
  bool operator()(std::span<const std::uint64_t> a,
                  std::span<const std::uint64_t> b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

/// Action id meaning "run nothing" (a miss on a table without a
/// default action).
inline constexpr std::uint32_t kNoAction = 0xffffffff;

/// Most parameters an action a table declares may take.
inline constexpr std::size_t kMaxActionArgs = 8;

/// An action resolved against one table (RuntimeTable::bind): the
/// action's index in the owning control's actions() and its arguments
/// in the action's parameter order (words past them are never read).
struct BoundAction {
  std::uint32_t action = kNoAction;
  std::uint64_t args[kMaxActionArgs] = {};
};

class RuntimeTable {
 public:
  /// `def` is one of `control`'s tables; both must outlive the store.
  /// Throws std::invalid_argument when the table cannot run at all:
  /// more than kMaxKeyArity key components, a declared action taking
  /// more than kMaxActionArgs parameters, or a default action that is
  /// undefined or needs arguments.
  RuntimeTable(const p4ir::ControlBlock& control, const p4ir::Table& def);

  const p4ir::Table& def() const { return *def_; }
  const p4ir::ControlBlock& control() const { return *control_; }

  /// Resolve `call` into `out` and return "", or return why the table
  /// cannot run it: the action must be one the table declares, defined
  /// in the owning control, given exactly that action's parameters, and
  /// read no parameter it does not declare.
  std::string bind(const ActionCall& call, BoundAction& out) const;
  /// bind() that throws std::invalid_argument("table 'T': " + reason),
  /// as every text install does.
  BoundAction bind(const ActionCall& call) const;
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
  void add_exact(const std::vector<std::uint64_t>& key,
                 const ActionCall& action, EpochWindow window = {}) {
    add_exact(std::span<const std::uint64_t>(key), bind(action), window);
  }
  /// The one exact install: `action` came from this table's bind().
  void add_exact(std::span<const std::uint64_t> key, const BoundAction& action,
                 EpochWindow window = {});

  /// Install a ternary entry (value/mask per component, priority).
  /// Returns the entry's handle (usable with erase_ternary).
  std::size_t add_ternary(const std::vector<net::TernaryField>& key,
                          std::int32_t priority, const ActionCall& action,
                          EpochWindow window = {}) {
    return add_ternary(key, priority, bind(action), window);
  }
  /// The one ternary install: `action` came from this table's bind().
  std::size_t add_ternary(const std::vector<net::TernaryField>& key,
                          std::int32_t priority, const BoundAction& action,
                          EpochWindow window = {});

  /// Install an LPM entry on the (single) LPM key component:
  /// value/prefix_len, with exact values for any other components.
  /// Returns the entry's handle (usable with erase_ternary).
  std::size_t add_lpm(std::uint64_t value, std::uint8_t prefix_len,
                      const ActionCall& action, EpochWindow window = {});

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

  /// Ternary/LPM analogues, addressed by handle. Like unretire_exact,
  /// unretire_ternary refuses a re-open that would overlap another
  /// version of the same key and priority.
  bool retire_ternary(std::size_t handle, std::uint32_t last_epoch);
  bool unretire_ternary(std::size_t handle, std::uint32_t last_epoch);

  /// One installed ternary/LPM entry version, window included (state
  /// export, like ExactEntry).
  struct TernaryEntry {
    std::size_t handle;
    std::int32_t priority;
    std::vector<net::TernaryField> key;
    ActionCall action;
    EpochWindow window;
  };
  /// One installed version as the store holds it: its window and its
  /// action, bound at install time.
  struct Stored {
    EpochWindow window;
    std::uint32_t action = kNoAction;  // index into the control's actions()
    std::vector<std::uint64_t> args;   // in the action's param order
  };
  using TcamEntry = net::Tcam<Stored>::Entry;
  /// Every ternary/LPM version in match order, borrowed in place (empty
  /// for exact tables; valid until the next mutation): what the
  /// analyzers walk on each lookup without copying keys or action
  /// text. text() builds the action of the one that hits.
  std::span<const TcamEntry> ternary_store() const {
    if (!tcam_) return {};
    return tcam_->entries();
  }
  /// The text form of a stored version's action.
  ActionCall text(const Stored& stored) const {
    return text(stored.action, stored.args.data());
  }

  /// Every installed version of the ternary/LPM entry `key` at
  /// `priority`, in match order; empty when none (or an exact table).
  /// One pass over the entries.
  std::vector<TernaryEntry> ternary_versions(
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

  /// The version of `key` visible to a packet stamped `epoch` — the one
  /// probe() takes, the first in install order — or nullopt (exact
  /// tables only). The default epoch finds the live (open-window)
  /// version. Uncounted: it leaves hits() and misses() alone.
  std::optional<ExactEntry> find_exact(const std::vector<std::uint64_t>& key,
                                       std::uint32_t epoch = kEpochOpen) const;

  /// One exact version as the index holds it, borrowed in place (valid
  /// until the next mutation).
  struct ExactVersion {
    std::span<const std::uint64_t> key;
    EpochWindow window;
    std::uint32_t action = kNoAction;     // index into the control's actions()
    const std::uint64_t* args = nullptr;  // in the action's param order
  };
  /// Visit every exact version in place, copying no key and building no
  /// action text: the exact counterpart of ternary_store(). The walk
  /// takes each probe cluster whole, so a key's versions come in
  /// install order. Visits nothing on a ternary table.
  template <class Visit>
  void for_each_exact(Visit&& visit) const {
    for_each_slot([&](std::size_t i) { visit(version_at(slot(i))); });
  }
  /// Visit the versions of `key` in place, in install order (the order
  /// probe() tries them): one probe of the key's cluster.
  template <class Visit>
  void for_each_version(std::span<const std::uint64_t> key,
                        Visit&& visit) const {
    if (tcam_ || key.size() != arity_) return;
    find_slot(key.data(), [&](const std::uint64_t* s) {
      visit(version_at(s));
      return false;  // visit every version
    });
  }
  /// The exact versions `keep` accepts, in canonical order: by key,
  /// then window, ties in walk order. The explorer and the cost walker
  /// fork in this order, and Snapshot::to_text() lists it.
  template <class Keep>
  std::vector<ExactVersion> exact_where(Keep&& keep) const {
    std::vector<ExactVersion> out;
    for_each_exact([&](const ExactVersion& v) {
      if (keep(v)) out.push_back(v);
    });
    std::stable_sort(out.begin(), out.end(), canonical_less);
    return out;
  }
  /// The canonical order of exact versions: key, then window.
  static bool canonical_less(const ExactVersion& a, const ExactVersion& b) {
    const auto by_key = std::lexicographical_compare_three_way(
        a.key.begin(), a.key.end(), b.key.begin(), b.key.end());
    if (by_key != 0) return by_key < 0;
    return std::tie(a.window.from, a.window.to) <
           std::tie(b.window.from, b.window.to);
  }
  /// The text form of a borrowed version's action.
  ActionCall text(const ExactVersion& v) const {
    return text(v.action, v.args);
  }

  /// probe() in text form: look up the key values in key-component
  /// order, as seen by a packet stamped `epoch` (a nullopt value is a
  /// missing packet field, so a miss).
  LookupResult lookup(const std::vector<std::optional<std::uint64_t>>& key,
                      std::uint32_t epoch = 0) const;

  std::size_t entry_count() const { return size_; }
  void clear();
  /// Size the exact index for `n` versions at once, so the next
  /// n - entry_count() installs never re-lay it (restore_snapshot
  /// refills a cleared table this way). No-op on ternary tables.
  void reserve(std::size_t n);

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

  /// Order-free digest of the installed state: the wrapping sum over
  /// every version of an FNV-1a hash of its key (and priority), window,
  /// action id and arguments, in one pass with no copy or sort. Equal
  /// contents digest equal whatever their install order; any corrupt()
  /// moves it. Never cached: corrupt() does not move revision().
  std::uint64_t state_digest() const;

 private:
  /// bind() minus the "declared by the table" rule (a default action
  /// need not be in def().actions), for the control's action `id`
  /// (kNoAction when undefined) whose shape was checked as `runnable`.
  std::string bind_call(const ActionCall& call, std::uint32_t id,
                        bool runnable, BoundAction& out) const;
  /// Throw std::invalid_argument unless `action` names one of the
  /// control's actions (a BoundAction whose bind() failed does not).
  void check_bound(const BoundAction& action) const;
  /// The slot of the exact version at `rank` in corrupt()'s canonical
  /// victim order: the keys' decimal text ("v0|v1|..."), then install
  /// order, so the pick is independent of the index's slot layout.
  std::size_t canonical_victim(std::size_t rank) const;
  /// The text form of a bound action.
  ActionCall text(std::uint32_t id, const std::uint64_t* args) const;
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
  ExactVersion version_at(const std::uint64_t* s) const {
    return {{s, arity_}, window_at(s), action_at(s), args_at(s)};
  }
  ExactEntry entry(const ExactVersion& v) const {
    return {{v.key.begin(), v.key.end()}, text(v), v.window};
  }
  /// The home slot of a key of arity_ words.
  std::size_t home(const std::uint64_t* key) const;
  /// The first slot, in probe order, holding a version of `key` that
  /// satisfies `pred(slot)`; kNoSlot when none. Versions of one key are
  /// visited in install order.
  template <class Pred>
  std::size_t find_slot(const std::uint64_t* key, Pred pred) const {
    if (slots_.empty()) return kNoSlot;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const std::uint64_t* s = slot(i);
      if (!used(s)) return kNoSlot;
      if (std::equal(s, s + arity_, key) && pred(s)) return i;
    }
  }
  /// A free slot, from which a walk visits whole clusters (kNoSlot
  /// when the index is empty).
  std::size_t free_slot() const;
  /// Call `visit(i)` for every used slot i, each cluster walked in
  /// probe order (from a free slot, so no cluster splits at the wrap).
  template <class Visit>
  void for_each_slot(Visit&& visit) const {
    const std::size_t start = free_slot();
    if (start == kNoSlot) return;
    for (std::size_t k = 1; k <= slot_count(); ++k) {
      const std::size_t i = (start + k) & mask_;
      if (used(slot(i))) visit(i);
    }
  }
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
  static constexpr std::size_t kMaxStride = kMaxKeyArity + 2 + kMaxActionArgs;

  /// One action the table declares: its index in the control's
  /// actions() (kNoAction when undefined) and whether it reads only
  /// parameters it declares.
  struct Declared {
    std::uint32_t action = kNoAction;
    bool runnable = false;
  };

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
  // In def().actions order.
  std::vector<Declared> declared_;
  // Ternary/LPM storage; each entry carries its own window.
  std::optional<net::Tcam<Stored>> tcam_;
};

}  // namespace dejavu::sim
