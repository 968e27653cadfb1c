// A software model of a TCAM: ternary (value/mask) match with explicit
// priorities, first-highest-priority-wins. Models ternary match tables
// such as the firewall ACL.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace dejavu::net {

/// One ternary key component: `value` is compared under `mask`
/// (bits where mask==0 are wildcards).
struct TernaryField {
  std::uint64_t value = 0;
  std::uint64_t mask = 0;

  bool matches(std::uint64_t v) const { return (v & mask) == (value & mask); }
  bool operator==(const TernaryField&) const = default;
};

/// A priority-ordered ternary store mapping multi-field keys to values
/// of type T. entries() lists them in match order: higher priority
/// first, ties in insertion order (earlier wins), matching typical
/// switch-driver semantics. The lookup that walks this order is
/// sim::RuntimeTable::probe(), which also filters by epoch.
template <typename T>
class Tcam {
 public:
  struct Entry {
    std::size_t handle;
    std::int32_t priority;
    std::vector<TernaryField> key;
    T value;
  };

  explicit Tcam(std::size_t key_fields) : key_fields_(key_fields) {}

  std::size_t size() const { return entries_.size(); }

  /// All installed entries in match-priority order (for state export).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Mutable access to one entry by handle, or nullptr: for in-place
  /// value updates, and for the fault model (sim's state-corruption
  /// lane flips bits in place, the way an SRAM/TCAM upset would).
  /// Adding or removing entries must go through insert()/erase(), and
  /// the priority must not be edited through this pointer: the entries
  /// stay in priority order only because insert() places them.
  Entry* mutable_entry(std::size_t handle) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.handle == handle; });
    return it == entries_.end() ? nullptr : &*it;
  }

  /// Insert an entry; `key` must have the arity given at construction.
  /// Returns the entry's handle (index usable with erase()).
  std::size_t insert(std::vector<TernaryField> key, std::int32_t priority,
                     T value) {
    if (key.size() != key_fields_) {
      throw std::invalid_argument("tcam key arity mismatch");
    }
    std::size_t handle = next_handle_++;
    entries_.push_back(Entry{handle, priority, std::move(key),
                             std::move(value)});
    // Keep entries sorted by descending priority, stable on insertion
    // order so earlier-installed rules win ties.
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.priority > b.priority;
                     });
    return handle;
  }

  bool erase(std::size_t handle) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.handle == handle; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  /// Erase every entry `pred` accepts (the rest keep their order);
  /// returns how many were erased.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(entries_, pred);
  }

 private:
  std::size_t key_fields_;
  std::size_t next_handle_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace dejavu::net
