// The abstract value domain of the cost certifier (DESIGN.md §14): a
// reduced product of a tri-state bitmask (bits forced by exact /
// ternary / LPM matches), an inclusive value interval (range guards,
// bounded arithmetic), and a set of negated ternary patterns (missed
// entries, higher-priority TCAM exclusions). This is deliberately the
// same shape as explore::VarConstraints — the certifier seeds each
// class's domains from the explorer's accumulated constraint slices,
// so "abstract value" and "path-equivalence class" coincide by
// construction — extended with the operations abstract interpretation
// needs (trichotomy classification, wrapping add, widening) and a
// taint bit marking values derived from mutable register state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/tcam.hpp"
#include "sim/disposition.hpp"

namespace dejavu::cost {

/// The answer an abstract value gives to "does every / no / some
/// concrete member satisfy this predicate?" — the same three-valued
/// type the traffic-manager steps read.
using Tri = sim::Tri;

/// One abstract value. The empty (unsatisfiable) domain is represented
/// by mutator return values: every refinement returns false when it
/// proves the value has no concrete member, and the caller abandons
/// that abstract trace (exactly the explorer's infeasible-fork
/// discipline).
struct AbsVal {
  std::uint16_t bits = 64;
  std::uint64_t known_mask = 0;   ///< bits with a forced value
  std::uint64_t known_value = 0;  ///< forced values (only bits in mask)
  std::uint64_t lo = 0;           ///< inclusive interval
  std::uint64_t hi = ~0ull;       ///< clipped to the width mask
  /// Patterns the value must NOT match ((v & mask) == value is
  /// forbidden); a full-width mask encodes plain disequality.
  std::vector<net::TernaryField> forbidden;
  /// Derived (wholly or partly) from mutable register state. A
  /// branching decision on a tainted value register-taints the class.
  bool tainted = false;

  static std::uint64_t mask_of(std::uint16_t bits) {
    return bits >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << bits) - 1;
  }
  std::uint64_t width_mask() const { return mask_of(bits); }

  static AbsVal top(std::uint16_t bits) {
    AbsVal v;
    v.bits = bits;
    v.hi = mask_of(bits);
    return v;
  }

  static AbsVal concrete(std::uint64_t value, std::uint16_t bits) {
    AbsVal v;
    v.bits = bits;
    value &= mask_of(bits);
    v.known_mask = mask_of(bits);
    v.known_value = value;
    v.lo = v.hi = value;
    return v;
  }

  bool is_concrete() const {
    return (known_mask & width_mask()) == width_mask() || lo == hi;
  }
  std::optional<std::uint64_t> concrete_value() const {
    if ((known_mask & width_mask()) == width_mask()) return known_value;
    if (lo == hi && admits(lo)) return lo;
    return std::nullopt;
  }

  /// Is the concrete value a member of this abstract value?
  bool admits(std::uint64_t v) const {
    if (v > width_mask()) return false;
    if ((v & known_mask) != known_value) return false;
    if (v < lo || v > hi) return false;
    for (const net::TernaryField& f : forbidden) {
      if ((v & f.mask) == (f.value & f.mask)) return false;
    }
    return true;
  }

  /// Cheap emptiness screen (sound: "true" may still be empty, but
  /// "false" is definitely empty — abandoning only provably-empty
  /// forks over-approximates, never under-approximates).
  bool feasible() const {
    if (lo > hi) return false;
    if ((known_mask & width_mask()) == width_mask()) {
      return admits(known_value);
    }
    if (lo == hi) return admits(lo);
    return true;
  }

  // --- refinements (meet with a predicate); false == provably empty --

  bool meet_masked(std::uint64_t value, std::uint64_t mask) {
    mask &= width_mask();
    value &= mask;
    if (((known_value ^ value) & mask & known_mask) != 0) return false;
    known_mask |= mask;
    known_value |= value;
    if ((known_mask & width_mask()) == width_mask()) {
      lo = std::max(lo, known_value);
      hi = std::min(hi, known_value);
    }
    return feasible();
  }

  bool meet_eq(std::uint64_t value) {
    return meet_masked(value, width_mask());
  }

  bool forbid(std::uint64_t value, std::uint64_t mask) {
    mask &= width_mask();
    value &= mask;
    if (match_tri(value, mask) == Tri::kAlways) return false;
    forbidden.push_back({value, mask});
    if (lo == hi && !admits(lo)) return false;
    return feasible();
  }

  bool refine_ne(std::uint64_t value) {
    if (concrete_value() == std::optional<std::uint64_t>(value)) return false;
    if (value == lo && lo < hi) {
      ++lo;
      return feasible();
    }
    if (value == hi && lo < hi) {
      --hi;
      return feasible();
    }
    return forbid(value, width_mask());
  }

  bool refine_lt(std::uint64_t value) {
    if (value == 0) return false;
    hi = std::min(hi, value - 1);
    return feasible();
  }
  bool refine_gt(std::uint64_t value) {
    if (value >= width_mask()) return false;
    lo = std::max(lo, value + 1);
    return feasible();
  }
  bool refine_le(std::uint64_t value) {
    hi = std::min(hi, value);
    return feasible();
  }
  bool refine_ge(std::uint64_t value) {
    lo = std::max(lo, value);
    return feasible();
  }

  // --- transfer functions -------------------------------------------

  /// v' = (v + imm) mod 2^bits. Concrete stays concrete; an interval
  /// shifts when it cannot cross the wrap boundary and widens to top
  /// when it might (the sound answer for e.g. a TTL decrement-by-add
  /// reaching 0 -> 0xff).
  void add_wrapped(std::uint64_t imm) {
    const std::uint64_t wm = width_mask();
    if (auto v = concrete_value()) {
      *this = concrete((*v + imm) & wm, bits);
      return;
    }
    imm &= wm;
    const bool taint = tainted;
    if (imm != 0 && hi <= wm - imm) {
      const std::uint64_t nlo = lo + imm;
      const std::uint64_t nhi = hi + imm;
      *this = top(bits);
      lo = nlo;
      hi = nhi;
    } else if (imm != 0) {
      *this = top(bits);
    }
    tainted = taint;
  }

  /// Truncate to a (possibly narrower) width, as a masked field write
  /// does. Interval information survives only when nothing can wrap.
  void resize(std::uint16_t new_bits) {
    if (new_bits >= bits) {
      bits = new_bits;
      hi = std::min(hi, width_mask());
      return;
    }
    const std::uint64_t m = mask_of(new_bits);
    known_mask &= m;
    known_value &= m;
    if (hi > m) {
      lo = 0;
      hi = m;
    }
    std::vector<net::TernaryField> kept;
    for (const net::TernaryField& f : forbidden) {
      // Only patterns confined to the surviving low bits still hold
      // after truncation.
      if ((f.mask & ~m) == 0) kept.push_back(f);
    }
    forbidden = std::move(kept);
    bits = new_bits;
  }

  /// Widening: forget everything but width and taint. Applied when the
  /// recirculation fixpoint fails to stabilize, so the state digest
  /// converges and loop detection becomes decidable.
  void widen_to_top() {
    const bool taint = tainted;
    *this = top(bits);
    tainted = taint;
  }

  // --- trichotomy classification ------------------------------------

  /// Does the value match the ternary pattern (value, mask)? kAlways:
  /// every admitted concrete member matches. kNever: none does.
  Tri match_tri(std::uint64_t value, std::uint64_t mask) const {
    mask &= width_mask();
    value &= mask;
    if (mask == 0) return Tri::kAlways;
    if (((known_value ^ value) & mask & known_mask) != 0) return Tri::kNever;
    if (mask == width_mask() && (value < lo || value > hi)) {
      return Tri::kNever;
    }
    for (const net::TernaryField& f : forbidden) {
      // The forbidden pattern subsumes the match region: every v with
      // v & mask == value also has v & f.mask == f.value.
      if ((f.mask & ~mask) == 0 &&
          ((f.value ^ value) & f.mask) == 0) {
        return Tri::kNever;
      }
    }
    if ((mask & ~known_mask) == 0 && ((known_value ^ value) & mask) == 0) {
      return Tri::kAlways;
    }
    return Tri::kMaybe;
  }

  Tri eq_tri(std::uint64_t value) const {
    if (auto v = concrete_value()) {
      return *v == value ? Tri::kAlways : Tri::kNever;
    }
    if (!admits(value)) return Tri::kNever;
    return Tri::kMaybe;
  }

  Tri lt_tri(std::uint64_t value) const {
    if (hi < value) return Tri::kAlways;
    if (lo >= value) return Tri::kNever;
    return Tri::kMaybe;
  }

  Tri gt_tri(std::uint64_t value) const {
    if (lo > value) return Tri::kAlways;
    if (hi <= value) return Tri::kNever;
    return Tri::kMaybe;
  }

  /// Stable serialization for widening/loop-detection state digests.
  std::string digest() const {
    std::string s = std::to_string(bits) + ":" + std::to_string(known_mask) +
                    "/" + std::to_string(known_value) + ":" +
                    std::to_string(lo) + ".." + std::to_string(hi) + ":" +
                    (tainted ? "t" : "-");
    for (const net::TernaryField& f : forbidden) {
      s += "!" + std::to_string(f.value) + "&" + std::to_string(f.mask);
    }
    return s;
  }
};

inline Tri tri_not(Tri t) {
  if (t == Tri::kAlways) return Tri::kNever;
  if (t == Tri::kNever) return Tri::kAlways;
  return Tri::kMaybe;
}

}  // namespace dejavu::cost
