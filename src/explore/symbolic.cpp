#include "explore/symbolic.hpp"

#include <bit>

namespace dejavu::explore {

namespace {

std::uint64_t wmask_for(std::uint16_t bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

}  // namespace

int ConstraintSet::add_var(VarDef def) {
  VarConstraints c;
  c.hi = wmask_for(def.bits);
  defs_.push_back(std::move(def));
  cons_.push_back(std::move(c));
  return static_cast<int>(defs_.size()) - 1;
}

std::uint64_t ConstraintSet::width_mask(int var) const {
  return wmask_for(defs_[var].bits);
}

bool ConstraintSet::ok(int var, std::uint64_t v) const {
  const VarConstraints& c = cons_[var];
  if (v > wmask_for(defs_[var].bits)) return false;
  if ((v & c.known_mask) != c.known_value) return false;
  if (v < c.lo || v > c.hi) return false;
  for (const net::TernaryField& f : c.forbidden) {
    if (f.matches(v)) return false;
  }
  return true;
}

bool ConstraintSet::require_masked(int var, std::uint64_t value,
                                   std::uint64_t mask) {
  VarConstraints& c = cons_[var];
  mask &= width_mask(var);
  value &= mask;
  const std::uint64_t overlap = mask & c.known_mask;
  if ((c.known_value & overlap) != (value & overlap)) return false;
  c.known_mask |= mask;
  c.known_value = (c.known_value | value) & c.known_mask;
  return solve(var).has_value();
}

bool ConstraintSet::require_eq(int var, std::uint64_t value) {
  return require_masked(var, value, width_mask(var));
}

bool ConstraintSet::require_ne(int var, std::uint64_t value) {
  const std::uint64_t m = width_mask(var);
  cons_[var].forbidden.push_back(net::TernaryField{value & m, m});
  return solve(var).has_value();
}

bool ConstraintSet::forbid_masked(int var, std::uint64_t value,
                                  std::uint64_t mask) {
  mask &= width_mask(var);
  cons_[var].forbidden.push_back(net::TernaryField{value & mask, mask});
  return solve(var).has_value();
}

bool ConstraintSet::require_lt(int var, std::uint64_t value) {
  if (value == 0) return false;
  VarConstraints& c = cons_[var];
  c.hi = std::min(c.hi, value - 1);
  return solve(var).has_value();
}

bool ConstraintSet::require_gt(int var, std::uint64_t value) {
  if (value >= width_mask(var)) return false;
  VarConstraints& c = cons_[var];
  c.lo = std::max(c.lo, value + 1);
  return solve(var).has_value();
}

bool ConstraintSet::require_le(int var, std::uint64_t value) {
  VarConstraints& c = cons_[var];
  c.hi = std::min(c.hi, value);
  return solve(var).has_value();
}

bool ConstraintSet::require_ge(int var, std::uint64_t value) {
  VarConstraints& c = cons_[var];
  c.lo = std::max(c.lo, value);
  return solve(var).has_value();
}

std::optional<std::uint64_t> ConstraintSet::solve(int var) const {
  const VarConstraints& c = cons_[var];
  if (c.lo > c.hi) return std::nullopt;
  // Two exact shortcuts; every candidate below must agree with the
  // known bits. A forbidden pattern on known bits alone that matches
  // them rules every candidate out. A fully pinned variable has one
  // candidate, known_value, which the scatter loop tries first.
  for (const net::TernaryField& f : c.forbidden) {
    if ((f.mask & ~c.known_mask) == 0 && f.matches(c.known_value)) {
      return std::nullopt;
    }
  }
  const std::uint64_t wmask = width_mask(var);
  if ((c.known_mask & wmask) == wmask) {
    if (ok(var, c.known_value)) return c.known_value;
    return std::nullopt;
  }

  // The candidate sequence is fixed so the witness for a given
  // constraint state never depends on constraint insertion order.
  if (ok(var, defs_[var].template_value)) return defs_[var].template_value;

  for (std::uint64_t d = 0; d < 256; ++d) {
    if (d > c.hi - c.lo) break;
    if (ok(var, c.lo + d)) return c.lo + d;
  }
  for (std::uint64_t d = 0; d < 256; ++d) {
    if (d > c.hi - c.lo) break;
    if (ok(var, c.hi - d)) return c.hi - d;
  }

  // Scatter counter bits over the positions not forced by known_mask,
  // both LSB-first and MSB-first, to dodge forbidden patterns that the
  // contiguous scans above happen to sweep through.
  const std::uint64_t base = c.known_value;
  const std::uint64_t free_mask = wmask & ~c.known_mask;
  std::vector<unsigned> free_bits;
  for (unsigned b = 0; b < 64; ++b) {
    if ((free_mask >> b) & 1) free_bits.push_back(b);
  }
  // Past 2^|free_bits| counter values the candidates only repeat.
  const std::uint64_t tries =
      free_bits.size() >= 12 ? 4096 : std::uint64_t{1} << free_bits.size();
  for (std::uint64_t k = 0; k < tries; ++k) {
    std::uint64_t lsb = base;
    std::uint64_t msb = base;
    for (std::uint64_t rest = k; rest != 0; rest &= rest - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(rest));
      lsb |= std::uint64_t{1} << free_bits[i];
      msb |= std::uint64_t{1} << free_bits[free_bits.size() - 1 - i];
    }
    if (ok(var, lsb)) return lsb;
    if (ok(var, msb)) return msb;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> ConstraintSet::pin(int var) {
  auto v = solve(var);
  if (!v) return std::nullopt;
  if (!require_eq(var, *v)) return std::nullopt;
  return v;
}

}  // namespace dejavu::explore
