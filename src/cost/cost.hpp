// The abstract-interpretation cost certifier (DESIGN.md §14): a
// whole-deployment abstract interpreter over the merged artifact that
// walks sim::DataPlane::process semantics with abstract packet fields
// (cost::AbsVal, seeded from the explorer's per-class constraint
// slices) instead of concrete bytes. Per explorer path-equivalence
// class it proves
//   (a) a worst-case pipeline-pass bound — tighter than the blunt
//       max_pipeline_passes cap, or a DV-C1/DV-C2 finding when the
//       class is unbounded / exceeds the cap under abstraction;
//   (b) worst-case recirculation and resubmission counts, fed into
//       sim::solve_fluid_throughput as statically derived per-path
//       traversal costs (the §4 "throughput is calculable" claim,
//       derived from the rules alone, no packets replayed).
// The walker mirrors the interpreter at the p4ir level and never
// mutates the dataplane: a forced key asks the store's uncounted
// find_exact(), and any other key walks the installed entries in place
// (epoch-filtered), so table hit/miss counters and register state stay
// untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "route/routing.hpp"
#include "sfc/chain.hpp"
#include "sim/dataplane.hpp"
#include "sim/throughput.hpp"
#include "verify/finding.hpp"

namespace dejavu::cost {

/// Abstract-trace budget per class; exceeding it abandons the class
/// as conservatively unbounded (DV-C1) and voids DV-C4 coverage.
inline constexpr std::size_t kMaxForks = 512;
/// Extra passes past the configured cap the walker explores to tell
/// "terminates beyond the cap" (DV-C2) from "never terminates" (DV-C1).
inline constexpr std::uint32_t kPassBudgetSlack = 12;

struct CostOptions {
  /// Offered load the static per-path demands split by policy weight
  /// when feeding the fluid solver.
  double offered_gbps = 100.0;
  /// Chain generation to analyze (default: the dataplane's epoch).
  std::optional<std::uint32_t> epoch;
  /// Planned traversals to cross-check against the static bounds
  /// (DV-C3 fires when a path's proven cost exceeds its plan).
  const route::RoutingPlan* routing = nullptr;
};

/// The certified cost of one explorer path-equivalence class.
struct ClassCost {
  std::string class_id;  ///< "<shape>#<index>" (explorer path order)
  std::string shape;
  std::uint16_t in_port = 0;
  /// How the class leaves the switch: "emit", "punt", "drop", or
  /// "unbounded" when no finite bound exists under abstraction.
  std::string outcome;
  bool bounded = true;          ///< false => DV-C1
  bool deterministic = false;   ///< single abstract trace, no forks
  bool register_dependent = false;  ///< a decision consumed register state
  /// The class's trace budget ran out; bounds are void and DV-C4
  /// coverage is suppressed.
  bool fork_capped = false;
  std::uint32_t pass_bound = 0;      ///< certified worst-case passes
  std::uint32_t recirc_bound = 0;    ///< worst-case recirculations
  std::uint32_t resubmit_bound = 0;  ///< worst-case resubmissions
  std::uint32_t traces = 0;          ///< completed abstract traces
  /// Pipelines of the worst trace's recirculation ports, in order —
  /// the §4 traversal cost fed to the fluid solver.
  std::vector<std::uint32_t> loop_pipelines;
  /// Service path IDs whose branching entries the class consulted.
  std::vector<std::uint16_t> path_ids;
};

struct CostStats {
  std::size_t classes = 0;
  std::size_t unbounded = 0;
  std::size_t traces = 0;      ///< completed abstract traces, all classes
  std::size_t forks = 0;       ///< fork points taken
  std::size_t widenings = 0;   ///< states widened to reach the fixpoint
};

struct CostResult {
  verify::Report report;
  std::vector<ClassCost> classes;
  /// Max certified pass bound over bounded classes — the proven
  /// deployment-wide worst case (<= configured_pass_cap when no DV-C2).
  std::uint32_t deployment_pass_bound = 0;
  std::uint32_t configured_pass_cap = 0;
  /// solve_fluid_throughput over the statically derived per-path
  /// demands (no packets replayed).
  sim::ThroughputReport fluid;
  CostStats stats;

  std::string to_text(bool per_class = true) const;
  std::string to_json() const;
};

/// Analyze every path-equivalence class of `exploration` against the
/// dataplane's installed rules. Read-only on `dp`: lookups are
/// modelled on the store in place, never executed.
CostResult run(sim::DataPlane& dp, const sfc::PolicySet& policies,
               const explore::ExploreResult& exploration,
               const CostOptions& options = {});

}  // namespace dejavu::cost
