// Seeded cost-certifier fixtures: deployments whose installed rules
// defeat the static cost story — unbounded recirculation under
// abstraction, certified bounds above the configured pass cap, routing
// plans more optimistic than the proven traversal cost, and branching
// state no class can reach. Each must trip its DV-C checks in
// cost::run; a certifier that passes them is broken. They back the
// golden tests and `dejavu_cli cost --fixture NAME`.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/deployment.hpp"
#include "cost/cost.hpp"
#include "explore/explorer.hpp"
#include "route/routing.hpp"
#include "sfc/chain.hpp"

namespace dejavu::cost::fixtures {

/// One fixture: a fully built deployment with its rules installed and
/// the explorer already run (make() freezes the exploration before it
/// perturbs the dataplane — e.g. lowering the pass cap — so the class
/// inventory reflects the healthy configuration), plus the cost
/// options to analyze under and the check ids cost::run must report.
struct Bundle {
  std::string name;
  std::string description;
  /// Check ids (e.g. "DV-C1") cost::run must report.
  std::vector<std::string> expect_checks;

  std::unique_ptr<control::Deployment> deployment;
  sfc::PolicySet policies;
  explore::ExploreResult exploration;
  /// Heap-held so options.routing stays valid across Bundle moves.
  std::unique_ptr<route::RoutingPlan> routing_override;
  CostOptions options;

  /// Run the certifier exactly the way the fixture intends.
  CostResult run() {
    return cost::run(deployment->dataplane(), policies, exploration,
                     options);
  }
};

/// All fixture names, in catalog order.
std::vector<std::string> names();

/// Build a fixture by name. Throws std::invalid_argument for unknown
/// names.
Bundle make(const std::string& name);

}  // namespace dejavu::cost::fixtures
