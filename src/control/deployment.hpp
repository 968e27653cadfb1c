// Deployment: the one-call orchestration of the whole Dejavu flow —
//
//   NF programs  --merge-->  composed multi-pipelet program
//   policies     --place-->  placement (optimized or given)
//   program      --compile-> per-pipelet stage allocations (+ Table 1)
//   placement    --route-->  branching / check rules
//   everything   --sim---->  a running data plane + control plane
//
// This is the facade example code and benchmarks build on.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asic/switch_config.hpp"
#include "compile/allocator.hpp"
#include "compile/report.hpp"
#include "control/control_plane.hpp"
#include "explore/explorer.hpp"
#include "merge/compose.hpp"
#include "place/optimizer.hpp"
#include "route/routing.hpp"
#include "sim/dataplane.hpp"
#include "verify/verify.hpp"

namespace dejavu::control {

/// Optimizer when no placement is given: exhaustive for small NF
/// counts, annealing beyond this threshold.
inline constexpr std::size_t kExhaustiveLimit = 8;
/// Name of the composed whole-switch program.
inline constexpr const char* kProgramName = "dejavu_sfc";

struct DeploymentOptions {
  /// Use this placement instead of optimizing.
  std::optional<place::Placement> placement;
  place::StageModel stage_model;
  /// Fail the build (std::runtime_error) when the chain verifier finds
  /// error-severity problems. The report is produced and retained
  /// either way — set false to inspect a broken deployment's findings
  /// via verification() (what `dejavu_cli lint` does).
  bool verify = true;
  /// Run the symbolic packet-path explorer right after bring-up and
  /// fail the build (std::runtime_error) on error-severity findings.
  /// At build time only the framework rules are installed, so this
  /// checks the routing skeleton; after installing NF rules, call
  /// run_explorer() to verify the deployment the packets actually see.
  bool explore = false;
  explore::ExploreOptions explore_options;
};

class Deployment {
 public:
  /// Build and validate a full deployment. Throws std::runtime_error
  /// when placement is infeasible or a pipelet program does not fit
  /// its stage ladder.
  static std::unique_ptr<Deployment> build(
      std::vector<p4ir::Program> nf_programs, sfc::PolicySet policies,
      asic::SwitchConfig config, p4ir::TupleIdTable ids,
      DeploymentOptions options = {});

  const p4ir::Program& program() const { return *program_; }
  const place::Placement& placement() const { return placement_; }
  const route::RoutingPlan& routing() const { return routing_; }
  const std::vector<compile::Allocation>& allocations() const {
    return allocations_;
  }
  const sfc::PolicySet& policies() const { return policies_; }
  const p4ir::TupleIdTable& ids() const { return ids_; }
  /// The NF source programs the deployment was composed from (a
  /// re-placement repair rebuilds from these).
  const std::vector<p4ir::Program>& nf_programs() const {
    return nf_programs_;
  }

  /// Adopt the policy/routing view a committed repair produced. Does
  /// not touch the data plane: the caller has already installed the
  /// rule diff through a Transaction. Keeps the control plane's punt
  /// steering consistent with the new chains.
  void apply_repair(sfc::PolicySet policies, route::RoutingPlan routing);

  /// The chain verifier's report for this deployment (always populated,
  /// even when DeploymentOptions::verify is false).
  const verify::Report& verification() const { return verification_; }

  /// Run the symbolic packet-path explorer against the data plane's
  /// *currently installed* rules (framework + whatever NF rules the
  /// control plane has added so far) and retain the result. The DV-S
  /// report includes the differential cross-check against a concrete
  /// replay of every witness packet.
  const explore::ExploreResult& run_explorer(
      const explore::ExploreOptions& options = {});
  /// The most recent run_explorer() result (empty until then).
  const explore::ExploreResult& exploration() const { return exploration_; }

  sim::DataPlane& dataplane() { return *dataplane_; }
  ControlPlane& control() { return *control_; }

  /// Resource usage of the Dejavu framework tables only (Table 1).
  compile::ResourceReport framework_report() const;
  /// Resource usage of everything deployed.
  compile::ResourceReport total_report() const;

 private:
  Deployment() = default;

  std::vector<p4ir::Program> nf_programs_;
  sfc::PolicySet policies_;
  p4ir::TupleIdTable ids_;
  asic::TargetSpec spec_;
  place::Placement placement_;
  std::unique_ptr<p4ir::Program> program_;
  std::vector<compile::Allocation> allocations_;
  route::RoutingPlan routing_;
  verify::Report verification_;
  explore::ExploreResult exploration_;
  std::unique_ptr<sim::DataPlane> dataplane_;
  std::unique_ptr<ControlPlane> control_;
};

/// Convenience: the full Fig. 2 edge-cloud deployment on the paper's
/// testbed profile — 5 NFs, 3 policies, pipeline 1 in loopback mode
/// (§5), sensible default rules (traffic classes, permissive FW for
/// the classes, VGW mappings, routes, LB pool).
struct Fig2Deployment {
  std::unique_ptr<Deployment> deployment;
  sfc::PolicySet policies;

  /// Ports used by the canonical setup.
  static constexpr std::uint16_t kSenderPort = 0;
  static constexpr std::uint16_t kReceiverPort = 1;
};

/// `placement`: use this placement instead of letting the optimizer
/// choose (nullopt = optimize). `options.placement` is overwritten by
/// the `placement` argument; the other options pass through (lint uses
/// `options.verify = false` to report findings instead of throwing).
Fig2Deployment make_fig2_deployment(
    std::optional<place::Placement> placement = std::nullopt,
    DeploymentOptions options = {});

/// The paper's §5/Fig. 9 prototype layout on 2 pipelines / 4 pipelets:
/// Classifier+FW on ingress 0, VGW on egress 1, LB on ingress 1,
/// Router on egress 0 — every path recirculates at most once through
/// the all-loopback pipeline 1. (Our optimizer actually finds a
/// 0-recirculation packing for Fig. 2; this layout exists to reproduce
/// the published prototype's numbers.)
place::Placement fig9_placement();

/// Fig. 2 deployment pinned to the Fig. 9 layout.
inline Fig2Deployment make_fig9_deployment(DeploymentOptions options = {}) {
  return make_fig2_deployment(fig9_placement(), std::move(options));
}

}  // namespace dejavu::control
