// Replay targets backed by full Deployments: each replay worker gets
// its own private Fig. 2 / Fig. 9 switch replica — composed program,
// installed rules, and (optionally) a control plane servicing LB
// session punts, so replayed traffic exercises the Fig. 4 slow path
// exactly as dejavu_cli's `send` does.
#pragma once

#include "control/deployment.hpp"
#include "sim/replay.hpp"

namespace dejavu::control {

/// A worker-private deployment. With `service_punts` (default) packets
/// are injected through the control plane, which learns LB sessions
/// and reinjects; without it, packets meet the bare data plane and
/// session misses stay punted.
class DeploymentTarget : public sim::ReplayTarget {
 public:
  explicit DeploymentTarget(Fig2Deployment fx, bool service_punts = true)
      : fx_(std::move(fx)), service_punts_(service_punts) {}

  sim::SwitchOutput inject(net::Packet packet, std::uint16_t in_port) override;
  sim::DataPlane& dataplane() override { return fx_.deployment->dataplane(); }

  /// kCompiled lowers the deployed chain's whole program (once, on the
  /// first switch) and hands the engine to the control plane: first
  /// passes and the Fig. 4 reinjections both run on the active engine.
  void set_engine(sim::EngineKind kind) override;
  sim::EngineKind engine() const override { return engine_; }
  std::uint64_t compiled_packets() const override;
  std::uint64_t fallback_packets() const override;

  /// The live compiled engine, or nullptr while on the interpreter.
  sim::CompiledPipeline* compiled() { return compiled_.get(); }

  Fig2Deployment& fixture() { return fx_; }

 private:
  Fig2Deployment fx_;
  bool service_punts_;
  std::unique_ptr<sim::CompiledPipeline> compiled_;
  sim::EngineKind engine_ = sim::EngineKind::kInterpreter;
};

/// Factory building one private Fig. 2 deployment per worker (pinned
/// to the Fig. 9 prototype placement when `fig9`, which also skips the
/// placement optimizer — the right default for replay setup cost).
sim::TargetFactory fig2_replay_factory(bool fig9 = true,
                                       bool service_punts = true);

/// The canonical replay workload for the Fig. 2 deployment: flows
/// split across the three paths in the policy weights' 50/30/20
/// proportions, aimed at destinations each path's rules service
/// (path 1: the tenant VIP, path 2: the virtualized-only VIP,
/// path 3: plain routed space), entering on the sender port.
std::vector<sim::ReplayFlow> fig2_replay_flows(std::uint32_t total_flows,
                                               std::uint64_t seed = 1);

}  // namespace dejavu::control
