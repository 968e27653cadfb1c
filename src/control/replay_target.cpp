#include "control/replay_target.hpp"

namespace dejavu::control {

sim::SwitchOutput DeploymentTarget::inject(net::Packet packet,
                                           std::uint16_t in_port) {
  if (service_punts_) {
    return fx_.deployment->control().inject(std::move(packet), in_port);
  }
  if (engine_ == sim::EngineKind::kCompiled) {
    return compiled_->process(std::move(packet), in_port);
  }
  return fx_.deployment->dataplane().process(std::move(packet), in_port);
}

void DeploymentTarget::set_engine(sim::EngineKind kind) {
  engine_ = kind;
  if (kind == sim::EngineKind::kCompiled && !compiled_) {
    compiled_ =
        std::make_unique<sim::CompiledPipeline>(fx_.deployment->dataplane());
  }
  fx_.deployment->control().set_engine(
      kind == sim::EngineKind::kCompiled ? compiled_.get() : nullptr);
}

std::uint64_t DeploymentTarget::compiled_packets() const {
  return compiled_ ? compiled_->stats().compiled_packets : 0;
}

std::uint64_t DeploymentTarget::fallback_packets() const {
  return compiled_ ? compiled_->stats().fallback_packets : 0;
}

sim::TargetFactory fig2_replay_factory(bool fig9, bool service_punts) {
  return [fig9, service_punts](std::uint32_t) {
    auto fx = fig9 ? make_fig9_deployment() : make_fig2_deployment();
    return std::make_unique<DeploymentTarget>(std::move(fx), service_punts);
  };
}

std::vector<sim::ReplayFlow> fig2_replay_flows(std::uint32_t total_flows,
                                               std::uint64_t seed) {
  struct PathSpec {
    std::uint16_t path_id;
    net::Ipv4Addr dst;
    double weight;
    net::Ipv4Addr src_base;
  };
  // Destinations chosen to hit the canonical rules installed by
  // make_fig2_deployment: the VGW mapping for 10.1.0.10 (full chain),
  // the mapping for 10.2.0.20 (virtualized-only), and routed space.
  const PathSpec specs[] = {
      {1, net::Ipv4Addr(10, 1, 0, 10), 0.5, net::Ipv4Addr(192, 168, 0, 0)},
      {2, net::Ipv4Addr(10, 2, 0, 20), 0.3, net::Ipv4Addr(192, 169, 0, 0)},
      {3, net::Ipv4Addr(10, 3, 0, 1), 0.2, net::Ipv4Addr(192, 170, 0, 0)},
  };

  std::vector<sim::ReplayFlow> flows;
  for (const PathSpec& spec : specs) {
    sim::FlowMix mix;
    mix.flows = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(total_flows * spec.weight + 0.5));
    mix.dst = spec.dst;
    mix.src_base = spec.src_base;
    mix.seed = seed + spec.path_id;
    auto tagged = sim::make_path_flows(mix, spec.path_id,
                                       Fig2Deployment::kSenderPort);
    flows.insert(flows.end(), std::make_move_iterator(tagged.begin()),
                 std::make_move_iterator(tagged.end()));
  }
  return flows;
}

}  // namespace dejavu::control
