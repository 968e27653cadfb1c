#include "sim/disposition.hpp"

namespace dejavu::sim {

std::string drop_detail(DropCode code, std::uint16_t in_port) {
  switch (code) {
    case DropCode::kRecircPortExternal:
      return "dedicated recirculation ports take no external traffic";
    case DropCode::kLoopbackPortExternal:
      return "port " + std::to_string(in_port) +
             " is in loopback mode and takes no external traffic";
    case DropCode::kPortDown:
      return "ingress port " + std::to_string(in_port) + " is down";
    default:
      return "invalid ingress port";
  }
}

std::string drop_detail(const DataPlane& dp, const Step& step,
                        std::uint32_t pipeline) {
  switch (step.code) {
    case DropCode::kIngressDrop:
      return "dropped in ingress pipe " + std::to_string(pipeline);
    case DropCode::kEgressDrop:
      return "dropped in egress pipe " + std::to_string(pipeline);
    case DropCode::kInvalidEgressSpec:
      return "egress_spec " + std::to_string(step.port) +
             " is not a valid port";
    case DropCode::kPortDown:
      // The traffic manager's view of a dead link or faulted
      // recirculation port: the packet has nowhere to go.
      return (dp.loops_back(step.port) ? "recirculation port "
                                       : "egress port ") +
             std::to_string(step.port) + " is down";
    default:
      return "no egress decision after ingress pipe";
  }
}

std::string drop_detail(const DataPlane& dp,
                        const std::vector<std::uint16_t>& recirc_ports) {
  std::string s = "packet exceeded " + std::to_string(dp.max_passes()) +
                  " pipeline passes (routing loop?)";
  if (!recirc_ports.empty()) {
    s += "; recirc ports:";
    for (std::uint16_t p : recirc_ports) s += " " + std::to_string(p);
  }
  return s;
}

}  // namespace dejavu::sim
