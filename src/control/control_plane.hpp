// The merged control plane (§7 "Control plane merge"): one facade that
// programs every NF's tables through the composed program's qualified
// names, installs the framework's routing state, and services packets
// the data plane punts to the CPU (the Fig. 4 session-miss flow: learn
// the session, install it, reinject the packet).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "control/rules.hpp"
#include "route/routing.hpp"
#include "sfc/chain.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::sim {
class CompiledPipeline;
}

namespace dejavu::control {

class ControlPlane {
 public:
  ControlPlane(sim::DataPlane& dp, sfc::PolicySet policies)
      : dp_(&dp), policies_(std::move(policies)) {}

  // --- framework state (derived from placement, §3.4) ---
  void install_routing(const route::RoutingPlan& plan);

  // --- NF tables ---
  void add_traffic_class(const TrafficClassRule& rule);
  void add_firewall_rule(const FirewallRule& rule);
  void add_vgw_mapping(const VgwMapping& mapping);
  void add_route(const RouteEntry& entry);
  void set_lb_pool(LbPool pool) { lb_pool_ = std::move(pool); }
  const LbPool& lb_pool() const { return lb_pool_; }

  /// Directly install an LB session (hash of the packet's 5-tuple at
  /// LB time -> backend). Normally sessions are learned via punts.
  void install_lb_session(std::uint32_t session_hash,
                          net::Ipv4Addr backend);

  // --- CPU path ---
  /// Service the punts of one switch output: learn LB sessions,
  /// rewind the service index, and reinject. Reinjection results are
  /// folded back into `out` (recursively serviced, bounded).
  /// Returns the number of punts handled.
  std::size_t service_punts(sim::SwitchOutput& out, int depth = 0);

  /// Inject a packet and service any punts until it is delivered,
  /// dropped, or the punt budget is exhausted — the normal way to
  /// drive a deployment end to end.
  sim::SwitchOutput inject(net::Packet packet, std::uint16_t in_port);

  /// The engine inject() and reinjections run on: a compiled fast path
  /// bound to this control plane's data plane, or nullptr (the
  /// default) for the interpreter. A reinjection re-enters the engine
  /// that served the punted packet, as a packet-out re-enters the
  /// ASIC's one pipeline. `engine` must outlive its use here.
  void set_engine(sim::CompiledPipeline* engine) { engine_ = engine; }

  std::size_t sessions_learned() const { return sessions_learned_; }
  std::size_t route_misses() const { return route_misses_; }

  const sfc::PolicySet& policies() const { return policies_; }
  /// Swap the policy view after a repair rewired the chains (the
  /// reinjection-port logic follows the policies' NF order).
  void set_policies(sfc::PolicySet policies) {
    policies_ = std::move(policies);
  }
  /// Adopt a routing plan *without* installing it (the repair's
  /// Transaction already wrote the rule diff to the switch); keeps
  /// reinjection-port steering aligned with the new traversals.
  void adopt_routing(route::RoutingPlan plan) { routing_ = std::move(plan); }

 private:
  /// Every instance of a qualified table name; throws
  /// std::invalid_argument when the table does not exist anywhere
  /// (NF not deployed).
  std::vector<sim::TableId> instances(const std::string& table) const;

  /// Ingress port a punted packet should be reinjected on so that the
  /// branching state steers it back to `nf`: the first port of the
  /// pipeline whose ingress pipe precedes the NF in the planned
  /// traversal. Falls back to `fallback` (the original in_port) when
  /// no traversal is known.
  std::uint16_t reinjection_port(std::uint16_t path_id, const std::string& nf,
                                 std::uint16_t fallback) const;

  /// One pass through the active engine.
  sim::SwitchOutput process(net::Packet packet, std::uint16_t in_port,
                            bool from_cpu = false,
                            std::optional<std::uint32_t> stamp = std::nullopt);

  /// The LB's learning write, bound once: each LB.lb_session instance
  /// and its LB.modify_dstIp (ids, so they hold for any data plane of
  /// this program). Empty until the first install_lb_session().
  struct LbBinding {
    sim::TableId table;
    sim::BoundAction action;
  };
  std::vector<LbBinding> lb_session_;

  sim::DataPlane* dp_;
  sim::CompiledPipeline* engine_ = nullptr;
  sfc::PolicySet policies_;
  LbPool lb_pool_;
  route::RoutingPlan routing_;  // kept from install_routing
  std::size_t sessions_learned_ = 0;
  std::size_t route_misses_ = 0;
};

}  // namespace dejavu::control
