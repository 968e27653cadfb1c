#include "control/control_plane.hpp"

#include <stdexcept>

#include "merge/compose.hpp"
#include "merge/framework.hpp"
#include "sfc/header.hpp"
#include "sim/compiled/compiled_pipeline.hpp"

namespace dejavu::control {

namespace {

net::TernaryField prefix_field(const net::Ipv4Prefix& prefix) {
  return net::TernaryField{prefix.address().value(), prefix.mask()};
}

net::TernaryField optional_exact(std::optional<std::uint64_t> v,
                                 std::uint64_t mask) {
  if (!v) return net::TernaryField{0, 0};  // wildcard
  return net::TernaryField{*v, mask};
}

}  // namespace

std::vector<sim::TableId> ControlPlane::instances(
    const std::string& table) const {
  std::vector<sim::TableId> tables = dp_->table_ids(table);
  if (tables.empty()) {
    throw std::invalid_argument("table '" + table +
                                "' is not part of this deployment");
  }
  return tables;
}

void ControlPlane::install_routing(const route::RoutingPlan& plan) {
  if (!plan.feasible) {
    throw std::invalid_argument("routing plan is infeasible: " +
                                plan.infeasible_reason);
  }
  for (const route::CheckRule& rule : plan.checks) {
    // The entry NF (Classifier) is gated on the EtherType; it has no
    // check table, so skip silently.
    auto tables = dp_->tables_named(merge::check_next_nf_table(rule.nf));
    for (sim::RuntimeTable* t : tables) {
      // Gate entries require the toCpu and drop flags clear (flagged
      // packets must miss every gate and fall through to the CPU/drop
      // handling at the pipe boundary).
      t->add_exact({rule.path_id, rule.service_index, 0, 0},
                   sim::ActionCall{merge::check_hit_action(rule.nf), {}});
    }
  }
  for (const route::BranchingRule& rule : plan.branching) {
    sim::RuntimeTable* t = dp_->table_in(
        merge::pipelet_control_name(rule.pipelet), merge::kBranchingTable);
    if (t == nullptr) {
      throw std::invalid_argument("pipelet " + rule.pipelet.to_string() +
                                  " has no branching table");
    }
    sim::ActionCall call;
    if (rule.kind == route::BranchingRule::Kind::kResubmit) {
      call.action = merge::kActRouteResubmit;
    } else {
      call.action = merge::kActRouteToEgress;
      call.args["port"] = rule.port;
    }
    t->add_exact({rule.path_id, rule.service_index}, std::move(call));
  }
  routing_ = plan;
}

std::uint16_t ControlPlane::reinjection_port(std::uint16_t path_id,
                                             const std::string& nf,
                                             std::uint16_t fallback) const {
  auto it = routing_.traversals.find(path_id);
  if (it == routing_.traversals.end()) return fallback;
  const place::Traversal& t = it->second;
  std::uint32_t ingress_pipeline =
      dp_->config().spec().pipeline_of_port(fallback);
  for (const place::TraversalStep& step : t.steps) {
    if (step.pipelet.kind == asic::PipeKind::kIngress) {
      ingress_pipeline = step.pipelet.pipeline;
    }
    if (std::find(step.executed.begin(), step.executed.end(), nf) !=
        step.executed.end()) {
      // Enter on the ingress pipe active when the NF ran.
      return static_cast<std::uint16_t>(
          ingress_pipeline * dp_->config().spec().ports_per_pipeline);
    }
  }
  return fallback;
}

void ControlPlane::add_traffic_class(const TrafficClassRule& rule) {
  for (const sim::TableId id : instances("Classifier.traffic_class")) {
    dp_->table(id).add_ternary(
        {prefix_field(rule.src), prefix_field(rule.dst),
         optional_exact(rule.protocol ? std::optional<std::uint64_t>(
                                            *rule.protocol)
                                      : std::nullopt,
                        0xff)},
        rule.priority,
        sim::ActionCall{"Classifier.classify",
                        {{"path_id", rule.path_id},
                         {"tenant", rule.tenant}}});
  }
}

void ControlPlane::add_firewall_rule(const FirewallRule& rule) {
  for (const sim::TableId id : instances("FW.acl")) {
    sim::ActionCall call{rule.permit ? "FW.permit" : "FW.deny", {}};
    dp_->table(id).add_ternary(
        {prefix_field(rule.src), prefix_field(rule.dst),
         optional_exact(rule.protocol ? std::optional<std::uint64_t>(
                                            *rule.protocol)
                                      : std::nullopt,
                        0xff),
         optional_exact(rule.dst_port ? std::optional<std::uint64_t>(
                                            *rule.dst_port)
                                      : std::nullopt,
                        0xffff)},
        rule.priority, std::move(call));
  }
}

void ControlPlane::add_vgw_mapping(const VgwMapping& mapping) {
  for (const sim::TableId id : instances("VGW.vip_map")) {
    dp_->table(id).add_exact({mapping.virtual_ip.value()},
                 sim::ActionCall{"VGW.translate",
                                 {{"phys_dst", mapping.physical_ip.value()},
                                  {"tenant", mapping.tenant}}});
  }
}

void ControlPlane::add_route(const RouteEntry& entry) {
  for (const sim::TableId id : instances("Router.ipv4_lpm")) {
    dp_->table(id).add_lpm(entry.prefix.address().value(), entry.prefix.length(),
               sim::ActionCall{"Router.route",
                               {{"port", entry.port},
                                {"dmac", entry.next_hop_mac.to_u64()}}});
  }
}

void ControlPlane::install_lb_session(std::uint32_t session_hash,
                                      net::Ipv4Addr backend) {
  if (lb_session_.empty()) {
    std::vector<LbBinding> bound;
    for (const sim::TableId id : instances("LB.lb_session")) {
      bound.push_back({id, dp_->table(id).bind(sim::ActionCall{
                               "LB.modify_dstIp", {{"dip", 0}}})});
    }
    lb_session_ = std::move(bound);
  }
  const std::uint64_t key = session_hash;
  for (LbBinding& lb : lb_session_) {
    lb.action.args[0] = backend.value();  // modify_dstIp's one parameter
    dp_->table(lb.table).add_exact({&key, 1}, lb.action);
  }
}

std::size_t ControlPlane::service_punts(sim::SwitchOutput& out, int depth) {
  constexpr int kMaxDepth = 4;
  if (out.to_cpu.empty() || depth >= kMaxDepth) return 0;

  std::size_t handled = 0;
  auto punts = std::move(out.to_cpu);
  out.to_cpu.clear();

  for (auto& punt : punts) {
    auto header = sfc::read_sfc(punt.packet);
    if (!header || header->service_index == 0) {
      out.to_cpu.push_back(std::move(punt));  // not ours to fix
      continue;
    }
    // The NF that punted is the one before the current service index
    // (its check_sfcFlags glue advanced the index after it ran).
    const std::uint8_t nf_index =
        static_cast<std::uint8_t>(header->service_index - 1);
    auto nf = policies_.nf_at(header->service_path_id, nf_index);
    if (!nf) {
      out.to_cpu.push_back(std::move(punt));
      continue;
    }

    if (*nf == sfc::kLoadBalancer) {
      if (lb_pool_.backends.empty()) {
        out.to_cpu.push_back(std::move(punt));
        continue;
      }
      // Learn the session: hash the packet's 5-tuple exactly as the
      // data-plane hash engine does (at its current header contents),
      // spread across the pool, install, rewind, reinject (Fig. 4).
      auto tuple = punt.packet.five_tuple(sfc::kSfcHeaderSize);
      if (!tuple) {
        out.to_cpu.push_back(std::move(punt));
        continue;
      }
      const std::uint32_t hash = tuple->session_hash();
      const net::Ipv4Addr backend =
          lb_pool_.backends[hash % lb_pool_.backends.size()];
      install_lb_session(hash, backend);
      ++sessions_learned_;

      header->service_index = nf_index;  // rewind to re-run the LB
      header->meta.to_cpu = false;
      sfc::write_sfc(punt.packet, *header);

      const std::uint16_t entry_port = reinjection_port(
          header->service_path_id, *nf, header->meta.in_port);
      // Reinject under the punt's original epoch stamp: the packet
      // finishes on the chain generation it started on, even if a live
      // update flipped the version gate while it sat with the CPU.
      sim::SwitchOutput re = process(std::move(punt.packet), entry_port,
                                     /*from_cpu=*/true, punt.epoch);
      ++handled;
      // Service only the reinjection's own punts (bounded), then fold
      // everything into the original output. Punts this pass chose
      // not to handle stay in out.to_cpu untouched.
      handled += service_punts(re, depth + 1);
      for (auto& e : re.out) out.out.push_back(std::move(e));
      for (auto& c : re.to_cpu) out.to_cpu.push_back(std::move(c));
      out.resubmissions += re.resubmissions;
      out.recirculations += re.recirculations;
      out.recirc_ports.insert(out.recirc_ports.end(),
                              re.recirc_ports.begin(),
                              re.recirc_ports.end());
      if (re.dropped) {
        out.set_drop(re.drop_code,
                     "reinjected packet dropped: " + re.drop_reason);
      }
      continue;
    }

    if (*nf == sfc::kRouter) {
      ++route_misses_;  // no route: surface to the operator
      out.to_cpu.push_back(std::move(punt));
      continue;
    }

    out.to_cpu.push_back(std::move(punt));
  }
  return handled;
}

sim::SwitchOutput ControlPlane::inject(net::Packet packet,
                                       std::uint16_t in_port) {
  sim::SwitchOutput out = process(std::move(packet), in_port);
  service_punts(out);
  return out;
}

sim::SwitchOutput ControlPlane::process(net::Packet packet,
                                        std::uint16_t in_port, bool from_cpu,
                                        std::optional<std::uint32_t> stamp) {
  return engine_ != nullptr
             ? engine_->process(std::move(packet), in_port, from_cpu, stamp)
             : dp_->process(std::move(packet), in_port, from_cpu, stamp);
}

}  // namespace dejavu::control
