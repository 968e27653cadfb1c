// Reproduces the §5 prototype validation (Fig. 9): the Fig. 2 service
// chain (Classifier, FW, VGW, L4 LB, IP Router) deployed on the
// 2-pipeline/4-pipelet Tofino profile with pipeline 1 in loopback
// mode. Prints the placement, the per-path traversals, the PTF-style
// functional checks for every SFC path, and the capacity statement
// ("1.6 Tbps and all traffic may recirculate once").
#include "bench_util.hpp"
#include "control/deployment.hpp"
#include "ptf/ptf.hpp"
#include "sim/latency.hpp"
#include "sim/throughput.hpp"

namespace {

using namespace dejavu;

control::Fig2Deployment* fixture() {
  static control::Fig2Deployment fx = control::make_fig2_deployment();
  return &fx;
}

net::Packet packet_to(net::Ipv4Addr dst, std::uint16_t sport = 40000) {
  net::PacketSpec spec;
  spec.ip_src = net::Ipv4Addr(192, 168, 1, 50);
  spec.ip_dst = dst;
  spec.src_port = sport;
  return net::Packet::make(spec);
}

void print_placement() {
  auto* fx = fixture();
  sim::LatencyModel latency(asic::TargetSpec::tofino32());

  bench::heading("Fig. 9: the paper's prototype placement");
  auto paper = control::make_fig9_deployment();
  std::printf("%s\n", paper.deployment->placement().to_string().c_str());
  for (const auto& [path_id, t] : paper.deployment->routing().traversals) {
    std::printf("path %u (%s): recircs=%u (paper: at most 1) "
                "latency=%.0f ns\n    %s\n",
                path_id, paper.policies.find(path_id)->name.c_str(),
                t.recirculations, latency.traversal_ns(t),
                t.to_string().c_str());
  }

  bench::heading("Optimizer's placement for the same chains");
  std::printf("%s\n", fx->deployment->placement().to_string().c_str());

  bench::subheading("per-path traversals");
  for (const auto& [path_id, t] : fx->deployment->routing().traversals) {
    std::printf("path %u (%s): recircs=%u resubs=%u latency=%.0f ns\n    %s\n",
                path_id, fx->policies.find(path_id)->name.c_str(),
                t.recirculations, t.resubmissions, latency.traversal_ns(t),
                t.to_string().c_str());
  }

  bench::subheading("capacity (paper: 1.6 Tbps, all traffic may "
                    "recirculate once)");
  const auto& config = fx->deployment->dataplane().config();
  std::printf("external capacity: %.1f Tbps; single-recirc fraction: %.2f\n",
              config.external_capacity_gbps() / 1000.0,
              config.single_recirc_fraction());

  bench::subheading("predicted chain throughput at full 1.6 Tbps load "
                    "(§4 takeaway 2), Fig. 9 placement");
  auto report = sim::estimate_throughput(
      paper.policies, paper.deployment->routing().traversals,
      paper.deployment->dataplane().config(), 1600.0);
  std::printf("%s", report.to_table().c_str());
}

void print_validation() {
  auto* fx = fixture();
  auto& cp = fx->deployment->control();
  bench::heading("§5 functional validation (PTF-style send/expect)");

  struct Case {
    const char* name;
    net::Ipv4Addr dst;
    std::optional<net::Ipv4Addr> expect_dst;
  };
  const Case cases[] = {
      {"path 1 full chain (LB rewrites dst)", net::Ipv4Addr(10, 1, 0, 10),
       std::nullopt},
      {"path 2 vgw-only (VIP translated)", net::Ipv4Addr(10, 2, 0, 20),
       net::Ipv4Addr(10, 2, 1, 20)},
      {"path 3 direct (routed untouched)", net::Ipv4Addr(10, 3, 0, 1),
       net::Ipv4Addr(10, 3, 0, 1)},
  };
  int passed = 0, total = 0;
  for (const Case& c : cases) {
    ptf::Expectation expect;
    expect.port = control::Fig2Deployment::kReceiverPort;
    expect.ipv4_dst = c.expect_dst;
    expect.ttl = 63;
    auto result = ptf::send_and_expect(
        cp, packet_to(c.dst), control::Fig2Deployment::kSenderPort, expect);
    std::printf("%-40s %s\n", c.name, result.summary().c_str());
    ++total;
    passed += result.pass;
  }
  // Negative checks.
  {
    net::PacketSpec spec;
    spec.protocol = net::kIpProtoUdp;
    spec.ip_dst = net::Ipv4Addr(10, 1, 0, 10);
    ptf::Expectation expect;
    expect.outcome = ptf::Expectation::Outcome::kDropped;
    auto result = ptf::send_and_expect(cp, net::Packet::make(spec),
                                       control::Fig2Deployment::kSenderPort,
                                       expect);
    std::printf("%-40s %s\n", "firewall drops non-permitted UDP",
                result.summary().c_str());
    ++total;
    passed += result.pass;
  }
  std::printf("=> %d/%d checks passed\n", passed, total);
}

}  // namespace

int main() {
  print_placement();
  print_validation();
  return 0;
}
