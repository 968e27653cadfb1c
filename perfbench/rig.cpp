#include "rig.hpp"

#include <algorithm>
#include <stdexcept>

#include "control/live_update.hpp"
#include "control/snapshot.hpp"
#include "route/routing.hpp"
#include "sfc/chain.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace dejavu;

namespace {

// The Fig. 2 destinations the canonical rules serve (the same ones
// control::fig2_replay_flows aims at): the tenant VIP (full chain),
// the virtualized-only VIP, and plain routed space.
const net::Ipv4Addr kPath1Vip(10, 1, 0, 10);
const net::Ipv4Addr kPath1Phys(10, 1, 1, 10);  // VGW's translation of it
const net::Ipv4Addr kPath2Vip(10, 2, 0, 20);
const net::Ipv4Addr kPath3Dst(10, 3, 0, 1);

constexpr std::uint32_t kEstablishedFlows = 1024;
constexpr std::uint16_t kDstPort = 443;
/// Ethernet + IPv4 + TCP, no options.
constexpr std::uint32_t kHeaderBytes = 14 + 20 + 20;
constexpr std::uint32_t kMinFrame = 64;

net::PacketSpec tcp_spec(net::Ipv4Addr src, net::Ipv4Addr dst,
                         std::uint16_t sport, std::uint32_t frame) {
  net::PacketSpec s;
  s.ip_src = src;
  s.ip_dst = dst;
  s.protocol = net::kIpProtoTcp;
  s.src_port = sport;
  s.dst_port = kDstPort;
  s.payload_size = frame - kHeaderBytes;
  return s;
}

/// `n` frame sizes in the exact 7:4:1 proportions of ~64 B, ~576 B and
/// ~1500 B frames, shuffled by the seed: every seed offers the same mix.
std::vector<std::uint32_t> imix_frames(std::uint32_t n, Rng& rng) {
  std::vector<std::uint32_t> frames;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = i * 12 / n;
    frames.push_back(r < 7 ? 64 : r < 11 ? 576 : 1500);
  }
  for (std::uint32_t i = n; i > 1; --i) std::swap(frames[i - 1], frames[rng.below(i)]);
  return frames;
}

std::uint16_t random_sport(Rng& rng) {
  return static_cast<std::uint16_t>(1024 + rng.below(60000));
}

/// The LB session hash a path-1 flow is learned under: its 5-tuple as
/// the LB sees it, after the VGW translated the tenant VIP.
std::uint32_t lb_session_hash(const net::PacketSpec& spec) {
  return net::FiveTuple{spec.ip_src, kPath1Phys, spec.protocol,
                        spec.src_port, spec.dst_port}
      .session_hash();
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "steady") return Workload::kSteady;
  if (name == "churn") return Workload::kChurn;
  if (name == "commit") return Workload::kCommit;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kSteady:
      return "steady";
    case Workload::kChurn:
      return "churn";
    case Workload::kCommit:
      return "commit";
  }
  return "?";
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

WorkloadSpec make_workload(Workload kind, std::uint64_t seed) {
  WorkloadSpec w;
  w.kind = kind;
  w.seed = seed;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(kind));

  // Established flows in the 50/30/20 policy weights.
  struct PathPlan {
    std::uint16_t path_id;
    std::uint32_t flows;
    net::Ipv4Addr dst;
    net::Ipv4Addr src_base;
  };
  const PathPlan plans[] = {
      {1, kEstablishedFlows / 2, kPath1Vip, net::Ipv4Addr(192, 168, 0, 0)},
      {2, kEstablishedFlows * 3 / 10, kPath2Vip, net::Ipv4Addr(192, 169, 0, 0)},
      {3, kEstablishedFlows - kEstablishedFlows / 2 - kEstablishedFlows * 3 / 10,
       kPath3Dst, net::Ipv4Addr(192, 170, 0, 0)},
  };
  std::uint32_t learned = 0;
  for (const PathPlan& plan : plans) {
    // Every path gets the same frame mix, so no seed loads one path
    // with more large frames than another.
    const std::vector<std::uint32_t> frames =
        kind == Workload::kSteady
            ? imix_frames(plan.flows, rng)
            : std::vector<std::uint32_t>(plan.flows, kMinFrame);
    for (std::uint32_t i = 0; i < plan.flows; ++i) {
      FlowSpec f;
      f.path_id = plan.path_id;
      f.in_port = control::Fig2Deployment::kSenderPort;
      const net::Ipv4Addr src(plan.src_base.value() + i + 1);
      f.spec = tcp_spec(src, plan.dst, random_sport(rng), frames[i]);
      if (plan.path_id == 1) {
        // Distinct LB sessions, so warm-up learns exactly one per flow.
        while (!w.used_hashes.insert(lb_session_hash(f.spec)).second) {
          f.spec.src_port = random_sport(rng);
        }
        ++learned;
      }
      w.flows.push_back(f);
      w.packets.push_back(net::Packet::make(f.spec));
    }
  }

  while (w.preload.size() + learned < kLbTableSize) {
    const auto hash = static_cast<std::uint32_t>(rng.next());
    if (w.used_hashes.insert(hash).second) w.preload.push_back(hash);
  }
  return w;
}

OpStream::OpStream(const WorkloadSpec& spec)
    : spec_(&spec),
      rng_(spec.seed * 0x9e3779b97f4a7c15ULL + 17),
      used_(spec.used_hashes),
      expiring_(spec.preload.begin(), spec.preload.end()) {
  if (spec.kind == Workload::kChurn) until_event_ = rng_.between(40, 60);
  if (spec.kind == Workload::kCommit) until_event_ = rng_.between(200, 300);
}

FlowSpec OpStream::fresh_flow() {
  FlowSpec f;
  f.path_id = 1;
  f.in_port = control::Fig2Deployment::kSenderPort;
  const net::Ipv4Addr src(net::Ipv4Addr(172, 16, 0, 0).value() + ++new_flows_);
  f.spec = tcp_spec(src, kPath1Vip, random_sport(rng_), kMinFrame);
  while (!used_.insert(lb_session_hash(f.spec)).second) {
    f.spec.src_port = random_sport(rng_);
  }
  expiring_.push_back(lb_session_hash(f.spec));
  return f;
}

control::RuleDiff OpStream::legacy_batch(std::uint32_t batch, bool install) {
  // A small rule set on keys no packet carries: four LB sessions and
  // two VGW mappings. Installing and later removing it changes no
  // packet's fate but moves both tables' revisions.
  if (install) {
    std::vector<control::RuleOp> ops;
    for (int i = 0; i < 4; ++i) {
      auto hash = static_cast<std::uint32_t>(rng_.next());
      while (!used_.insert(hash).second) {
        hash = static_cast<std::uint32_t>(rng_.next());
      }
      control::RuleOp op;
      op.table = "LB.lb_session";
      op.key = {hash};
      op.action = {"LB.modify_dstIp",
                   {{"dip", net::Ipv4Addr(10, 1, 2, 1).value()}}};
      ops.push_back(std::move(op));
    }
    for (std::uint32_t i = 0; i < 2; ++i) {
      control::RuleOp op;
      op.table = "VGW.vip_map";
      op.key = {net::Ipv4Addr(10, 9, 0, 0).value() + (batch * 2 + i) % 65536};
      op.action = {"VGW.translate",
                   {{"phys_dst", net::Ipv4Addr(10, 9, 1, 1).value()},
                    {"tenant", 900}}};
      ops.push_back(std::move(op));
    }
    open_batches_.push_back(ops);
    control::RuleDiff diff;
    diff.ops = std::move(ops);
    return diff;
  }
  control::RuleDiff diff;
  diff.ops = std::move(open_batches_.front());
  open_batches_.erase(open_batches_.begin());
  for (control::RuleOp& op : diff.ops) {
    op.install = false;
    op.action = {};
  }
  return diff;
}

Op OpStream::next() {
  Op op;
  if (spec_->kind != Workload::kSteady && until_event_ == 0) {
    if (spec_->kind == Workload::kChurn) {
      until_event_ = rng_.between(40, 60);
      op.kind = Op::Kind::kNewFlow;
      op.new_flow = fresh_flow();
      op.evict_hash = expiring_.front();
      expiring_.pop_front();
      return op;
    }
    until_event_ = rng_.between(200, 300);
    if (++commits_ % 10 == 0) {
      op.kind = Op::Kind::kLiveUpdate;
      op.bypass_lb = live_updates_++ % 2 == 0;
      return op;
    }
    op.kind = Op::Kind::kLegacyCommit;
    op.diff = legacy_batch(legacy_ / 2, legacy_ % 2 == 0);
    ++legacy_;
    return op;
  }
  if (until_event_ > 0) --until_event_;
  op.flow = rng_.below(static_cast<std::uint32_t>(spec_->flows.size()));
  return op;
}

control::RuleDiff lb_bypass_diff(control::Deployment& dep, bool bypass) {
  sfc::PolicySet reduced;
  for (const sfc::ChainPolicy& p : dep.policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, std::string(sfc::kLoadBalancer));
    reduced.add(std::move(rp));
  }
  const route::RoutingPlan plan =
      route::build_routing(reduced, dep.placement(), dep.dataplane().config());
  if (!plan.feasible) {
    throw std::runtime_error("LB bypass plan infeasible: " +
                             plan.infeasible_reason);
  }
  return bypass ? control::routing_rule_diff(dep.routing(), plan,
                                             dep.dataplane())
                : control::routing_rule_diff(plan, dep.routing(),
                                             dep.dataplane());
}

namespace {

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

}  // namespace

Rig build_rig(const WorkloadSpec& spec) {
  Rig rig;
  const std::int64_t start = now_ns();

  std::int64_t t = now_ns();
  rig.target = std::make_unique<control::DeploymentTarget>(
      control::make_fig9_deployment());
  rig.times.build_s = seconds_since(t);

  t = now_ns();
  rig.deployment().run_explorer();
  rig.times.explore_s = seconds_since(t);

  // Reuses the exploration above as the compile seed.
  t = now_ns();
  rig.target->set_engine(sim::EngineKind::kCompiled);
  rig.times.first_compile_s = seconds_since(t);
  if (!rig.compiled().compiled_ok()) {
    throw std::runtime_error("first compile failed: " +
                             rig.compiled().compile_error());
  }

  control::ControlPlane& cp = rig.control();
  const auto& backends = cp.lb_pool().backends;
  rig.times.install_us.reserve(spec.preload.size());
  t = now_ns();
  for (const std::uint32_t hash : spec.preload) {
    const std::int64_t t0 = now_ns();
    cp.install_lb_session(hash, backends[hash % backends.size()]);
    rig.times.install_us.push_back((now_ns() - t0) * 1e-3);
  }
  rig.times.preload_s = seconds_since(t);

  // Warm-up: learn every path-1 session on the interpreter's Fig. 4
  // slow path (one recompile afterwards instead of one per flow), then
  // send each flow once through the compiled engine.
  t = now_ns();
  const std::size_t learned_before = cp.sessions_learned();
  std::size_t path1 = 0;
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    path1 += spec.flows[i].path_id == 1;
    if (!cp.inject(spec.packets[i], spec.flows[i].in_port).delivered()) {
      throw std::runtime_error("warm-up: flow " + std::to_string(i) +
                               " not delivered by the interpreter");
    }
  }
  if (cp.sessions_learned() - learned_before != path1) {
    throw std::runtime_error("warm-up learned " +
                             std::to_string(cp.sessions_learned() -
                                            learned_before) +
                             " sessions, expected " + std::to_string(path1));
  }
  for (sim::RuntimeTable* table : rig.dp().tables_named("LB.lb_session")) {
    if (table->entry_count() != kLbTableSize) {
      throw std::runtime_error("LB.lb_session holds " +
                               std::to_string(table->entry_count()) +
                               " entries after warm-up");
    }
  }
  if (!rig.compiled().recompile()) {
    throw std::runtime_error("recompile after warm-up failed: " +
                             rig.compiled().compile_error());
  }
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    if (!rig.target->inject(spec.packets[i], spec.flows[i].in_port)
             .delivered()) {
      throw std::runtime_error("warm-up: flow " + std::to_string(i) +
                               " not delivered by the compiled engine");
    }
  }
  rig.times.warmup_s = seconds_since(t);

  if (spec.kind == Workload::kCommit) {
    t = now_ns();
    sim::DataPlane& dp = rig.dp();
    rig.agent = std::make_unique<control::SwitchAgent>(dp);
    control::SwitchAgent* agent = rig.agent.get();
    rig.channel = std::make_unique<control::Channel>(
        sim::FaultPlan{},
        [agent](const control::SessionMsg& m) { return agent->handle(m); });
    auto mirror =
        std::make_unique<sim::DataPlane>(dp.program(), dp.ids(), dp.config());
    control::restore_snapshot(control::take_snapshot(dp), *mirror);
    rig.session =
        std::make_unique<control::Session>(*rig.channel, std::move(mirror));
    if (!rig.session->hello()) {
      throw std::runtime_error("session hello refused");
    }
    rig.times.session_s = seconds_since(t);
  }

  rig.times.total_s = seconds_since(start);
  return rig;
}

}  // namespace perfbench
