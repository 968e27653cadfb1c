// The compiled engine reads the rule store in place (DESIGN.md §12):
// nothing is lowered from table contents, so no rule change or epoch
// flip ever recompiles. Seeded random mutation sequences — exact
// installs, overwrites, removals, retire/unretire, shadow versions, gc,
// clear, ternary/LPM churn, epoch flips, silent corruption and large
// bursts — run against the interpreter oracle: after every step the
// engine, a freshly compiled engine on a clone, and the interpreter
// must agree on every probe packet, with equal port counters. Long
// churn and live-update runs pin that the first compile and the op
// arena never move. Reinjected punts — under an old stamp across a
// flip, under a retired stamp, on a loopback port — must run compiled
// and match the interpreter too, ledger included.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "control/deployment.hpp"
#include "control/live_update.hpp"
#include "control/replay_target.hpp"
#include "control/transaction.hpp"
#include "merge/compose.hpp"
#include "net/five_tuple.hpp"
#include "nf/parser_lib.hpp"
#include "route/routing.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "rule_store_test_util.hpp"

namespace dejavu::sim {
namespace {

// The address the VGW translates path 1's VIP to, so the LB hashes it.
const net::Ipv4Addr kPath1Phys(10, 1, 1, 10);

/// The LB.lb_session key a path-1 flow looks up.
std::uint64_t lb_key(const Flow& flow) {
  return net::FiveTuple{flow.spec.ip_src, kPath1Phys, flow.spec.protocol,
                        flow.spec.src_port, flow.spec.dst_port}
      .session_hash();
}

ActionCall backend(std::uint64_t dip) {
  return ActionCall{"LB.modify_dstIp", {{"dip", dip}}};
}

using Mutation = std::function<bool(DataPlane&)>;

/// Apply `m` to every instance of `table`; true if any applied.
Mutation on_table(const std::string& table,
                  std::function<bool(RuntimeTable&)> m) {
  return [table, m](DataPlane& dp) {
    bool any = false;
    for (RuntimeTable* t : dp.tables_named(table)) {
      try {
        any |= m(*t);
      } catch (const std::invalid_argument&) {
        // A refused install (window overlap) is a legal outcome; the
        // oracle must refuse it too.
      }
    }
    return any;
  };
}

/// The engine under test runs on `live`; the interpreter oracle on a
/// copy that receives every mutation too.
class Differential {
 public:
  Differential()
      : fx_(control::make_fig9_deployment()),
        live_(fx_.deployment->dataplane()),
        oracle_(live_),
        fast_(live_),
        flows_(control::fig2_replay_flows(24)) {
    for (const ReplayFlow& f : flows_) {
      if (f.path_id == 1) hot_keys_.push_back(lb_key(f.flow));
    }
  }

  void apply(const Mutation& m) { EXPECT_EQ(m(live_), m(oracle_)); }

  /// Run `n` random probe flows through all three engines.
  void probe(std::mt19937_64& rng, int n, const std::string& step) {
    for (int i = 0; i < n; ++i) {
      const ReplayFlow& f = flows_[rng() % flows_.size()];
      const net::Packet packet = f.flow.packet();
      DataPlane clone = live_;
      CompiledPipeline fresh(clone);
      ASSERT_TRUE(fresh.compiled_ok()) << step << ": " << fresh.compile_error();
      const SwitchOutput want = oracle_.process(packet, f.in_port);
      const SwitchOutput got = fast_.process(packet, f.in_port);
      const SwitchOutput fresh_got = fresh.process(packet, f.in_port);
      ASSERT_TRUE(fast_.compiled_ok()) << step << ": " << fast_.compile_error();
      ASSERT_TRUE(semantically_equal(got, want))
          << step << ": patched engine disagrees with the interpreter ("
          << got.drop_reason << " vs " << want.drop_reason << ")";
      ASSERT_TRUE(semantically_equal(fresh_got, want))
          << step << ": fresh compile disagrees with the interpreter";
      ASSERT_EQ(live_.all_port_counters(), oracle_.all_port_counters())
          << step;
    }
  }

  DataPlane& live() { return live_; }
  CompiledPipeline& fast() { return fast_; }
  const std::vector<std::uint64_t>& hot_keys() const { return hot_keys_; }

 private:
  control::Fig2Deployment fx_;
  DataPlane live_;
  DataPlane oracle_;
  CompiledPipeline fast_;
  std::vector<ReplayFlow> flows_;
  std::vector<std::uint64_t> hot_keys_;
};

class CompiledIncremental : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledIncremental, RandomMutationsMatchInterpreterAndFreshCompile) {
  Differential d;
  ASSERT_TRUE(d.fast().compiled_ok()) << d.fast().compile_error();
  ASSERT_FALSE(d.hot_keys().empty());
  std::mt19937_64 rng(GetParam());
  const std::uint64_t lb_hits0 =
      d.live().tables_named("LB.lb_session").front()->hits();

  // Keys drawn half from the flows' own sessions (packets hit them),
  // half from a small cold range (packets never do).
  auto key = [&]() -> std::uint64_t {
    if (rng() % 2 == 0) return d.hot_keys()[rng() % d.hot_keys().size()];
    return 0x70000000u + rng() % 64;
  };
  auto dip = [&]() -> std::uint64_t { return 0x0a010200u + rng() % 4; };
  const std::string lb = "LB.lb_session";
  constexpr int kBurst = 300;
  std::vector<std::uint64_t> burst;

  for (int step = 0; step < 400; ++step) {
    // Draw everything up front: a mutation runs once per dataplane and
    // must do the same thing both times.
    const std::uint32_t epoch = d.live().epoch();
    const std::uint64_t k = key();
    const std::uint64_t v = dip();
    const std::uint64_t r = rng();
    std::string what;
    switch (rng() % 16) {
      case 0:
      case 1:
        what = "add_exact (new or overwrite)";
        d.apply(on_table(lb, [&](RuntimeTable& t) {
          t.add_exact({k}, backend(v));
          return true;
        }));
        break;
      case 2:
        what = "remove_exact";
        d.apply(on_table(lb, [&](RuntimeTable& t) {
          return t.remove_exact({k});
        }));
        break;
      case 3:
        what = "retire_exact + shadow install";
        d.apply(on_table(lb, [&](RuntimeTable& t) {
          const bool retired = t.retire_exact({k}, epoch);
          t.add_exact({k}, backend(v), EpochWindow{epoch + 1, kEpochOpen});
          return retired;
        }));
        break;
      case 4:
        what = "unretire_exact";
        d.apply(on_table(lb, [&](RuntimeTable& t) {
          return t.unretire_exact({k}, epoch);
        }));
        break;
      case 5:
        what = "remove_exact_version";
        d.apply(on_table(lb, [&](RuntimeTable& t) {
          return t.remove_exact_version({k}, EpochWindow{epoch + 1, kEpochOpen});
        }));
        break;
      case 6:
        what = "epoch flip";
        d.apply([&](DataPlane& dp) {
          dp.set_epoch(epoch + 1);
          return true;
        });
        break;
      case 7:
        what = "gc";
        d.apply([&](DataPlane& dp) { return dp.gc_epochs(epoch) > 0; });
        break;
      case 8:
        what = "ternary add";
        d.apply(on_table("FW.acl", [&](RuntimeTable& t) {
          const std::uint64_t mask = (0xffffff00u << (r % 8)) & 0xffffffffu;
          t.add_ternary({{0xc0a80000u & mask, mask}, {0, 0}, {0, 0}, {0, 0}},
                        static_cast<std::int32_t>(100 + r / 8 % 8),
                        ActionCall{r / 64 % 3 == 0 ? "FW.deny" : "FW.permit", {}});
          return true;
        }));
        break;
      case 9:
        what = "ternary erase";
        d.apply(on_table("FW.acl", [&](RuntimeTable& t) {
          const auto& entries = test::ternary_entries(t);
          if (entries.empty()) return false;
          return t.erase_ternary(entries[r % entries.size()].handle);
        }));
        break;
      case 10:
        what = "lpm add/erase";
        d.apply(on_table("Router.ipv4_lpm", [&](RuntimeTable& t) {
          const std::uint8_t len = static_cast<std::uint8_t>(16 + r % 9);
          const std::uint64_t prefix = net::Ipv4Addr(10, 3, 0, 0).value();
          const auto key = t.lpm_key(prefix, len);
          for (const auto& v : t.ternary_versions(key, len)) {
            if (v.window.open()) return t.erase_ternary(v.handle);
          }
          t.add_lpm(prefix, len,
                    ActionCall{"Router.route", {{"port", 1}, {"dmac", v}}});
          return true;
        }));
        break;
      case 11:
        what = "vip_map overwrite";
        d.apply(on_table("VGW.vip_map", [&](RuntimeTable& t) {
          t.add_exact({net::Ipv4Addr(10, 2, 0, 20).value()},
                      ActionCall{"VGW.translate",
                                 {{"phys_dst", net::Ipv4Addr(10, 2, 1, 20 + r % 2).value()},
                                  {"tenant", 200}}});
          return true;
        }));
        break;
      case 12:
        what = "silent corruption";
        d.apply(on_table(r % 2 == 0 ? lb : "FW.acl", [&](RuntimeTable& t) {
          const auto kind = static_cast<RuntimeTable::CorruptKind>(r / 2 % 5);
          return !t.corrupt(kind, r).empty();
        }));
        break;
      case 13:
        what = "burst install";
        burst = d.hot_keys();
        for (int i = 0; i < kBurst; ++i) {
          burst.push_back(0x80000000u + step * kBurst + i);
        }
        d.apply(on_table(lb, [&](RuntimeTable& t) {
          for (std::uint64_t b : burst) {
            t.remove_exact({b});
            t.add_exact({b}, backend(v));
          }
          return true;
        }));
        break;
      case 14:
        what = "burst removal";
        d.apply(on_table(lb, [&](RuntimeTable& t) {
          bool any = false;
          for (std::uint64_t b : burst) any |= t.remove_exact({b});
          return any;
        }));
        burst.clear();
        break;
      case 15:
        what = "clear";
        d.apply(on_table(r % 2 == 0 ? lb : "FW.acl", [&](RuntimeTable& t) {
          t.clear();
          return true;
        }));
        break;
    }
    const std::uint64_t generation = d.fast().generation();
    d.probe(rng, 3, "step " + std::to_string(step) + " (" + what + ")");
    if (HasFatalFailure()) return;
    // One rebuild at most per packet, however many tables moved.
    EXPECT_LE(d.fast().generation(), generation + 1) << what;
  }
  const CompiledStats& s = d.fast().stats();
  EXPECT_EQ(s.failed_compiles, 0u);
  EXPECT_EQ(s.fallback_packets, 0u);
  // The probes did exercise touched session keys, not only misses.
  EXPECT_GT(d.live().tables_named(lb).front()->hits(), lb_hits0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledIncremental,
                         ::testing::Values(1u, 2u, 3u, 4u));

/// Fill `dp`'s LB.lb_session up to `n` sessions.
void preload(DataPlane& dp, std::uint32_t n) {
  RuntimeTable& lb = *dp.tables_named("LB.lb_session").front();
  for (std::uint32_t i = 0; lb.entry_count() < n; ++i) {
    lb.add_exact({0x90000000u + i}, backend(0x0a010201u));
  }
}

TEST(CompiledInPlace, EntriesAreStoredOnce) {
  auto fx = control::make_fig9_deployment();
  DataPlane empty = fx.deployment->dataplane();
  DataPlane full = empty;
  preload(full, 8192);
  CompiledPipeline a(empty);
  CompiledPipeline b(full);
  ASSERT_TRUE(a.compiled_ok()) << a.compile_error();
  ASSERT_TRUE(b.compiled_ok()) << b.compile_error();
  EXPECT_EQ(a.op_arena_size(), b.op_arena_size());
}

TEST(CompiledInPlace, ChurnAndFlipsKeepTheFirstCompile) {
  // Fig. 4 session learning: each new flow installs one session on its
  // own backend and the oldest expires; every 100th step also flips
  // the epoch. The hot flow's session comes and goes with the churn,
  // so packets alternate between hits and punts.
  auto fx = control::make_fig9_deployment();
  constexpr std::uint32_t kTable = 1024;
  DataPlane dp = fx.deployment->dataplane();
  preload(dp, kTable);
  DataPlane oracle = dp;
  CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  const std::size_t arena = fast.op_arena_size();
  const ReplayFlow flow = control::fig2_replay_flows(6).front();
  ASSERT_EQ(flow.path_id, 1);
  const std::uint64_t hot = lb_key(flow.flow);

  constexpr std::uint32_t kSteps = 5000;
  std::uint32_t flips = 0;
  for (std::uint32_t i = 0; i < kSteps; ++i) {
    for (DataPlane* p : {&dp, &oracle}) {
      RuntimeTable& lb = *p->tables_named("LB.lb_session").front();
      lb.add_exact({0xa0000000u + i}, backend(0x0b000000u + i));
      ASSERT_TRUE(lb.remove_exact({i < kTable ? 0x90000000u + i
                                              : 0xa0000000u + i - kTable}));
      if (i % 7 == 0) lb.add_exact({hot}, backend(0x0a010200u + i % 4));
      if (i % 7 == 3) lb.remove_exact({hot});
      if (i % 100 == 99) p->set_epoch(p->epoch() + 1);
    }
    flips += i % 100 == 99;
    const SwitchOutput got = fast.process(flow.flow.packet(), flow.in_port);
    const SwitchOutput want = oracle.process(flow.flow.packet(), flow.in_port);
    ASSERT_TRUE(semantically_equal(got, want)) << "step " << i;
    ASSERT_EQ(fast.op_arena_size(), arena) << "step " << i;
  }
  EXPECT_EQ(flips, 50u);
  EXPECT_EQ(fast.stats().full_compiles, 1u);
  EXPECT_EQ(fast.stats().fallback_packets, 0u);
  EXPECT_EQ(dp.all_port_counters(), oracle.all_port_counters());
}

/// The §11 update that routes every chain around the LB.
control::RuleDiff lb_bypass_diff(control::Deployment& dep) {
  sfc::PolicySet reduced;
  for (const sfc::ChainPolicy& p : dep.policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, std::string(sfc::kLoadBalancer));
    reduced.add(std::move(rp));
  }
  const route::RoutingPlan plan =
      route::build_routing(reduced, dep.placement(), dep.dataplane().config());
  EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
  return control::routing_rule_diff(dep.routing(), plan, dep.dataplane());
}

TEST(CompiledInPlace, LiveUpdateFlipKeepsTheFirstCompile) {
  // The LB bypass committed with 8K sessions installed: the flip moves
  // the epoch, and the engine keeps serving from its first compile.
  auto fx = control::make_fig9_deployment();
  control::Deployment& dep = *fx.deployment;
  DataPlane& dp = dep.dataplane();
  preload(dp, 8192);
  const control::RuleDiff diff = lb_bypass_diff(dep);

  DataPlane oracle = dp;
  CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  const auto flows = control::fig2_replay_flows(24);
  auto probe_all = [&](const std::string& when) {
    for (const ReplayFlow& f : flows) {
      const SwitchOutput got = fast.process(f.flow.packet(), f.in_port);
      const SwitchOutput want = oracle.process(f.flow.packet(), f.in_port);
      ASSERT_TRUE(semantically_equal(got, want))
          << when << ": path " << f.path_id << " (" << got.drop_reason
          << " vs " << want.drop_reason << ")";
    }
  };
  probe_all("before the flip");
  if (HasFatalFailure()) return;

  const std::uint32_t epoch = dp.epoch();
  const control::UpdateReport report = control::run_update(dp, diff);
  ASSERT_TRUE(report.committed) << report.error;
  ASSERT_TRUE(control::run_update(oracle, diff).committed);
  ASSERT_GT(dp.epoch(), epoch);
  const std::uint64_t generation = fast.generation();
  probe_all("after the flip");
  if (HasFatalFailure()) return;

  EXPECT_EQ(fast.generation(), generation + 1);
  EXPECT_EQ(fast.stats().full_compiles, 1u);
  EXPECT_EQ(fast.stats().fallback_packets, 0u);
  EXPECT_EQ(dp.all_port_counters(), oracle.all_port_counters());
}

TEST(CompiledInPlace, InstalledActionWithNewLocalsRuns) {
  // The default action uses no local.* slot; the installed action
  // introduces two. Both were lowered, and sized, at compile time.
  p4ir::TupleIdTable ids;
  asic::SwitchConfig config(asic::TargetSpec::mini());
  p4ir::Program program("p");
  nf::add_standard_parser(program, ids);
  p4ir::ControlBlock c(
      merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
  p4ir::Action fwd;
  fwd.name = "fwd";
  fwd.primitives = {p4ir::set_imm("standard_metadata.egress_spec", 1)};
  c.add_action(fwd);
  p4ir::Action via_locals;
  via_locals.name = "via_locals";
  via_locals.primitives = {
      p4ir::set_imm("local.a", 2),
      p4ir::set_imm("local.b", 3),
      p4ir::copy_field("standard_metadata.egress_spec", "local.b"),
  };
  c.add_action(via_locals);
  p4ir::Table t;
  t.name = "t";
  t.keys = {p4ir::TableKey{"ipv4.dst_addr", p4ir::MatchKind::kExact, 32}};
  t.actions = {"fwd", "via_locals"};
  t.default_action = "fwd";
  c.add_table(t);
  c.apply_table("t");
  program.add_control(std::move(c));

  DataPlane dp(program, ids, config);
  CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(10, 0, 0, 7);
  const net::Packet packet = net::Packet::make(spec);
  EXPECT_EQ(fast.process(packet, 0).out.at(0).port, 1);

  dp.table_in(merge::pipelet_control_name({0, asic::PipeKind::kIngress}), "t")
      ->add_exact({spec.ip_dst.value()}, ActionCall{"via_locals", {}});
  DataPlane oracle = dp;
  const SwitchOutput got = fast.process(packet, 0);
  EXPECT_EQ(fast.stats().full_compiles, 1u);
  EXPECT_TRUE(semantically_equal(got, oracle.process(packet, 0)));
  ASSERT_TRUE(got.delivered());
  EXPECT_EQ(got.out.front().port, 3);
}

}  // namespace
}  // namespace dejavu::sim

namespace dejavu::sim {
namespace {

/// Two identical fig9 switches driven through their control planes:
/// one on a compiled engine the control plane reinjects through, the
/// other on the interpreter. A path-1 flow's first packet punts on the
/// LB session miss; servicing the held punt learns the session and
/// reinjects it under the punt's stamp.
class ReinjectionPair {
 public:
  ReinjectionPair()
      : fx_(control::make_fig9_deployment()),
        oracle_fx_(control::make_fig9_deployment()),
        fast_(fx_.deployment->dataplane()) {
    fx_.deployment->control().set_engine(&fast_);
  }

  struct Held {
    SwitchOutput got;
    SwitchOutput want;
  };

  /// First pass of `flow` on both switches; its punts stay held.
  Held send(const ReplayFlow& flow) {
    return {fast_.process(flow.flow.packet(), flow.in_port),
            oracle().process(flow.flow.packet(), flow.in_port)};
  }

  /// Service the held punts on both switches.
  void service(Held& held) {
    fx_.deployment->control().service_punts(held.got);
    oracle_fx_.deployment->control().service_punts(held.want);
  }

  /// Run `f` on both deployments.
  void both(const std::function<void(control::Deployment&)>& f) {
    f(*fx_.deployment);
    f(*oracle_fx_.deployment);
  }

  /// Outputs, port counters and punt ledgers agree.
  void expect_same(const Held& held, const std::string& step) {
    EXPECT_TRUE(semantically_equal(held.got, held.want))
        << step << ": " << held.got.drop_reason << " vs "
        << held.want.drop_reason;
    EXPECT_EQ(live().all_port_counters(), oracle().all_port_counters())
        << step;
    EXPECT_EQ(live().punts_outstanding(), oracle().punts_outstanding())
        << step;
  }

  DataPlane& live() { return fx_.deployment->dataplane(); }
  DataPlane& oracle() { return oracle_fx_.deployment->dataplane(); }
  CompiledPipeline& fast() { return fast_; }

 private:
  control::Fig2Deployment fx_;
  control::Fig2Deployment oracle_fx_;
  CompiledPipeline fast_;
};

ReplayFlow path1_flow() {
  const ReplayFlow flow = control::fig2_replay_flows(6).front();
  EXPECT_EQ(flow.path_id, 1);
  return flow;
}

TEST(CompiledReinjection, OldStampAcrossAFlipRunsCompiled) {
  // The punt waits at the CPU while an update flips to a generation
  // without the LB; its reinjection must finish on the old generation.
  ReinjectionPair pair;
  ASSERT_TRUE(pair.fast().compiled_ok()) << pair.fast().compile_error();
  ReinjectionPair::Held held = pair.send(path1_flow());
  ASSERT_EQ(held.got.to_cpu.size(), 1u);
  pair.expect_same(held, "punt");
  const std::uint32_t stamp = held.got.to_cpu.front().epoch;

  pair.both([](control::Deployment& dep) {
    control::LiveUpdateOptions options;
    options.crash_point = control::CrashPoint::kAfterFlip;
    EXPECT_TRUE(control::run_update(dep.dataplane(), lb_bypass_diff(dep),
                                    nullptr, options)
                    .crashed);
  });
  ASSERT_GT(pair.live().epoch(), stamp);
  ASSERT_LE(pair.live().min_live_epoch(), stamp);
  ASSERT_EQ(pair.live().punts_outstanding().at(stamp), 1u);

  const std::uint64_t generation = pair.fast().generation();
  pair.service(held);
  pair.expect_same(held, "reinjection under the old stamp");
  EXPECT_TRUE(held.got.delivered());
  EXPECT_TRUE(pair.live().punts_outstanding().empty());
  EXPECT_EQ(pair.fast().stats().reinjections, 1u);
  EXPECT_EQ(pair.fast().stats().fallback_packets, 0u);
  EXPECT_EQ(pair.fast().generation(), generation);
}

TEST(CompiledReinjection, RetiredStampDrainsCompiled) {
  ReinjectionPair pair;
  ReinjectionPair::Held held = pair.send(path1_flow());
  ASSERT_EQ(held.got.to_cpu.size(), 1u);
  const std::uint32_t stamp = held.got.to_cpu.front().epoch;

  pair.both([](control::Deployment& dep) {
    EXPECT_TRUE(
        control::run_update(dep.dataplane(), lb_bypass_diff(dep)).committed);
  });
  ASSERT_GT(pair.live().min_live_epoch(), stamp);

  pair.service(held);
  pair.expect_same(held, "reinjection under a retired stamp");
  EXPECT_EQ(held.got.drop_code, DropCode::kUpdateDrained);
  EXPECT_EQ(pair.fast().stats().reinjections, 1u);
  EXPECT_EQ(pair.fast().stats().fallback_packets, 0u);
}

TEST(CompiledReinjection, LoopbackPortAdmitsOnlyTheCpu) {
  ReinjectionPair pair;
  ReinjectionPair::Held held = pair.send(path1_flow());
  ASSERT_EQ(held.got.to_cpu.size(), 1u);
  const SwitchOutput::CpuPunt punt = held.got.to_cpu.front();
  std::uint16_t loopback = 0;
  while (!pair.live().loops_back(loopback)) ++loopback;

  // The same bytes off the wire are refused on a loopback port; from
  // the CPU they are admitted, and close out the punt.
  ReinjectionPair::Held wire{
      pair.fast().process(punt.packet, loopback),
      pair.oracle().process(punt.packet, loopback)};
  pair.expect_same(wire, "wire packet on a loopback port");
  EXPECT_EQ(wire.got.drop_code, DropCode::kLoopbackPortExternal);

  ReinjectionPair::Held re{
      pair.fast().process(punt.packet, loopback, true, punt.epoch),
      pair.oracle().process(punt.packet, loopback, true, punt.epoch)};
  pair.expect_same(re, "reinjection on a loopback port");
  EXPECT_NE(re.got.drop_code, DropCode::kLoopbackPortExternal);
  EXPECT_EQ(pair.fast().stats().reinjections, 1u);
  EXPECT_EQ(pair.fast().stats().fallback_packets, 0u);
}

TEST(CompiledReinjection, ChurnThroughDeploymentTargetStaysCompiled) {
  // perfbench's churn loop: a new path-1 flow is learned, its session
  // expires, an established routed packet follows. Each learned
  // session moves generation() exactly once, on that wire packet.
  control::DeploymentTarget target(control::make_fig9_deployment());
  control::DeploymentTarget oracle(control::make_fig9_deployment());
  target.set_engine(EngineKind::kCompiled);
  const CompiledPipeline& engine = *target.compiled();
  ASSERT_TRUE(engine.compiled_ok()) << engine.compile_error();
  const ReplayFlow hot = path1_flow();
  const ReplayFlow routed = control::fig2_replay_flows(6).back();
  ASSERT_EQ(routed.path_id, 3);
  auto inject = [&](const net::Packet& packet, std::uint16_t port) {
    const SwitchOutput got = target.inject(packet, port);
    const SwitchOutput want = oracle.inject(packet, port);
    EXPECT_TRUE(semantically_equal(got, want))
        << got.drop_reason << " vs " << want.drop_reason;
    return got.delivered();
  };

  const std::uint64_t generation = engine.generation();
  constexpr std::uint64_t kFlows = 64;
  for (std::uint64_t i = 0; i < kFlows; ++i) {
    Flow fresh = hot.flow;
    fresh.spec.src_port = static_cast<std::uint16_t>(20000 + i);
    ASSERT_TRUE(inject(fresh.packet(), hot.in_port)) << "flow " << i;
    for (control::DeploymentTarget* t : {&target, &oracle}) {
      for (RuntimeTable* lb : t->dataplane().tables_named("LB.lb_session")) {
        ASSERT_TRUE(lb->remove_exact({lb_key(fresh)})) << "flow " << i;
      }
    }
    ASSERT_TRUE(inject(routed.flow.packet(), routed.in_port)) << "flow " << i;
  }
  control::ControlPlane& cp = target.fixture().deployment->control();
  EXPECT_EQ(cp.sessions_learned(), kFlows);
  EXPECT_EQ(engine.generation() - generation, kFlows);
  EXPECT_EQ(engine.stats().full_compiles, 1u);
  EXPECT_EQ(engine.stats().fallback_packets, 0u);
  EXPECT_EQ(engine.stats().reinjections, kFlows);
  EXPECT_EQ(engine.stats().compiled_packets, 2 * kFlows);
  EXPECT_EQ(target.dataplane().all_port_counters(),
            oracle.dataplane().all_port_counters());
  EXPECT_EQ(target.dataplane().punts_outstanding(),
            oracle.dataplane().punts_outstanding());

  // Back on the interpreter, the control plane reinjects there too.
  target.set_engine(EngineKind::kInterpreter);
  Flow fresh = hot.flow;
  fresh.spec.src_port = 30000;
  EXPECT_TRUE(inject(fresh.packet(), hot.in_port));
  EXPECT_EQ(cp.sessions_learned(), kFlows + 1);
  EXPECT_EQ(engine.stats().reinjections, kFlows);
  EXPECT_EQ(engine.stats().compiled_packets, 2 * kFlows);
}

}  // namespace
}  // namespace dejavu::sim
