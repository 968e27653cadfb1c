// Edge coverage for the compiled fast path: malformed and truncated
// frames, CPU reinjections and retired-epoch stamps all run compiled
// and bit-identical to the interpreter. The pass-cap overflow is
// handled inline (side effects already applied), so it must agree
// without escaping. The one escape left is a program compile()
// refuses: every packet then runs on the interpreter, tallied in
// fallback_packets and surfaced through ReplayReport.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "control/replay_target.hpp"
#include "merge/compose.hpp"
#include "nf/parser_lib.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/replay.hpp"

namespace dejavu::sim {
namespace {

net::Packet garbage_packet(std::mt19937_64& rng, std::size_t size) {
  std::vector<std::byte> bytes(size);
  for (std::byte& b : bytes) {
    b = static_cast<std::byte>(rng() & 0xff);
  }
  return net::Packet(net::Buffer(std::move(bytes)));
}

TEST(CompiledFallback, MalformedPacketsRunCompiledLikeTheInterpreter) {
  // The lowered parser stops where run_parser stops, so truncated and
  // garbage frames need no escape: they run compiled.
  auto fx = control::make_fig9_deployment();
  DataPlane interp = fx.deployment->dataplane();
  DataPlane fast_dp = fx.deployment->dataplane();
  CompiledPipeline fast(fast_dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();

  std::mt19937_64 rng(0xbadf00d);
  std::vector<net::Packet> malformed;
  malformed.push_back(net::Packet());              // empty
  malformed.push_back(garbage_packet(rng, 3));     // truncated ethernet
  malformed.push_back(garbage_packet(rng, 14));    // ethernet, no payload
  malformed.push_back(garbage_packet(rng, 20));    // truncated ipv4
  for (int i = 0; i < 32; ++i) {
    malformed.push_back(garbage_packet(rng, 1 + rng() % 120));
  }

  for (std::size_t i = 0; i < malformed.size(); ++i) {
    const SwitchOutput a = interp.process(malformed[i], 0);
    const SwitchOutput b = fast.process(malformed[i], 0);
    ASSERT_TRUE(semantically_equal(a, b))
        << "malformed packet " << i << "\ninterp: " << a.drop_reason
        << "\ncompiled: " << b.drop_reason;
  }
  EXPECT_EQ(fast.stats().compiled_packets, malformed.size());
  EXPECT_EQ(fast.stats().fallback_packets, 0u);
  EXPECT_EQ(interp.all_port_counters(), fast_dp.all_port_counters());
}

TEST(CompiledReinjection, StampedPacketsRunCompiledLikeTheInterpreter) {
  auto fx = control::make_fig9_deployment();
  DataPlane interp = fx.deployment->dataplane();
  DataPlane fast_dp = fx.deployment->dataplane();
  CompiledPipeline fast(fast_dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();

  const auto flows = control::fig2_replay_flows(6);
  const net::Packet packet = flows[0].flow.packet();
  const std::uint16_t port = flows[0].in_port;

  // A stamped CPU reinjection runs compiled under its stamp.
  const SwitchOutput a1 =
      interp.process(packet, port, /*from_cpu=*/true, interp.epoch());
  const SwitchOutput b1 =
      fast.process(packet, port, /*from_cpu=*/true, fast_dp.epoch());
  ASSERT_TRUE(semantically_equal(a1, b1)) << a1.drop_reason;

  // A stamp below min_live_epoch drains identically (kUpdateDrained).
  interp.set_epoch(3);
  interp.set_min_live_epoch(2);
  fast_dp.set_epoch(3);
  fast_dp.set_min_live_epoch(2);
  const SwitchOutput a2 = interp.process(packet, port, /*from_cpu=*/false,
                                         std::uint32_t{1});
  const SwitchOutput b2 = fast.process(packet, port, /*from_cpu=*/false,
                                       std::uint32_t{1});
  ASSERT_TRUE(semantically_equal(a2, b2));
  EXPECT_EQ(b2.drop_code, DropCode::kUpdateDrained);

  EXPECT_EQ(fast.stats().reinjections, 2u);
  EXPECT_EQ(fast.stats().fallback_packets, 0u);
  EXPECT_EQ(fast.stats().compiled_packets, 0u);
  EXPECT_EQ(interp.all_port_counters(), fast_dp.all_port_counters());
  EXPECT_EQ(interp.punts_outstanding(), fast_dp.punts_outstanding());
}

TEST(CompiledFallback, ExceededPassCapAgreesInline) {
  // Recirculating traffic with a tiny pass cap: the overflow drop is
  // handled on the fast path itself (register/counter side effects are
  // already applied when the cap trips), so outcomes — including the
  // recirc-port suffix in the reason string — must match without any
  // fallback.
  auto fx = control::make_fig9_deployment();
  DataPlane interp = fx.deployment->dataplane();
  DataPlane fast_dp = fx.deployment->dataplane();
  interp.set_max_passes(1);
  fast_dp.set_max_passes(1);
  CompiledPipeline fast(fast_dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();

  bool saw_overflow = false;
  for (const ReplayFlow& rf : control::fig2_replay_flows(9)) {
    const net::Packet packet = rf.flow.packet();
    const SwitchOutput a = interp.process(packet, rf.in_port);
    const SwitchOutput b = fast.process(packet, rf.in_port);
    ASSERT_TRUE(semantically_equal(a, b))
        << "interp: " << a.drop_reason << "\ncompiled: " << b.drop_reason;
    saw_overflow |= b.drop_code == DropCode::kMaxPassesExceeded;
  }
  EXPECT_TRUE(saw_overflow);
  EXPECT_EQ(fast.stats().fallback_packets, 0u);
  EXPECT_EQ(interp.all_port_counters(), fast_dp.all_port_counters());
}

/// A one-pipelet program with more header types than the compiled
/// engine's 64-bit header bitmap holds, so compile() refuses it. Its
/// one table sends every packet to port 1.
struct RefusedProgram {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"refused"};

  RefusedProgram() {
    nf::add_standard_parser(program, ids);
    while (program.header_types().size() <= 64) {
      program.add_header_type(p4ir::HeaderType{
          "pad" + std::to_string(program.header_types().size()),
          {p4ir::Field{"f", 8}}});
    }
    p4ir::ControlBlock c(
        merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
    p4ir::Action fwd;
    fwd.name = "fwd";
    fwd.primitives = {p4ir::set_imm("standard_metadata.egress_spec", 1)};
    c.add_action(fwd);
    p4ir::Table t;
    t.name = "t";
    t.keys = {p4ir::TableKey{"ipv4.dst_addr", p4ir::MatchKind::kExact, 32}};
    t.actions = {"fwd"};
    t.default_action = "fwd";
    c.add_table(t);
    c.apply_table("t");
    program.add_control(std::move(c));
  }
};

TEST(CompiledFallback, RefusedCompileRunsEveryPacketOnTheInterpreter) {
  const RefusedProgram refused;
  const asic::SwitchConfig config(asic::TargetSpec::mini());
  DataPlane interp(refused.program, refused.ids, config);
  DataPlane fast_dp = interp;
  CompiledPipeline fast(fast_dp);
  EXPECT_FALSE(fast.compiled_ok());
  EXPECT_FALSE(fast.compile_error().empty());
  EXPECT_EQ(fast.generation(), 0u);

  std::mt19937_64 rng(0x65);
  const std::vector<net::Packet> packets = {
      net::Packet::make(net::PacketSpec{}), garbage_packet(rng, 20)};
  for (std::size_t i = 0; i < packets.size(); ++i) {
    // A refused compile depends only on the program: an epoch flip
    // does not retry it.
    if (i > 0) {
      interp.set_epoch(interp.epoch() + 1);
      fast_dp.set_epoch(fast_dp.epoch() + 1);
    }
    const SwitchOutput a = interp.process(packets[i], 0);
    const SwitchOutput b = fast.process(packets[i], 0);
    ASSERT_TRUE(semantically_equal(a, b))
        << "packet " << i << "\ninterp: " << a.drop_reason
        << "\ncompiled: " << b.drop_reason;
  }
  EXPECT_EQ(fast.stats().fallback_packets, packets.size());
  EXPECT_EQ(fast.stats().compiled_packets, 0u);
  EXPECT_EQ(fast.stats().failed_compiles, 1u);
  EXPECT_EQ(interp.all_port_counters(), fast_dp.all_port_counters());
  EXPECT_FALSE(fast.recompile());
  EXPECT_EQ(fast.generation(), 0u);

  // ...and ReplayReport surfaces every fallback, with merged counters
  // equal to a pure interpreter run.
  FlowMix mix;
  mix.flows = 10;
  const auto flows = make_path_flows(mix, /*path_id=*/1);
  const TargetFactory factory = [&](std::uint32_t) {
    return std::make_unique<DataPlaneTarget>(refused.program, refused.ids,
                                             config);
  };
  ReplayConfig replay;
  replay.workers = 2;
  replay.packets_per_flow = 2;
  const ReplayReport slow = run_replay(factory, flows, replay);
  replay.engine = EngineKind::kCompiled;
  const ReplayReport report = run_replay(factory, flows, replay);
  EXPECT_GT(slow.counters.delivered, 0u);
  EXPECT_EQ(slow.counters, report.counters);
  EXPECT_EQ(report.engine, EngineKind::kCompiled);
  EXPECT_EQ(report.fallback_packets, report.counters.packets);
  EXPECT_EQ(report.compiled_packets, 0u);
  EXPECT_EQ(slow.fallback_packets, 0u);
}

}  // namespace
}  // namespace dejavu::sim
