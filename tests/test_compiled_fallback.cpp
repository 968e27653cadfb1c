// Fallback coverage for the compiled fast path: packets that miss
// every compiled trace — malformed/truncated headers, shapes outside
// the witness set — must escape to the interpreter *before any side
// effect* and produce bit-identical outcomes, with the escape tallied
// in fallback_packets (and surfaced through ReplayReport). CPU
// reinjections and retired-epoch stamps run compiled, bit-identical
// too. The pass-cap overflow is the one hot-path condition handled
// inline (side effects already applied), so it must agree without
// escaping.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "control/replay_target.hpp"
#include "explore/explorer.hpp"
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

TEST(CompiledFallback, MalformedPacketsEscapeIdentically) {
  auto fx = control::make_fig9_deployment();
  const CompileSeed seed =
      explore::compile_seed(fx.deployment->run_explorer());
  DataPlane interp = fx.deployment->dataplane();
  DataPlane fast_dp = fx.deployment->dataplane();
  CompiledPipeline fast(fast_dp, seed);
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
  // Every one of them was an escape, and they were shape escapes.
  EXPECT_GT(fast.stats().fallback_packets, 0u);
  EXPECT_EQ(fast.stats().fallback_packets, fast.stats().shape_escapes);
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

/// A replay target whose compiled trace set is deliberately too small
/// (a single TCP witness), so a UDP stream misses every trace.
class NarrowSeedTarget : public ReplayTarget {
 public:
  explicit NarrowSeedTarget(control::Fig2Deployment fx, CompileSeed seed)
      : fx_(std::move(fx)),
        fast_(fx_.deployment->dataplane(), std::move(seed)) {}

  SwitchOutput inject(net::Packet packet, std::uint16_t in_port) override {
    return fast_.process(std::move(packet), in_port);
  }
  DataPlane& dataplane() override { return fx_.deployment->dataplane(); }
  EngineKind engine() const override { return EngineKind::kCompiled; }
  std::uint64_t compiled_packets() const override {
    return fast_.stats().compiled_packets;
  }
  std::uint64_t fallback_packets() const override {
    return fast_.stats().fallback_packets;
  }

 private:
  control::Fig2Deployment fx_;
  CompiledPipeline fast_;
};

TEST(CompiledFallback, FallbackCounterSurfacesInReplayReport) {
  net::PacketSpec tcp_witness;
  tcp_witness.ip_dst = net::Ipv4Addr(10, 3, 0, 1);

  // UDP flows on the plain routed path: their parse shape is outside
  // the TCP-only trace set, so every packet falls back — and the
  // merged counters must still equal a pure interpreter run.
  FlowMix mix;
  mix.flows = 10;
  mix.protocol = net::kIpProtoUdp;
  mix.dst = net::Ipv4Addr(10, 3, 0, 1);
  const auto flows =
      make_path_flows(mix, /*path_id=*/3, control::Fig2Deployment::kSenderPort);

  ReplayConfig config;
  config.workers = 2;
  config.packets_per_flow = 2;

  const auto narrow_factory = [&](std::uint32_t) {
    CompileSeed seed;
    seed.witnesses.push_back(
        CompileSeed::Witness{net::Packet::make(tcp_witness),
                             control::Fig2Deployment::kSenderPort});
    return std::make_unique<NarrowSeedTarget>(control::make_fig9_deployment(),
                                              std::move(seed));
  };
  const ReplayReport compiled = run_replay(narrow_factory, flows, config);

  const auto interp_factory =
      control::fig2_replay_factory(/*fig9=*/true, /*service_punts=*/false);
  const ReplayReport interp = run_replay(interp_factory, flows, config);

  EXPECT_EQ(interp.counters, compiled.counters);
  EXPECT_EQ(compiled.fallback_packets, compiled.counters.packets);
  EXPECT_EQ(compiled.compiled_packets, 0u);
  EXPECT_EQ(interp.fallback_packets, 0u);
}

}  // namespace
}  // namespace dejavu::sim
