// The compiled engine checks each header once: the lowered parser marks
// a header present only when it fits in the packet, and every later
// field read, field write and selector read inside it goes unchecked.
// The SFC context and the IPv4 checksum are edited in place. These
// cases aim at the edges of that contract (frames cut through a key or
// an action field before and after a push or pop, full and reused
// context slots, malformed IPv4 headers) and require both engines to
// agree by semantically_equal, port counters and table hit counters.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "merge/compose.hpp"
#include "nf/parser_lib.hpp"
#include "sfc/header.hpp"
#include "sim/compiled/compiled_pipeline.hpp"

namespace dejavu::sim {
namespace {

constexpr std::uint32_t kEncapDst = 0x0a000001;  // 10.0.0.1
constexpr std::uint32_t kCtxDst = 0x0a000002;    // 10.0.0.2

p4ir::Action make_action(std::string name, std::vector<std::string> params,
                         std::vector<p4ir::Primitive> body) {
  p4ir::Action a;
  a.name = std::move(name);
  for (std::string& p : params) a.params.push_back({std::move(p), 16});
  a.primitives = std::move(body);
  a.primitives.push_back(p4ir::set_imm("standard_metadata.egress_spec", 1));
  return a;
}

/// One pipelet. Ingress: `t_in` on ipv4.dst_addr pushes an SFC header
/// and fills its context (a reused key, key 0, and a fifth key once the
/// four slots are full), or sets context keys on a header the packet
/// already carries; `t_l4` on tcp.dst_port writes TCP fields. Egress:
/// `t_out` on ipv4.protocol pops the SFC header of TCP packets and
/// writes TCP and IPv4 fields at their unshifted offsets. UDP packets
/// leave with their SFC header, so its context bytes are compared.
struct EdgeProgram {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"unchecked"};

  EdgeProgram() {
    nf::add_standard_parser(program, ids);
    p4ir::ControlBlock in(
        merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
    in.add_action(make_action(
        "encap", {"tenant", "app"},
        {p4ir::push_sfc_primitive(), p4ir::set_context(1, "tenant"),
         p4ir::set_context(2, "app"), p4ir::set_context(1, "app"),
         p4ir::set_context(0, "tenant"), p4ir::set_context(3, "tenant"),
         p4ir::set_context(4, "app"), p4ir::set_context(5, "tenant"),
         p4ir::set_imm("ipv4.ttl", 7), p4ir::set_from_param("tcp.window",
                                                            "tenant")}));
    in.add_action(make_action(
        "ctx_only", {"tenant", "app"},
        {p4ir::set_context(2, "tenant"), p4ir::set_context(7, "app"),
         p4ir::set_context(0, "app"), p4ir::set_imm("ipv4.ttl", 9)}));
    in.add_action(make_action(
        "mark", {"v"},
        {p4ir::set_from_param("tcp.seq_no", "v"),
         p4ir::copy_field("tcp.urgent_ptr", "tcp.dst_port")}));
    in.add_action(make_action("fwd", {}, {}));
    p4ir::Table t_in;
    t_in.name = "t_in";
    t_in.keys = {p4ir::TableKey{"ipv4.dst_addr", p4ir::MatchKind::kExact, 32}};
    t_in.actions = {"encap", "ctx_only"};
    t_in.default_action = "fwd";
    t_in.max_entries = 8;
    in.add_table(t_in);
    p4ir::Table t_l4;
    t_l4.name = "t_l4";
    t_l4.keys = {p4ir::TableKey{"tcp.dst_port", p4ir::MatchKind::kExact, 16}};
    t_l4.actions = {"mark"};
    t_l4.default_action = "fwd";
    t_l4.max_entries = 8;
    in.add_table(t_l4);
    in.apply_table("t_in");
    in.apply_table("t_l4");
    program.add_control(std::move(in));

    p4ir::ControlBlock eg(
        merge::pipelet_control_name({0, asic::PipeKind::kEgress}));
    p4ir::Action decap;
    decap.name = "decap";
    decap.primitives = {p4ir::pop_sfc_primitive(),
                        p4ir::set_imm("tcp.urgent_ptr", 9),
                        p4ir::add_imm("ipv4.ttl", 1)};
    eg.add_action(decap);
    p4ir::Action keep;
    keep.name = "keep";
    eg.add_action(keep);
    p4ir::Table t_out;
    t_out.name = "t_out";
    t_out.keys = {p4ir::TableKey{"ipv4.protocol", p4ir::MatchKind::kExact, 8}};
    t_out.actions = {"decap"};
    t_out.default_action = "keep";
    t_out.max_entries = 8;
    eg.add_table(t_out);
    eg.apply_table("t_out");
    program.add_control(std::move(eg));
  }
};

/// An interpreter and a compiled engine over two copies of one switch.
class EnginePair {
 public:
  explicit EnginePair(const EdgeProgram& p)
      : interp_(make_switch(p)), fast_dp_(interp_), fast_(fast_dp_) {}

  const CompiledPipeline& fast() const { return fast_; }

  /// Runs `packet` on both engines and returns the compiled output.
  SwitchOutput run(const net::Packet& packet, const std::string& what) {
    const SwitchOutput a = interp_.process(packet, 0);
    SwitchOutput b = fast_.process(packet, 0);
    EXPECT_TRUE(semantically_equal(a, b))
        << what << "\ninterp: " << a.drop_reason
        << "\ncompiled: " << b.drop_reason;
    return b;
  }

  void expect_same_counters() {
    EXPECT_EQ(interp_.all_port_counters(), fast_dp_.all_port_counters());
    for (const auto& [control, table] :
         {std::pair{ingress(), "t_in"}, std::pair{ingress(), "t_l4"},
          std::pair{egress(), "t_out"}}) {
      const RuntimeTable* a = interp_.table_in(control, table);
      const RuntimeTable* b = fast_dp_.table_in(control, table);
      EXPECT_EQ(a->hits(), b->hits()) << table;
      EXPECT_EQ(a->misses(), b->misses()) << table;
    }
    EXPECT_EQ(fast_.stats().fallback_packets, 0u);
  }

 private:
  static std::string ingress() {
    return merge::pipelet_control_name({0, asic::PipeKind::kIngress});
  }
  static std::string egress() {
    return merge::pipelet_control_name({0, asic::PipeKind::kEgress});
  }

  static DataPlane make_switch(const EdgeProgram& p) {
    DataPlane dp(p.program, p.ids,
                 asic::SwitchConfig(asic::TargetSpec::mini()));
    dp.table_in(ingress(), "t_in")
        ->add_exact({kEncapDst}, ActionCall{"encap", {{"tenant", 0x1111},
                                                      {"app", 0x2222}}});
    dp.table_in(ingress(), "t_in")
        ->add_exact({kCtxDst}, ActionCall{"ctx_only", {{"tenant", 0x3333},
                                                       {"app", 0x4444}}});
    dp.table_in(ingress(), "t_l4")
        ->add_exact({80}, ActionCall{"mark", {{"v", 0xbeef}}});
    dp.table_in(egress(), "t_out")
        ->add_exact({net::kIpProtoTcp}, ActionCall{"decap", {}});
    return dp;
  }

  DataPlane interp_;
  DataPlane fast_dp_;
  CompiledPipeline fast_;
};

net::Packet make_packet(std::uint32_t dst, std::uint8_t protocol,
                        std::size_t payload = 16) {
  net::PacketSpec spec;
  spec.ip_dst = net::Ipv4Addr(dst);
  spec.protocol = protocol;
  spec.payload_size = payload;
  return net::Packet::make(spec);
}

/// `packet` already SFC-encapsulated with a context of key 1, an empty
/// slot holding a stale value, key 9 and an empty slot, and nonzero
/// reserved platform-metadata bits.
net::Packet pre_encapsulated(net::Packet packet) {
  sfc::SfcHeader header;
  header.service_path_id = 3;
  header.context.set(1, 0xaaaa);
  header.context.set(7, 0xbbbb);
  header.context.set(9, 0xcccc);
  header.context.erase(7);
  sfc::push_sfc(packet, header);
  auto bytes = packet.data().mutable_view();
  bytes[14 + 5] |= std::byte{0x01};  // reserved bit 8
  bytes[14 + 6] = std::byte{0x5a};   // reserved bits 7..0
  bytes[14 + 7 + 3 + 1] = std::byte{0x77};  // the empty slot's value
  return packet;
}

net::Packet truncated(const net::Packet& packet, std::size_t size) {
  const auto bytes = packet.data().view().first(size);
  return net::Packet(net::Buffer(std::vector<std::byte>(bytes.begin(),
                                                        bytes.end())));
}

TEST(CompiledUnchecked, FramesCutThroughKeyAndActionFieldsAgree) {
  // Every cut of each frame: keys (ipv4.dst_addr, tcp.dst_port) and
  // written fields (tcp.window after the push, tcp.urgent_ptr after
  // the pop) straddle the end at some length, at their plain and their
  // SFC-shifted offsets.
  const EdgeProgram p;
  EnginePair engines(p);
  ASSERT_TRUE(engines.fast().compiled_ok()) << engines.fast().compile_error();
  const std::vector<net::Packet> frames = {
      make_packet(kEncapDst, net::kIpProtoTcp),
      make_packet(kEncapDst, net::kIpProtoUdp),
      pre_encapsulated(make_packet(kCtxDst, net::kIpProtoTcp)),
      pre_encapsulated(make_packet(kCtxDst, net::kIpProtoUdp)),
  };
  std::size_t cuts = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    for (std::size_t len = 0; len <= frames[f].size(); ++len) {
      engines.run(truncated(frames[f], len),
                  "frame " + std::to_string(f) + " cut to " +
                      std::to_string(len));
      ++cuts;
    }
  }
  EXPECT_EQ(engines.fast().stats().compiled_packets, cuts);
  engines.expect_same_counters();
}

TEST(CompiledUnchecked, ContextSlotsFillReuseAndRefuseAsTheInterpreter) {
  const EdgeProgram p;
  EnginePair engines(p);
  ASSERT_TRUE(engines.fast().compiled_ok()) << engines.fast().compile_error();

  // A pushed header: key 1 is set then reused, key 0 writes nothing,
  // keys 2-4 fill the slots and key 5 finds none free.
  const SwitchOutput pushed =
      engines.run(make_packet(kEncapDst, net::kIpProtoUdp), "push");
  ASSERT_EQ(pushed.out.size(), 1u);
  const auto header = sfc::read_sfc(pushed.out[0].packet);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->context.get(1), 0x2222);
  EXPECT_EQ(header->context.get(2), 0x2222);
  EXPECT_EQ(header->context.get(3), 0x1111);
  EXPECT_EQ(header->context.get(4), 0x2222);
  EXPECT_FALSE(header->context.get(5).has_value());
  EXPECT_EQ(header->context.used_slots(), 4u);

  // A carried header: key 2 takes the first empty slot (overwriting its
  // stale value), key 7 the next, key 0 nothing, and the reserved
  // platform-metadata bits read back zero, as a decode and re-encode
  // leaves them.
  const SwitchOutput carried = engines.run(
      pre_encapsulated(make_packet(kCtxDst, net::kIpProtoUdp)), "carried");
  ASSERT_EQ(carried.out.size(), 1u);
  const net::Packet& out = carried.out[0].packet;
  const auto ctx = sfc::read_sfc(out);
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->context.get(1), 0xaaaa);
  EXPECT_EQ(ctx->context.get(2), 0x3333);
  EXPECT_EQ(ctx->context.get(7), 0x4444);
  EXPECT_EQ(ctx->context.get(9), 0xcccc);
  EXPECT_EQ(std::to_integer<int>(out.data().view()[14 + 5]) & 1, 0);
  EXPECT_EQ(std::to_integer<int>(out.data().view()[14 + 6]), 0);
  engines.expect_same_counters();
}

TEST(CompiledUnchecked, MalformedIpv4HeadersGetTheSameChecksum) {
  // The emit refreshes the checksum only under Ipv4Header::decode's
  // guard: version 4, IHL >= 5 and the whole header inside the frame.
  const EdgeProgram p;
  EnginePair engines(p);
  ASSERT_TRUE(engines.fast().compiled_ok()) << engines.fast().compile_error();
  auto with_ver_ihl = [](net::Packet packet, std::uint8_t ver_ihl) {
    packet.data().mutable_view()[14] = static_cast<std::byte>(ver_ihl);
    return packet;
  };
  const net::Packet tcp = make_packet(kEncapDst, net::kIpProtoTcp, 40);
  const net::Packet udp = make_packet(kCtxDst, net::kIpProtoUdp, 40);
  const std::vector<std::pair<std::string, net::Packet>> cases = {
      {"options, ihl 7", with_ver_ihl(tcp, 0x47)},
      {"options, ihl 7, udp", with_ver_ihl(udp, 0x47)},
      {"ihl 15 past the end", with_ver_ihl(tcp, 0x4f)},
      {"ihl 15 cut inside", truncated(with_ver_ihl(udp, 0x4f), 14 + 40)},
      {"ihl 4", with_ver_ihl(tcp, 0x44)},
      {"ihl 0", with_ver_ihl(udp, 0x40)},
      {"version 6", with_ver_ihl(tcp, 0x65)},
      {"version 0", with_ver_ihl(udp, 0x05)},
  };
  for (const auto& [what, packet] : cases) {
    engines.run(packet, what);
    for (std::size_t len = 14; len <= 14 + 24; ++len) {
      engines.run(truncated(packet, len),
                  what + " cut to " + std::to_string(len));
    }
  }
  engines.expect_same_counters();
}

TEST(CompiledUnchecked, FieldWiderThan64BitsRefusesTheCompile) {
  // Field access runs unchecked, so a field read_bits would refuse at
  // run time (here the SFC header's 96-bit context) refuses the
  // lowering instead; every packet then runs on the interpreter.
  EdgeProgram p;
  p4ir::ControlBlock* in = p.program.find_control(
      merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
  ASSERT_NE(in, nullptr);
  p4ir::Table wide;
  wide.name = "by_context";
  wide.keys = {p4ir::TableKey{"sfc.context", p4ir::MatchKind::kExact, 96}};
  wide.actions = {"fwd"};
  wide.default_action = "fwd";
  in->add_table(wide);
  in->apply_table("by_context");

  DataPlane dp(p.program, p.ids, asic::SwitchConfig(asic::TargetSpec::mini()));
  CompiledPipeline fast(dp);
  EXPECT_FALSE(fast.compiled_ok());
  EXPECT_EQ(fast.compile_error(), "field sfc.context is wider than 64 bits");
  fast.process(make_packet(kCtxDst, net::kIpProtoUdp), 0);
  EXPECT_EQ(fast.stats().fallback_packets, 1u);
}

}  // namespace
}  // namespace dejavu::sim
