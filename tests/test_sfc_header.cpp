#include "sfc/header.hpp"

#include <gtest/gtest.h>

#include <random>

namespace dejavu::sfc {
namespace {

SfcHeader sample_header() {
  SfcHeader h;
  h.service_path_id = 0x1234;
  h.service_index = 3;
  h.meta.in_port = 17;
  h.meta.out_port = 300;
  h.meta.recirculate = true;
  h.meta.to_cpu = true;
  h.context.set(1, 0xaaaa);
  h.context.set(2, 0xbbbb);
  h.next_protocol = NextProtocol::kIpv4;
  return h;
}

TEST(SfcHeader, WireSizeMatchesFig3) {
  // 2 B path + 1 B index + 4 B platform metadata + 12 B context
  // + 1 B next protocol = 20 bytes.
  EXPECT_EQ(kSfcHeaderSize, 20u);
}

TEST(SfcHeader, EncodeDecodeRoundTrip) {
  SfcHeader h = sample_header();
  std::vector<std::byte> buf(kSfcHeaderSize);
  h.encode(buf);
  auto decoded = SfcHeader::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(SfcHeader, DecodeRejectsShortBuffer) {
  std::vector<std::byte> buf(kSfcHeaderSize - 1);
  EXPECT_FALSE(SfcHeader::decode(buf).has_value());
}

/// Property sweep: every flag combination survives the round trip.
class FlagSweep : public ::testing::TestWithParam<int> {};

TEST_P(FlagSweep, FlagsRoundTrip) {
  const int bits = GetParam();
  SfcHeader h;
  h.meta.resubmit = bits & 1;
  h.meta.recirculate = bits & 2;
  h.meta.drop = bits & 4;
  h.meta.mirror = bits & 8;
  h.meta.to_cpu = bits & 16;
  std::vector<std::byte> buf(kSfcHeaderSize);
  h.encode(buf);
  EXPECT_EQ(SfcHeader::decode(buf)->meta, h.meta);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, FlagSweep, ::testing::Range(0, 32));

TEST(ContextData, SetGetErase) {
  ContextData ctx;
  EXPECT_TRUE(ctx.set(5, 100));
  EXPECT_EQ(ctx.get(5), 100);
  EXPECT_TRUE(ctx.set(5, 200));  // overwrite reuses the slot
  EXPECT_EQ(ctx.get(5), 200);
  EXPECT_EQ(ctx.used_slots(), 1u);
  EXPECT_TRUE(ctx.erase(5));
  EXPECT_FALSE(ctx.get(5).has_value());
  EXPECT_FALSE(ctx.erase(5));
}

TEST(ContextData, KeyZeroIsInvalid) {
  ContextData ctx;
  EXPECT_FALSE(ctx.set(0, 1));
  EXPECT_FALSE(ctx.get(0).has_value());
}

TEST(ContextData, CapacityIsFourSlots) {
  ContextData ctx;
  for (std::uint8_t k = 1; k <= 4; ++k) EXPECT_TRUE(ctx.set(k, k));
  EXPECT_FALSE(ctx.set(5, 5));  // full
  EXPECT_TRUE(ctx.set(3, 33));  // existing keys still writable
  EXPECT_TRUE(ctx.erase(2));
  EXPECT_TRUE(ctx.set(5, 5));  // freed slot reusable
}

TEST(PushPop, InsertsBetweenEthernetAndIp) {
  net::Packet p = net::Packet::make({});
  const std::size_t before = p.size();
  auto orig_ip = *p.ipv4();

  SfcHeader h;
  h.service_path_id = 7;
  push_sfc(p, h);

  EXPECT_TRUE(p.has_sfc_header());
  EXPECT_EQ(p.size(), before + kSfcHeaderSize);
  // The IP header now sits behind the SFC header.
  auto shifted_ip = p.ipv4(kSfcHeaderSize);
  ASSERT_TRUE(shifted_ip.has_value());
  EXPECT_EQ(shifted_ip->dst, orig_ip.dst);

  auto read = read_sfc(p);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->service_path_id, 7);
  EXPECT_EQ(read->next_protocol, NextProtocol::kIpv4);
}

TEST(PushPop, PopRestoresOriginalBytes) {
  net::Packet p = net::Packet::make({});
  const net::Packet original = p;

  SfcHeader h;
  h.service_path_id = 9;
  h.context.set(1, 42);
  push_sfc(p, h);
  SfcHeader popped = pop_sfc(p);

  EXPECT_EQ(p, original);
  EXPECT_EQ(popped.service_path_id, 9);
  EXPECT_EQ(popped.context.get(1), 42);
}

TEST(PushPop, DoublePushThrows) {
  net::Packet p = net::Packet::make({});
  push_sfc(p, SfcHeader{});
  EXPECT_THROW(push_sfc(p, SfcHeader{}), std::logic_error);
}

TEST(PushPop, PopWithoutHeaderThrows) {
  net::Packet p = net::Packet::make({});
  EXPECT_THROW(pop_sfc(p), std::logic_error);
}

TEST(PushPop, WriteSfcUpdatesInPlace) {
  net::Packet p = net::Packet::make({});
  push_sfc(p, SfcHeader{});
  auto h = *read_sfc(p);
  h.service_index = 5;
  h.meta.drop = true;
  write_sfc(p, h);
  EXPECT_EQ(*read_sfc(p), h);
}

TEST(PushPop, WriteSfcWithoutHeaderThrows) {
  net::Packet p = net::Packet::make({});
  EXPECT_THROW(write_sfc(p, SfcHeader{}), std::logic_error);
}

TEST(PushPop, SetContextMatchesADecodeSetEncodeRoundTrip) {
  // set_context edits the header in place; over random header bytes
  // (stale values in empty slots, duplicate keys, nonzero reserved
  // bits) and keys 0-7 it leaves the frame byte-identical to read_sfc,
  // ContextData::set and write_sfc.
  std::mt19937 rng(7);
  for (int round = 0; round < 2000; ++round) {
    net::Packet packet = net::Packet::make(net::PacketSpec{});
    push_sfc(packet, SfcHeader{});
    auto bytes = packet.data().mutable_view();
    for (std::size_t i = 14; i < 14 + kSfcHeaderSize; ++i) {
      bytes[i] = static_cast<std::byte>(rng() & 0xff);
    }
    for (std::size_t slot = 0; slot < ContextData::kSlots; ++slot) {
      bytes[14 + 7 + slot * 3] = static_cast<std::byte>(rng() % 5);
    }
    const auto key = static_cast<std::uint8_t>(rng() % 8);
    const auto value = static_cast<std::uint16_t>(rng());

    net::Packet expected = packet;
    auto header = read_sfc(expected);
    ASSERT_TRUE(header.has_value());
    header->context.set(key, value);
    write_sfc(expected, *header);

    ASSERT_TRUE(set_context(packet, key, value));
    ASSERT_EQ(packet, expected) << "round " << round;
  }
  net::Packet plain = net::Packet::make(net::PacketSpec{});
  const net::Packet before = plain;
  EXPECT_FALSE(set_context(plain, 1, 2));
  EXPECT_EQ(plain, before);
}

TEST(PortSentinel, UnsetOutPortReportsAbsent) {
  PlatformMetadata m;
  EXPECT_FALSE(m.has_out_port());
  m.out_port = 3;
  EXPECT_TRUE(m.has_out_port());
}

}  // namespace
}  // namespace dejavu::sfc
