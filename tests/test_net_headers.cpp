#include "net/headers.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "net/bytes.hpp"

namespace dejavu::net {
namespace {

TEST(EthernetHeader, EncodeDecodeRoundTrip) {
  EthernetHeader h;
  h.dst = MacAddr::from_u64(0x0a0b0c0d0e0f);
  h.src = MacAddr::from_u64(0x010203040506);
  h.ether_type = kEtherTypeIpv4;

  Buffer buf(EthernetHeader::kSize);
  h.encode(buf.mutable_view());
  auto decoded = EthernetHeader::decode(buf.view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(EthernetHeader, DecodeRejectsShortBuffer) {
  Buffer buf(13);
  EXPECT_FALSE(EthernetHeader::decode(buf.view()).has_value());
}

TEST(Ipv4Header, EncodeDecodeRoundTrip) {
  Ipv4Header h;
  h.total_length = 120;
  h.identification = 0x1234;
  h.ttl = 17;
  h.protocol = kIpProtoTcp;
  h.src = Ipv4Addr(1, 2, 3, 4);
  h.dst = Ipv4Addr(5, 6, 7, 8);

  Buffer buf(Ipv4Header::kMinSize);
  h.encode(buf.mutable_view(), /*fill_checksum=*/true);
  auto decoded = Ipv4Header::decode(buf.view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src, h.src);
  EXPECT_EQ(decoded->dst, h.dst);
  EXPECT_EQ(decoded->ttl, h.ttl);
  EXPECT_EQ(decoded->total_length, h.total_length);
  // The encoded checksum must verify.
  EXPECT_EQ(decoded->checksum, decoded->compute_checksum());
}

TEST(Ipv4Header, DecodeRejectsNonV4) {
  Buffer buf(20);
  write_u8(buf.mutable_view(), 0, 0x65);  // version 6
  EXPECT_FALSE(Ipv4Header::decode(buf.view()).has_value());
}

TEST(Ipv4Header, DecodeRejectsBadIhl) {
  Buffer buf(20);
  write_u8(buf.mutable_view(), 0, 0x43);  // ihl 3 < 5
  EXPECT_FALSE(Ipv4Header::decode(buf.view()).has_value());
}

TEST(Ipv4Header, RefreshChecksumMatchesADecodeEncodeRoundTrip) {
  // Over random bytes, version/IHL nibbles (options, IHL < 5, version
  // != 4) and buffer lengths that cut the header, the in-place refresh
  // leaves what decode + encode(fill_checksum) leaves, and nothing
  // where decode refuses.
  std::mt19937 rng(11);
  for (int round = 0; round < 3000; ++round) {
    std::vector<std::byte> bytes(rng() % 70);
    for (std::byte& b : bytes) b = static_cast<std::byte>(rng() & 0xff);
    if (!bytes.empty() && rng() % 4 != 0) {
      bytes[0] = static_cast<std::byte>(0x40 | (rng() % 16));
    }
    std::vector<std::byte> expected = bytes;
    if (auto h = Ipv4Header::decode(expected)) {
      h->encode(std::span(expected).first(h->header_length()),
                /*fill_checksum=*/true);
    }
    Ipv4Header::refresh_checksum(bytes);
    ASSERT_EQ(bytes, expected) << "round " << round;
  }
}

TEST(TcpHeader, EncodeDecodeRoundTrip) {
  TcpHeader h;
  h.src_port = 40000;
  h.dst_port = 443;
  h.seq = 0xdeadbeef;
  h.ack = 0x01020304;
  h.flags = 0x18;
  h.window = 0x7fff;

  Buffer buf(TcpHeader::kMinSize);
  h.encode(buf.mutable_view());
  auto decoded = TcpHeader::decode(buf.view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(UdpHeader, EncodeDecodeRoundTrip) {
  UdpHeader h;
  h.src_port = 5353;
  h.dst_port = kVxlanUdpPort;
  h.length = 100;
  h.checksum = 0xaabb;

  Buffer buf(UdpHeader::kSize);
  h.encode(buf.mutable_view());
  auto decoded = UdpHeader::decode(buf.view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(VxlanHeader, EncodeDecodeRoundTrip) {
  VxlanHeader h;
  h.vni = 0xabcdef;

  Buffer buf(VxlanHeader::kSize);
  h.encode(buf.mutable_view());
  auto decoded = VxlanHeader::decode(buf.view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->vni, 0xabcdefu);
  EXPECT_EQ(decoded->flags, 0x08);
}

TEST(VxlanHeader, VniMaskedTo24Bits) {
  VxlanHeader h;
  h.vni = 0x12abcdef;  // over 24 bits
  Buffer buf(VxlanHeader::kSize);
  h.encode(buf.mutable_view());
  EXPECT_EQ(VxlanHeader::decode(buf.view())->vni, 0xabcdefu);
}

}  // namespace
}  // namespace dejavu::net
