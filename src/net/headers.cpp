#include "net/headers.hpp"

#include "net/checksum.hpp"

namespace dejavu::net {

std::optional<EthernetHeader> EthernetHeader::decode(
    std::span<const std::byte> data) {
  if (data.size() < kSize) return std::nullopt;
  EthernetHeader h;
  std::array<std::uint8_t, 6> dst{}, src{};
  for (std::size_t i = 0; i < 6; ++i) {
    dst[i] = std::to_integer<std::uint8_t>(data[i]);
    src[i] = std::to_integer<std::uint8_t>(data[6 + i]);
  }
  h.dst = MacAddr(dst);
  h.src = MacAddr(src);
  h.ether_type = read_be16(data, 12);
  return h;
}

void EthernetHeader::encode(std::span<std::byte> out) const {
  for (std::size_t i = 0; i < 6; ++i) {
    out[i] = static_cast<std::byte>(dst.octets()[i]);
    out[6 + i] = static_cast<std::byte>(src.octets()[i]);
  }
  write_be16(out, 12, ether_type);
}

std::optional<Ipv4Header> Ipv4Header::decode(std::span<const std::byte> data) {
  if (data.size() < kMinSize) return std::nullopt;
  std::uint8_t ver_ihl = read_u8(data, 0);
  if ((ver_ihl >> 4) != 4) return std::nullopt;
  Ipv4Header h;
  h.ihl = ver_ihl & 0x0f;
  if (h.ihl < 5 || data.size() < h.header_length()) return std::nullopt;
  h.dscp_ecn = read_u8(data, 1);
  h.total_length = read_be16(data, 2);
  h.identification = read_be16(data, 4);
  h.flags_fragment = read_be16(data, 6);
  h.ttl = read_u8(data, 8);
  h.protocol = read_u8(data, 9);
  h.checksum = read_be16(data, 10);
  h.src = Ipv4Addr(read_be32(data, 12));
  h.dst = Ipv4Addr(read_be32(data, 16));
  return h;
}

void Ipv4Header::encode(std::span<std::byte> out, bool fill_checksum) const {
  write_u8(out, 0, static_cast<std::uint8_t>(0x40 | (ihl & 0x0f)));
  write_u8(out, 1, dscp_ecn);
  write_be16(out, 2, total_length);
  write_be16(out, 4, identification);
  write_be16(out, 6, flags_fragment);
  write_u8(out, 8, ttl);
  write_u8(out, 9, protocol);
  write_be16(out, 10, fill_checksum ? 0 : checksum);
  write_be32(out, 12, src.value());
  write_be32(out, 16, dst.value());
  if (fill_checksum) {
    auto sum = internet_checksum(out.first(header_length()));
    write_be16(out, 10, sum);
  }
}

std::uint16_t Ipv4Header::compute_checksum() const {
  std::array<std::byte, kMinSize> buf{};
  Ipv4Header copy = *this;
  copy.ihl = 5;
  copy.encode(buf, /*fill_checksum=*/true);
  return read_be16(buf, 10);
}

void Ipv4Header::refresh_checksum(std::span<std::byte> data) {
  if (data.size() < kMinSize) return;
  const auto ver_ihl = std::to_integer<std::uint8_t>(data[0]);
  const std::size_t len = std::size_t{ver_ihl & 0x0fu} * 4;
  if ((ver_ihl >> 4) != 4 || len < kMinSize || len > data.size()) return;
  data[10] = std::byte{0};
  data[11] = std::byte{0};
  ChecksumAccumulator sum;
  sum.add(data.first(len));
  const std::uint16_t value = sum.finish();
  data[10] = static_cast<std::byte>(value >> 8);
  data[11] = static_cast<std::byte>(value & 0xff);
}

std::optional<TcpHeader> TcpHeader::decode(std::span<const std::byte> data) {
  if (data.size() < kMinSize) return std::nullopt;
  TcpHeader h;
  h.src_port = read_be16(data, 0);
  h.dst_port = read_be16(data, 2);
  h.seq = read_be32(data, 4);
  h.ack = read_be32(data, 8);
  std::uint8_t off_flags = read_u8(data, 12);
  h.data_offset = off_flags >> 4;
  if (h.data_offset < 5 || data.size() < h.header_length()) {
    return std::nullopt;
  }
  h.flags = read_u8(data, 13);
  h.window = read_be16(data, 14);
  h.checksum = read_be16(data, 16);
  h.urgent = read_be16(data, 18);
  return h;
}

void TcpHeader::encode(std::span<std::byte> out) const {
  write_be16(out, 0, src_port);
  write_be16(out, 2, dst_port);
  write_be32(out, 4, seq);
  write_be32(out, 8, ack);
  write_u8(out, 12, static_cast<std::uint8_t>(data_offset << 4));
  write_u8(out, 13, flags);
  write_be16(out, 14, window);
  write_be16(out, 16, checksum);
  write_be16(out, 18, urgent);
}

std::optional<UdpHeader> UdpHeader::decode(std::span<const std::byte> data) {
  if (data.size() < kSize) return std::nullopt;
  UdpHeader h;
  h.src_port = read_be16(data, 0);
  h.dst_port = read_be16(data, 2);
  h.length = read_be16(data, 4);
  h.checksum = read_be16(data, 6);
  return h;
}

void UdpHeader::encode(std::span<std::byte> out) const {
  write_be16(out, 0, src_port);
  write_be16(out, 2, dst_port);
  write_be16(out, 4, length);
  write_be16(out, 6, checksum);
}

std::optional<VxlanHeader> VxlanHeader::decode(
    std::span<const std::byte> data) {
  if (data.size() < kSize) return std::nullopt;
  VxlanHeader h;
  h.flags = read_u8(data, 0);
  h.vni = read_be24(data, 4);
  return h;
}

void VxlanHeader::encode(std::span<std::byte> out) const {
  write_u8(out, 0, flags);
  write_u8(out, 1, 0);
  write_be16(out, 2, 0);
  write_be24(out, 4, vni & 0xffffff);
  write_u8(out, 7, 0);
}

}  // namespace dejavu::net
