#include "net/packet.hpp"

#include <stdexcept>

namespace dejavu::net {

Packet Packet::make(const PacketSpec& spec) {
  const std::size_t l4_size =
      spec.protocol == kIpProtoTcp ? TcpHeader::kMinSize : UdpHeader::kSize;
  const std::size_t ip_total =
      Ipv4Header::kMinSize + l4_size + spec.payload_size;
  Buffer buf(EthernetHeader::kSize + ip_total);
  auto bytes = buf.mutable_view();

  EthernetHeader eth;
  eth.dst = spec.eth_dst;
  eth.src = spec.eth_src;
  eth.ether_type = kEtherTypeIpv4;
  eth.encode(bytes.first(EthernetHeader::kSize));

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(ip_total);
  ip.ttl = spec.ttl;
  ip.protocol = spec.protocol;
  ip.src = spec.ip_src;
  ip.dst = spec.ip_dst;
  ip.encode(bytes.subspan(EthernetHeader::kSize, Ipv4Header::kMinSize));

  const std::size_t l4_off = EthernetHeader::kSize + Ipv4Header::kMinSize;
  if (spec.protocol == kIpProtoTcp) {
    TcpHeader tcp;
    tcp.src_port = spec.src_port;
    tcp.dst_port = spec.dst_port;
    tcp.window = 0xffff;
    tcp.encode(bytes.subspan(l4_off, TcpHeader::kMinSize));
  } else {
    UdpHeader udp;
    udp.src_port = spec.src_port;
    udp.dst_port = spec.dst_port;
    udp.length = static_cast<std::uint16_t>(l4_size + spec.payload_size);
    udp.encode(bytes.subspan(l4_off, UdpHeader::kSize));
  }

  for (std::size_t i = l4_off + l4_size; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(spec.payload_fill);
  }
  return Packet(std::move(buf));
}

std::optional<EthernetHeader> Packet::ethernet() const {
  return EthernetHeader::decode(data_.view());
}

void Packet::set_ethernet(const EthernetHeader& h) {
  h.encode(data_.mutable_slice(0, EthernetHeader::kSize));
}

bool Packet::has_sfc_header() const {
  // Only the EtherType matters: no need to decode the MACs.
  const auto bytes = data_.view();
  return bytes.size() >= EthernetHeader::kSize &&
         read_be16(bytes, 12) == kEtherTypeSfc;
}

std::size_t Packet::ipv4_offset(std::size_t sfc_header_size) const {
  return EthernetHeader::kSize + (has_sfc_header() ? sfc_header_size : 0);
}

std::optional<Ipv4Header> Packet::ipv4(std::size_t sfc_header_size) const {
  std::size_t off = ipv4_offset(sfc_header_size);
  if (off >= data_.size()) return std::nullopt;
  return Ipv4Header::decode(data_.view().subspan(off));
}

void Packet::set_ipv4(const Ipv4Header& h, std::size_t sfc_header_size) {
  std::size_t off = ipv4_offset(sfc_header_size);
  h.encode(data_.mutable_slice(off, h.header_length()));
}

namespace {

std::optional<std::size_t> l4_offset(const Packet& p,
                                     std::size_t sfc_header_size,
                                     std::uint8_t want_proto) {
  auto ip = p.ipv4(sfc_header_size);
  if (!ip || ip->protocol != want_proto) return std::nullopt;
  return p.ipv4_offset(sfc_header_size) + ip->header_length();
}

}  // namespace

std::optional<TcpHeader> Packet::tcp(std::size_t sfc_header_size) const {
  auto off = l4_offset(*this, sfc_header_size, kIpProtoTcp);
  if (!off || *off >= data_.size()) return std::nullopt;
  return TcpHeader::decode(data_.view().subspan(*off));
}

void Packet::set_tcp(const TcpHeader& h, std::size_t sfc_header_size) {
  auto off = l4_offset(*this, sfc_header_size, kIpProtoTcp);
  if (!off) throw std::logic_error("set_tcp on non-TCP packet");
  h.encode(data_.mutable_slice(*off, h.header_length()));
}

std::optional<UdpHeader> Packet::udp(std::size_t sfc_header_size) const {
  auto off = l4_offset(*this, sfc_header_size, kIpProtoUdp);
  if (!off || *off >= data_.size()) return std::nullopt;
  return UdpHeader::decode(data_.view().subspan(*off));
}

void Packet::set_udp(const UdpHeader& h, std::size_t sfc_header_size) {
  auto off = l4_offset(*this, sfc_header_size, kIpProtoUdp);
  if (!off) throw std::logic_error("set_udp on non-UDP packet");
  h.encode(data_.mutable_slice(*off, UdpHeader::kSize));
}

std::optional<FiveTuple> Packet::five_tuple(
    std::size_t sfc_header_size) const {
  auto ip = ipv4(sfc_header_size);
  if (!ip) return std::nullopt;
  FiveTuple t;
  t.src = ip->src;
  t.dst = ip->dst;
  t.protocol = ip->protocol;
  if (auto h = tcp(sfc_header_size)) {
    t.src_port = h->src_port;
    t.dst_port = h->dst_port;
  } else if (auto u = udp(sfc_header_size)) {
    t.src_port = u->src_port;
    t.dst_port = u->dst_port;
  } else {
    return std::nullopt;
  }
  return t;
}

std::string Packet::summary() const {
  auto eth = ethernet();
  if (!eth) return "<truncated frame, " + std::to_string(size()) + " bytes>";
  std::string out = "eth " + eth->src.to_string() + " -> " +
                    eth->dst.to_string();
  if (has_sfc_header()) out += " [sfc]";
  // Without knowing the SFC header size the net layer reports L3 info
  // only for plain packets.
  if (!has_sfc_header()) {
    if (auto t = five_tuple()) out += " | " + t->to_string();
  }
  out += " | " + std::to_string(size()) + "B";
  return out;
}

}  // namespace dejavu::net
