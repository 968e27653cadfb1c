// Wire-format codecs for the protocol headers the Dejavu NFs touch:
// Ethernet, IPv4, TCP, UDP, and VXLAN (used by the virtualization
// gateway). Each codec is a plain struct with encode/decode, so header
// values can be inspected and edited independently of the byte buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/addr.hpp"
#include "net/bytes.hpp"

namespace dejavu::net {

/// EtherType values used by the framework. kEtherTypeSfc is the special
/// EtherType that signals the presence of the Dejavu SFC header (§3);
/// the paper embeds the SFC header between Ethernet and IP and marks it
/// with a dedicated EtherType, for which we reuse the NSH assignment.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::uint16_t kEtherTypeSfc = 0x894f;  // NSH EtherType

/// IP protocol numbers.
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

/// Standard UDP port for VXLAN.
inline constexpr std::uint16_t kVxlanUdpPort = 4789;

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddr dst;
  MacAddr src;
  std::uint16_t ether_type = 0;

  /// Decode from the first kSize bytes of `data`; nullopt if short.
  static std::optional<EthernetHeader> decode(std::span<const std::byte> data);
  void encode(std::span<std::byte> out) const;

  bool operator==(const EthernetHeader&) const = default;
};

struct Ipv4Header {
  static constexpr std::size_t kMinSize = 20;

  std::uint8_t ihl = 5;  // in 32-bit words; we emit option-less headers
  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  std::uint16_t flags_fragment = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  std::uint16_t checksum = 0;
  Ipv4Addr src;
  Ipv4Addr dst;

  std::size_t header_length() const { return std::size_t{ihl} * 4; }

  static std::optional<Ipv4Header> decode(std::span<const std::byte> data);
  /// Encode into `out` (must hold header_length() bytes). When
  /// `fill_checksum` is set, computes and stores the header checksum.
  void encode(std::span<std::byte> out, bool fill_checksum = true) const;

  /// Recompute what the checksum field should be for this header value.
  std::uint16_t compute_checksum() const;

  /// decode, then encode with fill_checksum, in place: refreshes the
  /// checksum of the header at the start of `data` without decoding.
  /// Under decode's guard (version 4, IHL >= 5, the whole header in
  /// `data`) only bytes 10-11 change; otherwise nothing does.
  static void refresh_checksum(std::span<std::byte> data);

  bool operator==(const Ipv4Header&) const = default;
};

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  // 32-bit words
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  std::uint16_t checksum = 0;
  std::uint16_t urgent = 0;

  std::size_t header_length() const { return std::size_t{data_offset} * 4; }

  static std::optional<TcpHeader> decode(std::span<const std::byte> data);
  void encode(std::span<std::byte> out) const;

  bool operator==(const TcpHeader&) const = default;
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;
  std::uint16_t checksum = 0;

  static std::optional<UdpHeader> decode(std::span<const std::byte> data);
  void encode(std::span<std::byte> out) const;

  bool operator==(const UdpHeader&) const = default;
};

struct VxlanHeader {
  static constexpr std::size_t kSize = 8;

  std::uint8_t flags = 0x08;  // I flag: VNI present
  std::uint32_t vni = 0;      // 24 bits

  static std::optional<VxlanHeader> decode(std::span<const std::byte> data);
  void encode(std::span<std::byte> out) const;

  bool operator==(const VxlanHeader&) const = default;
};

}  // namespace dejavu::net
