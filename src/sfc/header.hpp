// The Dejavu SFC header (paper §3, Fig. 3), an NSH-inspired header
// embedded between Ethernet and IP and announced by a dedicated
// EtherType:
//
//   +---------------------+----------------+
//   | service path ID     | 2 bytes        |
//   | service index       | 1 byte         |
//   | platform metadata   | 4 bytes        |
//   | context data (K/V)  | 12 bytes       |
//   | next protocol       | 1 byte         |
//   +---------------------+----------------+
//
// Platform metadata packs: inPort (9b), outPort (9b), and the five
// flags resubmit / recirculate / drop / mirror / toCpu. Context data is
// four slots of 1-byte key + 2-byte value (key 0 = empty slot).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/packet.hpp"

namespace dejavu::sfc {

inline constexpr std::size_t kSfcHeaderSize = 20;

/// Sentinel for "output port not yet decided" in platform metadata.
inline constexpr std::uint16_t kPortUnset = 0x1ff;

/// Next-protocol codes carried in the SFC header's trailing byte.
enum class NextProtocol : std::uint8_t {
  kNone = 0x00,
  kIpv4 = 0x01,
  kEthernet = 0x03,
};

/// The platform metadata copy carried in the SFC header (§3): the
/// physical ingress/egress ports plus the five steering flags. NFs set
/// these through the hdr argument; the framework's check_sfcFlags glue
/// translates them into actual platform behavior.
struct PlatformMetadata {
  std::uint16_t in_port = kPortUnset;   // 9 bits on the wire
  std::uint16_t out_port = kPortUnset;  // 9 bits on the wire
  bool resubmit = false;
  bool recirculate = false;
  bool drop = false;
  bool mirror = false;
  bool to_cpu = false;

  bool has_out_port() const { return out_port != kPortUnset; }
  bool operator==(const PlatformMetadata&) const = default;
};

/// The 12-byte context area: four slots of (1-byte key, 2-byte value).
/// Keys are tenant-defined (e.g. tenant ID, application ID, debug tag);
/// key 0 marks an empty slot.
class ContextData {
 public:
  static constexpr std::size_t kSlots = 4;
  static constexpr std::size_t kWireSize = 12;

  /// Set key -> value. Reuses the slot if the key exists, otherwise
  /// takes the first empty slot. Returns false when full and the key is
  /// new. key must be non-zero.
  bool set(std::uint8_t key, std::uint16_t value);

  std::optional<std::uint16_t> get(std::uint8_t key) const;
  bool erase(std::uint8_t key);
  std::size_t used_slots() const;

  void encode(std::span<std::byte> out) const;  // writes kWireSize bytes
  static ContextData decode(std::span<const std::byte> data);

  bool operator==(const ContextData&) const = default;

 private:
  struct Slot {
    std::uint8_t key = 0;
    std::uint16_t value = 0;
    bool operator==(const Slot&) const = default;
  };
  std::array<Slot, kSlots> slots_{};
};

/// The full SFC header value.
struct SfcHeader {
  std::uint16_t service_path_id = 0;
  std::uint8_t service_index = 0;
  PlatformMetadata meta;
  ContextData context;
  NextProtocol next_protocol = NextProtocol::kIpv4;

  void encode(std::span<std::byte> out) const;  // kSfcHeaderSize bytes
  static std::optional<SfcHeader> decode(std::span<const std::byte> data);

  std::string to_string() const;
  bool operator==(const SfcHeader&) const = default;
};

/// Read the SFC header of a packet (nullopt when the packet carries
/// none or is truncated).
std::optional<SfcHeader> read_sfc(const net::Packet& packet);

/// Overwrite the SFC header of a packet that already carries one.
/// Throws std::logic_error if the packet has no SFC header.
void write_sfc(net::Packet& packet, const SfcHeader& header);

/// read_sfc, ContextData::set and write_sfc in one step, without
/// decoding: edits the packet's SFC header in place and leaves it
/// byte-identical to that round trip, including its zeroing of the
/// platform metadata's reserved bits. Returns whether the packet
/// carries an SFC header (whether or not a slot was written).
bool set_context(net::Packet& packet, std::uint8_t key, std::uint16_t value);

/// Insert an SFC header between Ethernet and IP (done by the Classifier
/// in the paper). Sets the Ethernet EtherType to the SFC EtherType and
/// records the displaced EtherType in next_protocol.
/// Throws std::logic_error if the packet already has one.
void push_sfc(net::Packet& packet, SfcHeader header);

/// Remove the SFC header (done by the Router before the packet leaves
/// the switch), restoring the EtherType from next_protocol. Returns the
/// removed header. Throws std::logic_error if absent.
SfcHeader pop_sfc(net::Packet& packet);

}  // namespace dejavu::sfc
