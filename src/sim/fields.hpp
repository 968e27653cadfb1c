// FieldView: uniform read/write access to every field namespace the IR
// can name — packet header fields (via the parse result), platform
// metadata ("standard_metadata.*"), and block-local temporaries
// ("local.*", e.g. the LB's sessionHash).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "p4ir/program.hpp"
#include "sfc/header.hpp"
#include "sim/parse.hpp"

namespace dejavu::sim {

/// The per-pass platform metadata (the standard_metadata of the open-
/// source switch target the paper's Fig. 5 uses).
struct StandardMetadata {
  std::uint16_t ingress_port = 0;
  std::uint16_t egress_spec = sfc::kPortUnset;
  std::uint16_t egress_port = 0;
  std::uint32_t packet_length = 0;
  /// The chain generation stamped at first ingress (§11 live updates):
  /// every table lookup on every subsequent pass — resubmission,
  /// recirculation, CPU reinjection — honors this stamp, so one packet
  /// sees exactly one generation. Survives start_pass().
  std::uint32_t epoch = 0;
  bool resubmit_flag = false;
  bool recirculate_flag = false;
  bool drop_flag = false;
  bool mirror_flag = false;
  bool to_cpu_flag = false;

  /// A new pass: no egress decision yet, every flag lowered.
  void start_pass() {
    egress_spec = sfc::kPortUnset;
    resubmit_flag = recirculate_flag = drop_flag = mirror_flag =
        to_cpu_flag = false;
  }
};

/// A standard_metadata field, resolved once from its name: the one
/// field table every engine reads and writes metadata through.
enum class MetaField : std::uint8_t {
  kIngressPort,
  kEgressSpec,
  kEgressPort,
  kPacketLength,
  kResubmitFlag,
  kRecirculateFlag,
  kDropFlag,
  kMirrorFlag,
  kToCpuFlag,
  kEpoch,    // readable, not writable
  kUnknown,  // a named standard_metadata.* field that does not exist
};

/// "egress_spec" -> kEgressSpec (the name without "standard_metadata.").
MetaField meta_field(const std::string& name);

/// nullopt for kUnknown.
inline std::optional<std::uint64_t> read_meta(const StandardMetadata& m,
                                              MetaField f) {
  switch (f) {
    case MetaField::kIngressPort:
      return m.ingress_port;
    case MetaField::kEgressSpec:
      return m.egress_spec;
    case MetaField::kEgressPort:
      return m.egress_port;
    case MetaField::kPacketLength:
      return m.packet_length;
    case MetaField::kResubmitFlag:
      return m.resubmit_flag ? 1 : 0;
    case MetaField::kRecirculateFlag:
      return m.recirculate_flag ? 1 : 0;
    case MetaField::kDropFlag:
      return m.drop_flag ? 1 : 0;
    case MetaField::kMirrorFlag:
      return m.mirror_flag ? 1 : 0;
    case MetaField::kToCpuFlag:
      return m.to_cpu_flag ? 1 : 0;
    case MetaField::kEpoch:
      return m.epoch;
    case MetaField::kUnknown:
      break;
  }
  return std::nullopt;
}

/// Ports are masked to 9 bits, flags set to v != 0. False (no-op) for
/// kEpoch and kUnknown.
inline bool write_meta(StandardMetadata& m, MetaField f, std::uint64_t v) {
  switch (f) {
    case MetaField::kIngressPort:
      m.ingress_port = static_cast<std::uint16_t>(v & 0x1ff);
      return true;
    case MetaField::kEgressSpec:
      m.egress_spec = static_cast<std::uint16_t>(v & 0x1ff);
      return true;
    case MetaField::kEgressPort:
      m.egress_port = static_cast<std::uint16_t>(v & 0x1ff);
      return true;
    case MetaField::kPacketLength:
      m.packet_length = static_cast<std::uint32_t>(v);
      return true;
    case MetaField::kResubmitFlag:
      m.resubmit_flag = v != 0;
      return true;
    case MetaField::kRecirculateFlag:
      m.recirculate_flag = v != 0;
      return true;
    case MetaField::kDropFlag:
      m.drop_flag = v != 0;
      return true;
    case MetaField::kMirrorFlag:
      m.mirror_flag = v != 0;
      return true;
    case MetaField::kToCpuFlag:
      m.to_cpu_flag = v != 0;
      return true;
    case MetaField::kEpoch:
    case MetaField::kUnknown:
      break;
  }
  return false;
}

/// Where a header field sits in the packet bytes.
struct FieldSlot {
  std::size_t abs_bit = 0;
  std::uint16_t bits = 0;
};

/// The slot of header field `ref` when its header starts at byte
/// `base` of a `packet_bytes`-byte packet; nullopt when the header type
/// has no such field or the packet ends first.
std::optional<FieldSlot> locate_field(const p4ir::Program& program,
                                      const p4ir::FieldRef& ref,
                                      std::uint32_t base,
                                      std::size_t packet_bytes);

class FieldView {
 public:
  FieldView(const p4ir::Program& program, net::Packet& packet,
            ParseResult parsed, StandardMetadata& meta)
      : program_(program), packet_(packet), parsed_(std::move(parsed)),
        meta_(meta) {}

  /// Read a dotted field; nullopt when the header is absent or the
  /// field is unknown. Missing-header reads are how gated tables
  /// miss on packets without an SFC header.
  std::optional<std::uint64_t> read(const std::string& dotted) const;

  /// Write a dotted field (masked to the field width). Returns false
  /// (no-op) when the header is absent — copy-from/to a popped SFC
  /// header must not corrupt the packet.
  bool write(const std::string& dotted, std::uint64_t value);

  bool has_header(const std::string& header_type) const {
    return parsed_.has(header_type);
  }

  /// Re-run the parser after a structural change (push/pop SFC).
  void reparse(const p4ir::TupleIdTable& ids);

  const ParseResult& parsed() const { return parsed_; }
  StandardMetadata& meta() { return meta_; }
  net::Packet& packet() { return packet_; }
  std::map<std::string, std::uint64_t>& locals() { return locals_; }

 private:
  const p4ir::Program& program_;
  net::Packet& packet_;
  ParseResult parsed_;
  StandardMetadata& meta_;
  std::map<std::string, std::uint64_t> locals_;
};

}  // namespace dejavu::sim
