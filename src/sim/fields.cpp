#include "sim/fields.hpp"

#include "sim/bits.hpp"

namespace dejavu::sim {

MetaField meta_field(const std::string& name) {
  return name == "ingress_port"       ? MetaField::kIngressPort
         : name == "egress_spec"      ? MetaField::kEgressSpec
         : name == "egress_port"      ? MetaField::kEgressPort
         : name == "packet_length"    ? MetaField::kPacketLength
         : name == "resubmit_flag"    ? MetaField::kResubmitFlag
         : name == "recirculate_flag" ? MetaField::kRecirculateFlag
         : name == "drop_flag"        ? MetaField::kDropFlag
         : name == "mirror_flag"      ? MetaField::kMirrorFlag
         : name == "to_cpu_flag"      ? MetaField::kToCpuFlag
         : name == "epoch"            ? MetaField::kEpoch
                                      : MetaField::kUnknown;
}

std::optional<FieldSlot> locate_field(const p4ir::Program& program,
                                      const p4ir::FieldRef& ref,
                                      std::uint32_t base,
                                      std::size_t packet_bytes) {
  const p4ir::HeaderType* type = program.find_header_type(ref.header);
  if (type == nullptr) return std::nullopt;
  auto bit_off = type->bit_offset(ref.field);
  const p4ir::Field* field = type->find_field(ref.field);
  if (!bit_off || field == nullptr) return std::nullopt;
  const std::size_t abs_bit = std::size_t{base} * 8 + *bit_off;
  if (abs_bit + field->bits > packet_bytes * 8) return std::nullopt;
  return FieldSlot{abs_bit, field->bits};
}

std::optional<std::uint64_t> FieldView::read(const std::string& dotted) const {
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return std::nullopt;
  if (ref->header == "standard_metadata") {
    return read_meta(meta_, meta_field(ref->field));
  }
  if (ref->header == "local") {
    auto it = locals_.find(ref->field);
    if (it == locals_.end()) return std::nullopt;
    return it->second;
  }
  auto base = parsed_.offset_of(ref->header);
  if (!base) return std::nullopt;
  auto slot = locate_field(program_, *ref, *base, packet_.size());
  if (!slot) return std::nullopt;
  return read_bits(packet_.data().view(), slot->abs_bit, slot->bits);
}

bool FieldView::write(const std::string& dotted, std::uint64_t value) {
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return false;
  if (ref->header == "standard_metadata") {
    return write_meta(meta_, meta_field(ref->field), value);
  }
  if (ref->header == "local") {
    locals_[ref->field] = value;
    return true;
  }
  auto base = parsed_.offset_of(ref->header);
  if (!base) return false;  // absent header: deliberate no-op
  auto slot = locate_field(program_, *ref, *base, packet_.size());
  if (!slot) return false;
  write_bits(packet_.data().mutable_view(), slot->abs_bit, slot->bits,
             mask_to_width(value, slot->bits));
  return true;
}

void FieldView::reparse(const p4ir::TupleIdTable& ids) {
  parsed_ = run_parser(program_, ids, packet_);
}

}  // namespace dejavu::sim
