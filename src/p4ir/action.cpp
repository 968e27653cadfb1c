#include "p4ir/action.hpp"

#include <algorithm>

namespace dejavu::p4ir {

const char* to_string(PrimitiveOp op) {
  switch (op) {
    case PrimitiveOp::kNoop:
      return "noop";
    case PrimitiveOp::kSetImmediate:
      return "set_imm";
    case PrimitiveOp::kSetFromParam:
      return "set_param";
    case PrimitiveOp::kCopy:
      return "copy";
    case PrimitiveOp::kAdd:
      return "add";
    case PrimitiveOp::kHash:
      return "hash";
    case PrimitiveOp::kPushSfc:
      return "push_sfc";
    case PrimitiveOp::kPopSfc:
      return "pop_sfc";
    case PrimitiveOp::kDrop:
      return "drop";
    case PrimitiveOp::kSetContext:
      return "set_context";
    case PrimitiveOp::kRegisterRead:
      return "reg_read";
    case PrimitiveOp::kRegisterAdd:
      return "reg_add";
    case PrimitiveOp::kRegisterWrite:
      return "reg_write";
  }
  return "?";
}

std::set<std::string> Primitive::reads() const {
  std::set<std::string> r;
  if (!src.empty()) r.insert(src);
  r.insert(srcs.begin(), srcs.end());
  if (op == PrimitiveOp::kAdd && !dst.empty()) r.insert(dst);
  return r;
}

std::set<std::string> Primitive::writes() const {
  std::set<std::string> w;
  if (!dst.empty()) w.insert(dst);
  if (op == PrimitiveOp::kDrop) {
    w.insert("standard_metadata.drop_flag");
  }
  if (op == PrimitiveOp::kSetContext) {
    w.insert("sfc.context");
  }
  return w;
}

bool Primitive::is_register_op() const {
  return op == PrimitiveOp::kRegisterRead || op == PrimitiveOp::kRegisterAdd ||
         op == PrimitiveOp::kRegisterWrite;
}

std::set<std::string> Action::reads() const {
  std::set<std::string> r;
  for (const Primitive& p : primitives) {
    auto pr = p.reads();
    r.insert(pr.begin(), pr.end());
  }
  return r;
}

std::set<std::string> Action::writes() const {
  std::set<std::string> w;
  for (const Primitive& p : primitives) {
    auto pw = p.writes();
    w.insert(pw.begin(), pw.end());
  }
  return w;
}

std::uint32_t Action::param_bits() const {
  std::uint32_t bits = 0;
  for (const Param& p : params) bits += p.bits;
  return bits;
}

std::uint32_t Action::vliw_slots() const {
  std::uint32_t slots = 0;
  for (const Primitive& p : primitives) {
    slots += p.op == PrimitiveOp::kNoop ? 0 : 1;
  }
  return slots;
}

const Action::Param* Action::find_param(const std::string& param_name) const {
  auto it = std::find_if(params.begin(), params.end(), [&](const Param& p) {
    return p.name == param_name;
  });
  return it == params.end() ? nullptr : &*it;
}

std::optional<std::size_t> Action::param_index(
    const std::string& param_name) const {
  const Param* param = find_param(param_name);
  if (param == nullptr) return std::nullopt;
  return static_cast<std::size_t>(param - params.data());
}

Primitive set_imm(std::string dst, std::uint64_t imm) {
  Primitive p;
  p.op = PrimitiveOp::kSetImmediate;
  p.dst = std::move(dst);
  p.imm = imm;
  return p;
}

Primitive set_from_param(std::string dst, std::string param) {
  Primitive p;
  p.op = PrimitiveOp::kSetFromParam;
  p.dst = std::move(dst);
  p.param = std::move(param);
  return p;
}

Primitive copy_field(std::string dst, std::string src) {
  Primitive p;
  p.op = PrimitiveOp::kCopy;
  p.dst = std::move(dst);
  p.src = std::move(src);
  return p;
}

Primitive add_imm(std::string dst, std::uint64_t imm) {
  Primitive p;
  p.op = PrimitiveOp::kAdd;
  p.dst = std::move(dst);
  p.imm = imm;
  return p;
}

Primitive hash_fields(std::string dst, std::vector<std::string> srcs) {
  Primitive p;
  p.op = PrimitiveOp::kHash;
  p.dst = std::move(dst);
  p.srcs = std::move(srcs);
  return p;
}

Primitive push_sfc_primitive() {
  Primitive p;
  p.op = PrimitiveOp::kPushSfc;
  return p;
}

Primitive pop_sfc_primitive() {
  Primitive p;
  p.op = PrimitiveOp::kPopSfc;
  return p;
}

Primitive drop_primitive() {
  Primitive p;
  p.op = PrimitiveOp::kDrop;
  return p;
}

Primitive set_context(std::uint8_t key, std::string value_param) {
  Primitive p;
  p.op = PrimitiveOp::kSetContext;
  p.imm = key;
  p.param = std::move(value_param);
  return p;
}

Primitive register_read(std::string dst, std::string reg,
                        std::string index_field) {
  Primitive p;
  p.op = PrimitiveOp::kRegisterRead;
  p.dst = std::move(dst);
  p.param = std::move(reg);
  p.src = std::move(index_field);
  return p;
}

Primitive register_add(std::string reg, std::string index_field,
                       std::uint64_t addend, std::string dst_after) {
  Primitive p;
  p.op = PrimitiveOp::kRegisterAdd;
  p.param = std::move(reg);
  p.src = std::move(index_field);
  p.imm = addend;
  p.dst = std::move(dst_after);
  return p;
}

Primitive register_write(std::string reg, std::string index_field,
                         std::string value_field) {
  Primitive p;
  p.op = PrimitiveOp::kRegisterWrite;
  p.param = std::move(reg);
  p.src = std::move(index_field);
  p.srcs = {std::move(value_field)};
  return p;
}

}  // namespace dejavu::p4ir
