// Actions: named sequences of VLIW-style primitive operations over
// header/metadata fields, as produced by the P4 front end. The read and
// write sets drive dependency analysis; the primitive count drives VLIW
// resource accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dejavu::p4ir {

/// The primitive operations our MAU model executes. These correspond
/// to single VLIW instruction slots on an RMT-style ASIC.
enum class PrimitiveOp {
  kNoop,
  kSetImmediate,  // dst = imm
  kSetFromParam,  // dst = action parameter (runtime table data)
  kCopy,          // dst = src field
  kAdd,           // dst = dst + imm (imm may be negative via two's compl.)
  kHash,          // dst = CRC32 over src field list
  kPushSfc,       // insert the SFC header (Classifier)
  kPopSfc,        // remove the SFC header (Router)
  kDrop,          // set the drop flag
  kSetContext,    // write a (key, value) pair into the SFC context
                  // area; key in `imm`, value from action param
  kRegisterRead,  // dst = register[param][index(src)]
  kRegisterAdd,   // register[param][index(src)] += imm; dst = new value
  kRegisterWrite, // register[param][index(src)] = srcs[0] (or imm)
};

const char* to_string(PrimitiveOp op);

/// One primitive. Field references are dotted ("ipv4.dst_addr"). For
/// kHash, `srcs` lists the hashed fields; otherwise `src` is used for
/// kCopy and `imm` for immediates.
struct Primitive {
  PrimitiveOp op = PrimitiveOp::kNoop;
  std::string dst;
  std::string src;
  std::vector<std::string> srcs;  // kHash inputs
  std::uint64_t imm = 0;
  std::string param;  // kSetFromParam: name of the action parameter

  /// Dotted refs of the fields this single primitive reads / writes.
  /// Register names live in `param` and are not field refs; the index
  /// field (`src`) counts as a read, a kRegisterRead/kRegisterAdd
  /// result (`dst`) as a write. kDrop and kSetContext report their
  /// implicit targets the same way Action::writes() always has.
  std::set<std::string> reads() const;
  std::set<std::string> writes() const;

  /// True for kRegisterRead/kRegisterAdd/kRegisterWrite (then `param`
  /// names the register array and `src` the index field).
  bool is_register_op() const;

  bool operator==(const Primitive&) const = default;
};

/// A named action with typed runtime parameters (the action data
/// installed by the control plane alongside each table entry).
struct Action {
  struct Param {
    std::string name;
    std::uint16_t bits = 0;
    bool operator==(const Param&) const = default;
  };

  std::string name;
  std::vector<Param> params;
  std::vector<Primitive> primitives;

  /// Dotted refs of fields this action reads / writes.
  std::set<std::string> reads() const;
  std::set<std::string> writes() const;

  /// Total bits of action data carried per table entry.
  std::uint32_t param_bits() const;

  /// VLIW instruction slots this action occupies.
  std::uint32_t vliw_slots() const;

  const Param* find_param(const std::string& param_name) const;
  /// Position of `param_name` in params: the slot an installed entry's
  /// argument for it occupies.
  std::optional<std::size_t> param_index(const std::string& param_name) const;

  bool operator==(const Action&) const = default;
};

// Convenience constructors for common primitives.
Primitive set_imm(std::string dst, std::uint64_t imm);
Primitive set_from_param(std::string dst, std::string param);
Primitive copy_field(std::string dst, std::string src);
Primitive add_imm(std::string dst, std::uint64_t imm);
Primitive hash_fields(std::string dst, std::vector<std::string> srcs);
Primitive push_sfc_primitive();
Primitive pop_sfc_primitive();
Primitive drop_primitive();
Primitive set_context(std::uint8_t key, std::string value_param);

// Stateful (register) primitives. `index_field` is the field (often a
// "local.*" hash) whose value, modulo the register size, selects the
// cell.
Primitive register_read(std::string dst, std::string reg,
                        std::string index_field);
Primitive register_add(std::string reg, std::string index_field,
                       std::uint64_t addend, std::string dst_after = "");
Primitive register_write(std::string reg, std::string index_field,
                         std::string value_field);

}  // namespace dejavu::p4ir
