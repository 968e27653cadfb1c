#include "sim/compiled/compiled_pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/checksum.hpp"
#include "sfc/header.hpp"
#include "sim/bits.hpp"
#include "sim/disposition.hpp"
#include "sim/parse.hpp"

namespace dejavu::sim {

bool semantically_equal(const SwitchOutput& a, const SwitchOutput& b) {
  if (a.dropped != b.dropped || a.drop_code != b.drop_code ||
      a.drop_reason != b.drop_reason || a.epoch != b.epoch ||
      a.resubmissions != b.resubmissions ||
      a.recirculations != b.recirculations ||
      a.recirc_ports != b.recirc_ports || a.out.size() != b.out.size() ||
      a.to_cpu.size() != b.to_cpu.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.out.size(); ++i) {
    if (a.out[i].port != b.out[i].port || a.out[i].packet != b.out[i].packet) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.to_cpu.size(); ++i) {
    if (a.to_cpu[i].in_port != b.to_cpu[i].in_port ||
        a.to_cpu[i].epoch != b.to_cpu[i].epoch ||
        a.to_cpu[i].packet != b.to_cpu[i].packet) {
      return false;
    }
  }
  return true;
}

CompiledPipeline::CompiledPipeline(DataPlane& dp) : dp_(&dp) {
  recompile();
}

bool CompiledPipeline::recompile() {
  std::string err;
  compiled_ok_ = compile(&err);
  if (compiled_ok_) {
    ++stats_.full_compiles;
    ++generation_;
    compile_error_.clear();
  } else {
    ++stats_.failed_compiles;
    compile_error_ = err;
  }
  return compiled_ok_;
}

bool CompiledPipeline::ensure_valid() {
  // A refused compile depends only on the program, so it stays
  // refused: every packet takes the interpreter.
  if (!compiled_ok_) return false;
  bool moved = seen_epoch_ != dp_->epoch();
  for (Watch& w : revisions_) {
    if (w.rt->revision() != w.revision) {
      w.revision = w.rt->revision();
      moved = true;
    }
  }
  if (moved) {
    seen_epoch_ = dp_->epoch();
    ++generation_;
  }
  return true;
}

// --- compilation -----------------------------------------------------

CompiledPipeline::FieldRefC CompiledPipeline::resolve_header_field(
    const std::string& dotted) {
  FieldRefC out;
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return out;
  auto hit = header_index_.find(ref->header);
  if (hit == header_index_.end()) return out;
  const p4ir::HeaderType* type = dp_->program().find_header_type(ref->header);
  if (type == nullptr) return out;
  auto bit_off = type->bit_offset(ref->field);
  const p4ir::Field* field = type->find_field(ref->field);
  if (!bit_off || field == nullptr) return out;
  // Field access is unchecked at run time, so a slice read_bits would
  // refuse (wider than 64 bits) refuses the compile instead.
  if (field->bits > 64 && wide_field_.empty()) wide_field_ = dotted;
  out.space = Space::kHeader;
  out.header = hit->second;
  out.bit_off = *bit_off;
  out.bits = field->bits;
  return out;
}

CompiledPipeline::FieldRefC CompiledPipeline::resolve_field(
    const std::string& dotted) {
  FieldRefC out;
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return out;
  if (ref->header == "standard_metadata") {
    out.space = Space::kMeta;
    out.meta = meta_field(ref->field);
    return out;
  }
  if (ref->header == "local") {
    auto [it, inserted] = local_index_.try_emplace(
        ref->field, static_cast<std::uint16_t>(local_index_.size()));
    (void)inserted;
    out.space = Space::kLocal;
    out.local_slot = it->second;
    return out;
  }
  out = resolve_header_field(dotted);
  if (out.space == Space::kHeader && out.header < selector_ranges_.size()) {
    const std::uint32_t lo = out.bit_off;
    const std::uint32_t hi = out.bit_off + out.bits;
    for (const auto& [sel_off, sel_bits] : selector_ranges_[out.header]) {
      if (lo < sel_off + sel_bits && sel_off < hi) {
        out.affects_parse = true;
        break;
      }
    }
  }
  return out;
}

void CompiledPipeline::mark_parse_selectors() {
  selector_ranges_.assign(header_index_.size(), {});
  sfc_affects_parse_ = false;
  for (const ParseEdgeC& e : parse_edges_) {
    if (e.is_default || e.select.space != Space::kHeader) continue;
    selector_ranges_[e.select.header].push_back({e.select.bit_off,
                                                 e.select.bits});
    if (sfc_header_ >= 0 &&
        e.select.header == static_cast<std::uint16_t>(sfc_header_)) {
      sfc_affects_parse_ = true;
    }
  }
}

void CompiledPipeline::compile_action(const p4ir::ControlBlock& control,
                                      const p4ir::Action& action,
                                      ActionRef& out) {
  // The store refuses any entry of an action that reads an undeclared
  // param (RuntimeTable::action_error), so such a slot is never read.
  auto slot = [&](const std::string& param) {
    return static_cast<std::uint16_t>(action.param_index(param).value_or(0));
  };

  out.begin = static_cast<std::uint32_t>(ops_.size());
  for (const p4ir::Primitive& p : action.primitives) {
    OpC op;
    op.op = p.op;
    switch (p.op) {
      case p4ir::PrimitiveOp::kNoop:
      case p4ir::PrimitiveOp::kDrop:
      case p4ir::PrimitiveOp::kPushSfc:
      case p4ir::PrimitiveOp::kPopSfc:
        break;
      case p4ir::PrimitiveOp::kSetImmediate:
        op.dst = resolve_field(p.dst);
        op.imm = p.imm;
        break;
      case p4ir::PrimitiveOp::kSetFromParam:
        op.dst = resolve_field(p.dst);
        op.arg = slot(p.param);
        break;
      case p4ir::PrimitiveOp::kCopy:
        op.dst = resolve_field(p.dst);
        op.src = resolve_field(p.src);
        break;
      case p4ir::PrimitiveOp::kAdd:
        op.dst = resolve_field(p.dst);
        op.imm = p.imm;
        break;
      case p4ir::PrimitiveOp::kHash: {
        op.dst = resolve_field(p.dst);
        op.hash_begin = static_cast<std::uint32_t>(hash_srcs_.size());
        for (const std::string& src : p.srcs) {
          HashSrc hs;
          hs.ref = resolve_field(src);
          const auto bits = dp_->program().field_bits(src).value_or(32);
          hs.bytes = static_cast<std::uint8_t>((bits + 7) / 8);
          hash_srcs_.push_back(hs);
        }
        op.hash_count = static_cast<std::uint32_t>(p.srcs.size());
        break;
      }
      case p4ir::PrimitiveOp::kSetContext:
        op.ctx_key = static_cast<std::uint8_t>(p.imm);
        op.arg = slot(p.param);
        break;
      case p4ir::PrimitiveOp::kRegisterRead:
      case p4ir::PrimitiveOp::kRegisterAdd:
      case p4ir::PrimitiveOp::kRegisterWrite: {
        // The DataPlane refused actions using unknown registers.
        const p4ir::RegisterDef& def = *control.find_register(p.param);
        op.reg = &dp_->register_bank(dp_->register_id(control, def)).cells;
        op.reg_mask = def.width_bits >= 64
                          ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << def.width_bits) - 1;
        op.imm = p.imm;
        op.reg_index_from_imm = p.src.empty();
        if (!p.src.empty()) op.src = resolve_field(p.src);
        if (p.op == p4ir::PrimitiveOp::kRegisterWrite) {
          op.reg_value_from_imm = p.srcs.empty();
          if (!p.srcs.empty()) op.vsrc = resolve_field(p.srcs[0]);
        }
        if (p.op == p4ir::PrimitiveOp::kRegisterAdd) {
          op.reg_write_dst = !p.dst.empty();
          if (op.reg_write_dst) op.dst = resolve_field(p.dst);
        }
        if (p.op == p4ir::PrimitiveOp::kRegisterRead) {
          op.dst = resolve_field(p.dst);
        }
        break;
      }
    }
    ops_.push_back(op);
  }
  out.count = static_cast<std::uint32_t>(ops_.size()) - out.begin;
}

void CompiledPipeline::compile_control(const p4ir::ControlBlock* cb,
                                       ControlC& cc) {
  if (cb == nullptr) {
    cc.present = false;
    return;
  }
  cc.present = true;

  // Dense control-local indices for applied tables and branches.
  std::unordered_map<std::string, std::uint32_t> tidx;
  std::unordered_map<std::string, std::int32_t> bidx;
  for (const p4ir::ApplyEntry& ae : cb->apply_order()) {
    tidx.try_emplace(ae.table, static_cast<std::uint32_t>(tidx.size()));
    if (!ae.branch_id.empty()) {
      bidx.try_emplace(ae.branch_id, static_cast<std::int32_t>(bidx.size()));
    }
  }
  cc.branch_count = static_cast<std::uint32_t>(bidx.size());
  cc.tables.resize(tidx.size());

  for (const p4ir::ApplyEntry& ae : cb->apply_order()) {
    EntryC e;
    e.table = tidx.at(ae.table);
    e.branch = ae.branch_id.empty() ? -1 : bidx.at(ae.branch_id);
    if (ae.field_guard) {
      e.has_field_guard = true;
      e.guard_field = resolve_field(ae.field_guard->field);
      e.guard_value = ae.field_guard->value;
      e.guard_cmp = ae.field_guard->effective_cmp();
    }
    e.guard_begin = static_cast<std::uint32_t>(guard_tables_.size());
    for (const std::string& g : ae.guard_tables) {
      auto git = tidx.find(g);
      guard_tables_.push_back(git == tidx.end() ? kAbsentTable : git->second);
    }
    e.guard_count = static_cast<std::uint32_t>(ae.guard_tables.size());
    e.mode = ae.mode;
    cc.entries.push_back(e);
  }

  // The DataPlane refused applies of unknown tables.
  for (const auto& [tname, idx] : tidx) {
    const p4ir::Table& def = *cb->find_table(tname);
    TableC& t = cc.tables[idx];
    t.rt = &dp_->table(dp_->table_id(*cb, def));
    t.key_begin = static_cast<std::uint32_t>(key_refs_.size());
    t.key_count = static_cast<std::uint32_t>(def.keys.size());
    for (const p4ir::TableKey& k : def.keys) {
      key_refs_.push_back(resolve_field(k.field));
    }
  }

  // One body per action, whatever the tables hold.
  cc.bodies.resize(cb->actions().size());
  for (std::size_t i = 0; i < cb->actions().size(); ++i) {
    compile_action(*cb, cb->actions()[i], cc.bodies[i]);
  }
}

bool CompiledPipeline::compile(std::string* err) {
  controls_.clear();
  parse_states_.clear();
  parse_edges_.clear();
  ops_.clear();
  hash_srcs_.clear();
  key_refs_.clear();
  guard_tables_.clear();
  header_index_.clear();
  local_index_.clear();
  selector_ranges_.clear();
  revisions_.clear();
  wide_field_.clear();
  ipv4_header_ = -1;
  sfc_header_ = -1;
  parser_empty_ = true;
  parse_start_ = 0;

  const p4ir::Program& program = dp_->program();
  seen_epoch_ = dp_->epoch();

  for (const p4ir::HeaderType& h : program.header_types()) {
    header_index_.try_emplace(h.name,
                              static_cast<std::uint16_t>(header_index_.size()));
  }
  if (header_index_.size() > 64) {
    *err = "more than 64 header types (header bitmap overflow)";
    return false;
  }
  if (auto it = header_index_.find("ipv4"); it != header_index_.end()) {
    ipv4_header_ = it->second;
  }
  if (auto it = header_index_.find("sfc"); it != header_index_.end()) {
    sfc_header_ = it->second;
  }

  // Parser automaton: one flat state per graph vertex, edges resolved
  // to direct (header, bit range) selector reads.
  const p4ir::ParserGraph& g = program.parser();
  parser_empty_ = g.vertices().empty();
  if (!parser_empty_) {
    std::unordered_map<std::uint32_t, std::uint32_t> state_of;
    for (std::uint32_t v : g.vertices()) {
      state_of.emplace(v, static_cast<std::uint32_t>(state_of.size()));
    }
    parse_states_.resize(g.vertices().size());
    for (std::uint32_t v : g.vertices()) {
      ParseStateC& st = parse_states_[state_of.at(v)];
      const p4ir::ParserTuple* tuple = nullptr;
      try {
        tuple = &dp_->ids().tuple_of(v);
      } catch (const std::out_of_range&) {
        *err = "parser vertex outside the tuple-id table";
        return false;
      }
      const p4ir::HeaderType* type =
          program.find_header_type(tuple->header_type);
      if (type == nullptr) {
        st.valid = false;  // run_parser stops here too
      } else {
        st.valid = true;
        st.header = header_index_.at(tuple->header_type);
        st.offset = tuple->offset;
        st.width = type->byte_width();
      }
      st.edge_begin = static_cast<std::uint32_t>(parse_edges_.size());
      for (const p4ir::ParserEdge& e : g.out_edges(v)) {
        ParseEdgeC ec;
        ec.is_default = e.is_default;
        if (!e.is_default) ec.select = resolve_header_field(e.select_field);
        ec.value = e.select_value;
        auto to = state_of.find(e.to);
        if (to == state_of.end()) {
          *err = "parser edge to unknown vertex";
          return false;
        }
        ec.to = to->second;
        parse_edges_.push_back(ec);
      }
      st.edge_count =
          static_cast<std::uint32_t>(parse_edges_.size()) - st.edge_begin;
    }
    auto start = state_of.find(g.start());
    if (start == state_of.end()) {
      *err = "parser start is not a vertex";
      return false;
    }
    parse_start_ = start->second;
  }
  mark_parse_selectors();

  // Per-pipelet controls.
  pipelines_ = dp_->config().spec().pipelines;
  controls_.resize(std::size_t{pipelines_} * 2);
  for (std::uint32_t p = 0; p < pipelines_; ++p) {
    compile_control(dp_->pipelet_control({p, asic::PipeKind::kIngress}),
                    controls_[p * 2]);
    compile_control(dp_->pipelet_control({p, asic::PipeKind::kEgress}),
                    controls_[p * 2 + 1]);
  }

  if (!wide_field_.empty()) {
    *err = "field " + wide_field_ + " is wider than 64 bits";
    return false;
  }

  // Every table the compiled program reads, for generation().
  for (const ControlC& cc : controls_) {
    for (const TableC& t : cc.tables) {
      revisions_.push_back({t.rt, t.rt->revision()});
    }
  }
  size_scratch();
  return true;
}

void CompiledPipeline::size_scratch() {
  // The zero-allocation guarantee: nothing per packet allocates.
  std::size_t max_tables = 0;
  std::size_t max_branches = 0;
  for (const ControlC& cc : controls_) {
    max_tables = std::max(max_tables, cc.tables.size());
    max_branches = std::max(max_branches, std::size_t{cc.branch_count});
  }
  hdr_off_.assign(header_index_.size(), 0);
  local_val_.assign(std::max<std::size_t>(local_index_.size(), 1), 0);
  local_stamp_.assign(local_val_.size(), 0);
  hit_val_.assign(std::max<std::size_t>(max_tables, 1), 0);
  hit_stamp_.assign(hit_val_.size(), 0);
  branch_checked_stamp_.assign(std::max<std::size_t>(max_branches, 1), 0);
  pass_token_ = 0;
}

// --- execution -------------------------------------------------------

void CompiledPipeline::run_parse(const net::Packet& packet) {
  present_ = 0;
  parse_dirty_ = false;
  if (parser_empty_) return;
  auto bytes = packet.data().view();
  std::uint32_t state = parse_start_;
  for (std::size_t hop = 0; hop <= parse_states_.size(); ++hop) {
    const ParseStateC& st = parse_states_[state];
    if (!st.valid) break;
    // The one bounds check per header: every later read or write of a
    // field inside it trusts this test (only push and pop resize the
    // packet, and both re-parse at once).
    if (std::size_t{st.offset} + st.width > bytes.size()) break;
    const std::uint64_t bit = std::uint64_t{1} << st.header;
    if (!(present_ & bit)) {
      present_ |= bit;
      hdr_off_[st.header] = st.offset;
    }
    bool advanced = false;
    for (std::uint32_t i = 0; i < st.edge_count; ++i) {
      const ParseEdgeC& e = parse_edges_[st.edge_begin + i];
      if (e.is_default) {
        state = e.to;
        advanced = true;
        break;
      }
      const FieldRefC& f = e.select;
      if (f.space != Space::kHeader ||
          !(present_ & (std::uint64_t{1} << f.header))) {
        continue;
      }
      const std::size_t abs =
          std::size_t{hdr_off_[f.header]} * 8 + f.bit_off;
      if (read_bits_unchecked(bytes.data(), abs, f.bits) == e.value) {
        state = e.to;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
}

void CompiledPipeline::ensure_parse(const net::Packet& packet) {
  if (parse_dirty_) run_parse(packet);
}

std::optional<std::uint64_t> CompiledPipeline::read_field(
    const FieldRefC& f, const net::Packet& packet,
    const StandardMetadata& meta) {
  switch (f.space) {
    case Space::kMeta:
      return read_meta(meta, f.meta);
    case Space::kLocal:
      if (local_stamp_[f.local_slot] != pass_token_) return std::nullopt;
      return local_val_[f.local_slot];
    case Space::kHeader: {
      if (!(present_ & (std::uint64_t{1} << f.header))) return std::nullopt;
      const std::size_t abs = std::size_t{hdr_off_[f.header]} * 8 + f.bit_off;
      return read_bits_unchecked(packet.data().view().data(), abs, f.bits);
    }
    case Space::kNone:
      return std::nullopt;
  }
  return std::nullopt;
}

void CompiledPipeline::write_field(const FieldRefC& f, std::uint64_t value,
                                   net::Packet& packet,
                                   StandardMetadata& meta) {
  switch (f.space) {
    case Space::kMeta:
      write_meta(meta, f.meta, value);
      return;
    case Space::kLocal:
      local_val_[f.local_slot] = value;
      local_stamp_[f.local_slot] = pass_token_;
      return;
    case Space::kHeader: {
      if (!(present_ & (std::uint64_t{1} << f.header))) return;
      const std::size_t abs = std::size_t{hdr_off_[f.header]} * 8 + f.bit_off;
      write_bits_unchecked(packet.data().mutable_view().data(), abs, f.bits,
                           mask_to_width(value, f.bits));
      // The interpreter's per-pipelet FieldView never re-parses on
      // field writes; the write becomes parser-visible at the *next*
      // pipelet entry (which parses fresh). Defer accordingly.
      if (f.affects_parse) parse_dirty_ = true;
      return;
    }
    case Space::kNone:
      return;
  }
}

void CompiledPipeline::run_action(ActionRef ref, const std::uint64_t* args,
                                  net::Packet& packet,
                                  StandardMetadata& meta) {
  for (std::uint32_t i = 0; i < ref.count; ++i) {
    const OpC& op = ops_[ref.begin + i];
    switch (op.op) {
      case p4ir::PrimitiveOp::kNoop:
        break;
      case p4ir::PrimitiveOp::kSetImmediate:
        write_field(op.dst, op.imm, packet, meta);
        break;
      case p4ir::PrimitiveOp::kSetFromParam:
        write_field(op.dst, args[op.arg], packet, meta);
        break;
      case p4ir::PrimitiveOp::kCopy: {
        auto v = read_field(op.src, packet, meta);
        if (v) write_field(op.dst, *v, packet, meta);
        break;
      }
      case p4ir::PrimitiveOp::kAdd: {
        auto v = read_field(op.dst, packet, meta);
        if (v) write_field(op.dst, *v + op.imm, packet, meta);
        break;
      }
      case p4ir::PrimitiveOp::kHash: {
        net::Crc32 crc;
        for (std::uint32_t j = 0; j < op.hash_count; ++j) {
          const HashSrc& hs = hash_srcs_[op.hash_begin + j];
          const std::uint64_t v =
              read_field(hs.ref, packet, meta).value_or(0);
          for (std::uint8_t b = 0; b < hs.bytes; ++b) {
            crc.add_u8(static_cast<std::uint8_t>(
                (v >> (8 * (hs.bytes - 1 - b))) & 0xff));
          }
        }
        write_field(op.dst, crc.finish(), packet, meta);
        break;
      }
      case p4ir::PrimitiveOp::kPushSfc: {
        sfc::SfcHeader header;
        sfc::push_sfc(packet, header);
        run_parse(packet);  // FieldView::reparse equivalent
        break;
      }
      case p4ir::PrimitiveOp::kPopSfc:
        if (sfc_header_ >= 0 &&
            (present_ & (std::uint64_t{1} << sfc_header_))) {
          sfc::pop_sfc(packet);
          run_parse(packet);
        }
        break;
      case p4ir::PrimitiveOp::kDrop:
        meta.drop_flag = true;
        break;
      case p4ir::PrimitiveOp::kSetContext:
        if (sfc::set_context(packet, op.ctx_key,
                             static_cast<std::uint16_t>(args[op.arg])) &&
            sfc_affects_parse_) {
          parse_dirty_ = true;
        }
        break;
      case p4ir::PrimitiveOp::kRegisterRead:
      case p4ir::PrimitiveOp::kRegisterAdd:
      case p4ir::PrimitiveOp::kRegisterWrite: {
        const std::uint64_t index =
            (op.reg_index_from_imm
                 ? op.imm
                 : read_field(op.src, packet, meta).value_or(0)) %
            op.reg->size();
        std::uint64_t& cell = (*op.reg)[index];
        if (op.op == p4ir::PrimitiveOp::kRegisterRead) {
          write_field(op.dst, cell, packet, meta);
        } else if (op.op == p4ir::PrimitiveOp::kRegisterAdd) {
          cell = (cell + op.imm) & op.reg_mask;
          if (op.reg_write_dst) write_field(op.dst, cell, packet, meta);
        } else {
          const std::uint64_t value =
              op.reg_value_from_imm
                  ? op.imm
                  : read_field(op.vsrc, packet, meta).value_or(0);
          cell = value & op.reg_mask;
        }
        break;
      }
    }
  }
}

void CompiledPipeline::run_control(const ControlC& cc, net::Packet& packet,
                                   StandardMetadata& meta) {
  if (!cc.present) return;  // unnamed pipelet: pass-through
  ++pass_token_;            // fresh locals / hits / branch state
  ensure_parse(packet);     // the interpreter parses at pipelet entry

  std::int32_t taken_branch = -1;
  for (std::uint32_t ei = 0; ei < cc.entries.size(); ++ei) {
    const EntryC& e = cc.entries[ei];
    if (e.branch >= 0) {
      if (taken_branch >= 0 && e.branch != taken_branch) continue;
      if (taken_branch < 0 &&
          branch_checked_stamp_[e.branch] == pass_token_) {
        continue;  // this branch's gate already missed
      }
    }
    bool pass = true;
    if (e.has_field_guard) {
      auto v = read_field(e.guard_field, packet, meta);
      if (!v) {
        pass = false;
      } else {
        switch (e.guard_cmp) {
          case p4ir::GuardCmp::kEq:
            pass = *v == e.guard_value;
            break;
          case p4ir::GuardCmp::kNe:
            pass = *v != e.guard_value;
            break;
          case p4ir::GuardCmp::kGt:
            pass = *v > e.guard_value;
            break;
          case p4ir::GuardCmp::kLt:
            pass = *v < e.guard_value;
            break;
        }
      }
    }
    if (pass) {
      for (std::uint32_t i = 0; i < e.guard_count; ++i) {
        const std::uint32_t idx = guard_tables_[e.guard_begin + i];
        const bool hit = idx != kAbsentTable &&
                         hit_stamp_[idx] == pass_token_ &&
                         hit_val_[idx] != 0;
        const bool want_hit = e.mode != p4ir::GuardMode::kIfMiss;
        if (hit != want_hit) {
          pass = false;
          break;
        }
      }
    }
    if (!pass) {
      if (e.branch >= 0 && taken_branch < 0) {
        branch_checked_stamp_[e.branch] = pass_token_;
      }
      continue;
    }

    // A key field the packet lacks is a miss: the default action runs.
    const TableC& t = cc.tables[e.table];
    ExactKey key;
    key.n = static_cast<std::uint8_t>(t.key_count);
    bool complete = true;
    for (std::uint32_t i = 0; complete && i < t.key_count; ++i) {
      const auto v = read_field(key_refs_[t.key_begin + i], packet, meta);
      complete = v.has_value();
      if (complete) key.v[i] = *v;
    }
    const RuntimeTable::Match match =
        t.rt->probe(complete ? &key : nullptr, meta.epoch);
    hit_val_[e.table] = match.hit ? 1 : 0;
    hit_stamp_[e.table] = pass_token_;
    if (e.branch >= 0 && taken_branch < 0) {
      branch_checked_stamp_[e.branch] = pass_token_;
      if (match.hit) taken_branch = e.branch;
    }
    if (match.action != kNoAction) {
      run_action(cc.bodies[match.action], match.args, packet, meta);
    }
  }
}

void CompiledPipeline::do_emit(net::Packet packet, std::uint16_t port,
                               SwitchOutput& out) {
  DataPlane::PortCounters& c = dp_->counters_for(port);
  c.tx_packets += 1;
  c.tx_bytes += packet.size();
  // Deparser duty (same as DataPlane::emit): refresh the IPv4 header
  // checksum. The cached parse equals emit()'s fresh run_parser — the
  // emitted copy carries the same bytes as the working packet.
  ensure_parse(packet);
  if (ipv4_header_ >= 0 && (present_ & (std::uint64_t{1} << ipv4_header_))) {
    // DataPlane::emit's decode and re-encode, in place.
    net::Ipv4Header::refresh_checksum(
        packet.data().mutable_view().subspan(hdr_off_[ipv4_header_]));
  }
  out.out.push_back(SwitchOutput::Emitted{port, std::move(packet)});
}

SwitchOutput CompiledPipeline::fall_back(net::Packet packet,
                                         std::uint16_t in_port, bool from_cpu,
                                         std::optional<std::uint32_t> stamp) {
  ++stats_.fallback_packets;
  return dp_->process(std::move(packet), in_port, from_cpu, stamp);
}

SwitchOutput CompiledPipeline::process(net::Packet packet,
                                       std::uint16_t in_port, bool from_cpu,
                                       std::optional<std::uint32_t> stamp) {
  // A reinjection answers a punt some wire packet already made, so it
  // needs only a live engine: generation() observes wire packets.
  const bool reinjection = from_cpu || stamp.has_value();
  if (reinjection ? !compiled_ok_ : !ensure_valid()) {
    return fall_back(std::move(packet), in_port, from_cpu, stamp);
  }
  ++(reinjection ? stats_.reinjections : stats_.compiled_packets);
  return run(std::move(packet), in_port, from_cpu, stamp);
}

SwitchOutput CompiledPipeline::run(net::Packet packet, std::uint16_t in_port,
                                   bool from_cpu,
                                   std::optional<std::uint32_t> stamp) {
  parse_dirty_ = true;  // parsed at the first pipelet entry
  SwitchOutput out;
  if (!dp_->stamp_packet(from_cpu, stamp, out)) return out;
  if (DropCode code = admit_ingress(*dp_, in_port, from_cpu);
      code != DropCode::kNone) {
    out.set_drop(code, drop_detail(code, in_port));
    return out;
  }

  StandardMetadata meta;
  meta.ingress_port = in_port;
  meta.packet_length = static_cast<std::uint32_t>(packet.size());
  meta.epoch = out.epoch;
  std::uint32_t pipeline = dp_->pipeline_of(in_port);
  {
    DataPlane::PortCounters& c = dp_->counters_for(in_port);
    c.rx_packets += 1;
    c.rx_bytes += packet.size();
  }

  auto punt = [&] {
    out.to_cpu.push_back(
        SwitchOutput::CpuPunt{meta.ingress_port, packet, meta.epoch});
    dp_->note_punt(meta.epoch);
  };
  const std::uint32_t max_passes = dp_->max_passes();
  for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
    meta.start_pass();
    run_control(controls_[std::size_t{pipeline} * 2], packet, meta);

    const Step in = after_ingress(*dp_, tm_flags(meta), meta.egress_spec);
    if (in.kind == Step::Kind::kPunt) {
      punt();
      return out;
    }
    if (in.kind == Step::Kind::kDrop) {
      out.set_drop(in.code, drop_detail(*dp_, in, pipeline));
      return out;
    }
    if (in.kind == Step::Kind::kResubmit) {
      ++out.resubmissions;
      continue;
    }

    meta.egress_port = in.port;
    if (in.mirror) do_emit(packet, *in.mirror, out);
    run_control(controls_[std::size_t{in.pipeline} * 2 + 1], packet, meta);

    const Step eg = after_egress(*dp_, tm_flags(meta), in.port);
    if (eg.kind == Step::Kind::kPunt) {
      punt();
      return out;
    }
    if (eg.kind == Step::Kind::kDrop) {
      out.set_drop(eg.code, drop_detail(*dp_, eg, in.pipeline));
      return out;
    }
    if (eg.kind == Step::Kind::kRecirculate) {
      ++out.recirculations;
      out.recirc_ports.push_back(eg.port);
      DataPlane::PortCounters& c = dp_->counters_for(eg.port);
      c.tx_packets += 1;
      c.tx_bytes += packet.size();
      c.rx_packets += 1;
      c.rx_bytes += packet.size();
      pipeline = eg.pipeline;
      meta.ingress_port = eg.port;
      continue;
    }
    do_emit(std::move(packet), eg.port, out);
    return out;
  }

  // The pass cap is enforced in-line (not via fallback): by the time
  // the cap trips, register and counter side effects of the earlier
  // passes are already applied, and a restart through the interpreter
  // would double them.
  out.set_drop(DropCode::kMaxPassesExceeded,
               drop_detail(*dp_, out.recirc_ports));
  return out;
}

}  // namespace dejavu::sim
