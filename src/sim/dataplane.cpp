#include "sim/dataplane.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "merge/compose.hpp"
#include "net/checksum.hpp"
#include "sfc/header.hpp"
#include "sim/disposition.hpp"

namespace dejavu::sim {

DataPlane::DataPlane(const p4ir::Program& program,
                     const p4ir::TupleIdTable& ids,
                     asic::SwitchConfig config)
    : program_(&program),
      ids_(&ids),
      config_(std::move(config)),
      max_passes_(config_.max_pipeline_passes()) {
  for (const p4ir::ControlBlock& control : program.controls()) {
    if (std::string why; !control.runnable(&why)) {
      throw std::invalid_argument("DataPlane: " + why);
    }
    table_base_.push_back(static_cast<TableId>(tables_.size()));
    register_base_.push_back(static_cast<RegisterId>(banks_.size()));
    for (const p4ir::Table& t : control.tables()) {
      tables_.emplace_back(control, t);
    }
    for (const p4ir::RegisterDef& r : control.registers()) {
      banks_.push_back({&control, &r, std::vector<std::uint64_t>(r.size, 0)});
    }
    std::vector<TableId>& applied = applied_.emplace_back();
    for (const p4ir::ApplyEntry& entry : control.apply_order()) {
      // runnable() above refused applies of unknown tables.
      applied.push_back(table_id(control, *control.find_table(entry.table)));
    }
  }
  for (std::uint32_t p = 0; p < config_.spec().pipelines; ++p) {
    for (const asic::PipeKind kind :
         {asic::PipeKind::kIngress, asic::PipeKind::kEgress}) {
      pipelet_controls_.push_back(
          program.find_control(merge::pipelet_control_name({p, kind})));
    }
  }
  const std::size_t ports =
      config_.spec().total_ports() + config_.spec().pipelines;
  counters_.resize(ports);
  down_.resize(ports);
}

std::optional<TableId> DataPlane::table_id(const std::string& control_name,
                                           const std::string& table) const {
  const p4ir::ControlBlock* c = program_->find_control(control_name);
  const p4ir::Table* t = c ? c->find_table(table) : nullptr;
  return t ? std::optional(table_id(*c, *t)) : std::nullopt;
}

std::vector<TableId> DataPlane::table_ids(const std::string& table) const {
  std::vector<TableId> out;
  for (TableId id = 0; id < tables_.size(); ++id) {
    if (tables_[id].def().name == table) out.push_back(id);
  }
  std::sort(out.begin(), out.end(), [&](TableId a, TableId b) {
    return tables_[a].control().name() < tables_[b].control().name();
  });
  return out;
}

std::vector<RuntimeTable*> DataPlane::tables_named(const std::string& table) {
  std::vector<RuntimeTable*> out;
  for (const TableId id : table_ids(table)) out.push_back(&tables_[id]);
  return out;
}

RuntimeTable* DataPlane::table_in(const std::string& control_name,
                                  const std::string& table) {
  const std::optional<TableId> id = table_id(control_name, table);
  return id ? &tables_[*id] : nullptr;
}

std::optional<RegisterId> DataPlane::register_id(
    const std::string& control_name, const std::string& reg) const {
  const p4ir::ControlBlock* c = program_->find_control(control_name);
  const p4ir::RegisterDef* r = c ? c->find_register(reg) : nullptr;
  return r ? std::optional(register_id(*c, *r)) : std::nullopt;
}

std::vector<std::uint64_t>* DataPlane::register_array(
    const std::string& control_name, const std::string& reg) {
  const std::optional<RegisterId> id = register_id(control_name, reg);
  return id ? &banks_[*id].cells : nullptr;
}

void DataPlane::set_port_down(std::uint16_t port, bool down) {
  if (port >= down_.size()) down_.resize(port + std::size_t{1});
  down_[port] = down;
}

bool DataPlane::loops_back(std::uint16_t port) const {
  if (port >= config_.spec().total_ports()) {
    // Dedicated recirculation ports always loop back.
    return port < config_.spec().total_ports() + config_.spec().pipelines;
  }
  return config_.is_loopback(port);
}

std::vector<DataPlane::StateObject> DataPlane::state_objects() const {
  std::vector<StateObject> out;
  out.reserve(tables_.size() + banks_.size());
  for (const RuntimeTable& t : tables_) {
    out.push_back({t.control().name(), t.def().name, /*is_register=*/false});
  }
  for (const RegisterBank& bank : banks_) {
    out.push_back({bank.control->name(), bank.def->name, /*is_register=*/true});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.control, a.is_register, a.name) <
           std::tie(b.control, b.is_register, b.name);
  });
  return out;
}

std::uint64_t DataPlane::state_digest(const StateObject& object) const {
  if (!object.is_register) {
    const std::optional<TableId> id = table_id(object.control, object.name);
    return id ? tables_[*id].state_digest() : 0;
  }
  const std::optional<RegisterId> id = register_id(object.control, object.name);
  if (!id) return 0;
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  // Sparse fold: (index, value) of non-zero cells, so the digest is
  // stable under bank-size growth the way Snapshot::to_text is.
  const RegisterBank& bank = banks_[*id];
  for (std::size_t i = 0; i < bank.cells.size(); ++i) {
    if (bank.cells[i] == 0) continue;
    mix(i);
    mix(bank.cells[i]);
  }
  mix(bank.epoch);
  return h;
}

std::uint32_t DataPlane::pipeline_of(std::uint16_t port) const {
  const asic::TargetSpec& spec = config_.spec();
  if (port >= spec.total_ports()) {
    return port - spec.total_ports();  // dedicated recirc port index
  }
  return spec.pipeline_of_port(port);
}

namespace {

/// Evaluate an apply entry's guards against the current state.
bool guards_pass(const p4ir::ApplyEntry& entry, const FieldView& view,
                 const std::map<std::string, bool>& hits) {
  if (entry.field_guard) {
    auto v = view.read(entry.field_guard->field);
    if (!v) return false;  // missing header: condition is vacuously false
    if (!entry.field_guard->holds(*v)) return false;
  }
  for (const std::string& guard : entry.guard_tables) {
    auto it = hits.find(guard);
    const bool hit = it != hits.end() && it->second;
    const bool want_hit = entry.mode != p4ir::GuardMode::kIfMiss;
    if (hit != want_hit) return false;
  }
  return true;
}

}  // namespace

void DataPlane::execute_action(const p4ir::ControlBlock& control,
                               const p4ir::Action& action,
                               const std::uint64_t* args, FieldView& view,
                               SwitchOutput& out) {
  // The store bound every argument the action reads (RuntimeTable::
  // action_error), so each param has a slot.
  auto arg = [&](const std::string& param) {
    return args[*action.param_index(param)];
  };

  for (const p4ir::Primitive& p : action.primitives) {
    switch (p.op) {
      case p4ir::PrimitiveOp::kNoop:
        break;
      case p4ir::PrimitiveOp::kSetImmediate:
        view.write(p.dst, p.imm);
        break;
      case p4ir::PrimitiveOp::kSetFromParam:
        view.write(p.dst, arg(p.param));
        break;
      case p4ir::PrimitiveOp::kCopy: {
        auto v = view.read(p.src);
        if (v) view.write(p.dst, *v);
        break;
      }
      case p4ir::PrimitiveOp::kAdd: {
        auto v = view.read(p.dst);
        if (v) view.write(p.dst, *v + p.imm);
        break;
      }
      case p4ir::PrimitiveOp::kHash: {
        // CRC32 over the concatenated big-endian field bytes, matching
        // the Tofino hash engine (and net::FiveTuple::session_hash).
        net::Crc32 crc;
        for (const std::string& src : p.srcs) {
          auto v = view.read(src).value_or(0);
          auto bits = program_->field_bits(src).value_or(32);
          const std::size_t bytes = (bits + 7) / 8;
          for (std::size_t i = 0; i < bytes; ++i) {
            crc.add_u8(static_cast<std::uint8_t>(
                (v >> (8 * (bytes - 1 - i))) & 0xff));
          }
        }
        view.write(p.dst, crc.finish());
        break;
      }
      case p4ir::PrimitiveOp::kPushSfc: {
        sfc::SfcHeader header;
        sfc::push_sfc(view.packet(), header);
        view.reparse(*ids_);
        break;
      }
      case p4ir::PrimitiveOp::kPopSfc: {
        if (view.has_header("sfc")) {
          sfc::pop_sfc(view.packet());
          view.reparse(*ids_);
        }
        break;
      }
      case p4ir::PrimitiveOp::kDrop:
        view.meta().drop_flag = true;
        break;
      case p4ir::PrimitiveOp::kSetContext: {
        auto header = sfc::read_sfc(view.packet());
        if (header) {
          header->context.set(static_cast<std::uint8_t>(p.imm),
                              static_cast<std::uint16_t>(arg(p.param)));
          sfc::write_sfc(view.packet(), *header);
        }
        break;
      }
      case p4ir::PrimitiveOp::kRegisterRead:
      case p4ir::PrimitiveOp::kRegisterAdd:
      case p4ir::PrimitiveOp::kRegisterWrite: {
        // The constructor refused actions using unknown registers.
        const p4ir::RegisterDef& def = *control.find_register(p.param);
        std::vector<std::uint64_t>& cells =
            banks_[register_id(control, def)].cells;
        const std::uint64_t index =
            (p.src.empty() ? p.imm : view.read(p.src).value_or(0)) %
            cells.size();
        const std::uint64_t width_mask =
            def.width_bits >= 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << def.width_bits) - 1;
        std::uint64_t& cell = cells[index];
        if (p.op == p4ir::PrimitiveOp::kRegisterRead) {
          view.write(p.dst, cell);
        } else if (p.op == p4ir::PrimitiveOp::kRegisterAdd) {
          cell = (cell + p.imm) & width_mask;
          if (!p.dst.empty()) view.write(p.dst, cell);
        } else {  // kRegisterWrite
          std::uint64_t value =
              p.srcs.empty() ? p.imm : view.read(p.srcs[0]).value_or(0);
          cell = value & width_mask;
        }
        break;
      }
    }
  }
  out.trace.push_back("  action " + action.name);
}

void DataPlane::run_pipelet(const asic::PipeletId& id, net::Packet& packet,
                            StandardMetadata& meta, SwitchOutput& out) {
  const p4ir::ControlBlock* control = pipelet_control(id);
  if (control == nullptr) {
    out.trace.push_back(id.to_string() + ": no program, pass-through");
    return;
  }
  out.trace.push_back(id.to_string() + ":");

  FieldView view(*program_, packet, run_parser(*program_, *ids_, packet),
                 meta);
  std::map<std::string, bool> hits;

  // Parallel composition (§3.2, Fig. 5) is an if/else-if cascade: the
  // first branch whose gate table hits is taken; every other branch is
  // skipped, checks included. Empty branch_id = unconditional.
  std::string taken_branch;
  std::map<std::string, bool> branch_checked;

  const std::vector<TableId>& applied =
      applied_[control - program_->controls().data()];
  for (std::size_t k = 0; k < applied.size(); ++k) {
    const p4ir::ApplyEntry& entry = control->apply_order()[k];
    if (!entry.branch_id.empty()) {
      if (!taken_branch.empty() && entry.branch_id != taken_branch) continue;
      if (taken_branch.empty() && branch_checked[entry.branch_id]) {
        continue;  // this branch's gate already missed
      }
    }
    if (!guards_pass(entry, view, hits)) {
      // A branch whose gate condition fails outright (e.g. the
      // classifier's EtherType guard) is dead for this pass.
      if (!entry.branch_id.empty() && taken_branch.empty()) {
        branch_checked[entry.branch_id] = true;
      }
      continue;
    }
    const RuntimeTable& rt = tables_[applied[k]];
    const p4ir::Table& table = rt.def();

    // A key field the packet lacks is a miss.
    ExactKey key;
    key.n = static_cast<std::uint8_t>(table.keys.size());
    bool complete = true;
    for (std::uint8_t i = 0; complete && i < key.n; ++i) {
      const auto v = view.read(table.keys[i].field);
      complete = v.has_value();
      if (complete) key.v[i] = *v;
    }

    const RuntimeTable::Match match =
        rt.probe(complete ? &key : nullptr, meta.epoch);
    hits[entry.table] = match.hit;
    if (!entry.branch_id.empty() && taken_branch.empty()) {
      // First executed entry of a branch is its gate: a hit takes the
      // branch, a miss kills it.
      branch_checked[entry.branch_id] = true;
      if (match.hit) taken_branch = entry.branch_id;
    }
    out.trace.push_back("  " + entry.table +
                        (match.hit ? " hit" : " miss"));
    if (match.action != kNoAction) {
      execute_action(*control, control->actions()[match.action], match.args,
                     view, out);
    }
  }
}

const DataPlane::PortCounters& DataPlane::port_counters(
    std::uint16_t port) const {
  static const PortCounters kNone;
  return port < counters_.size() ? counters_[port] : kNone;
}

std::map<std::uint16_t, DataPlane::PortCounters>
DataPlane::all_port_counters() const {
  std::map<std::uint16_t, PortCounters> out;
  for (std::size_t port = 0; port < counters_.size(); ++port) {
    const PortCounters& c = counters_[port];
    if (c.rx_packets + c.tx_packets > 0) {
      out.emplace_hint(out.end(), static_cast<std::uint16_t>(port), c);
    }
  }
  return out;
}

std::uint64_t DataPlane::punts_outstanding_below(std::uint32_t epoch) const {
  std::uint64_t n = 0;
  for (const auto& [e, count] : punts_outstanding_) {
    if (e < epoch) n += count;
  }
  return n;
}

std::uint64_t DataPlane::flush_stale_punts(std::uint32_t max_epoch) {
  std::uint64_t flushed = 0;
  for (auto it = punts_outstanding_.begin();
       it != punts_outstanding_.end();) {
    if (it->first <= max_epoch) {
      flushed += it->second;
      it = punts_outstanding_.erase(it);
    } else {
      ++it;
    }
  }
  return flushed;
}

std::size_t DataPlane::gc_epochs(std::uint32_t min_live) {
  std::size_t removed = 0;
  for (RuntimeTable& rt : tables_) removed += rt.gc(min_live);
  if (min_live > min_live_epoch_) min_live_epoch_ = min_live;
  // A punt stamped below the new floor can never reinject (it would
  // drop as kUpdateDrained), so its ledger entry is dead weight: a
  // repair or reconciliation that retires a generation with punts
  // still in flight must not leave punts_outstanding() nonzero
  // forever.
  if (min_live_epoch_ > 0) flush_stale_punts(min_live_epoch_ - 1);
  return removed;
}

std::uint32_t DataPlane::register_epoch(const std::string& control_name,
                                        const std::string& reg) const {
  const std::optional<RegisterId> id = register_id(control_name, reg);
  return id ? banks_[*id].epoch : 0;
}

void DataPlane::set_register_epoch(const std::string& control_name,
                                   const std::string& reg,
                                   std::uint32_t epoch) {
  if (const std::optional<RegisterId> id = register_id(control_name, reg)) {
    banks_[*id].epoch = epoch;
  }
}

void DataPlane::reset_counters() {
  std::fill(counters_.begin(), counters_.end(), PortCounters{});
}

void DataPlane::emit(net::Packet packet, std::uint16_t port,
                     SwitchOutput& out) {
  PortCounters& c = counters_for(port);
  c.tx_packets += 1;
  c.tx_bytes += packet.size();
  // Deparser duty: refresh the IPv4 header checksum after field edits.
  ParseResult parsed = run_parser(*program_, *ids_, packet);
  if (auto off = parsed.offset_of("ipv4")) {
    auto hdr = net::Ipv4Header::decode(packet.data().view().subspan(*off));
    if (hdr) {
      hdr->encode(packet.data().mutable_slice(*off, hdr->header_length()),
                  /*fill_checksum=*/true);
    }
  }
  out.out.push_back(SwitchOutput::Emitted{port, std::move(packet)});
}

bool DataPlane::stamp_packet(bool from_cpu,
                             std::optional<std::uint32_t> stamp,
                             SwitchOutput& out) {
  out.epoch = stamp.value_or(epoch_);
  if (from_cpu && stamp) {
    // A stamped CPU reinjection closes out an outstanding punt.
    auto it = punts_outstanding_.find(*stamp);
    if (it != punts_outstanding_.end() && it->second > 0) {
      if (--it->second == 0) punts_outstanding_.erase(it);
    }
  }
  if (stamp && *stamp < min_live_epoch_) {
    // The generation this packet started on has been garbage-collected
    // by a completed live update; finishing it now could only blend
    // generations, so the drain policy terminates it attributably.
    out.set_drop(DropCode::kUpdateDrained,
                 "stamped epoch " + std::to_string(*stamp) +
                     " was retired by a live update (min live epoch " +
                     std::to_string(min_live_epoch_) + ")");
    return false;
  }
  return true;
}

SwitchOutput DataPlane::process(net::Packet packet, std::uint16_t in_port,
                                bool from_cpu,
                                std::optional<std::uint32_t> stamp) {
  SwitchOutput out;
  if (!stamp_packet(from_cpu, stamp, out)) return out;
  if (DropCode code = admit_ingress(*this, in_port, from_cpu);
      code != DropCode::kNone) {
    out.set_drop(code, drop_detail(code, in_port));
    return out;
  }

  StandardMetadata meta;
  meta.ingress_port = in_port;
  meta.packet_length = static_cast<std::uint32_t>(packet.size());
  meta.epoch = out.epoch;
  std::uint32_t pipeline = pipeline_of(in_port);
  PortCounters& rx = counters_for(in_port);
  rx.rx_packets += 1;
  rx.rx_bytes += packet.size();

  auto punt = [&] {
    out.to_cpu.push_back(
        SwitchOutput::CpuPunt{meta.ingress_port, packet, meta.epoch});
    ++punts_outstanding_[meta.epoch];
  };
  for (std::uint32_t pass = 0; pass < max_passes_; ++pass) {
    meta.start_pass();
    run_pipelet({pipeline, asic::PipeKind::kIngress}, packet, meta, out);

    const Step in = after_ingress(*this, tm_flags(meta), meta.egress_spec);
    if (in.kind == Step::Kind::kPunt) {
      punt();
      return out;
    }
    if (in.kind == Step::Kind::kDrop) {
      out.set_drop(in.code, drop_detail(*this, in, pipeline));
      return out;
    }
    if (in.kind == Step::Kind::kResubmit) {
      ++out.resubmissions;
      out.trace.push_back("resubmit to ingress " + std::to_string(pipeline));
      continue;
    }

    meta.egress_port = in.port;
    if (in.mirror) {
      emit(packet, *in.mirror, out);
      out.trace.push_back("mirrored to port " + std::to_string(*in.mirror));
    }
    run_pipelet({in.pipeline, asic::PipeKind::kEgress}, packet, meta, out);

    const Step eg = after_egress(*this, tm_flags(meta), in.port);
    if (eg.kind == Step::Kind::kPunt) {
      punt();
      return out;
    }
    if (eg.kind == Step::Kind::kDrop) {
      out.set_drop(eg.code, drop_detail(*this, eg, in.pipeline));
      return out;
    }
    if (eg.kind == Step::Kind::kRecirculate) {
      ++out.recirculations;
      out.recirc_ports.push_back(eg.port);
      // The loopback port transmits and immediately re-receives the
      // packet — these counters are the §4 recirculation-load
      // measurement point.
      PortCounters& c = counters_for(eg.port);
      c.tx_packets += 1;
      c.tx_bytes += packet.size();
      c.rx_packets += 1;
      c.rx_bytes += packet.size();
      out.trace.push_back("recirculate via port " + std::to_string(eg.port) +
                          " into ingress " + std::to_string(eg.pipeline));
      pipeline = eg.pipeline;
      meta.ingress_port = eg.port;
      continue;
    }
    emit(std::move(packet), eg.port, out);
    return out;
  }

  out.set_drop(DropCode::kMaxPassesExceeded,
               drop_detail(*this, out.recirc_ports));
  return out;
}

}  // namespace dejavu::sim
