#include "analysis/footprint.hpp"

#include <algorithm>
#include <sstream>

namespace dejavu::analysis {

namespace {

/// One qualified register name, mirroring merge::import_nf.
std::string qualify(const std::string& nf, const std::string& reg) {
  return nf + "." + reg;
}

bool is_drop_flag(const std::string& field) {
  return field == "sfc.drop_flag" || field == "standard_metadata.drop_flag";
}

bool is_punt_flag(const std::string& field) {
  return field == "sfc.to_cpu_flag";
}

/// Accumulates one NF's footprint while remembering which fields have
/// already seen a non-constant (or differently-valued) write.
class Builder {
 public:
  explicit Builder(std::string nf) { fp_.nf = std::move(nf); }

  void read(const std::string& field, const Provenance& prov) {
    if (field.empty()) return;
    fp_.field_reads[field].push_back(prov);
  }

  void write(const std::string& field, const Provenance& prov,
             std::optional<std::uint64_t> constant) {
    if (field.empty()) return;
    // Drop/punt flags gate downstream NFs via the check_nextNF keys;
    // they are control effects, not plain PHV traffic.
    if (is_drop_flag(field)) {
      fp_.drops.push_back(prov);
      return;
    }
    if (is_punt_flag(field)) {
      fp_.punts.push_back(prov);
      return;
    }
    fp_.field_writes[field].push_back(prov);
    if (!constant.has_value()) {
      non_constant_.insert(field);
      fp_.constant_writes.erase(field);
      return;
    }
    if (non_constant_.contains(field)) return;
    auto [it, inserted] = fp_.constant_writes.emplace(field, *constant);
    if (!inserted && it->second != *constant) {
      non_constant_.insert(field);
      fp_.constant_writes.erase(field);
    }
  }

  void register_access(const std::string& reg, const std::string& index_field,
                       bool reads, bool writes, const Provenance& prov) {
    const std::string qualified = qualify(fp_.nf, reg);
    if (reads) fp_.register_reads[qualified].push_back(prov);
    if (writes) fp_.register_writes[qualified].push_back(prov);
    if (!index_field.empty()) {
      fp_.register_index_fields[qualified].insert(index_field);
    }
  }

  void primitive(const std::string& table, const std::string& action,
                 std::size_t index, const p4ir::Primitive& p) {
    Provenance prov{fp_.nf, table, action,
                    "primitive#" + std::to_string(index) + " " +
                        p4ir::to_string(p.op)};
    using Op = p4ir::PrimitiveOp;
    switch (p.op) {
      case Op::kNoop:
        return;
      case Op::kSetImmediate:
        write(p.dst, prov, p.imm);
        return;
      case Op::kSetFromParam:
        write(p.dst, prov, std::nullopt);
        return;
      case Op::kCopy:
        read(p.src, prov);
        write(p.dst, prov, std::nullopt);
        return;
      case Op::kAdd:
        read(p.dst, prov);
        write(p.dst, prov, std::nullopt);
        return;
      case Op::kHash:
        for (const std::string& s : p.srcs) read(s, prov);
        write(p.dst, prov, std::nullopt);
        return;
      case Op::kPushSfc:
        fp_.sfc_push.push_back(prov);
        return;
      case Op::kPopSfc:
        fp_.sfc_pop.push_back(prov);
        return;
      case Op::kDrop:
        fp_.drops.push_back(prov);
        return;
      case Op::kSetContext:
        fp_.context_writes[static_cast<std::uint8_t>(p.imm)].push_back(prov);
        return;
      case Op::kRegisterRead: {
        Provenance idx = prov;
        idx.detail += " register index";
        read(p.src, idx);
        register_access(p.param, p.src, /*reads=*/true, /*writes=*/false,
                        prov);
        write(p.dst, prov, std::nullopt);
        return;
      }
      case Op::kRegisterAdd: {
        Provenance idx = prov;
        idx.detail += " register index";
        read(p.src, idx);
        register_access(p.param, p.src, /*reads=*/true, /*writes=*/true,
                        prov);
        write(p.dst, prov, std::nullopt);
        return;
      }
      case Op::kRegisterWrite: {
        Provenance idx = prov;
        idx.detail += " register index";
        read(p.src, idx);
        if (!p.srcs.empty()) read(p.srcs.front(), prov);
        register_access(p.param, p.src, /*reads=*/false, /*writes=*/true,
                        prov);
        return;
      }
    }
  }

  Footprint take() { return std::move(fp_); }

 private:
  Footprint fp_;
  std::set<std::string> non_constant_;
};

/// Representative provenance for text rendering: the first recorder,
/// with a count of the rest.
std::string refs_summary(const std::vector<Provenance>& provs) {
  if (provs.empty()) return "?";
  std::string s = provs.front().to_string();
  if (provs.size() > 1) {
    s += " (+" + std::to_string(provs.size() - 1) + " more)";
  }
  return s;
}

void render_access_map(std::ostringstream& out, const std::string& title,
                       const AccessMap& map) {
  out << "  " << title << ":";
  if (map.empty()) {
    out << " none\n";
    return;
  }
  out << "\n";
  for (const auto& [name, provs] : map) {
    out << "    " << name << "  <- " << refs_summary(provs) << "\n";
  }
}

void json_access_map(std::ostringstream& out, const std::string& key,
                     const AccessMap& map, const std::string& entry_key,
                     bool trailing_comma) {
  out << "      \"" << key << "\": [";
  bool first = true;
  for (const auto& [name, provs] : map) {
    out << (first ? "" : ",") << "\n        {\"" << entry_key << "\": \""
        << json_escape(name) << "\", \"refs\": [";
    for (std::size_t i = 0; i < provs.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\"" << json_escape(provs[i].to_string())
          << "\"";
    }
    out << "]}";
    first = false;
  }
  if (!map.empty()) out << "\n      ";
  out << "]" << (trailing_comma ? "," : "") << "\n";
}

void json_prov_list(std::ostringstream& out, const std::string& key,
                    const std::vector<Provenance>& provs,
                    bool trailing_comma) {
  out << "      \"" << key << "\": [";
  for (std::size_t i = 0; i < provs.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << json_escape(provs[i].to_string())
        << "\"";
  }
  out << "]" << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Provenance::to_string() const {
  std::string s = nf;
  if (!table.empty()) s += "/" + table;
  if (!action.empty()) s += "/" + action;
  if (!detail.empty()) s += " " + detail;
  return s;
}

bool Footprint::touches_sfc_header() const {
  if (!sfc_push.empty() || !sfc_pop.empty()) return true;
  if (!context_writes.empty()) return true;
  // Punts raise sfc.to_cpu_flag; drops may raise sfc.drop_flag (kDrop
  // raises the standard-metadata flag, but we fold it in
  // conservatively — a dropping NF never commutes with a push/pop
  // peer anyway, since the drop decides whether the push/pop runs).
  if (!punts.empty() || !drops.empty()) return true;
  auto touches = [](const AccessMap& m) {
    for (const auto& [field, provs] : m) {
      (void)provs;
      if (field.rfind("sfc.", 0) == 0) return true;
    }
    return false;
  };
  return touches(field_reads) || touches(field_writes);
}

const Provenance* Footprint::first_read(const std::string& field) const {
  auto it = field_reads.find(field);
  if (it == field_reads.end() || it->second.empty()) return nullptr;
  return &it->second.front();
}

const Provenance* Footprint::first_write(const std::string& field) const {
  auto it = field_writes.find(field);
  if (it == field_writes.end() || it->second.empty()) return nullptr;
  return &it->second.front();
}

bool is_scratch_field(const std::string& field) {
  return field.rfind("local.", 0) == 0 || field.rfind("meta.", 0) == 0;
}

Footprint compute_footprint(const p4ir::Program& nf_program) {
  Builder b(nf_program.name());
  for (const p4ir::ControlBlock& control : nf_program.controls()) {
    for (const p4ir::ApplyEntry& entry : control.apply_order()) {
      for (const std::string& field : entry.guard_fields) {
        b.read(field, Provenance{nf_program.name(), entry.table, "",
                                 "apply guard"});
      }
      if (entry.field_guard.has_value()) {
        b.read(entry.field_guard->field,
               Provenance{nf_program.name(), entry.table, "", "apply guard"});
      }
      const p4ir::Table* table = control.find_table(entry.table);
      if (table == nullptr) continue;
      for (const p4ir::TableKey& key : table->keys) {
        b.read(key.field,
               Provenance{nf_program.name(), table->name, "", "match key"});
      }
      // Every action the table can bind, default action included: any
      // of them may run, so all contribute to the footprint.
      std::vector<std::string> action_names = table->actions;
      if (!table->default_action.empty()) {
        if (std::find(action_names.begin(), action_names.end(),
                      table->default_action) == action_names.end()) {
          action_names.push_back(table->default_action);
        }
      }
      for (const std::string& action_name : action_names) {
        const p4ir::Action* action = control.find_action(action_name);
        if (action == nullptr) continue;
        for (std::size_t i = 0; i < action->primitives.size(); ++i) {
          b.primitive(table->name, action->name, i, action->primitives[i]);
        }
      }
    }
  }
  return b.take();
}

std::vector<Footprint> compute_footprints(
    const std::vector<const p4ir::Program*>& nf_programs) {
  std::vector<Footprint> out;
  out.reserve(nf_programs.size());
  for (const p4ir::Program* program : nf_programs) {
    if (program != nullptr) out.push_back(compute_footprint(*program));
  }
  return out;
}

std::string footprints_to_text(const std::vector<Footprint>& footprints) {
  std::ostringstream out;
  out << "== NF footprints ==\n";
  for (const Footprint& fp : footprints) {
    out << "NF " << fp.nf << "\n";
    render_access_map(out, "field reads", fp.field_reads);
    render_access_map(out, "field writes", fp.field_writes);
    out << "  constant-only writes:";
    if (fp.constant_writes.empty()) {
      out << " none\n";
    } else {
      out << "\n";
      for (const auto& [field, value] : fp.constant_writes) {
        out << "    " << field << " = " << value << "\n";
      }
    }
    render_access_map(out, "register reads", fp.register_reads);
    render_access_map(out, "register writes", fp.register_writes);
    out << "  context writes:";
    if (fp.context_writes.empty()) {
      out << " none\n";
    } else {
      out << "\n";
      for (const auto& [key, provs] : fp.context_writes) {
        out << "    key " << static_cast<unsigned>(key) << "  <- "
            << refs_summary(provs) << "\n";
      }
    }
    out << "  control effects:";
    bool any = false;
    if (!fp.sfc_push.empty()) {
      out << " pushes-sfc";
      any = true;
    }
    if (!fp.sfc_pop.empty()) {
      out << " pops-sfc";
      any = true;
    }
    if (fp.may_drop()) {
      out << " may-drop";
      any = true;
    }
    if (fp.may_punt()) {
      out << " may-punt";
      any = true;
    }
    if (!any) out << " none";
    out << "\n";
  }
  return out.str();
}

std::string footprints_to_json(const std::vector<Footprint>& footprints) {
  std::ostringstream out;
  out << "[";
  for (std::size_t n = 0; n < footprints.size(); ++n) {
    const Footprint& fp = footprints[n];
    out << (n > 0 ? "," : "") << "\n    {\n";
    out << "      \"nf\": \"" << json_escape(fp.nf) << "\",\n";
    json_access_map(out, "field_reads", fp.field_reads, "field", true);
    json_access_map(out, "field_writes", fp.field_writes, "field", true);
    out << "      \"constant_writes\": [";
    bool first = true;
    for (const auto& [field, value] : fp.constant_writes) {
      out << (first ? "" : ", ") << "{\"field\": \"" << json_escape(field)
          << "\", \"value\": " << value << "}";
      first = false;
    }
    out << "],\n";
    json_access_map(out, "register_reads", fp.register_reads, "register",
                    true);
    json_access_map(out, "register_writes", fp.register_writes, "register",
                    true);
    out << "      \"register_index_fields\": [";
    first = true;
    for (const auto& [reg, fields] : fp.register_index_fields) {
      out << (first ? "" : ", ") << "{\"register\": \"" << json_escape(reg)
          << "\", \"fields\": [";
      bool f2 = true;
      for (const std::string& field : fields) {
        out << (f2 ? "" : ", ") << "\"" << json_escape(field) << "\"";
        f2 = false;
      }
      out << "]}";
      first = false;
    }
    out << "],\n";
    out << "      \"context_writes\": [";
    first = true;
    for (const auto& [key, provs] : fp.context_writes) {
      (void)provs;
      out << (first ? "" : ", ") << static_cast<unsigned>(key);
      first = false;
    }
    out << "],\n";
    json_prov_list(out, "drops", fp.drops, true);
    json_prov_list(out, "punts", fp.punts, true);
    out << "      \"pushes_sfc\": " << (fp.sfc_push.empty() ? "false" : "true")
        << ",\n";
    out << "      \"pops_sfc\": " << (fp.sfc_pop.empty() ? "false" : "true")
        << "\n    }";
  }
  if (!footprints.empty()) out << "\n  ";
  out << "]";
  return out.str();
}

}  // namespace dejavu::analysis
