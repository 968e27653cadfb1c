#include "control/journal.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace dejavu::control {

std::size_t RuleDiff::installs() const {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const RuleOp& op) {
        return op.kind != RuleOp::Kind::kRegister && op.install;
      }));
}

std::size_t RuleDiff::removals() const {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const RuleOp& op) {
        return op.kind != RuleOp::Kind::kRegister && !op.install;
      }));
}

const char* to_string(JournalState state) {
  switch (state) {
    case JournalState::kBegun:
      return "begin";
    case JournalState::kShadowed:
      return "shadowed";
    case JournalState::kFlipped:
      return "flipped";
    case JournalState::kDrained:
      return "drained";
    case JournalState::kCommitted:
      return "committed";
    case JournalState::kRolledBack:
      return "rolled-back";
    case JournalState::kAborted:
      return "aborted";
  }
  return "unknown";
}

namespace {

bool terminal(JournalState state) {
  return state == JournalState::kCommitted ||
         state == JournalState::kRolledBack ||
         state == JournalState::kAborted;
}

std::optional<JournalState> state_from_string(const std::string& s) {
  for (JournalState state :
       {JournalState::kBegun, JournalState::kShadowed, JournalState::kFlipped,
        JournalState::kDrained, JournalState::kCommitted,
        JournalState::kRolledBack, JournalState::kAborted}) {
    if (s == to_string(state)) return state;
  }
  return std::nullopt;
}

std::string join_u64(const std::vector<std::uint64_t>& values) {
  std::string s;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(values[i]);
  }
  return s;
}

std::string join_ternary(const std::vector<net::TernaryField>& fields) {
  std::string s;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(fields[i].value) + "/" + std::to_string(fields[i].mask);
  }
  return s;
}

std::string join_args(const std::map<std::string, std::uint64_t>& args) {
  std::string s;
  for (const auto& [param, value] : args) {
    if (!s.empty()) s += ',';
    s += param + ":" + std::to_string(value);
  }
  return s;
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("journal: bad " + what + " value '" + s + "'");
  }
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(s);
  while (std::getline(in, part, sep)) parts.push_back(part);
  if (!s.empty() && s.back() == sep) parts.push_back("");
  return parts;
}

/// "k=v" fields of one journal line (after the leading keyword).
/// `note=` swallows the rest of the line (notes may contain spaces).
std::map<std::string, std::string> parse_fields(const std::string& rest) {
  std::map<std::string, std::string> fields;
  std::size_t pos = 0;
  while (pos < rest.size()) {
    while (pos < rest.size() && rest[pos] == ' ') ++pos;
    if (pos >= rest.size()) break;
    const std::size_t eq = rest.find('=', pos);
    if (eq == std::string::npos) {
      throw std::invalid_argument("journal: malformed field in '" + rest +
                                  "'");
    }
    const std::string name = rest.substr(pos, eq - pos);
    if (name == "note") {
      fields[name] = rest.substr(eq + 1);
      break;
    }
    std::size_t end = rest.find(' ', eq + 1);
    if (end == std::string::npos) end = rest.size();
    fields[name] = rest.substr(eq + 1, end - eq - 1);
    pos = end;
  }
  return fields;
}

std::string serialize_op(const RuleOp& op) {
  std::string s = "op ";
  switch (op.kind) {
    case RuleOp::Kind::kExact:
      s += "exact ";
      s += op.install ? "install" : "remove";
      s += " control=" + op.control + " table=" + op.table +
           " key=" + join_u64(op.key);
      if (op.install) {
        s += " action=" + op.action.action + " args=" + join_args(op.action.args);
      }
      break;
    case RuleOp::Kind::kTernary:
      s += "ternary ";
      s += op.install ? "install" : "remove";
      s += " control=" + op.control + " table=" + op.table +
           " tkey=" + join_ternary(op.tkey) +
           " prio=" + std::to_string(op.priority);
      if (op.install) {
        s += " action=" + op.action.action + " args=" + join_args(op.action.args);
      }
      break;
    case RuleOp::Kind::kRegister:
      s += "register control=" + op.control + " reg=" + op.reg +
           " index=" + std::to_string(op.index) +
           " value=" + std::to_string(op.value) +
           " old=" + std::to_string(op.old_value) +
           " bank_old=" + std::to_string(op.old_bank_epoch);
      break;
  }
  // Only ops naming a version carry these, and a journaled intent
  // never does.
  if (op.window) {
    s += " window=" + std::to_string(op.window->from) + "-" +
         std::to_string(op.window->to);
  }
  if (op.retire_at) s += " retire=" + std::to_string(*op.retire_at);
  return s;
}

RuleOp parse_op(const std::string& line) {
  RuleOp op;
  // line starts with "op "; next token is the kind.
  std::size_t pos = 3;
  std::size_t end = line.find(' ', pos);
  if (end == std::string::npos) end = line.size();
  const std::string kind = line.substr(pos, end - pos);
  pos = end;
  if (kind == "register") {
    op.kind = RuleOp::Kind::kRegister;
    auto fields = parse_fields(line.substr(pos));
    op.control = fields["control"];
    op.reg = fields["reg"];
    op.index = parse_u64(fields["index"], "index");
    op.value = parse_u64(fields["value"], "value");
    op.old_value = parse_u64(fields["old"], "old");
    op.old_bank_epoch =
        static_cast<std::uint32_t>(parse_u64(fields["bank_old"], "bank_old"));
    return op;
  }
  if (kind != "exact" && kind != "ternary") {
    throw std::invalid_argument("journal: unknown op kind '" + kind + "'");
  }
  op.kind = kind == "exact" ? RuleOp::Kind::kExact : RuleOp::Kind::kTernary;
  while (pos < line.size() && line[pos] == ' ') ++pos;
  end = line.find(' ', pos);
  if (end == std::string::npos) end = line.size();
  const std::string verb = line.substr(pos, end - pos);
  if (verb != "install" && verb != "remove") {
    throw std::invalid_argument("journal: unknown op verb '" + verb + "'");
  }
  op.install = verb == "install";
  auto fields = parse_fields(line.substr(end));
  op.control = fields["control"];
  op.table = fields["table"];
  if (op.kind == RuleOp::Kind::kExact) {
    for (const std::string& part : split(fields["key"], ',')) {
      if (!part.empty()) op.key.push_back(parse_u64(part, "key"));
    }
  } else {
    for (const std::string& part : split(fields["tkey"], ',')) {
      if (part.empty()) continue;
      auto vm = split(part, '/');
      if (vm.size() != 2) {
        throw std::invalid_argument("journal: bad ternary field '" + part +
                                    "'");
      }
      op.tkey.push_back(net::TernaryField{parse_u64(vm[0], "tkey value"),
                                          parse_u64(vm[1], "tkey mask")});
    }
    op.priority =
        static_cast<std::int32_t>(parse_u64(fields["prio"], "priority"));
  }
  if (op.install) {
    op.action.action = fields["action"];
    for (const std::string& part : split(fields["args"], ',')) {
      if (part.empty()) continue;
      auto kv = split(part, ':');
      if (kv.size() != 2) {
        throw std::invalid_argument("journal: bad action arg '" + part + "'");
      }
      op.action.args[kv[0]] = parse_u64(kv[1], "action arg");
    }
  }
  if (fields.count("window") > 0) {
    const auto bounds = split(fields["window"], '-');
    if (bounds.size() != 2) {
      throw std::invalid_argument("journal: bad window '" + fields["window"] +
                                  "'");
    }
    op.window = sim::EpochWindow{
        static_cast<std::uint32_t>(parse_u64(bounds[0], "window from")),
        static_cast<std::uint32_t>(parse_u64(bounds[1], "window to"))};
  }
  if (fields.count("retire") > 0) {
    op.retire_at =
        static_cast<std::uint32_t>(parse_u64(fields["retire"], "retire"));
  }
  return op;
}

}  // namespace

std::uint64_t Journal::begin(std::uint32_t from_epoch, std::uint32_t to_epoch,
                             RuleDiff diff) {
  JournalRecord record;
  record.state = JournalState::kBegun;
  record.update_id = next_id_++;
  record.from_epoch = from_epoch;
  record.to_epoch = to_epoch;
  record.diff = std::move(diff);
  records_.push_back(std::move(record));
  return records_.back().update_id;
}

void Journal::append(std::uint64_t update_id, JournalState state,
                     std::string note) {
  if (state == JournalState::kBegun) {
    throw std::invalid_argument("journal: append cannot re-begin an update");
  }
  const JournalRecord* begun = nullptr;
  for (const JournalRecord& r : records_) {
    if (r.update_id == update_id && r.state == JournalState::kBegun) {
      begun = &r;
    }
  }
  if (begun == nullptr) {
    throw std::invalid_argument("journal: append for unknown update id " +
                                std::to_string(update_id));
  }
  JournalRecord record;
  record.state = state;
  record.update_id = update_id;
  record.from_epoch = begun->from_epoch;
  record.to_epoch = begun->to_epoch;
  record.note = std::move(note);
  records_.push_back(std::move(record));
}

std::optional<Journal::Pending> Journal::pending() const {
  std::optional<Pending> found;
  for (const JournalRecord& r : records_) {
    if (r.state == JournalState::kBegun) {
      Pending p;
      p.update_id = r.update_id;
      p.from_epoch = r.from_epoch;
      p.to_epoch = r.to_epoch;
      p.diff = &r.diff;
      p.last_state = r.state;
      found = p;
    } else if (found && r.update_id == found->update_id) {
      if (terminal(r.state)) {
        found.reset();
      } else {
        found->last_state = r.state;
      }
    }
  }
  return found;
}

std::string Journal::to_text() const {
  std::string out;
  for (const JournalRecord& r : records_) {
    out += to_string(r.state);
    out += " id=" + std::to_string(r.update_id);
    if (r.state == JournalState::kBegun) {
      out += " from=" + std::to_string(r.from_epoch) +
             " to=" + std::to_string(r.to_epoch);
    }
    if (!r.note.empty()) out += " note=" + r.note;
    out += "\n";
    if (r.state == JournalState::kBegun) {
      for (const RuleOp& op : r.diff.ops) out += serialize_op(op) + "\n";
    }
  }
  return out;
}

Journal Journal::from_text(const std::string& text) {
  Journal journal;
  JournalRecord* open_begin = nullptr;
  for (const std::string& line : split(text, '\n')) {
    if (line.empty()) continue;
    if (line.rfind("op ", 0) == 0) {
      if (open_begin == nullptr) {
        throw std::invalid_argument("journal: op line outside a begin record");
      }
      open_begin->diff.ops.push_back(parse_op(line));
      continue;
    }
    std::size_t end = line.find(' ');
    if (end == std::string::npos) end = line.size();
    auto state = state_from_string(line.substr(0, end));
    if (!state) {
      throw std::invalid_argument("journal: unknown record '" + line + "'");
    }
    auto fields = parse_fields(line.substr(end));
    JournalRecord record;
    record.state = *state;
    record.update_id = parse_u64(fields["id"], "id");
    if (*state == JournalState::kBegun) {
      record.from_epoch =
          static_cast<std::uint32_t>(parse_u64(fields["from"], "from"));
      record.to_epoch =
          static_cast<std::uint32_t>(parse_u64(fields["to"], "to"));
    } else {
      // Phase markers inherit the begin record's epochs.
      for (const JournalRecord& r : journal.records_) {
        if (r.update_id == record.update_id &&
            r.state == JournalState::kBegun) {
          record.from_epoch = r.from_epoch;
          record.to_epoch = r.to_epoch;
        }
      }
    }
    auto note = fields.find("note");
    if (note != fields.end()) record.note = note->second;
    journal.records_.push_back(std::move(record));
    open_begin = journal.records_.back().state == JournalState::kBegun
                     ? &journal.records_.back()
                     : nullptr;
    journal.next_id_ = std::max(journal.next_id_,
                                journal.records_.back().update_id + 1);
  }
  return journal;
}

}  // namespace dejavu::control
