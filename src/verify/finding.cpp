#include "verify/finding.hpp"

#include <algorithm>
#include <stdexcept>

namespace dejavu::verify {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const std::vector<CheckInfo>& check_catalog() {
  static const std::vector<CheckInfo> catalog = {
      {"DV-H1", "hazard.write-write", Severity::kError,
       "two tables co-scheduled in one MAU stage write the same field"},
      {"DV-H2", "hazard.read-after-write", Severity::kError,
       "a table reads or matches a field written by another table in "
       "the same MAU stage"},
      {"DV-H3", "hazard.unguarded-branch", Severity::kError,
       "apply entries claim mutual exclusion (distinct branch ids) but "
       "at least one is ungated while both write the same field in one "
       "stage"},
      {"DV-H4", "hazard.register-stages", Severity::kError,
       "a register array is accessed from tables in different MAU "
       "stages (a register lives in exactly one stage)"},
      {"DV-D1", "deps.cycle", Severity::kError,
       "the dependency graph has a cycle or an edge against apply "
       "order; the tables cannot be topologically ordered"},
      {"DV-D2", "deps.stage-overflow", Severity::kError,
       "the dependency critical path exceeds the pipelet's MAU stage "
       "ladder"},
      {"DV-P1", "parser.transition-conflict", Severity::kError,
       "two NFs map the same parse vertex and selector value to "
       "different headers"},
      {"DV-P2", "parser.layout-conflict", Severity::kError,
       "two NFs define the same header type with different field "
       "layouts"},
      {"DV-P3", "parser.select-ambiguity", Severity::kWarning,
       "one parse vertex selects its transition on more than one field"},
      {"DV-L1", "place.unplaced", Severity::kError,
       "a chain policy references an NF the placement does not host"},
      {"DV-L2", "place.infeasible", Severity::kError,
       "a chain policy has no feasible traversal under the placement"},
      {"DV-L3", "place.recirc-loop", Severity::kError,
       "the chain's recirculation count is unbounded: the traversal or "
       "the installed branching rules revisit a pipelet state"},
      {"DV-L4", "place.recirc-rule", Severity::kError,
       "a planned traversal step violates the ASIC's resubmission/"
       "recirculation rules (resubmit after ingress, recirculate after "
       "egress, stay within one pipeline)"},
      {"DV-L5", "place.chain-order", Severity::kWarning,
       "NFs of one chain sit on a sequential pipelet against chain "
       "order, costing extra resubmissions"},
      {"DV-L6", "route.gap", Severity::kError,
       "the branching/check rules leave a reachable (path, service "
       "index) state unrouted or exit the switch mid-chain"},
      {"DV-R1", "resources.pipelet-overcommit", Severity::kError,
       "a pipelet's tables need more SRAM/TCAM/VLIW than its whole "
       "stage ladder provides"},
      {"DV-R2", "resources.table-too-big", Severity::kError,
       "a single table overflows the per-stage resource budget even "
       "when sliced into single-entry chunks (e.g. its key is wider "
       "than the match crossbar), so no stage can ever host it"},
      {"DV-S1", "semantic.recirc-loop", Severity::kError,
       "a symbolic packet path recirculates or resubmits past the "
       "dataplane pass cap; the witness packet loops forever on the "
       "deployed rules"},
      {"DV-S2", "semantic.index-monotonic", Severity::kError,
       "the SFC service index moves backwards along a packet path; "
       "chain progress must be monotone or branching rules can replay "
       "already-traversed NFs"},
      {"DV-S3", "semantic.metadata-leak", Severity::kError,
       "a packet leaves the switch on a final emit with the platform "
       "SFC header still on the wire; internal metadata must be popped "
       "before external egress"},
      {"DV-S4", "semantic.header-validity", Severity::kWarning,
       "an action reads or writes a field of a header the parser never "
       "extracted on this path; the dataplane substitutes zeros / "
       "drops the write silently"},
      {"DV-S5", "semantic.parallel-overlap", Severity::kError,
       "gate tables of two parallel branches accept the same installed "
       "(path, index) key; which NF wins depends on apply order, so "
       "sequential and parallel composition diverge"},
      {"DV-S6", "semantic.dead-rule", Severity::kWarning,
       "an installed table entry or parser state is unreachable on "
       "every explored symbolic path"},
      {"DV-S7", "semantic.differential", Severity::kError,
       "the concrete dataplane disagrees with the symbolic prediction "
       "when replaying a witness packet; the explorer's model of the "
       "deployment is wrong"},
      {"DV-S8", "semantic.epoch-blend", Severity::kError,
       "a packet path would consult entries of disjoint chain "
       "generations, or the explored generation is malformed "
       "(overlapping version windows, or already drained); per-packet "
       "consistency of live updates is violated"},
      {"DV-A1", "analysis.parallel-unsafe", Severity::kError,
       "NFs composed in parallel on one pipelet are proven "
       "order-dependent by the dataflow footprints (write/write or "
       "read/write overlap, SFC-structure or drop/punt control "
       "effects) and no chain policy sequences them, so nothing pins "
       "the order the merged pipelet applies their effects in"},
      {"DV-A2", "analysis.dead-write", Severity::kWarning,
       "an NF writes a scratch metadata field that neither it nor any "
       "downstream NF of any chain policy ever reads"},
      {"DV-A3", "analysis.uninit-read", Severity::kError,
       "an NF reads a scratch metadata field before any write along "
       "some chain policy; on a real target uninitialized metadata is "
       "undefined"},
      {"DV-A4", "analysis.register-aliasing", Severity::kError,
       "inside a declared-parallel pipelet, a register access's index "
       "field is written by a member NF no chain policy sequences "
       "against it, so which cell the access touches depends on the "
       "peer branch"},
      {"DV-A5", "analysis.parallel-opportunity", Severity::kInfo,
       "provably order-independent adjacent chain NFs sit in "
       "sequential composition although a parallel rewrite would cost "
       "strictly fewer weighted recirculations (auto_parallelize found "
       "a better placement)"},
      {"DV-C1", "cost.unbounded-recirc", Severity::kError,
       "the abstract interpreter found a path class whose "
       "recirculation/resubmit graph admits no finite pass bound: the "
       "joined abstract state at a pipeline entry covers itself after "
       "widening, so the installed rules can loop a packet forever"},
      {"DV-C2", "cost.bound-exceeds-cap", Severity::kError,
       "a path class's certified worst-case pass bound exceeds the "
       "dataplane's max_pipeline_passes cap: packets of this class "
       "need more passes to finish the chain than the ASIC will grant, "
       "so the cap truncates live traffic mid-chain"},
      {"DV-C3", "cost.fluid-static-mismatch", Severity::kError,
       "the statically certified worst-case recirculation count for a "
       "chain policy disagrees with the planned traversal the fluid "
       "throughput model (§4) is solved against; the capacity numbers "
       "are computed for a different deployment than the one installed"},
      {"DV-C4", "cost.unreachable-class", Severity::kError,
       "an installed table entry is provably unreachable under the "
       "abstract join of every path class's key states: no concrete "
       "packet admitted by any class can ever select it, so it is dead "
       "capacity (or the surviving rules are not the intended ones)"},
  };
  return catalog;
}

const CheckInfo* find_check(const std::string& id) {
  for (const CheckInfo& info : check_catalog()) {
    if (id == info.id) return &info;
  }
  return nullptr;
}

std::string Finding::to_string() const {
  std::string s = verify::to_string(severity);
  s += "[";
  s += check;
  s += "] ";
  if (!where.empty()) {
    s += where;
    s += ": ";
  }
  s += message;
  return s;
}

void Report::add(Finding finding) { findings_.push_back(std::move(finding)); }

void Report::add(const std::string& id, std::string where,
                 std::string message) {
  const CheckInfo* info = find_check(id);
  if (info == nullptr) {
    throw std::invalid_argument("unknown verifier check id '" + id + "'");
  }
  findings_.push_back(
      Finding{info->severity, id, std::move(where), std::move(message)});
}

std::size_t Report::count(Severity severity) const {
  std::size_t n = 0;
  for (const Finding& f : findings_) n += f.severity == severity;
  return n;
}

bool Report::has(const std::string& check_id) const {
  return std::any_of(findings_.begin(), findings_.end(),
                     [&](const Finding& f) { return f.check == check_id; });
}

void Report::sort() {
  std::stable_sort(findings_.begin(), findings_.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.severity != b.severity) {
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     }
                     if (a.check != b.check) return a.check < b.check;
                     if (a.where != b.where) return a.where < b.where;
                     return a.message < b.message;
                   });
}

std::string Report::to_string() const {
  if (findings_.empty()) return "clean (0 findings)\n";
  std::string s;
  for (const Finding& f : findings_) {
    s += f.to_string();
    s += "\n";
  }
  s += std::to_string(errors()) + " error(s), " +
       std::to_string(warnings()) + " warning(s)\n";
  return s;
}

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
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

}  // namespace

std::string Report::to_json() const {
  std::string s = "{\n";
  s += "  \"ok\": " + std::string(ok() ? "true" : "false") + ",\n";
  s += "  \"errors\": " + std::to_string(errors()) + ",\n";
  s += "  \"warnings\": " + std::to_string(warnings()) + ",\n";
  s += "  \"findings\": [";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    const Finding& f = findings_[i];
    const CheckInfo* info = find_check(f.check);
    s += i == 0 ? "\n" : ",\n";
    s += "    {\"severity\": \"" +
         std::string(verify::to_string(f.severity)) +
         "\", \"check\": \"" + json_escape(f.check) + "\", \"name\": \"" +
         json_escape(info != nullptr ? info->name : "?") +
         "\", \"where\": \"" + json_escape(f.where) +
         "\", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  s += findings_.empty() ? "]\n" : "\n  ]\n";
  s += "}\n";
  return s;
}

}  // namespace dejavu::verify
