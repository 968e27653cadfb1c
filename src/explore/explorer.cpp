#include "explore/explorer.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "explore/symbolic.hpp"
#include "merge/compose.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "sfc/header.hpp"
#include "sim/bits.hpp"
#include "sim/disposition.hpp"
#include "sim/parse.hpp"

namespace dejavu::explore {

namespace {

std::string ip_string(std::uint32_t v) {
  return net::Ipv4Addr(v).to_string();
}

std::string join_u64(const std::vector<std::uint64_t>& vs) {
  std::string s;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(vs[i]);
  }
  return s;
}

std::string join_ternary(const std::vector<net::TernaryField>& key) {
  std::string s;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(key[i].value) + "/" + std::to_string(key[i].mask);
  }
  return s;
}

std::string ports_string(const std::vector<std::uint16_t>& ports) {
  std::string s = "[";
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (i) s += " ";
    s += std::to_string(ports[i]);
  }
  return s + "]";
}

/// What a packet read of one dotted field yields: unreadable, a
/// concrete value, or a symbolic variable.
struct RVal {
  bool ok = false;
  bool sym = false;
  int var = -1;
  std::uint64_t val = 0;
};

/// The full symbolic machine state of one in-flight packet path.
/// Copied on every fork; everything is value-typed.
struct PathState {
  net::Packet packet;  // concrete bytes (the evolving template)
  ConstraintSet cons;
  /// dotted field -> symbolic var id. Name-keyed so entries survive
  /// SFC push/pop reshuffling the byte offsets. Erased once a field
  /// is overwritten or eagerly concretized.
  std::map<std::string, int> overlay;
  /// Parse result of the current pipelet pass (header -> byte offset).
  std::map<std::string, std::uint32_t> parsed;
  std::map<std::string, std::uint64_t> locals;  // fresh per pipelet
  sim::StandardMetadata meta;
  /// Sparse per-path register file: control -> register -> index ->
  /// value (absent cells are zero, like a freshly armed switch).
  std::map<std::string,
           std::map<std::string, std::map<std::uint64_t, std::uint64_t>>>
      regs;
  // Per-pipelet transient lookup state (mirrors run_pipelet).
  std::map<std::string, bool> hits;
  std::string taken_branch;
  std::map<std::string, bool> branch_checked;
  // Pass-loop state. `egress` is the port the traffic manager chose:
  // an egress action may rewrite meta.egress_port, not the port.
  enum class At : std::uint8_t { kPassStart, kIngressDone, kEgressDone };
  At at = At::kPassStart;
  std::uint32_t pass = 0;
  std::uint32_t pipeline = 0;
  std::uint16_t egress = 0;
  PredictedOutcome out;
  std::vector<asic::PipeletId> pipelets;
  bool dead = false;          // constraints became unsatisfiable
  bool hit_pass_cap = false;  // DV-S1
  /// Service-index regressions observed on this path (old, new).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> index_regressions;
  /// Intersection of every consulted entry's epoch window (DV-S8
  /// tripwire): empty intersection = the path mixed generations.
  sim::EpochWindow consulted;
  std::string mixed_epoch_table;
};

using Cont = std::function<void(PathState)>;

class Explorer {
 public:
  Explorer(sim::DataPlane& dp, const sfc::PolicySet& policies,
           const ExploreOptions& options)
      : dp_(&dp),
        program_(&dp.program()),
        ids_(&dp.ids()),
        policies_(&policies),
        options_(options),
        max_passes_(dp.max_passes()),
        epoch_(options.epoch.value_or(dp.epoch())) {}

  ExploreResult run();

 private:
  // --- field access -------------------------------------------------
  RVal read_header_field(const PathState& s, const std::string& dotted) const;
  RVal read_field(const PathState& s, const std::string& dotted) const;
  bool write_header_bits(PathState& s, const std::string& dotted,
                         std::uint64_t value);
  std::optional<std::uint64_t> concretize(PathState& s,
                                          const std::string& dotted, int var);
  std::optional<std::uint64_t> action_read(PathState& s,
                                           const std::string& where,
                                           const std::string& dotted);
  void action_write(PathState& s, const std::string& where,
                    const std::string& dotted, std::uint64_t value);

  // --- parsing ------------------------------------------------------
  void parse_fork(PathState s, const Cont& cont);
  void walk_vertex(PathState s, std::uint32_t vertex, std::size_t hop,
                   const Cont& cont);
  void try_edge(PathState s,
                std::shared_ptr<std::vector<p4ir::ParserEdge>> edges,
                std::size_t i, std::size_t hop, const Cont& cont);
  void reparse_sync(PathState& s);

  // --- pipelet execution --------------------------------------------
  void run_pipelet_sym(PathState s, asic::PipeletId id, const Cont& cont);
  void apply_from(PathState s, const p4ir::ControlBlock& control,
                  std::size_t idx, const Cont& cont);
  void do_table(PathState s, const p4ir::ControlBlock& control,
                const p4ir::ApplyEntry& entry, const Cont& next);
  void finish_lookup(PathState s, const p4ir::ControlBlock& control,
                     const p4ir::ApplyEntry& entry, bool hit,
                     const sim::ActionCall& call, const Cont& next);
  void execute_action_sym(PathState& s, const p4ir::ControlBlock& control,
                          const sim::ActionCall& call);

  // --- pass loop ----------------------------------------------------
  void explore_from(const std::string& shape, std::uint16_t in_port);
  void run_passes(PathState start);
  std::optional<asic::PipeletId> advance(PathState& s);
  void finish_drop(PathState& s, sim::DropCode code, std::string reason);
  void finish(PathState s);

  // --- checks -------------------------------------------------------
  void static_overlap_check();  // DV-S5
  void coverage_check();        // DV-S6
  void epoch_audit();           // DV-S8
  void differential_replay(const PathSummary& path);

  /// Narrow the path's consulted-window intersection by one matched
  /// entry's window (DV-S8 tripwire).
  void consult_window(PathState& s, const std::string& table,
                      sim::EpochWindow window) const {
    s.consulted.from = std::max(s.consulted.from, window.from);
    s.consulted.to = std::min(s.consulted.to, window.to);
    if (s.consulted.from > s.consulted.to && s.mixed_epoch_table.empty()) {
      s.mixed_epoch_table = table;
    }
  }

  void add_finding(const std::string& id, const std::string& where,
                   const std::string& message);
  void note_s4(const std::string& where, const std::string& message);
  std::string path_where() const;

  void ensure_clone();
  void zero_clone_registers();

  std::string coverage_exact_id(const std::string& control,
                                const std::string& table,
                                const std::vector<std::uint64_t>& key) const {
    return control + "|" + table + "|e|" + join_u64(key);
  }
  std::string coverage_ternary_id(const std::string& control,
                                  const std::string& table,
                                  std::size_t handle) const {
    return control + "|" + table + "|t|" + std::to_string(handle);
  }

  sim::DataPlane* dp_;
  const p4ir::Program* program_;
  const p4ir::TupleIdTable* ids_;
  const sfc::PolicySet* policies_;
  ExploreOptions options_;
  std::uint32_t max_passes_;
  /// The generation being explored; entries whose window excludes it
  /// are invisible, exactly as they are to a packet stamped epoch_.
  std::uint32_t epoch_;

  // Per-start-state context.
  std::string shape_;
  std::uint16_t start_port_ = 0;
  net::PacketSpec base_spec_;
  struct InputVars {
    int src_addr = -1;
    int dst_addr = -1;
    int ttl = -1;
    int src_port = -1;
    int dst_port = -1;
  } vars_;

  verify::Report report_;
  std::vector<PathSummary> paths_;
  ExploreStats stats_;
  std::set<std::string> emitted_;          // finding dedup
  std::set<std::string> hit_entries_;      // DV-S6 rule coverage
  std::set<std::uint32_t> visited_vertices_;  // DV-S6 parser coverage
  std::unique_ptr<sim::DataPlane> clone_;  // differential replay target
};

// ---------------------------------------------------------------------
// Field access
// ---------------------------------------------------------------------

RVal Explorer::read_header_field(const PathState& s,
                                 const std::string& dotted) const {
  RVal r;
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return r;
  auto base = s.parsed.find(ref->header);
  if (base == s.parsed.end()) return r;
  auto slot =
      sim::locate_field(*program_, *ref, base->second, s.packet.size());
  if (!slot) return r;
  auto ov = s.overlay.find(dotted);
  if (ov != s.overlay.end()) {
    r.ok = true;
    r.sym = true;
    r.var = ov->second;
    return r;
  }
  r.ok = true;
  r.val = sim::read_bits(s.packet.data().view(), slot->abs_bit, slot->bits);
  return r;
}

RVal Explorer::read_field(const PathState& s, const std::string& dotted) const {
  RVal r;
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return r;
  if (ref->header == "standard_metadata") {
    if (auto v = sim::read_meta(s.meta, sim::meta_field(ref->field))) {
      r.ok = true;
      r.val = *v;
    }
    return r;
  }
  if (ref->header == "local") {
    auto it = s.locals.find(ref->field);
    if (it == s.locals.end()) return r;
    r.ok = true;
    r.val = it->second;
    return r;
  }
  return read_header_field(s, dotted);
}

bool Explorer::write_header_bits(PathState& s, const std::string& dotted,
                                 std::uint64_t value) {
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return false;
  auto base = s.parsed.find(ref->header);
  if (base == s.parsed.end()) return false;
  auto slot =
      sim::locate_field(*program_, *ref, base->second, s.packet.size());
  if (!slot) return false;
  sim::write_bits(s.packet.data().mutable_view(), slot->abs_bit, slot->bits,
                  sim::mask_to_width(value, slot->bits));
  s.overlay.erase(dotted);
  return true;
}

std::optional<std::uint64_t> Explorer::concretize(PathState& s,
                                                  const std::string& dotted,
                                                  int var) {
  auto v = s.cons.pin(var);
  if (!v) {
    s.dead = true;
    return std::nullopt;
  }
  write_header_bits(s, dotted, *v);
  return v;
}

std::optional<std::uint64_t> Explorer::action_read(PathState& s,
                                                   const std::string& where,
                                                   const std::string& dotted) {
  RVal r = read_field(s, dotted);
  if (!r.ok) {
    auto ref = p4ir::FieldRef::parse(dotted);
    if (ref && ref->header != "standard_metadata" && ref->header != "local") {
      note_s4(where, "reads '" + dotted +
                         "' of a header absent on this path (value is 0)");
    }
    return std::nullopt;
  }
  if (r.sym) return concretize(s, dotted, r.var);
  return r.val;
}

void Explorer::action_write(PathState& s, const std::string& where,
                            const std::string& dotted, std::uint64_t value) {
  auto ref = p4ir::FieldRef::parse(dotted);
  if (!ref) return;
  if (ref->header == "standard_metadata") {
    sim::write_meta(s.meta, sim::meta_field(ref->field), value);
    return;
  }
  if (ref->header == "local") {
    s.locals[ref->field] = value;
    return;
  }
  // DV-S2: the service index must be monotone along the path.
  if (dotted == "sfc.service_index") {
    RVal old = read_header_field(s, dotted);
    if (old.ok && !old.sym) {
      const std::uint64_t fresh = sim::mask_to_width(value, 8);
      if (fresh < old.val) {
        s.index_regressions.emplace_back(old.val, fresh);
      }
    }
  }
  if (!write_header_bits(s, dotted, value)) {
    note_s4(where, "write to '" + dotted +
                       "' dropped: header absent on this path");
  }
}

// ---------------------------------------------------------------------
// Parsing (forking walk at pipelet entry, sync walk mid-action)
// ---------------------------------------------------------------------

void Explorer::parse_fork(PathState s, const Cont& cont) {
  s.parsed.clear();
  const p4ir::ParserGraph& g = program_->parser();
  if (g.vertices().empty()) {
    cont(std::move(s));
    return;
  }
  walk_vertex(std::move(s), g.start(), 0, cont);
}

void Explorer::walk_vertex(PathState s, std::uint32_t vertex, std::size_t hop,
                           const Cont& cont) {
  const p4ir::ParserGraph& g = program_->parser();
  if (hop > g.vertices().size()) {
    cont(std::move(s));
    return;
  }
  const p4ir::ParserTuple& tuple = ids_->tuple_of(vertex);
  const p4ir::HeaderType* type = program_->find_header_type(tuple.header_type);
  if (type == nullptr) {
    cont(std::move(s));
    return;
  }
  if (std::size_t{tuple.offset} + type->byte_width() > s.packet.size()) {
    cont(std::move(s));  // truncated frame: stop extraction
    return;
  }
  s.parsed.emplace(tuple.header_type, tuple.offset);
  visited_vertices_.insert(vertex);
  auto edges =
      std::make_shared<std::vector<p4ir::ParserEdge>>(g.out_edges(vertex));
  try_edge(std::move(s), std::move(edges), 0, hop, cont);
}

void Explorer::try_edge(PathState s,
                        std::shared_ptr<std::vector<p4ir::ParserEdge>> edges,
                        std::size_t i, std::size_t hop, const Cont& cont) {
  if (i >= edges->size()) {
    cont(std::move(s));  // no edge taken: accept
    return;
  }
  const p4ir::ParserEdge& e = (*edges)[i];
  if (e.is_default) {
    walk_vertex(std::move(s), e.to, hop + 1, cont);
    return;
  }
  RVal r = read_header_field(s, e.select_field);
  if (!r.ok) {
    try_edge(std::move(s), std::move(edges), i + 1, hop, cont);
    return;
  }
  if (!r.sym) {
    if (r.val == e.select_value) {
      walk_vertex(std::move(s), e.to, hop + 1, cont);
    } else {
      try_edge(std::move(s), std::move(edges), i + 1, hop, cont);
    }
    return;
  }
  // Symbolic selector: fork into "equals the select value, take the
  // edge" and "differs, try the next edge".
  PathState taken = s;
  if (taken.cons.require_eq(r.var, e.select_value)) {
    walk_vertex(std::move(taken), e.to, hop + 1, cont);
  } else {
    ++stats_.infeasible;
  }
  if (s.cons.require_ne(r.var, e.select_value)) {
    try_edge(std::move(s), std::move(edges), i + 1, hop, cont);
  } else {
    ++stats_.infeasible;
  }
}

void Explorer::reparse_sync(PathState& s) {
  s.parsed.clear();
  const p4ir::ParserGraph& g = program_->parser();
  if (g.vertices().empty()) return;
  std::uint32_t vertex = g.start();
  for (std::size_t hop = 0; hop <= g.vertices().size(); ++hop) {
    const p4ir::ParserTuple& tuple = ids_->tuple_of(vertex);
    const p4ir::HeaderType* type =
        program_->find_header_type(tuple.header_type);
    if (type == nullptr) break;
    if (std::size_t{tuple.offset} + type->byte_width() > s.packet.size()) {
      break;
    }
    s.parsed.emplace(tuple.header_type, tuple.offset);
    visited_vertices_.insert(vertex);
    bool advanced = false;
    for (const p4ir::ParserEdge& e : g.out_edges(vertex)) {
      if (e.is_default) {
        vertex = e.to;
        advanced = true;
        break;
      }
      RVal r = read_header_field(s, e.select_field);
      if (!r.ok) continue;
      bool take;
      if (r.sym) {
        // Mid-action reparse may not fork; decide the selector from
        // the constraints, pinning only when genuinely undecided.
        ConstraintSet eqc = s.cons;
        const bool eq_ok = eqc.require_eq(r.var, e.select_value);
        ConstraintSet nec = s.cons;
        const bool ne_ok = nec.require_ne(r.var, e.select_value);
        if (eq_ok && ne_ok) {
          auto v = concretize(s, e.select_field, r.var);
          if (!v) return;  // dead
          take = *v == e.select_value;
        } else if (eq_ok) {
          s.cons = std::move(eqc);
          take = true;
        } else if (ne_ok) {
          s.cons = std::move(nec);
          take = false;
        } else {
          s.dead = true;
          return;
        }
      } else {
        take = r.val == e.select_value;
      }
      if (take) {
        vertex = e.to;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // accept
  }
}

// ---------------------------------------------------------------------
// Pipelet execution
// ---------------------------------------------------------------------

void Explorer::run_pipelet_sym(PathState s, asic::PipeletId id,
                               const Cont& cont) {
  s.pipelets.push_back(id);
  const p4ir::ControlBlock* control =
      program_->find_control(merge::pipelet_control_name(id));
  if (control == nullptr) {
    cont(std::move(s));  // no program: pass-through
    return;
  }
  s.locals.clear();
  s.hits.clear();
  s.taken_branch.clear();
  s.branch_checked.clear();
  Cont apply_cont = [this, control, cont](PathState ps) {
    apply_from(std::move(ps), *control, 0, cont);
  };
  parse_fork(std::move(s), apply_cont);
}

void Explorer::apply_from(PathState s, const p4ir::ControlBlock& control,
                          std::size_t idx, const Cont& cont) {
  if (s.dead) {
    ++stats_.infeasible;
    return;
  }
  if (idx >= control.apply_order().size()) {
    cont(std::move(s));
    return;
  }
  const p4ir::ApplyEntry& entry = control.apply_order()[idx];
  const p4ir::ControlBlock* cp = &control;
  Cont next = [this, cp, idx, cont](PathState ps) {
    apply_from(std::move(ps), *cp, idx + 1, cont);
  };

  // Parallel-composition branch cascade (mirror of run_pipelet).
  if (!entry.branch_id.empty()) {
    if (!s.taken_branch.empty() && entry.branch_id != s.taken_branch) {
      next(std::move(s));
      return;
    }
    if (s.taken_branch.empty() && s.branch_checked[entry.branch_id]) {
      next(std::move(s));
      return;
    }
  }

  auto guard_failed = [this, &entry, &next](PathState ps) {
    if (!entry.branch_id.empty() && ps.taken_branch.empty()) {
      ps.branch_checked[entry.branch_id] = true;
    }
    next(std::move(ps));
  };

  // Guard tables resolve concretely from this pass's hit results.
  for (const std::string& guard : entry.guard_tables) {
    auto it = s.hits.find(guard);
    const bool hit = it != s.hits.end() && it->second;
    const bool want_hit = entry.mode != p4ir::GuardMode::kIfMiss;
    if (hit != want_hit) {
      guard_failed(std::move(s));
      return;
    }
  }

  if (entry.field_guard) {
    const p4ir::FieldGuard& fg = *entry.field_guard;
    RVal r = read_field(s, fg.field);
    if (!r.ok) {
      guard_failed(std::move(s));  // missing header: vacuously false
      return;
    }
    if (!r.sym) {
      if (!fg.holds(r.val)) {
        guard_failed(std::move(s));
        return;
      }
    } else {
      // Fork on the gateway condition.
      PathState pass_s = s;
      bool pass_ok = false;
      bool fail_ok = false;
      switch (fg.effective_cmp()) {
        case p4ir::GuardCmp::kEq:
          pass_ok = pass_s.cons.require_eq(r.var, fg.value);
          fail_ok = s.cons.require_ne(r.var, fg.value);
          break;
        case p4ir::GuardCmp::kNe:
          pass_ok = pass_s.cons.require_ne(r.var, fg.value);
          fail_ok = s.cons.require_eq(r.var, fg.value);
          break;
        case p4ir::GuardCmp::kGt:
          pass_ok = pass_s.cons.require_gt(r.var, fg.value);
          fail_ok = s.cons.require_le(r.var, fg.value);
          break;
        case p4ir::GuardCmp::kLt:
          pass_ok = pass_s.cons.require_lt(r.var, fg.value);
          fail_ok = s.cons.require_ge(r.var, fg.value);
          break;
      }
      if (pass_ok) {
        do_table(std::move(pass_s), control, entry, next);
      } else {
        ++stats_.infeasible;
      }
      if (fail_ok) {
        guard_failed(std::move(s));
      } else {
        ++stats_.infeasible;
      }
      return;
    }
  }

  do_table(std::move(s), control, entry, next);
}

void Explorer::do_table(PathState s, const p4ir::ControlBlock& control,
                        const p4ir::ApplyEntry& entry, const Cont& next) {
  // The DataPlane refused any control applying an unknown table
  // (p4ir::ControlBlock::runnable) and built a store for every table.
  const p4ir::Table* table = control.find_table(entry.table);
  sim::RuntimeTable* rt = dp_->table_in(control.name(), entry.table);
  const sim::ActionCall default_call{table->default_action, {}};

  if (table->keyless()) {
    finish_lookup(std::move(s), control, entry, true, default_call, next);
    return;
  }

  // Read the key components; any unreadable component is a concrete
  // miss (mirror of lookup() on a nullopt component).
  std::vector<RVal> key;
  key.reserve(table->keys.size());
  bool unreadable = false;
  bool symbolic = false;
  for (const p4ir::TableKey& k : table->keys) {
    RVal r = read_field(s, k.field);
    if (!r.ok) unreadable = true;
    if (r.ok && r.sym) symbolic = true;
    key.push_back(r);
  }
  if (unreadable) {
    finish_lookup(std::move(s), control, entry, false, default_call, next);
    return;
  }

  const bool is_tcam = table->needs_tcam();
  if (!symbolic) {
    // Fully concrete key: scan installed entries directly (not via
    // lookup(), so exploration does not disturb the live table's
    // hit/miss counters) and record which entry matched for DV-S6.
    if (!is_tcam) {
      for (const sim::RuntimeTable::ExactEntry& e : rt->exact_entries()) {
        if (!e.window.contains(epoch_)) continue;
        bool match = true;
        for (std::size_t i = 0; i < key.size(); ++i) {
          if (key[i].val != e.key[i]) {
            match = false;
            break;
          }
        }
        if (match) {
          hit_entries_.insert(
              coverage_exact_id(control.name(), table->name, e.key));
          consult_window(s, table->name, e.window);
          finish_lookup(std::move(s), control, entry, true, e.action, next);
          return;
        }
      }
    } else {
      for (const auto& e : rt->ternary_entries()) {
        if (!rt->ternary_window(e.handle).contains(epoch_)) continue;
        bool match = true;
        for (std::size_t i = 0; i < key.size(); ++i) {
          if (!e.key[i].matches(key[i].val)) {
            match = false;
            break;
          }
        }
        if (match) {
          hit_entries_.insert(
              coverage_ternary_id(control.name(), table->name, e.handle));
          consult_window(s, table->name, rt->ternary_window(e.handle));
          finish_lookup(std::move(s), control, entry, true, e.value, next);
          return;
        }
      }
    }
    finish_lookup(std::move(s), control, entry, false, default_call, next);
    return;
  }

  // Symbolic key: fork one hit path per reachable entry plus one miss
  // path excluded from every entry.
  if (!is_tcam) {
    std::vector<const sim::RuntimeTable::ExactEntry*> compatible;
    const std::vector<sim::RuntimeTable::ExactEntry> entries =
        rt->exact_entries();
    for (const sim::RuntimeTable::ExactEntry& e : entries) {
      if (!e.window.contains(epoch_)) continue;
      bool maybe = true;
      for (std::size_t i = 0; i < key.size(); ++i) {
        if (!key[i].sym && key[i].val != e.key[i]) {
          maybe = false;
          break;
        }
      }
      if (maybe) compatible.push_back(&e);
    }
    for (const sim::RuntimeTable::ExactEntry* e : compatible) {
      PathState hs = s;
      bool feasible = true;
      for (std::size_t i = 0; i < key.size() && feasible; ++i) {
        if (key[i].sym) feasible = hs.cons.require_eq(key[i].var, e->key[i]);
      }
      if (!feasible) {
        ++stats_.infeasible;
        continue;
      }
      hit_entries_.insert(
          coverage_exact_id(control.name(), table->name, e->key));
      consult_window(hs, table->name, e->window);
      finish_lookup(std::move(hs), control, entry, true, e->action, next);
    }
    // Miss path: differ from each compatible entry in (at least) its
    // first symbolic component. This under-approximates misses for
    // multi-component symbolic keys but never fabricates one.
    bool miss_feasible = true;
    for (const sim::RuntimeTable::ExactEntry* e : compatible) {
      int neg_var = -1;
      std::uint64_t neg_val = 0;
      for (std::size_t i = 0; i < key.size(); ++i) {
        if (key[i].sym) {
          neg_var = key[i].var;
          neg_val = e->key[i];
          break;
        }
      }
      if (neg_var < 0 || !s.cons.require_ne(neg_var, neg_val)) {
        miss_feasible = false;  // an entry matches unconditionally
        break;
      }
    }
    if (miss_feasible) {
      finish_lookup(std::move(s), control, entry, false, default_call, next);
    } else {
      ++stats_.infeasible;
    }
    return;
  }

  // Ternary/LPM: entries come priority-ordered; a hit on entry i also
  // requires missing every higher-priority compatible entry.
  const auto& entries = rt->ternary_entries();
  std::vector<bool> compatible(entries.size(), false);
  std::vector<int> first_sym(entries.size(), -1);
  for (std::size_t n = 0; n < entries.size(); ++n) {
    bool maybe = rt->ternary_window(entries[n].handle).contains(epoch_);
    for (std::size_t i = 0; maybe && i < key.size(); ++i) {
      if (!key[i].sym && !entries[n].key[i].matches(key[i].val)) {
        maybe = false;
      }
    }
    compatible[n] = maybe;
    if (!maybe) continue;
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (key[i].sym && entries[n].key[i].mask != 0) {
        first_sym[n] = static_cast<int>(i);
        break;
      }
    }
  }
  auto exclude_entry = [&](PathState& ps, std::size_t n) -> bool {
    // Constrain ps to NOT match entry n. With no masked symbolic
    // component the entry matches outright: exclusion is infeasible.
    if (first_sym[n] < 0) return false;
    const std::size_t i = static_cast<std::size_t>(first_sym[n]);
    return ps.cons.forbid_masked(key[i].var, entries[n].key[i].value,
                                 entries[n].key[i].mask);
  };
  for (std::size_t n = 0; n < entries.size(); ++n) {
    if (!compatible[n]) continue;
    PathState hs = s;
    bool feasible = true;
    for (std::size_t i = 0; i < key.size() && feasible; ++i) {
      if (key[i].sym) {
        feasible = hs.cons.require_masked(key[i].var, entries[n].key[i].value,
                                          entries[n].key[i].mask);
      }
    }
    for (std::size_t h = 0; h < n && feasible; ++h) {
      if (compatible[h]) feasible = exclude_entry(hs, h);
    }
    if (!feasible) {
      ++stats_.infeasible;
      continue;
    }
    hit_entries_.insert(
        coverage_ternary_id(control.name(), table->name, entries[n].handle));
    consult_window(hs, table->name, rt->ternary_window(entries[n].handle));
    finish_lookup(std::move(hs), control, entry, true, entries[n].value, next);
  }
  bool miss_feasible = true;
  for (std::size_t n = 0; n < entries.size() && miss_feasible; ++n) {
    if (compatible[n]) miss_feasible = exclude_entry(s, n);
  }
  if (miss_feasible) {
    finish_lookup(std::move(s), control, entry, false, default_call, next);
  } else {
    ++stats_.infeasible;
  }
}

void Explorer::finish_lookup(PathState s, const p4ir::ControlBlock& control,
                             const p4ir::ApplyEntry& entry, bool hit,
                             const sim::ActionCall& call, const Cont& next) {
  s.hits[entry.table] = hit;
  if (!entry.branch_id.empty() && s.taken_branch.empty()) {
    s.branch_checked[entry.branch_id] = true;
    if (hit) s.taken_branch = entry.branch_id;
  }
  if (!call.action.empty()) {
    execute_action_sym(s, control, call);
  }
  if (s.dead) {
    ++stats_.infeasible;
    return;
  }
  next(std::move(s));
}

void Explorer::execute_action_sym(PathState& s,
                                  const p4ir::ControlBlock& control,
                                  const sim::ActionCall& call) {
  // Every call comes out of the rule store: an entry's text form
  // (checked by RuntimeTable::action_error at install) or a table's
  // default action (checked when the store was built). So the action is
  // defined and `call` holds every parameter it reads.
  const p4ir::Action* action = control.find_action(call.action);
  const std::string where = control.name() + "/" + call.action;
  auto arg = [&](const std::string& param) { return call.args.at(param); };

  for (const p4ir::Primitive& p : action->primitives) {
    if (s.dead) return;
    switch (p.op) {
      case p4ir::PrimitiveOp::kNoop:
        break;
      case p4ir::PrimitiveOp::kSetImmediate:
        action_write(s, where, p.dst, p.imm);
        break;
      case p4ir::PrimitiveOp::kSetFromParam:
        action_write(s, where, p.dst, arg(p.param));
        break;
      case p4ir::PrimitiveOp::kCopy: {
        auto v = action_read(s, where, p.src);
        if (v) action_write(s, where, p.dst, *v);
        break;
      }
      case p4ir::PrimitiveOp::kAdd: {
        auto v = action_read(s, where, p.dst);
        if (v) action_write(s, where, p.dst, *v + p.imm);
        break;
      }
      case p4ir::PrimitiveOp::kHash: {
        net::Crc32 crc;
        for (const std::string& src : p.srcs) {
          const std::uint64_t v = action_read(s, where, src).value_or(0);
          if (s.dead) return;
          const std::uint16_t bits = program_->field_bits(src).value_or(32);
          const std::size_t bytes = (bits + 7) / 8;
          for (std::size_t i = 0; i < bytes; ++i) {
            crc.add_u8(static_cast<std::uint8_t>(
                (v >> (8 * (bytes - 1 - i))) & 0xff));
          }
        }
        action_write(s, where, p.dst, crc.finish());
        break;
      }
      case p4ir::PrimitiveOp::kPushSfc: {
        sfc::SfcHeader header;
        sfc::push_sfc(s.packet, header);
        reparse_sync(s);
        break;
      }
      case p4ir::PrimitiveOp::kPopSfc: {
        if (s.parsed.contains("sfc")) {
          sfc::pop_sfc(s.packet);
          reparse_sync(s);
        }
        break;
      }
      case p4ir::PrimitiveOp::kDrop:
        s.meta.drop_flag = true;
        break;
      case p4ir::PrimitiveOp::kSetContext: {
        auto header = sfc::read_sfc(s.packet);
        if (header) {
          header->context.set(static_cast<std::uint8_t>(p.imm),
                              static_cast<std::uint16_t>(arg(p.param)));
          sfc::write_sfc(s.packet, *header);
        }
        break;
      }
      case p4ir::PrimitiveOp::kRegisterRead:
      case p4ir::PrimitiveOp::kRegisterAdd:
      case p4ir::PrimitiveOp::kRegisterWrite: {
        // runnable() refused unknown registers; add_register, empty ones.
        const p4ir::RegisterDef* def = control.find_register(p.param);
        std::uint64_t index = p.imm;
        if (!p.src.empty()) {
          index = action_read(s, where, p.src).value_or(0);
          if (s.dead) return;
        }
        index %= def->size;
        const std::uint64_t width_mask =
            def->width_bits >= 64
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << def->width_bits) - 1;
        std::uint64_t& cell = s.regs[control.name()][p.param][index];
        if (p.op == p4ir::PrimitiveOp::kRegisterRead) {
          action_write(s, where, p.dst, cell);
        } else if (p.op == p4ir::PrimitiveOp::kRegisterAdd) {
          cell = (cell + p.imm) & width_mask;
          if (!p.dst.empty()) action_write(s, where, p.dst, cell);
        } else {  // kRegisterWrite
          std::uint64_t value = p.imm;
          if (!p.srcs.empty()) {
            value = action_read(s, where, p.srcs[0]).value_or(0);
            if (s.dead) return;
          }
          cell = value & width_mask;
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Pass loop (the traffic manager between pipelets is sim::disposition)
// ---------------------------------------------------------------------

void Explorer::explore_from(const std::string& shape, std::uint16_t in_port) {
  shape_ = shape;
  start_port_ = in_port;
  base_spec_ = net::PacketSpec{};
  base_spec_.protocol = shape == "udp" ? net::kIpProtoUdp : net::kIpProtoTcp;

  PathState s;
  s.packet = net::Packet::make(base_spec_);
  s.meta.ingress_port = in_port;
  s.meta.packet_length = static_cast<std::uint32_t>(s.packet.size());
  s.meta.epoch = epoch_;

  if (sim::DropCode code = sim::admit_ingress(*dp_, in_port, false);
      code != sim::DropCode::kNone) {
    finish_drop(s, code, sim::drop_detail(code, in_port));
    return;
  }

  const std::string l4 = shape == "udp" ? "udp" : "tcp";
  vars_ = InputVars{};
  vars_.src_addr = s.cons.add_var(
      {"ipv4.src_addr", 32, base_spec_.ip_src.value()});
  vars_.dst_addr = s.cons.add_var(
      {"ipv4.dst_addr", 32, base_spec_.ip_dst.value()});
  vars_.ttl = s.cons.add_var({"ipv4.ttl", 8, base_spec_.ttl});
  vars_.src_port = s.cons.add_var(
      {l4 + ".src_port", 16, base_spec_.src_port});
  vars_.dst_port = s.cons.add_var(
      {l4 + ".dst_port", 16, base_spec_.dst_port});
  for (int v = 0; v < static_cast<int>(s.cons.vars().size()); ++v) {
    s.overlay.emplace(s.cons.vars()[v].field, v);
  }

  s.pipeline = dp_->pipeline_of(in_port);
  run_passes(std::move(s));
}

// Passes are driven from an explicit stack, not by recursion: a
// 64-pass recirculation loop would otherwise nest every pipelet walk of
// every pass on the call stack. A pipelet walk collects the states it
// completes; pushing them in reverse keeps the depth-first order, so
// paths finish in the order the recursive walk finished them.
void Explorer::run_passes(PathState start) {
  std::vector<PathState> stack;
  stack.push_back(std::move(start));
  while (!stack.empty()) {
    PathState s = std::move(stack.back());
    stack.pop_back();
    if (s.dead) {
      ++stats_.infeasible;
      continue;
    }
    const std::optional<asic::PipeletId> next = advance(s);
    if (!next) continue;
    std::vector<PathState> done;
    run_pipelet_sym(std::move(s), *next, [&done](PathState ps) {
      done.push_back(std::move(ps));
    });
    for (auto it = done.rbegin(); it != done.rend(); ++it) {
      stack.push_back(std::move(*it));
    }
  }
}

// Apply the traffic manager at the path's pipelet boundary. Returns the
// pipelet the path runs next, or nullopt when the path has finished.
std::optional<asic::PipeletId> Explorer::advance(PathState& s) {
  if (s.at != PathState::At::kPassStart) {
    const bool ingress = s.at == PathState::At::kIngressDone;
    const sim::TmFlags flags = sim::tm_flags(s.meta);
    const sim::Step st =
        ingress ? sim::after_ingress(*dp_, flags, s.meta.egress_spec)
                : sim::after_egress(*dp_, flags, s.egress);
    switch (st.kind) {
      case sim::Step::Kind::kPunt:
        ++s.out.to_cpu;
        finish(std::move(s));
        return std::nullopt;
      case sim::Step::Kind::kDrop:
        finish_drop(s, st.code,
                    sim::drop_detail(*dp_, st,
                                     ingress ? s.pipeline
                                             : dp_->pipeline_of(s.egress)));
        return std::nullopt;
      case sim::Step::Kind::kEmit:
        s.out.out_ports.push_back(st.port);
        if (s.packet.has_sfc_header()) s.out.sfc_on_final_emit = true;
        finish(std::move(s));
        return std::nullopt;
      case sim::Step::Kind::kEgress:
        s.meta.egress_port = st.port;
        s.egress = st.port;
        if (st.mirror) s.out.out_ports.push_back(*st.mirror);
        s.at = PathState::At::kEgressDone;
        return asic::PipeletId{st.pipeline, asic::PipeKind::kEgress};
      case sim::Step::Kind::kResubmit:
        ++s.out.resubmissions;
        break;
      case sim::Step::Kind::kRecirculate:
        s.out.recirc_ports.push_back(st.port);
        s.pipeline = st.pipeline;
        s.meta.ingress_port = st.port;
        break;
      case sim::Step::Kind::kNeed:  // concrete inputs are always decided
        break;
    }
    ++s.pass;
  }
  if (s.pass >= max_passes_) {
    s.hit_pass_cap = true;
    finish_drop(s, sim::DropCode::kMaxPassesExceeded,
                sim::drop_detail(*dp_, s.out.recirc_ports));
    return std::nullopt;
  }
  s.meta.start_pass();
  s.at = PathState::At::kIngressDone;
  return asic::PipeletId{s.pipeline, asic::PipeKind::kIngress};
}

void Explorer::finish_drop(PathState& s, sim::DropCode code,
                           std::string reason) {
  s.out.dropped = true;
  s.out.drop_code = code;
  s.out.drop_reason = std::move(reason);
  finish(std::move(s));
}

void Explorer::finish(PathState s) {
  if (paths_.size() >= options_.max_paths) {
    ++stats_.truncated;
    return;
  }
  PathSummary path;
  path.shape = shape_;
  path.in_port = start_port_;
  path.src_addr = static_cast<std::uint32_t>(
      s.cons.vars().empty() ? base_spec_.ip_src.value()
                            : s.cons.solve(vars_.src_addr).value_or(
                                  base_spec_.ip_src.value()));
  path.dst_addr = static_cast<std::uint32_t>(
      s.cons.vars().empty() ? base_spec_.ip_dst.value()
                            : s.cons.solve(vars_.dst_addr).value_or(
                                  base_spec_.ip_dst.value()));
  path.ttl = static_cast<std::uint8_t>(
      s.cons.vars().empty()
          ? base_spec_.ttl
          : s.cons.solve(vars_.ttl).value_or(base_spec_.ttl));
  path.src_port = static_cast<std::uint16_t>(
      s.cons.vars().empty()
          ? base_spec_.src_port
          : s.cons.solve(vars_.src_port).value_or(base_spec_.src_port));
  path.dst_port = static_cast<std::uint16_t>(
      s.cons.vars().empty()
          ? base_spec_.dst_port
          : s.cons.solve(vars_.dst_port).value_or(base_spec_.dst_port));
  path.witness = net::Packet::make(path.spec());
  path.outcome = s.out;
  path.pipelets = s.pipelets;
  path.constraints.reserve(s.cons.vars().size());
  for (std::size_t v = 0; v < s.cons.vars().size(); ++v) {
    path.constraints.push_back(PathSummary::VarSlice{
        s.cons.def(static_cast<int>(v)),
        s.cons.constraints(static_cast<int>(v))});
  }

  const std::string witness = path.to_string();
  if (s.hit_pass_cap) {
    add_finding("DV-S1", path_where(),
                "path never leaves the switch: pass cap of " +
                    std::to_string(max_passes_) +
                    " exhausted after recirculating via " +
                    ports_string(s.out.recirc_ports) + "; witness " + witness);
  }
  for (const auto& [old_v, new_v] : s.index_regressions) {
    add_finding("DV-S2", path_where(),
                "sfc.service_index rewound from " + std::to_string(old_v) +
                    " to " + std::to_string(new_v) + "; witness " + witness);
  }
  if (s.out.sfc_on_final_emit) {
    add_finding("DV-S3", path_where(),
                "packet leaves port " +
                    std::to_string(s.out.out_ports.empty()
                                       ? 0
                                       : s.out.out_ports.back()) +
                    " with the SFC header still attached; witness " + witness);
  }
  if (!s.mixed_epoch_table.empty()) {
    add_finding("DV-S8", path_where(),
                "path consulted entries of disjoint generations (first at "
                "table '" +
                    s.mixed_epoch_table +
                    "') — per-packet consistency violated; witness " +
                    witness);
  }

  ++stats_.paths;
  if (options_.differential) differential_replay(path);
  paths_.push_back(std::move(path));
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

void Explorer::static_overlap_check() {
  for (const p4ir::ControlBlock& control : program_->controls()) {
    std::map<std::string, const p4ir::ApplyEntry*> gates;
    for (const p4ir::ApplyEntry& entry : control.apply_order()) {
      if (!entry.branch_id.empty() && !gates.contains(entry.branch_id)) {
        gates.emplace(entry.branch_id, &entry);
      }
    }
    if (gates.size() < 2) continue;
    for (auto a = gates.begin(); a != gates.end(); ++a) {
      for (auto b = std::next(a); b != gates.end(); ++b) {
        const p4ir::Table* ta = control.find_table(a->second->table);
        const p4ir::Table* tb = control.find_table(b->second->table);
        if (ta == nullptr || tb == nullptr) continue;
        if (ta->keys != tb->keys || ta->needs_tcam()) continue;
        sim::RuntimeTable* ra = dp_->table_in(control.name(), ta->name);
        sim::RuntimeTable* rb = dp_->table_in(control.name(), tb->name);
        if (ra == nullptr || rb == nullptr) continue;
        std::set<std::vector<std::uint64_t>> keys_a;
        for (const auto& e : ra->exact_entries()) {
          if (e.window.contains(epoch_)) keys_a.insert(e.key);
        }
        for (const auto& e : rb->exact_entries()) {
          if (!e.window.contains(epoch_)) continue;
          if (!keys_a.contains(e.key)) continue;
          add_finding(
              "DV-S5", control.name(),
              "parallel branches '" + a->first + "' and '" + b->first +
                  "' both accept key (" + join_u64(e.key) + ") via gates '" +
                  ta->name + "' and '" + tb->name +
                  "'; the winner depends on apply order");
        }
      }
    }
  }
}

void Explorer::coverage_check() {
  for (const p4ir::ControlBlock& control : program_->controls()) {
    for (const p4ir::Table& t : control.tables()) {
      sim::RuntimeTable* rt = dp_->table_in(control.name(), t.name);
      if (rt == nullptr) continue;
      for (const auto& e : rt->exact_entries()) {
        // Entries of other generations (retired, or shadowed for an
        // epoch not being explored) are invisible here, not dead.
        if (!e.window.contains(epoch_)) continue;
        if (hit_entries_.contains(
                coverage_exact_id(control.name(), t.name, e.key))) {
          continue;
        }
        add_finding("DV-S6", control.name() + "/" + t.name,
                    "entry (" + join_u64(e.key) +
                        ") never matched on any explored path");
      }
      for (const auto& e : rt->ternary_entries()) {
        if (!rt->ternary_window(e.handle).contains(epoch_)) continue;
        if (hit_entries_.contains(
                coverage_ternary_id(control.name(), t.name, e.handle))) {
          continue;
        }
        add_finding("DV-S6", control.name() + "/" + t.name,
                    "entry (" + join_ternary(e.key) + ") priority " +
                        std::to_string(e.priority) +
                        " never matched on any explored path");
      }
    }
  }
  for (std::uint32_t v : program_->parser().vertices()) {
    if (visited_vertices_.contains(v)) continue;
    add_finding("DV-S6", "parser",
                "parse vertex " + ids_->tuple_of(v).to_string() +
                    " unreachable on every explored path");
  }
}

void Explorer::epoch_audit() {
  // A drained generation's entries are gone (or going): paths explored
  // against it describe a ruleset no packet can reach anymore.
  if (epoch_ < dp_->min_live_epoch()) {
    add_finding("DV-S8", "epoch",
                "exploring generation " + std::to_string(epoch_) +
                    " which the live switch already drained (min live " +
                    std::to_string(dp_->min_live_epoch()) +
                    "); paths reflect a garbage-collected ruleset");
  }
  // Structural audit: two versions of one key whose windows overlap
  // (or a malformed window) would show two generations to one packet.
  for (const p4ir::ControlBlock& control : program_->controls()) {
    for (const p4ir::Table& t : control.tables()) {
      sim::RuntimeTable* rt = dp_->table_in(control.name(), t.name);
      if (rt == nullptr) continue;
      const std::string where = control.name() + "/" + t.name;
      std::map<std::string, std::vector<sim::EpochWindow>> versions;
      for (const auto& e : rt->exact_entries()) {
        versions["(" + join_u64(e.key) + ")"].push_back(e.window);
      }
      for (const auto& e : rt->ternary_entries()) {
        versions["(" + join_ternary(e.key) + ") prio " +
                 std::to_string(e.priority)]
            .push_back(rt->ternary_window(e.handle));
      }
      for (const auto& [key, windows] : versions) {
        for (const sim::EpochWindow& w : windows) {
          if (!w.well_formed()) {
            add_finding("DV-S8", where,
                        "entry " + key + " has malformed epoch window " +
                            std::to_string(w.from) + ".." +
                            std::to_string(w.to));
          }
        }
        for (std::size_t a = 0; a < windows.size(); ++a) {
          for (std::size_t b = a + 1; b < windows.size(); ++b) {
            if (windows[a].overlaps(windows[b])) {
              add_finding(
                  "DV-S8", where,
                  "versions of entry " + key +
                      " have overlapping epoch windows — a packet stamped in "
                      "the overlap would see two generations at once");
            }
          }
        }
      }
    }
  }
}

void Explorer::ensure_clone() {
  // A copy of the live switch (rules, epochs, port state), so replays
  // run on the same switch without touching its counters.
  if (!clone_) clone_ = std::make_unique<sim::DataPlane>(*dp_);
}

void Explorer::zero_clone_registers() {
  for (const p4ir::ControlBlock& control : program_->controls()) {
    for (const p4ir::RegisterDef& r : control.registers()) {
      std::vector<std::uint64_t>* cells =
          clone_->register_array(control.name(), r.name);
      if (cells != nullptr) std::fill(cells->begin(), cells->end(), 0);
    }
  }
}

void Explorer::differential_replay(const PathSummary& path) {
  ensure_clone();
  zero_clone_registers();
  ++stats_.replays;
  // Stamp the witness with the explored generation so the concrete
  // replay resolves against the same entries the symbolic walk saw.
  sim::SwitchOutput out =
      clone_->process(path.witness, path.in_port, /*from_cpu=*/false, epoch_);

  std::vector<std::uint16_t> concrete_ports;
  concrete_ports.reserve(out.out.size());
  for (const auto& e : out.out) concrete_ports.push_back(e.port);

  auto describe = [](bool dropped, sim::DropCode code, std::size_t punts,
                     const std::vector<std::uint16_t>& out_ports,
                     const std::vector<std::uint16_t>& recirc,
                     std::uint32_t resubmits) {
    std::string s = dropped
                        ? "drop[" + std::string(sim::drop_code_name(code)) + "]"
                        : "deliver " + ports_string(out_ports);
    if (punts > 0) s += " punt x" + std::to_string(punts);
    if (!recirc.empty()) s += " recirc " + ports_string(recirc);
    if (resubmits > 0) s += " resubmit x" + std::to_string(resubmits);
    return s;
  };

  const bool agree = path.outcome.dropped == out.dropped &&
                     (!out.dropped ||
                      path.outcome.drop_code == out.drop_code) &&
                     path.outcome.to_cpu == out.to_cpu.size() &&
                     path.outcome.out_ports == concrete_ports &&
                     path.outcome.recirc_ports == out.recirc_ports &&
                     path.outcome.resubmissions == out.resubmissions;
  if (agree) return;
  add_finding(
      "DV-S7", path_where(),
      "symbolic prediction '" +
          describe(path.outcome.dropped, path.outcome.drop_code,
                   path.outcome.to_cpu, path.outcome.out_ports,
                   path.outcome.recirc_ports, path.outcome.resubmissions) +
          "' but the concrete dataplane did '" +
          describe(out.dropped, out.drop_code, out.to_cpu.size(),
                   concrete_ports, out.recirc_ports, out.resubmissions) +
          "' for witness " + path.to_string());
}

void Explorer::add_finding(const std::string& id, const std::string& where,
                           const std::string& message) {
  const std::string key = id + "|" + where + "|" + message;
  if (!emitted_.insert(key).second) return;
  report_.add(id, where, message);
}

void Explorer::note_s4(const std::string& where, const std::string& message) {
  add_finding("DV-S4", where, message);
}

std::string Explorer::path_where() const {
  return shape_ + "@port" + std::to_string(start_port_);
}

ExploreResult Explorer::run() {
  epoch_audit();
  static_overlap_check();

  std::vector<std::uint16_t> ports;
  if (options_.in_ports) {
    ports = *options_.in_ports;
  } else {
    std::set<std::uint16_t> uniq;
    for (const sfc::ChainPolicy& p : policies_->policies()) {
      uniq.insert(p.in_port);
    }
    ports.assign(uniq.begin(), uniq.end());
  }
  if (ports.empty()) ports.push_back(0);

  for (const char* shape : {"tcp", "udp"}) {
    for (std::uint16_t port : ports) explore_from(shape, port);
  }

  if (options_.coverage) coverage_check();
  report_.sort();

  ExploreResult result;
  result.report = std::move(report_);
  result.paths = std::move(paths_);
  result.stats = stats_;
  return result;
}

}  // namespace

net::PacketSpec PathSummary::spec() const {
  net::PacketSpec s;
  s.protocol = shape == "udp" ? net::kIpProtoUdp : net::kIpProtoTcp;
  s.ip_src = net::Ipv4Addr(src_addr);
  s.ip_dst = net::Ipv4Addr(dst_addr);
  s.ttl = ttl;
  s.src_port = src_port;
  s.dst_port = dst_port;
  return s;
}

std::string PathSummary::to_string() const {
  return shape + " " + ip_string(src_addr) + ":" + std::to_string(src_port) +
         " -> " + ip_string(dst_addr) + ":" + std::to_string(dst_port) +
         " ttl " + std::to_string(ttl) + " in_port " + std::to_string(in_port);
}

ExploreResult run(sim::DataPlane& dp, const sfc::PolicySet& policies,
                  const ExploreOptions& options) {
  Explorer engine(dp, policies, options);
  return engine.run();
}

}  // namespace dejavu::explore
