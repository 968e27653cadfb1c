#include "cost/cost.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cost/domain.hpp"
#include "merge/compose.hpp"
#include "merge/framework.hpp"
#include "net/checksum.hpp"
#include "p4ir/types.hpp"
#include "sfc/header.hpp"
#include "sim/bits.hpp"
#include "sim/disposition.hpp"
#include "sim/parse.hpp"

namespace dejavu::cost {

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

// --- abstract machine state ----------------------------------------

/// Abstract standard_metadata: ports / length / epoch stay concrete in
/// `plain` (they are trace-determined), the per-pass decision fields —
/// egress_spec and the flags — are abstract values.
struct AbsMeta {
  sim::StandardMetadata plain;  ///< its egress_spec and flags are unused
  AbsVal egress_spec = AbsVal::concrete(sfc::kPortUnset, 9);
  AbsVal resubmit = AbsVal::concrete(0, 1);
  AbsVal recirculate = AbsVal::concrete(0, 1);
  AbsVal drop = AbsVal::concrete(0, 1);
  AbsVal mirror = AbsVal::concrete(0, 1);
  AbsVal to_cpu = AbsVal::concrete(0, 1);

  /// A new pass: no egress decision yet, every flag lowered.
  void start_pass() {
    egress_spec = AbsVal::concrete(sfc::kPortUnset, 9);
    resubmit = recirculate = drop = mirror = to_cpu = AbsVal::concrete(0, 1);
  }

  /// The abstract flag behind `f`; nullptr for every other field.
  AbsVal* flag(sim::MetaField f) {
    switch (f) {
      case sim::MetaField::kResubmitFlag:
        return &resubmit;
      case sim::MetaField::kRecirculateFlag:
        return &recirculate;
      case sim::MetaField::kDropFlag:
        return &drop;
      case sim::MetaField::kMirrorFlag:
        return &mirror;
      case sim::MetaField::kToCpuFlag:
        return &to_cpu;
      default:
        return nullptr;
    }
  }
};

/// One in-flight abstract trace (the walker's PathState analogue).
struct AbsState {
  /// The pipelet boundary the trace waits at.
  enum class At : std::uint8_t { kPassStart, kIngressDone, kEgressDone };

  net::Packet packet;        ///< concrete template (witness copy)
  sim::ParseResult parsed;   ///< refreshed at every pipelet entry
  AbsMeta meta;
  At at = At::kPassStart;
  /// The egress port the traffic manager chose for this pass.
  std::uint16_t egress = 0;
  /// Header fields holding an abstract value (overlay-first reads);
  /// concrete writes go through to the template bytes instead.
  std::map<std::string, AbsVal> overlay;
  std::uint32_t pipeline = 0;
  std::uint32_t pass = 0;
  std::uint32_t recircs = 0;
  std::uint32_t resubs = 0;
  std::vector<std::uint32_t> loop_pipelines;
  std::set<std::string> digests;  ///< pass-entry states seen on this trace
  bool register_dependent = false;
  bool widened = false;
};

/// Per-pipelet execution context (fresh at every pipelet entry, like
/// the interpreter's FieldView + hits/branch maps).
struct Ctx {
  std::map<std::string, AbsVal> locals;
  std::map<std::string, bool> hits;
  std::string taken_branch;
  std::map<std::string, bool> branch_checked;
};

struct TraceEnd {
  std::string kind;  ///< "emit" / "punt" / "drop" / "unbounded"
  std::string why;   ///< detail for unbounded traces
  bool unbounded = false;
  std::uint32_t passes = 0;
  std::uint32_t recircs = 0;
  std::uint32_t resubs = 0;
  std::vector<std::uint32_t> loop_pipelines;
  bool register_dependent = false;
};

Tri bool_tri(const AbsVal& v) {
  if (auto c = v.concrete_value()) {
    return *c != 0 ? Tri::kAlways : Tri::kNever;
  }
  if (!v.admits(0)) return Tri::kAlways;
  return Tri::kMaybe;
}

sim::TmFlags tm_flags(const AbsMeta& m) {
  return {bool_tri(m.to_cpu), bool_tri(m.drop), bool_tri(m.resubmit),
          bool_tri(m.mirror)};
}

/// egress_spec as the traffic manager reads it: nullopt when undecided.
std::optional<std::uint16_t> egress_of(const AbsMeta& m) {
  if (auto port = m.egress_spec.concrete_value()) {
    return static_cast<std::uint16_t>(*port);
  }
  return std::nullopt;
}

/// Lower an (abstractly written) value to flag semantics (v != 0).
AbsVal flag_from(const AbsVal& v) {
  Tri t = bool_tri(v);
  AbsVal f = t == Tri::kMaybe
                 ? AbsVal::top(1)
                 : AbsVal::concrete(t == Tri::kAlways ? 1 : 0, 1);
  f.tainted = v.tainted;
  return f;
}

/// The whole-deployment abstract interpreter: runs run_pipelet /
/// execute_action semantics over one class's abstract state and asks
/// sim::disposition between pipelets, forking at every undecided
/// branch and widening to a fixpoint over the recirculation/resubmit
/// graph.
class Walker {
 public:
  Walker(sim::DataPlane& dp, const CostOptions& opts, std::uint32_t epoch)
      : dp_(dp), prog_(dp.program()), opts_(opts), epoch_(epoch) {}

  // Passes are driven from an explicit stack, not by recursion (a
  // 64-pass loop would nest every pipelet walk on the call stack). A
  // pipelet walk or a fork pushes its states in reverse, so traces end
  // in the same depth-first order as a recursive walk.
  void walk(AbsState s) {
    spawned_ = 1;
    pending_.push_back(std::move(s));
    while (!pending_.empty() && !capped) {
      AbsState next = std::move(pending_.back());
      pending_.pop_back();
      advance(std::move(next));
    }
  }

  std::vector<TraceEnd> ends;
  std::size_t forks = 0;
  std::size_t widenings = 0;
  bool capped = false;
  /// An abstract value escaped the tracked state (e.g. an abstract
  /// write to a concrete-only metadata field); bounds stay sound but
  /// the class is not deterministic and DV-C4 coverage is void.
  bool approx = false;
  /// Exact entries consulted on a hit, as (control, joined-key) — the
  /// DV-C4 reachability evidence.
  std::set<std::pair<std::string, std::string>> entry_hits;
  /// Service path IDs whose branching entries this class consulted.
  std::set<std::uint16_t> path_ids;

 private:
  using Cont = std::function<void(AbsState)>;

  bool spawn() {
    if (++spawned_ > opts_.max_forks) {
      capped = true;
      return false;
    }
    return true;
  }

  std::string digest(const AbsState& s) const {
    std::uint64_t h = 1469598103934665603ull;
    h = fnv1a(h, &s.pipeline, sizeof(s.pipeline));
    h = fnv1a(h, &s.meta.plain.ingress_port,
              sizeof(s.meta.plain.ingress_port));
    auto bytes = s.packet.data().view();
    h = fnv1a(h, bytes.data(), bytes.size());
    std::string ov;
    for (const auto& [field, v] : s.overlay) {
      ov += field + "=" + v.digest() + ";";
    }
    h = fnv1a_str(h, ov);
    return std::to_string(h);
  }

  /// End the trace as `kind`; `why` explains an "unbounded" end.
  void finish(AbsState s, const char* kind, std::string why = {}) {
    TraceEnd e;
    e.kind = kind;
    e.why = std::move(why);
    e.unbounded = e.kind == "unbounded";
    e.passes = s.pass + 1;
    e.recircs = s.recircs;
    e.resubs = s.resubs;
    e.loop_pipelines = std::move(s.loop_pipelines);
    e.register_dependent = s.register_dependent;
    ends.push_back(std::move(e));
  }

  // --- field access --------------------------------------------------

  std::optional<AbsVal> aread(AbsState& s, Ctx& ctx, const std::string& dotted,
                              bool decision) {
    auto ref = p4ir::FieldRef::parse(dotted);
    if (!ref) return std::nullopt;
    std::optional<AbsVal> out;
    if (ref->header == "standard_metadata") {
      const sim::MetaField f = sim::meta_field(ref->field);
      if (f == sim::MetaField::kEgressSpec) {
        out = s.meta.egress_spec;
      } else if (AbsVal* flag = s.meta.flag(f)) {
        out = *flag;
      } else if (auto v = sim::read_meta(s.meta.plain, f)) {
        const bool wide = f == sim::MetaField::kPacketLength ||
                          f == sim::MetaField::kEpoch;
        out = AbsVal::concrete(*v, wide ? 32 : 16);
      }
    } else if (ref->header == "local") {
      auto it = ctx.locals.find(ref->field);
      if (it != ctx.locals.end()) out = it->second;
    } else {
      if (!s.parsed.has(ref->header)) return std::nullopt;
      auto it = s.overlay.find(dotted);
      if (it != s.overlay.end()) {
        out = it->second;
      } else if (auto loc = sim::locate_field(
                     prog_, *ref, *s.parsed.offset_of(ref->header),
                     s.packet.size())) {
        out = AbsVal::concrete(
            sim::read_bits(s.packet.data().view(), loc->abs_bit, loc->bits),
            loc->bits);
      }
    }
    if (out && decision && out->tainted) s.register_dependent = true;
    return out;
  }

  /// Store a *refined* abstract value back to its slot (a fork's meet
  /// result, not an action write).
  void aset(AbsState& s, Ctx& ctx, const std::string& dotted,
            const AbsVal& v) {
    auto ref = p4ir::FieldRef::parse(dotted);
    if (!ref) return;
    if (ref->header == "standard_metadata") {
      const sim::MetaField f = sim::meta_field(ref->field);
      if (f == sim::MetaField::kEgressSpec) {
        s.meta.egress_spec = v;
      } else if (AbsVal* flag = s.meta.flag(f)) {
        *flag = flag_from(v);
      }
      // Concrete-only metadata (ports, length) can't absorb a
      // refinement; dropping it merely over-approximates.
      return;
    }
    if (ref->header == "local") {
      ctx.locals[ref->field] = v;
      return;
    }
    s.overlay[dotted] = v;
  }

  /// Action write: mirror of sim::FieldView::write semantics.
  void awrite(AbsState& s, Ctx& ctx, const std::string& dotted, AbsVal v) {
    auto ref = p4ir::FieldRef::parse(dotted);
    if (!ref) return;
    if (ref->header == "standard_metadata") {
      const sim::MetaField f = sim::meta_field(ref->field);
      if (f == sim::MetaField::kEgressSpec) {
        v.resize(9);
        s.meta.egress_spec = v;
      } else if (AbsVal* flag = s.meta.flag(f)) {
        *flag = flag_from(v);
      } else if (auto c = v.concrete_value()) {
        sim::write_meta(s.meta.plain, f, *c);
      } else if (f != sim::MetaField::kEpoch &&
                 f != sim::MetaField::kUnknown) {
        approx = true;  // an abstract port or length: bounds stay sound
      }
      // epoch and unknown fields are not writable: no-op, like FieldView.
      return;
    }
    if (ref->header == "local") {
      ctx.locals[ref->field] = std::move(v);
      return;
    }
    if (!s.parsed.has(ref->header)) return;  // absent header: no-op
    auto loc = sim::locate_field(prog_, *ref, *s.parsed.offset_of(ref->header),
                                 s.packet.size());
    if (!loc) return;
    v.resize(loc->bits);
    if (auto c = v.concrete_value()) {
      sim::write_bits(s.packet.data().mutable_view(), loc->abs_bit, loc->bits,
                      sim::mask_to_width(*c, loc->bits));
      s.overlay.erase(dotted);
    } else {
      s.overlay[dotted] = std::move(v);
    }
  }

  void drop_sfc_overlay(AbsState& s) {
    for (auto it = s.overlay.begin(); it != s.overlay.end();) {
      if (it->first.rfind("sfc.", 0) == 0) {
        it = s.overlay.erase(it);
      } else {
        ++it;
      }
    }
  }

  // --- pass loop ------------------------------------------------------

  /// Apply the traffic manager at the trace's pipelet boundary, then
  /// queue what follows: decided forks, the next pipelet's completed
  /// states, or nothing when the trace ended.
  void advance(AbsState s) {
    if (s.at != AbsState::At::kPassStart) {
      const sim::TmFlags flags = tm_flags(s.meta);
      const sim::Step st =
          s.at == AbsState::At::kIngressDone
              ? sim::after_ingress(dp_, flags, egress_of(s.meta))
              : sim::after_egress(dp_, flags, s.egress);
      switch (st.kind) {
        case sim::Step::Kind::kNeed:
          fork(std::move(s), st.need);
          return;
        case sim::Step::Kind::kPunt:
          finish(std::move(s), "punt");
          return;
        case sim::Step::Kind::kDrop:
          finish(std::move(s), "drop");
          return;
        case sim::Step::Kind::kEmit:
          finish(std::move(s), "emit");
          return;
        case sim::Step::Kind::kEgress:
          // Mirror copies change emissions, never passes — not
          // cost-relevant.
          s.meta.plain.egress_port = st.port;
          s.egress = st.port;
          s.at = AbsState::At::kEgressDone;
          enter(std::move(s), {st.pipeline, asic::PipeKind::kEgress});
          return;
        case sim::Step::Kind::kResubmit:
          ++s.resubs;
          break;
        case sim::Step::Kind::kRecirculate:
          ++s.recircs;
          s.loop_pipelines.push_back(st.pipeline);
          s.pipeline = st.pipeline;
          s.meta.plain.ingress_port = st.port;
          break;
      }
      ++s.pass;
    }
    start_pass(std::move(s));
  }

  void start_pass(AbsState s) {
    if (s.pass >= dp_.max_passes() + opts_.pass_budget_slack) {
      finish(std::move(s), "unbounded",
             "pass budget (cap + slack) exhausted without termination");
      return;
    }
    if (s.pass >= dp_.max_passes() && !s.widened) {
      // Widening: the trace outlived the configured cap; forget the
      // unstable abstract values so the state digest can converge and
      // loop detection becomes decidable.
      s.widened = true;
      if (!s.overlay.empty()) {
        for (auto& [field, v] : s.overlay) v.widen_to_top();
        ++widenings;
      }
    }
    if (!s.digests.insert(digest(s)).second) {
      finish(std::move(s), "unbounded",
             "recirculation revisits an abstract state with no progress");
      return;
    }
    s.meta.start_pass();
    s.at = AbsState::At::kIngressDone;
    const std::uint32_t pipeline = s.pipeline;
    enter(std::move(s), {pipeline, asic::PipeKind::kIngress});
  }

  /// Walk one pipelet and queue the states it completes.
  void enter(AbsState s, const asic::PipeletId& id) {
    const std::size_t base = pending_.size();
    run_pipelet(std::move(s), id, [this](AbsState ps) {
      pending_.push_back(std::move(ps));
    });
    std::reverse(pending_.begin() + static_cast<std::ptrdiff_t>(base),
                 pending_.end());
  }

  /// Decide the undecided disposition input `need` and queue one state
  /// per admitted value, in value order.
  void fork(AbsState s, sim::TmInput need) {
    const std::size_t base = pending_.size();
    if (need == sim::TmInput::kEgressSpec) {
      if (s.meta.egress_spec.tainted) s.register_dependent = true;
      // Enumerate the admitted 9-bit port values (the traffic
      // manager's whole decision space) and fork per value.
      std::vector<std::uint16_t> cands;
      for (std::uint32_t p = 0; p < 512; ++p) {
        if (s.meta.egress_spec.admits(p)) {
          cands.push_back(static_cast<std::uint16_t>(p));
        }
      }
      if (cands.empty()) return;  // provably empty fork
      forks += cands.size() - 1;
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const bool last = i + 1 == cands.size();
        if (!last && !spawn()) continue;
        AbsState c = last ? std::move(s) : s;
        c.meta.egress_spec = AbsVal::concrete(cands[i], 9);
        pending_.push_back(std::move(c));
      }
    } else {
      AbsVal AbsMeta::* flag = need == sim::TmInput::kToCpu ? &AbsMeta::to_cpu
                               : need == sim::TmInput::kDrop
                                   ? &AbsMeta::drop
                                   : &AbsMeta::resubmit;
      if ((s.meta.*flag).tainted) s.register_dependent = true;
      ++forks;
      AbsState on = s;
      on.meta.*flag = AbsVal::concrete(1, 1);
      if (spawn()) pending_.push_back(std::move(on));
      s.meta.*flag = AbsVal::concrete(0, 1);
      if (spawn()) pending_.push_back(std::move(s));
    }
    std::reverse(pending_.begin() + static_cast<std::ptrdiff_t>(base),
                 pending_.end());
  }

  // --- pipelet execution (DataPlane::run_pipelet semantics) -----------

  void run_pipelet(AbsState s, const asic::PipeletId& id, Cont k) {
    const p4ir::ControlBlock* control =
        prog_.find_control(merge::pipelet_control_name(id));
    if (control == nullptr) {
      k(std::move(s));  // no program: pass-through
      return;
    }
    s.parsed = sim::run_parser(prog_, dp_.ids(), s.packet);
    const std::uint32_t ci =
        id.pipeline * 2 + (id.kind == asic::PipeKind::kEgress ? 1 : 0);
    apply_from(std::move(s), Ctx{}, *control, ci, 0, std::move(k));
  }

  void apply_from(AbsState s, Ctx ctx, const p4ir::ControlBlock& control,
                  std::uint32_t ci, std::size_t idx, Cont k) {
    if (capped) return;
    if (idx >= control.apply_order().size()) {
      k(std::move(s));
      return;
    }
    const p4ir::ApplyEntry& entry = control.apply_order()[idx];
    auto skip = [&](AbsState ss, Ctx cc) {
      apply_from(std::move(ss), std::move(cc), control, ci, idx + 1,
                 std::move(k));
    };
    if (!entry.branch_id.empty()) {
      if (!ctx.taken_branch.empty() && entry.branch_id != ctx.taken_branch) {
        skip(std::move(s), std::move(ctx));
        return;
      }
      if (ctx.taken_branch.empty() && ctx.branch_checked[entry.branch_id]) {
        skip(std::move(s), std::move(ctx));
        return;
      }
    }
    // Table guards are decided (hit results are concrete per fork);
    // when they fail the entry is skipped no matter what the field
    // guard reads, so evaluate them first.
    bool tables_ok = true;
    for (const std::string& guard : entry.guard_tables) {
      auto it = ctx.hits.find(guard);
      const bool hit = it != ctx.hits.end() && it->second;
      const bool want_hit = entry.mode != p4ir::GuardMode::kIfMiss;
      if (hit != want_hit) {
        tables_ok = false;
        break;
      }
    }
    auto guard_failed = [&](AbsState ss, Ctx cc) {
      if (!entry.branch_id.empty() && cc.taken_branch.empty()) {
        cc.branch_checked[entry.branch_id] = true;
      }
      apply_from(std::move(ss), std::move(cc), control, ci, idx + 1,
                 std::move(k));
    };
    if (!tables_ok) {
      guard_failed(std::move(s), std::move(ctx));
      return;
    }
    if (entry.field_guard) {
      const p4ir::FieldGuard& fg = *entry.field_guard;
      auto av = aread(s, ctx, fg.field, /*decision=*/true);
      const Tri t = av ? guard_tri(*av, fg) : Tri::kNever;
      if (t == Tri::kMaybe) {
        ++forks;
        AbsState on = s;
        Ctx on_ctx = ctx;
        if (refine_guard(on, on_ctx, fg, *av, true) && spawn()) {
          run_entry(std::move(on), std::move(on_ctx), control, ci, idx, k);
        }
        if (refine_guard(s, ctx, fg, *av, false) && spawn()) {
          guard_failed(std::move(s), std::move(ctx));
        }
        return;
      }
      if (t == Tri::kNever) {
        guard_failed(std::move(s), std::move(ctx));
        return;
      }
    }
    run_entry(std::move(s), std::move(ctx), control, ci, idx, std::move(k));
  }

  static Tri guard_tri(const AbsVal& v, const p4ir::FieldGuard& fg) {
    switch (fg.effective_cmp()) {
      case p4ir::GuardCmp::kEq:
        return v.eq_tri(fg.value);
      case p4ir::GuardCmp::kNe:
        return tri_not(v.eq_tri(fg.value));
      case p4ir::GuardCmp::kGt:
        return v.gt_tri(fg.value);
      case p4ir::GuardCmp::kLt:
        return v.lt_tri(fg.value);
    }
    return Tri::kMaybe;
  }

  bool refine_guard(AbsState& s, Ctx& ctx, const p4ir::FieldGuard& fg,
                    AbsVal v, bool want) {
    bool ok = true;
    switch (fg.effective_cmp()) {
      case p4ir::GuardCmp::kEq:
        ok = want ? v.meet_eq(fg.value) : v.refine_ne(fg.value);
        break;
      case p4ir::GuardCmp::kNe:
        ok = want ? v.refine_ne(fg.value) : v.meet_eq(fg.value);
        break;
      case p4ir::GuardCmp::kGt:
        ok = want ? v.refine_gt(fg.value) : v.refine_le(fg.value);
        break;
      case p4ir::GuardCmp::kLt:
        ok = want ? v.refine_lt(fg.value) : v.refine_ge(fg.value);
        break;
    }
    if (!ok) return false;
    aset(s, ctx, fg.field, v);
    return true;
  }

  // --- table lookups (installed entries scanned directly; the
  // RuntimeTable's own lookup() would mutate hit/miss counters) -------

  void run_entry(AbsState s, Ctx ctx, const p4ir::ControlBlock& control,
                 std::uint32_t ci, std::size_t idx, Cont k) {
    if (capped) return;
    const p4ir::ApplyEntry& entry = control.apply_order()[idx];
    const p4ir::Table* table = control.find_table(entry.table);
    sim::RuntimeTable* rt = dp_.table_in(control.name(), entry.table);
    if (table == nullptr || rt == nullptr) {
      apply_from(std::move(s), std::move(ctx), control, ci, idx + 1,
                 std::move(k));
      return;
    }
    const sim::ActionCall miss_action{table->default_action, {}};

    if (table->keyless()) {
      finish_lookup(std::move(s), std::move(ctx), control, ci, idx, true,
                    miss_action, std::move(k));
      return;
    }

    // Read the key components (decision reads).
    std::vector<std::optional<AbsVal>> key;
    key.reserve(table->keys.size());
    bool missing = false;
    for (const p4ir::TableKey& tk : table->keys) {
      auto av = aread(s, ctx, tk.field, /*decision=*/true);
      if (!av) missing = true;
      key.push_back(std::move(av));
    }
    if (missing) {
      // A missing packet field can never match: deterministic miss.
      finish_lookup(std::move(s), std::move(ctx), control, ci, idx, false,
                    miss_action, std::move(k));
      return;
    }

    if (rt->ternary_entries().empty() && !table->needs_tcam()) {
      exact_lookup(std::move(s), std::move(ctx), control, ci, idx, *table,
                   *rt, key, miss_action, std::move(k));
    } else {
      ternary_lookup(std::move(s), std::move(ctx), control, ci, idx, *table,
                     *rt, key, miss_action, std::move(k));
    }
  }

  void exact_lookup(AbsState s, Ctx ctx, const p4ir::ControlBlock& control,
                    std::uint32_t ci, std::size_t idx,
                    const p4ir::Table& table, sim::RuntimeTable& rt,
                    const std::vector<std::optional<AbsVal>>& key,
                    const sim::ActionCall& miss_action, Cont k) {
    const std::vector<sim::RuntimeTable::ExactEntry> entries =
        rt.exact_entries();

    struct Candidate {
      const sim::RuntimeTable::ExactEntry* entry;
      bool certain;  // every key component is forced to this entry
    };
    std::vector<Candidate> cands;
    for (const auto& e : entries) {
      if (!e.window.contains(epoch_)) continue;
      bool compatible = true;
      bool certain = true;
      for (std::size_t i = 0; i < key.size(); ++i) {
        const Tri t = key[i]->match_tri(e.key[i], key[i]->width_mask());
        if (t == Tri::kNever) {
          compatible = false;
          break;
        }
        if (t != Tri::kAlways) certain = false;
      }
      if (compatible) cands.push_back({&e, certain});
    }

    for (const Candidate& c : cands) {
      if (!c.certain) continue;
      // Deterministic hit: the abstract key is forced onto this entry
      // (exact keys are unique per epoch, so no other entry competes).
      note_entry_hit(control, table, *c.entry);
      finish_lookup(std::move(s), std::move(ctx), control, ci, idx, true,
                    c.entry->action, std::move(k));
      return;
    }

    if (cands.empty()) {
      finish_lookup(std::move(s), std::move(ctx), control, ci, idx, false,
                    miss_action, std::move(k));
      return;
    }

    // Undecided: fork one hit branch per compatible entry plus a miss
    // branch that excludes them all (the explorer's fork discipline).
    forks += cands.size();
    for (const Candidate& c : cands) {
      AbsState hs = s;
      Ctx hc = ctx;
      bool ok = true;
      for (std::size_t i = 0; i < key.size() && ok; ++i) {
        AbsVal v = *key[i];
        ok = v.meet_eq(c.entry->key[i]);
        if (ok) aset(hs, hc, table.keys[i].field, v);
      }
      if (ok && spawn()) {
        note_entry_hit(control, table, *c.entry);
        finish_lookup(std::move(hs), std::move(hc), control, ci, idx, true,
                      c.entry->action, k);
      }
    }
    bool miss_ok = true;
    for (const Candidate& c : cands) {
      std::size_t i = 0;
      while (i < key.size() && key[i]->is_concrete()) ++i;
      if (i == key.size()) continue;  // fully forced: handled above
      AbsVal v = *key[i];
      // Re-read the possibly already-refined slot so successive
      // exclusions compose.
      if (auto cur = aread(s, ctx, table.keys[i].field, false)) v = *cur;
      if (!v.refine_ne(c.entry->key[i])) {
        miss_ok = false;
        break;
      }
      aset(s, ctx, table.keys[i].field, v);
    }
    if (miss_ok && spawn()) {
      finish_lookup(std::move(s), std::move(ctx), control, ci, idx, false,
                    miss_action, std::move(k));
    }
  }

  void ternary_lookup(AbsState s, Ctx ctx, const p4ir::ControlBlock& control,
                      std::uint32_t ci, std::size_t idx,
                      const p4ir::Table& table, sim::RuntimeTable& rt,
                      const std::vector<std::optional<AbsVal>>& key,
                      const sim::ActionCall& miss_action, Cont k) {
    // Walk entries in match-priority order carrying the running
    // "missed everything so far" state; each kMaybe entry forks a hit
    // and refines the miss state with the entry's exclusion.
    AbsState miss_s = std::move(s);
    Ctx miss_c = std::move(ctx);
    std::vector<AbsVal> miss_key;
    for (const auto& kv : key) miss_key.push_back(*kv);
    bool miss_alive = true;

    for (const auto& e : rt.ternary_entries()) {
      if (!rt.ternary_window(e.handle).contains(epoch_)) continue;
      Tri agg = Tri::kAlways;
      for (std::size_t i = 0; i < miss_key.size(); ++i) {
        const Tri t = miss_key[i].match_tri(e.key[i].value, e.key[i].mask);
        if (t == Tri::kNever) {
          agg = Tri::kNever;
          break;
        }
        if (t == Tri::kMaybe) agg = Tri::kMaybe;
      }
      if (agg == Tri::kNever) continue;

      if (agg == Tri::kAlways) {
        // Every packet reaching this entry hits it: terminal.
        if (!miss_alive) return;
        for (std::size_t i = 0; i < miss_key.size(); ++i) {
          aset(miss_s, miss_c, table.keys[i].field, miss_key[i]);
        }
        finish_lookup(std::move(miss_s), std::move(miss_c), control, ci, idx,
                      true, e.value, std::move(k));
        return;
      }

      // kMaybe: fork the hit...
      ++forks;
      AbsState hs = miss_s;
      Ctx hc = miss_c;
      bool hit_ok = true;
      for (std::size_t i = 0; i < miss_key.size() && hit_ok; ++i) {
        AbsVal v = miss_key[i];
        hit_ok = v.meet_masked(e.key[i].value, e.key[i].mask);
        if (hit_ok) aset(hs, hc, table.keys[i].field, v);
      }
      if (hit_ok && spawn()) {
        finish_lookup(std::move(hs), std::move(hc), control, ci, idx, true,
                      e.value, k);
      }
      // ...and refine the miss state: exclude this entry via its first
      // undecided component.
      bool refined = false;
      for (std::size_t i = 0; i < miss_key.size(); ++i) {
        if (miss_key[i].match_tri(e.key[i].value, e.key[i].mask) !=
            Tri::kMaybe) {
          continue;
        }
        if (!miss_key[i].forbid(e.key[i].value, e.key[i].mask)) {
          miss_alive = false;
        }
        refined = true;
        break;
      }
      if (!refined) miss_alive = false;
      if (!miss_alive) return;
    }

    if (!miss_alive) return;
    for (std::size_t i = 0; i < miss_key.size(); ++i) {
      aset(miss_s, miss_c, table.keys[i].field, miss_key[i]);
    }
    if (spawn()) {
      finish_lookup(std::move(miss_s), std::move(miss_c), control, ci, idx,
                    false, miss_action, std::move(k));
    }
  }

  void note_entry_hit(const p4ir::ControlBlock& control,
                      const p4ir::Table& table,
                      const sim::RuntimeTable::ExactEntry& e) {
    if (table.name != merge::kBranchingTable) return;
    std::string key;
    for (std::uint64_t v : e.key) {
      if (!key.empty()) key += ",";
      key += std::to_string(v);
    }
    entry_hits.emplace(control.name(), key);
    if (!e.key.empty()) {
      path_ids.insert(static_cast<std::uint16_t>(e.key[0]));
    }
  }

  void finish_lookup(AbsState s, Ctx ctx, const p4ir::ControlBlock& control,
                     std::uint32_t ci, std::size_t idx, bool hit,
                     const sim::ActionCall& call, Cont k) {
    const p4ir::ApplyEntry& entry = control.apply_order()[idx];
    ctx.hits[entry.table] = hit;
    if (!entry.branch_id.empty() && ctx.taken_branch.empty()) {
      ctx.branch_checked[entry.branch_id] = true;
      if (hit) ctx.taken_branch = entry.branch_id;
    }
    if (!call.action.empty()) exec_action(s, ctx, control, call);
    apply_from(std::move(s), std::move(ctx), control, ci, idx + 1,
               std::move(k));
  }

  // --- actions (DataPlane::execute_action semantics) -------------------

  void exec_action(AbsState& s, Ctx& ctx, const p4ir::ControlBlock& control,
                   const sim::ActionCall& call) {
    const p4ir::Action* action = control.find_action(call.action);
    if (action == nullptr) return;
    auto arg = [&](const std::string& param) -> std::uint64_t {
      auto it = call.args.find(param);
      return it == call.args.end() ? 0 : it->second;
    };
    for (const p4ir::Primitive& p : action->primitives) {
      switch (p.op) {
        case p4ir::PrimitiveOp::kNoop:
          break;
        case p4ir::PrimitiveOp::kSetImmediate:
          awrite(s, ctx, p.dst, AbsVal::concrete(p.imm, 64));
          break;
        case p4ir::PrimitiveOp::kSetFromParam:
          awrite(s, ctx, p.dst, AbsVal::concrete(arg(p.param), 64));
          break;
        case p4ir::PrimitiveOp::kCopy: {
          auto v = aread(s, ctx, p.src, false);
          if (v) awrite(s, ctx, p.dst, *v);
          break;
        }
        case p4ir::PrimitiveOp::kAdd: {
          auto v = aread(s, ctx, p.dst, false);
          if (v) {
            v->add_wrapped(p.imm);
            awrite(s, ctx, p.dst, *v);
          }
          break;
        }
        case p4ir::PrimitiveOp::kHash: {
          bool all_concrete = true;
          bool taint = false;
          net::Crc32 crc;
          for (const std::string& src : p.srcs) {
            auto v = aread(s, ctx, src, false);
            const std::uint64_t cv =
                v ? v->concrete_value().value_or(0) : 0;
            if (v && !v->concrete_value()) all_concrete = false;
            if (v && v->tainted) taint = true;
            const std::uint16_t bits = prog_.field_bits(src).value_or(32);
            const std::size_t bytes = (bits + 7) / 8;
            for (std::size_t i = 0; i < bytes; ++i) {
              crc.add_u8(static_cast<std::uint8_t>(
                  (cv >> (8 * (bytes - 1 - i))) & 0xff));
            }
          }
          if (all_concrete) {
            AbsVal out = AbsVal::concrete(crc.finish(), 32);
            out.tainted = taint;
            awrite(s, ctx, p.dst, out);
          } else {
            AbsVal out = AbsVal::top(32);
            out.tainted = taint;
            awrite(s, ctx, p.dst, out);
          }
          break;
        }
        case p4ir::PrimitiveOp::kPushSfc: {
          sfc::push_sfc(s.packet, sfc::SfcHeader{});
          drop_sfc_overlay(s);
          s.parsed = sim::run_parser(prog_, dp_.ids(), s.packet);
          break;
        }
        case p4ir::PrimitiveOp::kPopSfc:
          if (s.parsed.has("sfc")) {
            sfc::pop_sfc(s.packet);
            drop_sfc_overlay(s);
            s.parsed = sim::run_parser(prog_, dp_.ids(), s.packet);
          }
          break;
        case p4ir::PrimitiveOp::kDrop:
          s.meta.drop = AbsVal::concrete(1, 1);
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
          // Register cells are mutable cross-packet state: the walker
          // tracks none of it. Reads produce tainted Top; writes only
          // change later packets, never this walk.
          const p4ir::RegisterDef* def = control.find_register(p.param);
          if (def == nullptr || def->size == 0) break;
          const std::uint16_t bits =
              def->width_bits >= 64 ? 64 : def->width_bits;
          if (p.op == p4ir::PrimitiveOp::kRegisterRead) {
            AbsVal out = AbsVal::top(bits);
            out.tainted = true;
            awrite(s, ctx, p.dst, out);
          } else if (p.op == p4ir::PrimitiveOp::kRegisterAdd) {
            if (!p.dst.empty()) {
              AbsVal out = AbsVal::top(bits);
              out.tainted = true;
              awrite(s, ctx, p.dst, out);
            }
          }
          break;
        }
      }
    }
  }

  sim::DataPlane& dp_;
  const p4ir::Program& prog_;
  const CostOptions& opts_;
  std::uint32_t epoch_;
  std::size_t spawned_ = 0;
  /// Traces waiting at a pipelet boundary; the back runs next.
  std::vector<AbsState> pending_;
};

std::string join_kinds(const std::vector<TraceEnd>& ends) {
  std::set<std::string> kinds;
  for (const TraceEnd& e : ends) kinds.insert(e.kind);
  std::string out;
  for (const std::string& kind : kinds) {
    if (!out.empty()) out += "|";
    out += kind;
  }
  return out.empty() ? "none" : out;
}

}  // namespace

CostResult run(sim::DataPlane& dp, const sfc::PolicySet& policies,
               const explore::ExploreResult& exploration,
               const CostOptions& options) {
  CostResult result;
  result.configured_pass_cap = dp.max_passes();
  const std::uint32_t epoch = options.epoch.value_or(dp.epoch());

  std::set<std::pair<std::string, std::string>> branch_hits;
  bool coverage_complete = exploration.stats.truncated == 0;
  std::map<std::string, std::size_t> shape_counter;

  for (const explore::PathSummary& path : exploration.paths) {
    const std::size_t index = shape_counter[path.shape]++;
    ClassCost cc;
    cc.class_id = path.shape + "#" + std::to_string(index);
    cc.shape = path.shape;
    cc.in_port = path.in_port;
    ++result.stats.classes;

    // Classes refused at the port never enter the pass loop.
    if (sim::admit_ingress(dp, path.in_port, /*from_cpu=*/false) !=
        sim::DropCode::kNone) {
      cc.outcome = "drop";
      cc.pass_bound = 0;
      result.classes.push_back(std::move(cc));
      continue;
    }

    AbsState s;
    s.packet = path.witness;
    s.meta.plain.ingress_port = path.in_port;
    s.meta.plain.packet_length = static_cast<std::uint32_t>(s.packet.size());
    s.meta.plain.epoch = epoch;
    s.pipeline = dp.pipeline_of(path.in_port);
    for (const explore::PathSummary::VarSlice& slice : path.constraints) {
      AbsVal v;
      v.bits = slice.def.bits;
      v.known_mask = slice.cons.known_mask;
      v.known_value = slice.cons.known_value;
      v.lo = slice.cons.lo;
      v.hi = slice.cons.hi;
      v.forbidden = slice.cons.forbidden;
      s.overlay.emplace(slice.def.field, std::move(v));
    }

    Walker w(dp, options, epoch);
    w.walk(std::move(s));

    result.stats.forks += w.forks;
    result.stats.widenings += w.widenings;
    result.stats.traces += w.ends.size();
    branch_hits.insert(w.entry_hits.begin(), w.entry_hits.end());
    if (w.capped || w.approx) coverage_complete = false;

    cc.fork_capped = w.capped;
    cc.traces = static_cast<std::uint32_t>(w.ends.size());
    cc.path_ids.assign(w.path_ids.begin(), w.path_ids.end());
    std::string unbounded_why;
    const TraceEnd* worst = nullptr;
    for (const TraceEnd& e : w.ends) {
      cc.register_dependent = cc.register_dependent || e.register_dependent;
      if (e.unbounded) {
        cc.bounded = false;
        if (unbounded_why.empty()) unbounded_why = e.why;
        continue;
      }
      cc.pass_bound = std::max(cc.pass_bound, e.passes);
      cc.recirc_bound = std::max(cc.recirc_bound, e.recircs);
      cc.resubmit_bound = std::max(cc.resubmit_bound, e.resubs);
      if (worst == nullptr || e.recircs > worst->recircs) worst = &e;
    }
    if (worst != nullptr) cc.loop_pipelines = worst->loop_pipelines;
    if (w.capped) {
      cc.bounded = false;
      if (unbounded_why.empty()) {
        unbounded_why = "abstract-trace budget of " +
                        std::to_string(options.max_forks) +
                        " forks exhausted";
      }
    }
    cc.outcome = cc.bounded ? join_kinds(w.ends) : "unbounded";
    cc.deterministic = cc.bounded && !w.approx && w.forks == 0 &&
                       w.ends.size() == 1;

    if (!cc.bounded) {
      ++result.stats.unbounded;
      result.report.add("DV-C1", cc.class_id,
                        "no finite pass bound under abstraction: " +
                            unbounded_why + "; witness " + path.to_string());
    } else if (cc.pass_bound > dp.max_passes()) {
      result.report.add(
          "DV-C2", cc.class_id,
          "certified pass bound " + std::to_string(cc.pass_bound) +
              " exceeds the configured cap " +
              std::to_string(dp.max_passes()) +
              " — packets of this class die on the pass-cap guard");
    }

    if (cc.bounded) {
      result.deployment_pass_bound =
          std::max(result.deployment_pass_bound, cc.pass_bound);
    }
    result.classes.push_back(std::move(cc));
  }

  // DV-C4: branching entries no explored class can reach at the
  // installed-rule level. Scoped to *undeclared* service paths: a punt
  // on a declared path re-enters via the slow path and can still reach
  // its downstream entries, so "unhit" only convicts paths no policy
  // owns. Only meaningful when every class's walk ran to completion
  // (fork caps / truncation void the evidence).
  std::set<std::uint16_t> declared_paths;
  for (const sfc::ChainPolicy& policy : policies.policies()) {
    declared_paths.insert(policy.path_id);
  }
  if (coverage_complete) {
    for (const p4ir::ControlBlock& control : dp.program().controls()) {
      sim::RuntimeTable* rt =
          dp.table_in(control.name(), merge::kBranchingTable);
      if (rt == nullptr) continue;
      for (const auto& e : rt->exact_entries()) {
        if (!e.window.contains(epoch)) continue;
        if (!e.key.empty() &&
            declared_paths.contains(
                static_cast<std::uint16_t>(e.key[0]))) {
          continue;
        }
        std::string key;
        for (std::uint64_t v : e.key) {
          if (!key.empty()) key += ",";
          key += std::to_string(v);
        }
        if (branch_hits.contains({control.name(), key})) continue;
        result.report.add(
            "DV-C4", control.name() + "/" + merge::kBranchingTable,
            "branching entry (" + key +
                ") is unreachable by every explored class at the "
                "installed-rule level");
      }
    }
  }

  // Fluid feedback (§4): the statically proven per-path recirculation
  // demands drive the same solver the replay measurements do.
  std::vector<sim::PathDemand> demands;
  const double total_weight = policies.total_weight();
  for (const sfc::ChainPolicy& policy : policies.policies()) {
    sim::PathDemand d;
    d.path_id = policy.path_id;
    d.offered_gbps = total_weight > 0
                         ? options.offered_gbps * policy.weight / total_weight
                         : 0.0;
    const ClassCost* worst = nullptr;
    for (const ClassCost& cc : result.classes) {
      if (!cc.bounded) continue;
      if (std::find(cc.path_ids.begin(), cc.path_ids.end(),
                    policy.path_id) == cc.path_ids.end()) {
        continue;
      }
      if (worst == nullptr || cc.recirc_bound > worst->recirc_bound) {
        worst = &cc;
      }
    }
    if (worst != nullptr) d.loop_pipelines = worst->loop_pipelines;

    // DV-C3: the statically proven cost disagrees with the planned
    // traversal the fluid model is usually fed.
    if (options.routing != nullptr && worst != nullptr) {
      auto it = options.routing->traversals.find(policy.path_id);
      if (it != options.routing->traversals.end()) {
        const place::Traversal& plan = it->second;
        if (worst->recirc_bound > plan.recirculations ||
            worst->resubmit_bound > plan.resubmissions) {
          result.report.add(
              "DV-C3", "path " + std::to_string(policy.path_id),
              "statically proven traversal cost (" +
                  std::to_string(worst->recirc_bound) + " recirc, " +
                  std::to_string(worst->resubmit_bound) +
                  " resubmit) exceeds the routing plan's (" +
                  std::to_string(plan.recirculations) + " recirc, " +
                  std::to_string(plan.resubmissions) +
                  " resubmit) — the fluid model is fed an optimistic "
                  "pass count");
        }
      }
    }
    demands.push_back(std::move(d));
  }
  result.fluid = sim::solve_fluid_throughput(demands, dp.config());

  result.report.sort();
  return result;
}

// --- reports ---------------------------------------------------------

std::string CostResult::to_text(bool per_class) const {
  std::ostringstream os;
  char buf[256];
  std::size_t bounded = 0;
  for (const ClassCost& cc : classes) {
    if (cc.bounded) ++bounded;
  }
  os << "== cost certification ==\n";
  std::snprintf(buf, sizeof(buf),
                "classes analyzed:  %zu (%zu unbounded)\n", stats.classes,
                stats.unbounded);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "deployment bound:  %u passes (configured cap %u)\n",
                deployment_pass_bound, configured_pass_cap);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "abstract traces:   %zu (%zu forks, %zu widenings)\n",
                stats.traces, stats.forks, stats.widenings);
  os << buf;
  if (per_class) {
    os << "\nclass        in  bound recirc resub outcome    flags\n";
    for (const ClassCost& cc : classes) {
      std::string flags;
      if (cc.deterministic) flags += " deterministic";
      if (cc.register_dependent) flags += " register-dependent";
      if (cc.fork_capped) flags += " fork-capped";
      if (flags.empty()) flags = " -";
      std::snprintf(buf, sizeof(buf), "%-12s %3u %6u %6u %5u %-10s%s\n",
                    cc.class_id.c_str(), cc.in_port, cc.pass_bound,
                    cc.recirc_bound, cc.resubmit_bound, cc.outcome.c_str(),
                    flags.c_str());
      os << buf;
    }
  }
  os << "\nfluid feedback (statically derived demands):\n";
  os << fluid.to_table();
  os << "\nfindings:\n";
  if (report.empty()) {
    os << "  (none)\n";
  } else {
    os << report.to_string();
  }
  return os.str();
}

std::string CostResult::to_json() const {
  std::ostringstream os;
  char buf[128];
  os << "{\n";
  os << "  \"deployment_pass_bound\": " << deployment_pass_bound << ",\n";
  os << "  \"configured_pass_cap\": " << configured_pass_cap << ",\n";
  os << "  \"stats\": {\"classes\": " << stats.classes
     << ", \"unbounded\": " << stats.unbounded
     << ", \"traces\": " << stats.traces << ", \"forks\": " << stats.forks
     << ", \"widenings\": " << stats.widenings << "},\n";
  os << "  \"classes\": [\n";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const ClassCost& cc = classes[i];
    os << "    {\"id\": \"" << cc.class_id << "\", \"in_port\": "
       << cc.in_port << ", \"pass_bound\": " << cc.pass_bound
       << ", \"recirc_bound\": " << cc.recirc_bound
       << ", \"resubmit_bound\": " << cc.resubmit_bound << ", \"outcome\": \""
       << cc.outcome << "\", \"bounded\": "
       << (cc.bounded ? "true" : "false") << ", \"deterministic\": "
       << (cc.deterministic ? "true" : "false")
       << ", \"register_dependent\": "
       << (cc.register_dependent ? "true" : "false") << "}";
    os << (i + 1 < classes.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  std::snprintf(buf, sizeof(buf), "%.3f", fluid.total_offered_gbps);
  os << "  \"fluid\": {\"total_offered_gbps\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.3f", fluid.total_delivered_gbps);
  os << ", \"total_delivered_gbps\": " << buf << "},\n";
  os << "  \"report\": " << report.to_json() << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace dejavu::cost
