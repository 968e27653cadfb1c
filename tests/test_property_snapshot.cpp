// Property: Snapshot::to_text() is a canonical form — independent of
// the order entries were installed in, and stable under
// take/restore/take round-trips. The session layer leans on this hard:
// reconciliation and the chaos drills use to_text() byte-identity as
// their convergence oracle, so any insertion-order leakage would turn
// "diverged" into a false alarm (or worse, mask real divergence).
//
// The second half runs on generated stores of a small program: exact
// tables of arity 1-3, a ternary and an LPM table, open, retired and
// shadow windows, and a register bank with an epoch tag. It checks the
// round trip, restore into changed programs (the reports and refusals
// are pinned to the strings the text-form restore gave), and
// snapshot_diff against a text-keyed reference plus convergence of its
// plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "control/deployment.hpp"
#include "control/replay_target.hpp"
#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "control/transaction.hpp"
#include "merge/compose.hpp"
#include "net/addr.hpp"
#include "nf/parser_lib.hpp"

namespace dejavu::control {
namespace {

/// One installable op, independent of every other (distinct keys), so
/// any permutation is a valid install order.
struct Op {
  enum class Kind { kExact, kTernary, kLpm } kind = Kind::kExact;
  std::vector<std::uint64_t> key;
  std::vector<net::TernaryField> tkey;
  std::int32_t priority = 0;
  std::uint32_t lpm_prefix = 0;
  sim::ActionCall action;
};

std::vector<Op> op_set() {
  std::vector<Op> ops;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    Op op;
    op.kind = Op::Kind::kExact;
    op.key = {0x4200 + k};
    op.action = {"LB.modify_dstIp", {{"dip", 0x0a010200 + k}}};
    ops.push_back(op);
  }
  for (std::int32_t p = 1; p <= 4; ++p) {
    Op op;
    op.kind = Op::Kind::kTernary;
    op.tkey = {{0x0a000000u + static_cast<std::uint64_t>(p), 0xffffffff},
               {0, 0},
               {static_cast<std::uint64_t>(80 + p), 0xffff}};
    op.priority = p;
    op.action = {"Classifier.classify", {{"path_id", 1}, {"tenant", 1}}};
    ops.push_back(op);
  }
  // Two entries sharing one priority: the canonical order must fall
  // back to the key, not the insertion handle.
  for (std::uint64_t k = 0; k < 2; ++k) {
    Op op;
    op.kind = Op::Kind::kTernary;
    op.tkey = {{0x0b000000 + k, 0xffffffff}, {0, 0}, {0, 0}};
    op.priority = 9;
    op.action = {"Classifier.classify", {{"path_id", 2}, {"tenant", 1}}};
    ops.push_back(op);
  }
  for (std::uint64_t k = 0; k < 3; ++k) {
    Op op;
    op.kind = Op::Kind::kLpm;
    op.key = {net::Ipv4Addr(10, static_cast<std::uint8_t>(50 + k), 0, 0)
                  .value()};
    op.lpm_prefix = 16;
    op.action = {"Router.route", {{"port", 1}, {"dmac", 0x60 + k}}};
    ops.push_back(op);
  }
  return ops;
}

void install_ops(sim::DataPlane& dp, const std::vector<Op>& ops) {
  Transaction txn(dp);
  for (const Op& op : ops) {
    RuleOp rule;
    rule.action = op.action;
    switch (op.kind) {
      case Op::Kind::kExact:
        rule.table = "LB.lb_session";
        rule.key = op.key;
        break;
      case Op::Kind::kTernary:
        rule.kind = RuleOp::Kind::kTernary;
        rule.table = "Classifier.traffic_class";
        rule.tkey = op.tkey;
        rule.priority = op.priority;
        break;
      case Op::Kind::kLpm:
        // An LPM entry is the ternary entry its prefix expands to.
        rule.kind = RuleOp::Kind::kTernary;
        rule.table = "Router.ipv4_lpm";
        rule.tkey = dp.tables_named(rule.table)[0]->lpm_key(
            op.key[0], static_cast<std::uint8_t>(op.lpm_prefix));
        rule.priority = static_cast<std::int32_t>(op.lpm_prefix);
        break;
    }
    txn.add(std::move(rule));
  }
  ASSERT_TRUE(txn.commit().committed);
}

/// A scratch switch with the fixture's boot-time state.
sim::DataPlane scratch_of(Deployment& dep) {
  sim::DataPlane dp(dep.program(), dep.ids(), dep.dataplane().config());
  restore_snapshot(take_snapshot(dep.dataplane()), dp);
  return dp;
}

TEST(SnapshotProperty, TextIsInsertionOrderIndependent) {
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;

  std::vector<Op> ops = op_set();
  sim::DataPlane baseline = scratch_of(dep);
  install_ops(baseline, ops);
  const std::string canonical = take_snapshot(baseline).to_text();

  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::vector<Op> shuffled = ops;
    std::mt19937 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    sim::DataPlane dp = scratch_of(dep);
    install_ops(dp, shuffled);
    EXPECT_EQ(take_snapshot(dp).to_text(), canonical) << "seed " << seed;
  }
}

TEST(SnapshotProperty, SplitBatchesDoNotChangeTheText) {
  // The same ops through one transaction or many (a permuted prefix /
  // suffix split per seed) — the text only depends on the final state.
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;

  std::vector<Op> ops = op_set();
  sim::DataPlane baseline = scratch_of(dep);
  install_ops(baseline, ops);
  const std::string canonical = take_snapshot(baseline).to_text();

  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    std::vector<Op> shuffled = ops;
    std::mt19937 rng(0x5eed + seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const std::size_t cut = 1 + seed % (shuffled.size() - 1);
    sim::DataPlane dp = scratch_of(dep);
    install_ops(dp, std::vector<Op>(shuffled.begin(), shuffled.begin() + cut));
    install_ops(dp, std::vector<Op>(shuffled.begin() + cut, shuffled.end()));
    EXPECT_EQ(take_snapshot(dp).to_text(), canonical) << "seed " << seed;
  }
}

TEST(SnapshotProperty, RoundTripIsStable) {
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;
  sim::DataPlane dp = scratch_of(dep);
  install_ops(dp, op_set());
  dp.set_epoch(3);
  dp.set_min_live_epoch(2);
  const Snapshot snap = take_snapshot(dp);
  const std::string text = snap.to_text();

  // restore into a fresh switch reproduces the text...
  sim::DataPlane fresh(dep.program(), dep.ids(), dep.dataplane().config());
  const auto missing = restore_snapshot(snap, fresh);
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(take_snapshot(fresh).to_text(), text);
  EXPECT_EQ(fresh.epoch(), 3u);
  EXPECT_EQ(fresh.min_live_epoch(), 2u);

  // ...restoring on top of existing state is idempotent...
  ASSERT_TRUE(restore_snapshot(snap, fresh).empty());
  EXPECT_EQ(take_snapshot(fresh).to_text(), text);

  // ...and the round trip is a fixed point, not merely a 2-cycle.
  const Snapshot second = take_snapshot(fresh);
  sim::DataPlane again(dep.program(), dep.ids(), dep.dataplane().config());
  ASSERT_TRUE(restore_snapshot(second, again).empty());
  EXPECT_EQ(take_snapshot(again).to_text(), text);
}

TEST(SnapshotProperty, RestoredFromShuffledInsertionOrdersAgree) {
  // Insertion-order independence must survive the restore path too:
  // snapshots taken from differently-ordered switches restore into
  // byte-identical switches.
  auto fx = make_fig9_deployment();
  Deployment& dep = *fx.deployment;

  std::vector<Op> ops = op_set();
  std::vector<Op> shuffled = ops;
  std::mt19937 rng(0xabc);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  sim::DataPlane a = scratch_of(dep);
  install_ops(a, ops);
  sim::DataPlane b = scratch_of(dep);
  install_ops(b, shuffled);

  sim::DataPlane ra(dep.program(), dep.ids(), dep.dataplane().config());
  sim::DataPlane rb(dep.program(), dep.ids(), dep.dataplane().config());
  ASSERT_TRUE(restore_snapshot(take_snapshot(a), ra).empty());
  ASSERT_TRUE(restore_snapshot(take_snapshot(b), rb).empty());
  EXPECT_EQ(take_snapshot(ra).to_text(), take_snapshot(rb).to_text());
}

// ---------------------------------------------------------------------------
// Generated stores of a small program

const std::string kControl =
    merge::pipelet_control_name({0, asic::PipeKind::kIngress});

/// How a program differs from the one a snapshot came from.
struct Shape {
  bool renumber = false;  ///< the actions are declared in another order
  bool permute = false;   ///< set_b takes its parameters as (q, p)
  bool drop_b = false;    ///< no table declares set_b any more
  bool widen_a = false;   ///< set_a takes a second parameter, y
  std::uint32_t e1_entries = 64;  ///< e1's max_entries
  bool e1_two_keys = false;       ///< e1 also matches ipv4.dst_addr
  bool e1_ternary = false;        ///< e1 matches ipv4.src_addr ternary
  std::uint32_t cells = 16;       ///< register r's size
};

p4ir::ControlBlock make_control(const Shape& shape) {
  p4ir::ControlBlock c(kControl);
  auto action = [](std::string name, std::vector<std::string> params) {
    p4ir::Action a;
    a.name = std::move(name);
    for (std::string& p : params) a.params.push_back({std::move(p), 32});
    return a;
  };
  std::vector<p4ir::Action> actions{
      action("set_a", shape.widen_a ? std::vector<std::string>{"x", "y"}
                                    : std::vector<std::string>{"x"}),
      action("set_b", shape.permute ? std::vector<std::string>{"q", "p"}
                                    : std::vector<std::string>{"p", "q"}),
      action("noop", {})};
  if (shape.renumber) {
    std::reverse(actions.begin(), actions.end());
    actions.insert(actions.begin(), action("unused", {"u"}));
  }
  for (p4ir::Action& a : actions) c.add_action(std::move(a));
  std::vector<std::string> declared{"set_a", "noop"};
  if (!shape.drop_b) declared.push_back("set_b");
  auto table = [&](std::string name, std::vector<p4ir::TableKey> keys,
                   std::uint32_t max_entries) {
    p4ir::Table t;
    t.name = std::move(name);
    t.keys = std::move(keys);
    t.actions = declared;
    t.max_entries = max_entries;
    c.add_table(t);
  };
  using p4ir::MatchKind;
  std::vector<p4ir::TableKey> e1{
      {"ipv4.src_addr",
       shape.e1_ternary ? MatchKind::kTernary : MatchKind::kExact, 32}};
  if (shape.e1_two_keys) e1.push_back({"ipv4.dst_addr", MatchKind::kExact, 32});
  table("e1", e1, shape.e1_entries);
  table("e2",
        {{"ipv4.src_addr", MatchKind::kExact, 32},
         {"ipv4.dst_addr", MatchKind::kExact, 32}},
        64);
  table("e3",
        {{"ipv4.src_addr", MatchKind::kExact, 32},
         {"ipv4.dst_addr", MatchKind::kExact, 32},
         {"ipv4.protocol", MatchKind::kExact, 8}},
        64);
  table("t",
        {{"ipv4.src_addr", MatchKind::kTernary, 32},
         {"ipv4.protocol", MatchKind::kTernary, 8}},
        64);
  table("l", {{"ipv4.dst_addr", MatchKind::kLpm, 32}}, 64);
  c.add_register({"r", 32, shape.cells});
  return c;
}

/// One switch running make_control(shape).
struct MiniSwitch {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"snapshot"};
  asic::SwitchConfig config{asic::TargetSpec::mini()};
  std::unique_ptr<sim::DataPlane> dp;

  explicit MiniSwitch(const Shape& shape = {}) {
    nf::add_standard_parser(program, ids);
    program.add_control(make_control(shape));
    dp = std::make_unique<sim::DataPlane>(program, ids, config);
  }
  sim::RuntimeTable& table(const std::string& name) {
    return *dp->table_in(kControl, name);
  }
  std::string text() const { return take_snapshot(*dp).to_text(); }
};

sim::ActionCall random_action(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return {"set_a", {{"x", rng() % 1000}}};
    case 1:
      return {"set_b", {{"p", rng() % 1000}, {"q", rng()}}};
    default:
      return {"noop", {}};
  }
}

/// 1-3 pairwise disjoint generations: retired windows, then an open,
/// shadow or retired last one; sometimes the default [0, open] alone.
std::vector<sim::EpochWindow> random_generations(std::mt19937_64& rng) {
  const std::uint64_t n = 1 + rng() % 3;
  if (n == 1 && rng() % 2 == 0) return {sim::EpochWindow{}};
  std::vector<sim::EpochWindow> out;
  std::uint32_t from = static_cast<std::uint32_t>(rng() % 3);
  for (std::uint64_t g = 0; g < n; ++g) {
    const auto len = static_cast<std::uint32_t>(rng() % 3);
    const bool open = g + 1 == n && rng() % 2 == 0;
    out.push_back({from, open ? sim::kEpochOpen : from + len});
    from += len + 1 + static_cast<std::uint32_t>(rng() % 2);
  }
  return out;
}

/// Fill `sw` from `seed`, installing every version in a shuffled order
/// (so a key's versions do not always arrive in window order).
void populate(MiniSwitch& sw, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::function<void()>> installs;
  for (const std::size_t arity : {1, 2, 3}) {
    sim::RuntimeTable* rt = &sw.table("e" + std::to_string(arity));
    std::set<std::vector<std::uint64_t>> keys;
    for (int k = 0; k < 10; ++k) {
      std::vector<std::uint64_t> key(arity);
      for (std::uint64_t& w : key) w = rng() % 6;
      if (!keys.insert(key).second) continue;
      for (const sim::EpochWindow w : random_generations(rng)) {
        installs.push_back([rt, key, a = random_action(rng), w] {
          rt->add_exact(key, a, w);
        });
      }
    }
  }
  sim::RuntimeTable* t = &sw.table("t");
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::int32_t>> tkeys;
  for (int k = 0; k < 8; ++k) {
    const std::uint64_t mask = rng() % 2 ? 0xff : 0xf0;
    const std::uint64_t value = rng() % 4 * 0x10 & mask;
    const auto prio = static_cast<std::int32_t>(rng() % 7) - 3;
    if (!tkeys.insert({value, mask, prio}).second) continue;
    const std::uint64_t care = rng() % 2 ? 0xff : 0;
    const std::vector<net::TernaryField> key{{value, mask}, {6 & care, care}};
    for (const sim::EpochWindow w : random_generations(rng)) {
      installs.push_back([t, key, prio, a = random_action(rng), w] {
        t->add_ternary(key, prio, a, w);
      });
    }
  }
  sim::RuntimeTable* l = &sw.table("l");
  std::set<std::pair<std::uint64_t, std::uint8_t>> prefixes;
  for (int k = 0; k < 6; ++k) {
    const auto len = static_cast<std::uint8_t>(8 + rng() % 3 * 8);
    const std::uint64_t value = (0x0a000000 + (rng() % 3 << 16)) &
                                ~((std::uint64_t{1} << (32 - len)) - 1);
    if (!prefixes.insert({value, len}).second) continue;
    for (const sim::EpochWindow w : random_generations(rng)) {
      installs.push_back([l, value, len, a = random_action(rng), w] {
        l->add_lpm(value, len, a, w);
      });
    }
  }
  std::shuffle(installs.begin(), installs.end(), rng);
  for (const auto& install : installs) install();
  std::vector<std::uint64_t>& cells = *sw.dp->register_array(kControl, "r");
  for (int i = 0; i < 4; ++i) cells[rng() % cells.size()] = rng() % 100;
  sw.dp->set_register_epoch(kControl, "r",
                            static_cast<std::uint32_t>(rng() % 3));
  sw.dp->set_epoch(static_cast<std::uint32_t>(2 + rng() % 3));
  sw.dp->set_min_live_epoch(static_cast<std::uint32_t>(rng() % 2));
}

/// Each exact table's versions grouped by key, in install order.
std::map<std::string, std::map<std::vector<std::uint64_t>,
                               std::vector<sim::EpochWindow>>>
install_orders(MiniSwitch& sw) {
  std::map<std::string, std::map<std::vector<std::uint64_t>,
                                 std::vector<sim::EpochWindow>>>
      out;
  for (const char* name : {"e1", "e2", "e3"}) {
    sw.table(name).for_each_exact(
        [&](const sim::RuntimeTable::ExactVersion& v) {
          out[name][{v.key.begin(), v.key.end()}].push_back(v.window);
        });
  }
  return out;
}

TEST(SnapshotProperty, GeneratedStoresRoundTripByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    MiniSwitch source;
    populate(source, seed);
    const Snapshot snap = take_snapshot(*source.dp);
    const std::string text = snap.to_text();
    ASSERT_NE(text.find("ternary"), std::string::npos);
    ASSERT_NE(text.find(" win="), std::string::npos);

    MiniSwitch copy;
    ASSERT_TRUE(restore_snapshot(snap, *copy.dp).empty());
    EXPECT_EQ(copy.text(), text);
    for (const char* name : {"e1", "e2", "e3", "t", "l"}) {
      EXPECT_EQ(copy.table(name).state_digest(),
                source.table(name).state_digest())
          << name;
      EXPECT_EQ(copy.table(name).retired_count(),
                source.table(name).retired_count())
          << name;
    }
    // The restore installs in the snapshot's walk order, so each key's
    // versions keep the install order they had.
    EXPECT_EQ(install_orders(copy), install_orders(source));
    EXPECT_EQ(copy.dp->register_epoch(kControl, "r"),
              source.dp->register_epoch(kControl, "r"));
  }
}

/// A fixed store, so the reports of a changed program can be pinned.
void install_fixed(MiniSwitch& sw) {
  sim::RuntimeTable& e1 = sw.table("e1");
  e1.add_exact({3}, {"set_b", {{"p", 3}, {"q", 4}}}, {2, sim::kEpochOpen});
  e1.add_exact({2}, {"set_b", {{"p", 1}, {"q", 2}}});
  e1.add_exact({3}, {"noop", {}}, {0, 1});
  e1.add_exact({1}, {"set_a", {{"x", 10}}});
  sw.table("e2").add_exact({1, 2}, {"set_a", {{"x", 5}}});
  sim::RuntimeTable& t = sw.table("t");
  t.add_ternary({{0x10, 0xf0}, {0, 0}}, 2, {"set_b", {{"p", 7}, {"q", 8}}});
  t.add_ternary({{0x20, 0xf0}, {0, 0}}, -1, {"set_a", {{"x", 1}}});
  sw.table("l").add_lpm(0x0a000000, 8, {"noop", {}});
  (*sw.dp->register_array(kControl, "r"))[3] = 9;
  sw.dp->set_register_epoch(kControl, "r", 2);
}

// Restore into a changed program reports exactly what the text-form
// restore reported: each entry the table cannot run, as its bind()
// refusal, exact entries in canonical order, then ternary ones.
TEST(SnapshotProperty, ChangedProgramRestoreReportsPinnedStrings) {
  MiniSwitch source;
  install_fixed(source);
  const Snapshot snap = take_snapshot(*source.dp);
  const std::string text = snap.to_text();

  // Renumbered actions and permuted parameters restore by name: the
  // same text, and the arguments land under their names.
  for (const Shape shape : {Shape{.renumber = true}, Shape{.permute = true},
                            Shape{.renumber = true, .permute = true}}) {
    MiniSwitch target(shape);
    EXPECT_TRUE(restore_snapshot(snap, *target.dp).empty());
    EXPECT_EQ(target.text(), text);
    const auto v = target.table("e1").find_exact({2});
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->action, (sim::ActionCall{"set_b", {{"p", 1}, {"q", 2}}}));
  }

  const std::string e1 = kControl + "/e1: ";
  const std::string e2 = kControl + "/e2: ";
  const std::string t = kControl + "/t: ";
  {
    MiniSwitch target(Shape{.drop_b = true});
    const std::vector<std::string> want{
        e1 + "action 'set_b' is not bound to the table",
        e1 + "action 'set_b' is not bound to the table",
        t + "action 'set_b' is not bound to the table"};
    EXPECT_EQ(restore_snapshot(snap, *target.dp), want);
    EXPECT_EQ(target.table("e1").entry_count(), 2u);
    EXPECT_EQ(target.table("t").entry_count(), 1u);
  }
  {
    MiniSwitch target(Shape{.drop_b = true, .widen_a = true});
    const std::vector<std::string> want{
        e1 + "action 'set_a' is missing argument 'y'",
        e1 + "action 'set_b' is not bound to the table",
        e1 + "action 'set_b' is not bound to the table",
        e2 + "action 'set_a' is missing argument 'y'",
        t + "action 'set_b' is not bound to the table",
        t + "action 'set_a' is missing argument 'y'"};
    EXPECT_EQ(restore_snapshot(snap, *target.dp), want);
    EXPECT_EQ(target.text(),
              "table " + kControl + " e1\n"
              "  exact 3 -> noop win=0..1\n"
              "table " + kControl + " l\n"
              "  ternary 167772160/4278190080 prio=8 -> noop\n"
              "register " + kControl + " r epoch=2\n"
              "  [3] = 9\n");
  }
}

// A restore the target cannot take throws before any table is cleared:
// the target's text is what it was. e1, the first table restored, is
// the one refused, so a check made after clearing it would show.
TEST(SnapshotProperty, RefusedRestoreLeavesTheTargetUnchanged) {
  MiniSwitch source;
  install_fixed(source);
  const Snapshot snap = take_snapshot(*source.dp);
  struct Case {
    Shape shape;
    std::string error;
  };
  for (const Case& c :
       {Case{Shape{.e1_entries = 3}, "table 'e1' is full (3)"},
        Case{Shape{.e1_two_keys = true},
             "table 'e1' changed kind or key arity"},
        Case{Shape{.e1_ternary = true}, "table 'e1' changed kind or key arity"},
        Case{Shape{.cells = 3}, "register r shrank below snapshot index 3"}}) {
    SCOPED_TRACE(c.error);
    MiniSwitch target(c.shape);
    // Other state, which a refused restore must leave in place.
    sim::RuntimeTable& e1 = target.table("e1");
    if (c.shape.e1_ternary) {
      e1.add_ternary({{7, 0xff}}, 3, {"noop", {}});
    } else {
      e1.add_exact(std::vector<std::uint64_t>(e1.def().keys.size(), 7),
                   {"set_a", {{"x", 1}}}, {1, 4});
    }
    target.table("e2").add_exact({7, 8}, {"noop", {}});
    target.table("t").add_ternary({{0x40, 0xff}, {6, 0xff}}, 3,
                                  {"noop", {}});
    (*target.dp->register_array(kControl, "r"))[1] = 5;
    target.dp->set_epoch(4);
    const std::string before = target.text();
    try {
      restore_snapshot(snap, *target.dp);
      ADD_FAILURE() << "restore did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), c.error);
    }
    EXPECT_EQ(target.text(), before);
  }
}

/// snapshot_diff as the text form defines it, the way it was first
/// written: every version keyed by its table, key and window in
/// std::maps of text, compared by its ActionCall.
WriteCommand text_diff(const Snapshot& actual, const Snapshot& intended) {
  using Window = std::pair<std::uint32_t, std::uint32_t>;
  using ExactId = std::pair<std::vector<std::uint64_t>, Window>;
  using TernId =
      std::tuple<std::vector<std::uint64_t>, std::int32_t, Window>;
  struct View {
    std::map<ExactId, sim::ActionCall> exact;
    std::map<TernId, sim::ActionCall> ternary;
  };
  using TableKey = std::pair<std::string, std::string>;
  auto index = [](const Snapshot& snap) {
    std::map<TableKey, View> views;
    for (const Snapshot::TableState& t : snap.tables) {
      View& view = views[{t.control, t.table}];
      for (std::size_t i = 0; i < t.exact.count(); ++i) {
        const auto key = t.exact_key(i);
        const sim::EpochWindow w = t.exact.window(i);
        view.exact[{{key.begin(), key.end()}, {w.from, w.to}}] =
            t.text(t.exact.action(i), t.exact.args(i));
      }
      for (std::size_t i = 0; i < t.ternary.count(); ++i) {
        std::vector<std::uint64_t> key;
        for (const net::TernaryField& f : t.ternary_key(i)) {
          key.push_back(f.value);
          key.push_back(f.mask);
        }
        const sim::EpochWindow w = t.ternary.window(i);
        view.ternary[{key, t.priority(i), {w.from, w.to}}] =
            t.text(t.ternary.action(i), t.ternary.args(i));
      }
    }
    return views;
  };
  const auto have = index(actual);
  const auto want = index(intended);
  std::set<TableKey> all;
  for (const auto& [id, v] : have) all.insert(id);
  for (const auto& [id, v] : want) all.insert(id);
  WriteCommand plan;
  plan.verb = WriteCommand::Verb::kReconcile;
  std::vector<RuleOp> adds;
  auto op = [](const TableKey& id, bool install, const Window& w) {
    RuleOp r;
    r.install = install;
    r.control = id.first;
    r.table = id.second;
    r.window = sim::EpochWindow{w.first, w.second};
    return r;
  };
  auto tkey = [](const std::vector<std::uint64_t>& words) {
    std::vector<net::TernaryField> key;
    for (std::size_t i = 0; i < words.size(); i += 2) {
      key.push_back({words[i], words[i + 1]});
    }
    return key;
  };
  static const View kEmpty;
  for (const TableKey& id : all) {
    const View& h = have.count(id) ? have.at(id) : kEmpty;
    const View& w = want.count(id) ? want.at(id) : kEmpty;
    for (const auto& [eid, action] : h.exact) {
      if (w.exact.count(eid) && w.exact.at(eid) == action) continue;
      RuleOp r = op(id, false, eid.second);
      r.key = eid.first;
      plan.diff.ops.push_back(r);
    }
    for (const auto& [eid, action] : w.exact) {
      if (h.exact.count(eid) && h.exact.at(eid) == action) continue;
      RuleOp r = op(id, true, eid.second);
      r.key = eid.first;
      r.action = action;
      adds.push_back(r);
    }
    for (const auto& [tid, action] : h.ternary) {
      if (w.ternary.count(tid) && w.ternary.at(tid) == action) continue;
      RuleOp r = op(id, false, std::get<2>(tid));
      r.kind = RuleOp::Kind::kTernary;
      r.tkey = tkey(std::get<0>(tid));
      r.priority = std::get<1>(tid);
      plan.diff.ops.push_back(r);
    }
    for (const auto& [tid, action] : w.ternary) {
      if (h.ternary.count(tid) && h.ternary.at(tid) == action) continue;
      RuleOp r = op(id, true, std::get<2>(tid));
      r.kind = RuleOp::Kind::kTernary;
      r.tkey = tkey(std::get<0>(tid));
      r.priority = std::get<1>(tid);
      r.action = action;
      adds.push_back(r);
    }
  }
  using RegId = std::pair<std::string, std::string>;
  std::map<RegId, const Snapshot::RegisterState*> hr;
  std::map<RegId, const Snapshot::RegisterState*> wr;
  for (const auto& r : actual.registers) hr[{r.control, r.name}] = &r;
  for (const auto& r : intended.registers) wr[{r.control, r.name}] = &r;
  std::set<RegId> regs;
  for (const auto& [id, r] : hr) regs.insert(id);
  for (const auto& [id, r] : wr) regs.insert(id);
  for (const RegId& id : regs) {
    std::map<std::uint64_t, std::uint64_t> h;
    std::map<std::uint64_t, std::uint64_t> cells;
    if (hr.count(id)) {
      for (const auto& [i, v] : hr.at(id)->cells) {
        h[i] = v;
        cells[i] = 0;
      }
    }
    if (wr.count(id)) {
      for (const auto& [i, v] : wr.at(id)->cells) cells[i] = v;
    }
    for (const auto& [i, v] : cells) {
      if ((h.count(i) ? h.at(i) : 0) == v) continue;
      RuleOp r;
      r.kind = RuleOp::Kind::kRegister;
      r.control = id.first;
      r.reg = id.second;
      r.index = i;
      r.value = v;
      adds.push_back(r);
    }
    const std::uint32_t he = hr.count(id) ? hr.at(id)->epoch : 0;
    const std::uint32_t we = wr.count(id) ? wr.at(id)->epoch : 0;
    if (he != we) plan.bank_epochs[id] = we;
  }
  if (actual.epoch != intended.epoch) plan.epoch = intended.epoch;
  if (actual.min_live_epoch != intended.min_live_epoch) {
    plan.min_live_epoch = intended.min_live_epoch;
  }
  for (RuleOp& r : adds) plan.diff.ops.push_back(std::move(r));
  return plan;
}

/// Random edits of `sw`: versions removed, re-pointed at other actions
/// and added, ternary entries erased and added, register cells and the
/// bank tag rewritten, the version gate moved.
void mutate(MiniSwitch& sw, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (const char* name : {"e1", "e2", "e3"}) {
    sim::RuntimeTable& rt = sw.table(name);
    std::vector<std::pair<std::vector<std::uint64_t>, sim::EpochWindow>> all;
    rt.for_each_exact([&](const sim::RuntimeTable::ExactVersion& v) {
      all.push_back({{v.key.begin(), v.key.end()}, v.window});
    });
    for (const auto& [key, window] : all) {
      switch (rng() % 6) {
        case 0:
          rt.remove_exact_version(key, window);
          break;
        case 1:
          rt.add_exact(key, random_action(rng), window);  // overwrite
          break;
        default:
          break;
      }
    }
    for (int k = 0; k < 2; ++k) {
      std::vector<std::uint64_t> key(rt.def().keys.size(), 100 + rng() % 4);
      if (rt.exact_versions(key).empty()) {
        rt.add_exact(key, random_action(rng), random_generations(rng)[0]);
      }
    }
  }
  sim::RuntimeTable& t = sw.table("t");
  std::vector<std::size_t> handles;
  for (const auto& e : t.ternary_store()) handles.push_back(e.handle);
  for (const std::size_t h : handles) {
    if (rng() % 4 == 0) t.erase_ternary(h);
  }
  t.add_ternary({{0x80, 0xff}, {0, 0}}, 9, random_action(rng));
  std::vector<std::uint64_t>& cells = *sw.dp->register_array(kControl, "r");
  for (int i = 0; i < 3; ++i) cells[rng() % cells.size()] = rng() % 3;
  if (rng() % 2) {
    sw.dp->set_register_epoch(kControl, "r",
                              static_cast<std::uint32_t>(rng() % 4));
  }
  if (rng() % 2) sw.dp->set_epoch(sw.dp->epoch() + 1);
}

// snapshot_diff equals the text-keyed reference op for op, in order,
// both ways round, and its plan converges the switch byte-identical.
// Snapshots of one program compare bound words; those of a program
// whose actions were renumbered and parameters permuted compare text.
TEST(SnapshotProperty, DiffMatchesTheTextReferenceAndConverges) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    MiniSwitch a;
    populate(a, seed);
    MiniSwitch b;
    ASSERT_TRUE(restore_snapshot(take_snapshot(*a.dp), *b.dp).empty());
    mutate(b, seed * 31);
    const Snapshot sa = take_snapshot(*a.dp);
    const Snapshot sb = take_snapshot(*b.dp);
    MiniSwitch c(Shape{.renumber = true, .permute = true});
    ASSERT_TRUE(restore_snapshot(sa, *c.dp).empty());
    EXPECT_EQ(snapshot_diff(sa, take_snapshot(*c.dp)).edits(), 0u);
    mutate(c, seed * 57);
    const Snapshot sc = take_snapshot(*c.dp);
    for (const auto& [from, to] :
         {std::pair{&sa, &sb}, std::pair{&sb, &sa}, std::pair{&sa, &sc},
          std::pair{&sc, &sa}}) {
      const WriteCommand plan = snapshot_diff(*from, *to);
      const WriteCommand want = text_diff(*from, *to);
      EXPECT_EQ(plan.diff, want.diff);
      EXPECT_EQ(plan.bank_epochs, want.bank_epochs);
      EXPECT_EQ(plan.epoch, want.epoch);
      EXPECT_EQ(plan.min_live_epoch, want.min_live_epoch);
    }
    const WriteCommand plan = snapshot_diff(sa, sb);
    EXPECT_GT(plan.edits(), 0u);
    SwitchAgent agent(*a.dp);
    const AckMsg ack = agent.apply(plan);
    ASSERT_TRUE(ack.ok) << ack.error;
    EXPECT_EQ(a.text(), sb.to_text());
    EXPECT_EQ(snapshot_diff(take_snapshot(*a.dp), sb).edits(), 0u);
    // The text-compared plan converges a switch of the other program.
    MiniSwitch d;
    ASSERT_TRUE(restore_snapshot(sa, *d.dp).empty());
    ASSERT_TRUE(SwitchAgent(*d.dp).apply(snapshot_diff(sa, sc)).ok);
    EXPECT_EQ(d.text(), sc.to_text());
  }
}

}  // namespace
}  // namespace dejavu::control
