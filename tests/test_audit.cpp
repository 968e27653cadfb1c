// Silent state-corruption defense (DESIGN.md §16): the seeded state
// fault lane corrupts installed entries and register cells WITHOUT
// moving any revision stamp; the auditor's digest round-robin and
// shadow-sampled execution must detect every corruption within the
// bounded schedule, quarantine diverging packets, and scrub() back to
// a byte-identical state through one atomic reconcile write. Also pins
// the legacy fault-lane schedules bit-for-bit (the state lane draws
// strictly after every older lane) and the silence of corruption: it
// moves no RuntimeTable::revision(), only the state digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "control/auditor.hpp"
#include "control/chaos.hpp"
#include "control/deployment.hpp"
#include "control/repair.hpp"
#include "control/replay_target.hpp"
#include "control/snapshot.hpp"
#include "merge/compose.hpp"
#include "net/tcam.hpp"
#include "nf/parser_lib.hpp"
#include "p4ir/emit.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/dataplane.hpp"
#include "sim/fault.hpp"
#include "rule_store_test_util.hpp"

namespace dejavu {
namespace {

using control::Auditor;
using control::AuditorOptions;
using sim::ActionCall;
using sim::DataPlane;
using sim::EpochWindow;
using sim::RuntimeTable;

/// First instance of `name` that has installed entries.
RuntimeTable* table_with_entries(DataPlane& dp, const std::string& name) {
  for (RuntimeTable* t : dp.tables_named(name)) {
    if (t->entry_count() > 0) return t;
  }
  return nullptr;
}

/// Every table instance's mutation stamp, in program order — what the
/// compiled engine's generation() watches.
std::vector<std::uint64_t> table_revisions(DataPlane& dp) {
  std::vector<std::uint64_t> out;
  for (const p4ir::ControlBlock& control : dp.program().controls()) {
    for (const p4ir::Table& t : control.tables()) {
      out.push_back(dp.table_in(control.name(), t.name)->revision());
    }
  }
  return out;
}

/// Every state object's digest, in state_objects() order.
std::vector<std::uint64_t> state_digests(const DataPlane& dp) {
  std::vector<std::uint64_t> out;
  for (const DataPlane::StateObject& o : dp.state_objects()) {
    out.push_back(dp.state_digest(o));
  }
  return out;
}

p4ir::Action action(std::string name, std::vector<std::string> params = {}) {
  p4ir::Action a;
  a.name = std::move(name);
  for (std::string& p : params) a.params.push_back({std::move(p), 32});
  return a;
}

/// A control owning one table and a definition of each action it runs.
p4ir::ControlBlock control_of(p4ir::Table def,
                              std::vector<p4ir::Action> actions) {
  p4ir::ControlBlock control("c");
  for (p4ir::Action& a : actions) control.add_action(std::move(a));
  control.add_table(std::move(def));
  return control;
}

p4ir::ControlBlock ternary_def() {
  p4ir::Table def;
  def.name = "acl";
  def.keys = {p4ir::TableKey{"ipv4.src", p4ir::MatchKind::kTernary, 32}};
  def.actions = {"permit", "deny"};
  def.default_action = "deny";
  def.max_entries = 16;
  return control_of(def, {action("permit"), action("deny")});
}

p4ir::ControlBlock exact_def() {
  p4ir::Table def;
  def.name = "map";
  def.keys = {p4ir::TableKey{"ipv4.dst", p4ir::MatchKind::kExact, 32}};
  def.actions = {"set"};
  def.default_action = "keep";
  def.max_entries = 16;
  return control_of(def, {action("set", {"dip"}), action("keep")});
}

// ---------------------------------------------------------------- corrupt()

TEST(RuntimeTableCorrupt, TernaryKeyFlipChangesDigestNotRevision) {
  const p4ir::ControlBlock c = ternary_def();
  RuntimeTable rt(c, c.tables().front());
  rt.add_ternary({net::TernaryField{0x0a000000, 0xff000000}}, 10,
                 ActionCall{"permit", {}});
  rt.add_ternary({net::TernaryField{0, 0}}, 0, ActionCall{"deny", {}});

  const std::uint64_t digest = rt.state_digest();
  const std::uint64_t revision = rt.revision();
  const std::size_t count = rt.entry_count();

  const std::string what = rt.corrupt(RuntimeTable::CorruptKind::kKeyFlip,
                                      /*salt=*/0x5eedULL);
  ASSERT_FALSE(what.empty());
  EXPECT_NE(rt.state_digest(), digest);
  EXPECT_EQ(rt.revision(), revision);  // silent: no mutation stamp
  EXPECT_EQ(rt.entry_count(), count);
}

TEST(RuntimeTableCorrupt, ExactActionFlipChangesDigestNotRevision) {
  const p4ir::ControlBlock c = exact_def();
  RuntimeTable rt(c, c.tables().front());
  rt.add_exact({0x0a000001}, ActionCall{"set", {{"dip", 7}}});
  rt.add_exact({0x0a000002}, ActionCall{"set", {{"dip", 9}}});

  const std::uint64_t digest = rt.state_digest();
  const std::uint64_t revision = rt.revision();

  const std::string what =
      rt.corrupt(RuntimeTable::CorruptKind::kActionFlip, /*salt=*/42);
  ASSERT_FALSE(what.empty());
  EXPECT_NE(rt.state_digest(), digest);
  EXPECT_EQ(rt.revision(), revision);
  EXPECT_EQ(rt.entry_count(), 2u);
}

TEST(RuntimeTableCorrupt, DeleteAndDuplicateAdjustCounts) {
  const p4ir::ControlBlock c = exact_def();
  RuntimeTable rt(c, c.tables().front());
  rt.add_exact({1}, ActionCall{"set", {{"dip", 1}}});
  rt.add_exact({2}, ActionCall{"set", {{"dip", 2}}});
  const std::uint64_t digest = rt.state_digest();

  ASSERT_FALSE(
      rt.corrupt(RuntimeTable::CorruptKind::kDuplicate, /*salt=*/3).empty());
  EXPECT_EQ(rt.entry_count(), 3u);
  EXPECT_NE(rt.state_digest(), digest);

  ASSERT_FALSE(
      rt.corrupt(RuntimeTable::CorruptKind::kDelete, /*salt=*/4).empty());
  ASSERT_FALSE(
      rt.corrupt(RuntimeTable::CorruptKind::kDelete, /*salt=*/5).empty());
  ASSERT_FALSE(
      rt.corrupt(RuntimeTable::CorruptKind::kDelete, /*salt=*/6).empty());
  EXPECT_EQ(rt.entry_count(), 0u);
  // Nothing left to corrupt: the event reports "did not land".
  EXPECT_TRUE(
      rt.corrupt(RuntimeTable::CorruptKind::kDelete, /*salt=*/7).empty());
  EXPECT_TRUE(
      rt.corrupt(RuntimeTable::CorruptKind::kKeyFlip, /*salt=*/8).empty());
}

/// The victim corrupt() takes for `salt` on an exact table, by the
/// original rule: every version's key as decimal text ("v0|v1|..."),
/// stable-sorted over walk order, and the first draw of splitmix64 over
/// the salt picks the rank.
std::pair<std::vector<std::uint64_t>, EpochWindow> string_sort_victim(
    const RuntimeTable& rt, std::uint64_t salt) {
  std::vector<std::pair<std::string, RuntimeTable::ExactVersion>> versions;
  rt.for_each_exact([&](const RuntimeTable::ExactVersion& v) {
    std::string text;
    for (const std::uint64_t word : v.key) text += std::to_string(word) + "|";
    versions.emplace_back(std::move(text), v);
  });
  std::stable_sort(versions.begin(), versions.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::uint64_t z = salt + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fdULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const RuntimeTable::ExactVersion& v = versions[z % versions.size()].second;
  return {{v.key.begin(), v.key.end()}, v.window};
}

TEST(RuntimeTableCorrupt, ExactVictimPickMatchesTheDecimalTextSort) {
  // Two key words whose decimal texts interleave unlike their values
  // (9 < 10 but "10|" < "9|"), several versions per key, long shared
  // text prefixes.
  p4ir::Table def;
  def.name = "pair";
  def.keys = {p4ir::TableKey{"ipv4.dst", p4ir::MatchKind::kExact, 64},
              p4ir::TableKey{"ipv4.src", p4ir::MatchKind::kExact, 64}};
  def.actions = {"set"};
  def.default_action = "keep";
  def.max_entries = 4096;
  const p4ir::ControlBlock c =
      control_of(def, {action("set", {"dip"}), action("keep")});
  const std::vector<std::uint64_t> words = {
      0,          1,          9,          10,          11,
      99,         100,        1000000000, 1000000001,  12345678901,
      1234567890, 123456789,  ~0ULL,      ~0ULL - 1,   10000000000000000000ULL};
  for (int seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    RuntimeTable rt(c, c.tables().front());
    for (int i = 0; i < 300; ++i) {
      const std::vector<std::uint64_t> key = {words[rng() % words.size()],
                                              words[rng() % words.size()]};
      // Up to three versions per key, in disjoint windows [3g, 3g + 2]
      // (a repeated window overwrites).
      const std::uint32_t g = static_cast<std::uint32_t>(rng() % 3);
      rt.add_exact(key, ActionCall{"set", {{"dip", rng()}}},
                   EpochWindow{3 * g, 3 * g + 2});
    }
    ASSERT_GT(rt.entry_count(), 150u);
    for (std::uint64_t salt = 0; salt < 200; ++salt) {
      RuntimeTable victim = rt;
      const auto [key, window] = string_sort_victim(rt, salt);
      ASSERT_FALSE(victim.corrupt(RuntimeTable::CorruptKind::kDelete, salt)
                       .empty());
      // The deleted version is exactly the one the text sort picks.
      std::vector<RuntimeTable::ExactEntry> before = test::exact_entries(rt);
      const std::vector<RuntimeTable::ExactEntry> after =
          test::exact_entries(victim);
      const auto gone = std::find_if(
          before.begin(), before.end(), [&](const auto& e) {
            return e.key == key && e.window == window;
          });
      ASSERT_NE(gone, before.end());
      before.erase(gone);
      ASSERT_EQ(after.size(), before.size()) << "seed " << seed;
      for (std::size_t i = 0; i < after.size(); ++i) {
        ASSERT_EQ(std::tie(after[i].key, after[i].window),
                  std::tie(before[i].key, before[i].window))
            << "seed " << seed << " salt " << salt;
      }
    }
  }
}

TEST(RuntimeTableCorrupt, DigestIsInstallOrderIndependent) {
  const p4ir::ControlBlock c = ternary_def();
  RuntimeTable a(c, c.tables().front());
  RuntimeTable b(c, c.tables().front());
  a.add_ternary({net::TernaryField{0x0a000000, 0xff000000}}, 10,
                ActionCall{"permit", {}});
  a.add_ternary({net::TernaryField{0, 0}}, 0, ActionCall{"deny", {}});
  b.add_ternary({net::TernaryField{0, 0}}, 0, ActionCall{"deny", {}});
  b.add_ternary({net::TernaryField{0x0a000000, 0xff000000}}, 10,
                ActionCall{"permit", {}});
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(RuntimeTableCorrupt, WindowFlipIsDigestVisible) {
  const p4ir::ControlBlock c = exact_def();
  RuntimeTable rt(c, c.tables().front());
  rt.add_exact({5}, ActionCall{"set", {{"dip", 5}}});
  const std::uint64_t digest = rt.state_digest();
  ASSERT_FALSE(
      rt.corrupt(RuntimeTable::CorruptKind::kWindowFlip, /*salt=*/11).empty());
  EXPECT_NE(rt.state_digest(), digest);
}

// ------------------------------------------------ silence of mutation stamps

TEST(MutationStamps, SilentRegisterWriteMovesOnlyTheDigest) {
  // Register-bearing mini program (cf. tests/test_registers.cpp).
  p4ir::TupleIdTable ids;
  asic::SwitchConfig config(asic::TargetSpec::mini());
  p4ir::Program program("p");
  nf::add_standard_parser(program, ids);
  p4ir::ControlBlock c(
      merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
  c.add_register(p4ir::RegisterDef{"cells", 8, 4});
  p4ir::Action bump;
  bump.name = "bump";
  bump.primitives = {
      p4ir::register_add("cells", "ipv4.ttl", 1, "local.seen"),
      p4ir::set_imm("standard_metadata.egress_spec", 1),
  };
  c.add_action(bump);
  p4ir::Table t;
  t.name = "t";
  t.default_action = "bump";
  t.registers = {"cells"};
  c.add_table(t);
  c.apply_table("t");
  program.add_control(std::move(c));

  DataPlane dp(program, ids, config);
  const std::string control =
      merge::pipelet_control_name({0, asic::PipeKind::kIngress});

  // A silent cell write (a fault, not a control-plane write) moves no
  // table revision, so nothing the compiled engine watches can see it...
  const auto revisions = table_revisions(dp);
  const auto objects = dp.state_objects();
  const auto digests = state_digests(dp);
  auto* cells = dp.register_array(control, "cells");
  ASSERT_NE(cells, nullptr);
  (*cells)[2] = 0xcd;
  EXPECT_EQ(table_revisions(dp), revisions);

  // ...but the register bank's digest does.
  const auto after = state_digests(dp);
  ASSERT_EQ(after.size(), digests.size());
  bool moved = false;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (objects[i].is_register && objects[i].name == "cells") {
      moved = after[i] != digests[i];
    } else {
      EXPECT_EQ(after[i], digests[i]);
    }
  }
  EXPECT_TRUE(moved);
}

TEST(MutationStamps, DataplaneRegisterOpsDoNotChurnRevisions) {
  // Per-packet register arithmetic is dataplane state, not rule state:
  // counting it as a mutation would move the compiled engine's
  // generation() on every packet.
  auto fx = control::make_fig2_deployment();
  DataPlane& dp = fx.deployment->dataplane();
  const auto revisions = table_revisions(dp);
  (void)dp.process(net::Packet::make(net::PacketSpec{}),
                   control::Fig2Deployment::kSenderPort);
  EXPECT_EQ(table_revisions(dp), revisions);
}

// -------------------------------------------- satellite 2: seed stability

TEST(FaultPlanGolden, LegacyMixedScheduleIsBitIdentical) {
  // Captured from the pre-state-lane build: adding the (default-zero)
  // state lane must not shift a single draw of the older lanes.
  const char* expected[] = {
      "fault plan (seed 1): 9 events\n"
      "  write-fail op=0 count=1\n"
      "  write-fail op=2 count=1\n"
      "  write-timeout op=0 count=2\n"
      "  evict-entry bucket=52 pkt=5 table=LB.lb_session\n"
      "  evict-entry bucket=16 pkt=4 table=LB.lb_session\n"
      "  evict-entry bucket=37 pkt=7 table=LB.lb_session\n"
      "  evict-entry bucket=25 pkt=8 table=LB.lb_session\n"
      "  recirc-port-down bucket=35 pkt=1 pipeline=1\n"
      "  recirc-port-down bucket=39 pkt=3 pipeline=1",
      "fault plan (seed 2): 9 events\n"
      "  write-fail op=4 count=2\n"
      "  write-fail op=5 count=2\n"
      "  write-timeout op=4 count=2\n"
      "  evict-entry bucket=25 pkt=3 table=LB.lb_session\n"
      "  evict-entry bucket=6 pkt=5 table=LB.lb_session\n"
      "  evict-entry bucket=48 pkt=2 table=LB.lb_session\n"
      "  evict-entry bucket=16 pkt=5 table=LB.lb_session\n"
      "  recirc-port-down bucket=5 pkt=1 pipeline=1\n"
      "  recirc-port-down bucket=33 pkt=1 pipeline=1",
      "fault plan (seed 3): 9 events\n"
      "  write-fail op=3 count=2\n"
      "  write-fail op=3 count=2\n"
      "  write-timeout op=5 count=1\n"
      "  evict-entry bucket=23 pkt=7 table=LB.lb_session\n"
      "  evict-entry bucket=3 pkt=1 table=LB.lb_session\n"
      "  evict-entry bucket=16 pkt=1 table=LB.lb_session\n"
      "  evict-entry bucket=23 pkt=11 table=LB.lb_session\n"
      "  recirc-port-down bucket=57 pkt=8 pipeline=1\n"
      "  recirc-port-down bucket=19 pkt=10 pipeline=1",
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto plan =
        sim::FaultPlan::from_seed(seed, sim::FaultProfile::fig2_mixed());
    EXPECT_EQ(plan.to_string(), expected[seed - 1]) << "seed " << seed;
  }
}

TEST(FaultPlanGolden, LegacyChannelScheduleIsBitIdentical) {
  const char* expected[] = {
      "fault plan (seed 1): 13 events\n"
      "  channel-drop msg=8 side=request\n"
      "  channel-drop msg=10 side=request\n"
      "  channel-drop msg=24 side=ack\n"
      "  channel-drop msg=28 side=ack\n"
      "  channel-drop msg=8 side=request\n"
      "  channel-dup msg=16 count=2\n"
      "  channel-dup msg=37 count=2\n"
      "  channel-dup msg=20 count=2\n"
      "  channel-reorder msg=9\n"
      "  channel-reorder msg=10\n"
      "  channel-delay msg=3 count=1\n"
      "  channel-delay msg=23 count=4\n"
      "  channel-partition msg=28 count=4",
      "fault plan (seed 2): 13 events\n"
      "  channel-drop msg=28 side=ack\n"
      "  channel-drop msg=37 side=ack\n"
      "  channel-drop msg=36 side=ack\n"
      "  channel-drop msg=17 side=ack\n"
      "  channel-drop msg=38 side=request\n"
      "  channel-dup msg=6 count=2\n"
      "  channel-dup msg=0 count=1\n"
      "  channel-dup msg=24 count=1\n"
      "  channel-reorder msg=38\n"
      "  channel-reorder msg=27\n"
      "  channel-delay msg=29 count=4\n"
      "  channel-delay msg=9 count=2\n"
      "  channel-partition msg=22 count=4",
      "fault plan (seed 3): 13 events\n"
      "  channel-drop msg=27 side=ack\n"
      "  channel-drop msg=35 side=ack\n"
      "  channel-drop msg=21 side=request\n"
      "  channel-drop msg=39 side=request\n"
      "  channel-drop msg=18 side=ack\n"
      "  channel-dup msg=30 count=1\n"
      "  channel-dup msg=0 count=1\n"
      "  channel-dup msg=8 count=2\n"
      "  channel-reorder msg=17\n"
      "  channel-reorder msg=36\n"
      "  channel-delay msg=9 count=3\n"
      "  channel-delay msg=29 count=4\n"
      "  channel-partition msg=38 count=3",
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto plan =
        sim::FaultPlan::from_seed(seed, sim::FaultProfile::channel_default());
    EXPECT_EQ(plan.to_string(), expected[seed - 1]) << "seed " << seed;
  }
}

TEST(FaultPlanGolden, StateLaneDrawsStrictlyAfterOlderLanes) {
  // Adding state-lane counts to a channel profile appends state events
  // without disturbing one channel draw.
  sim::FaultProfile channel_only = sim::FaultProfile::channel_default();
  sim::FaultProfile both = channel_only;
  const sim::FaultProfile state = sim::FaultProfile::state_default();
  both.state_key_flips = state.state_key_flips;
  both.state_action_flips = state.state_action_flips;
  both.state_window_flips = state.state_window_flips;
  both.state_deletes = state.state_deletes;
  both.state_dups = state.state_dups;
  both.state_tables = state.state_tables;

  const auto a = sim::FaultPlan::from_seed(5, channel_only);
  const auto b = sim::FaultPlan::from_seed(5, both);
  ASSERT_GT(b.events.size(), a.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "event " << i << " shifted";
  }
  EXPECT_EQ(b.all_state_events().size(), b.events.size() - a.events.size());
}

TEST(FaultPlanGolden, StateDefaultIsDeterministicAndStateOnly) {
  const auto a = sim::FaultPlan::from_seed(1, sim::FaultProfile::state_default());
  const auto b = sim::FaultPlan::from_seed(1, sim::FaultProfile::state_default());
  EXPECT_EQ(a.to_string(), b.to_string());
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.all_state_events().size(), a.events.size());
  EXPECT_TRUE(a.write_events().empty());
  for (const sim::FaultEvent* ev : a.all_state_events()) {
    EXPECT_LT(ev->tick, sim::FaultProfile::state_default().max_tick_index);
  }
}

// ----------------------------------------------------- state fault injector

TEST(StateFaultInjector, CorruptsSilently) {
  auto fx = control::make_fig2_deployment();
  DataPlane& dp = fx.deployment->dataplane();

  const auto revisions = table_revisions(dp);
  const auto before = state_digests(dp);

  const auto plan =
      sim::FaultPlan::from_seed(1, sim::FaultProfile::state_default());
  sim::StateFaultInjector injector(plan, dp);
  std::size_t applied_descriptions = 0;
  for (std::uint32_t tick = 0;
       tick < sim::FaultProfile::state_default().max_tick_index; ++tick) {
    applied_descriptions += injector.apply_tick(tick).size();
  }
  ASSERT_GT(injector.applied_total(), 0u);
  EXPECT_EQ(injector.applied_total(), applied_descriptions);
  EXPECT_LE(injector.applied_total(), injector.scheduled_total());

  // Silent: every corruption landed without moving a revision...
  EXPECT_EQ(table_revisions(dp), revisions);
  // ...but the digests see it.
  EXPECT_NE(state_digests(dp), before);
}

// ------------------------------------------------------------- the auditor

TEST(Auditor, DigestAuditDetectsWithinOneSweepAndAttributes) {
  auto fx = control::make_fig2_deployment();
  DataPlane& live = fx.deployment->dataplane();
  DataPlane mirror = live;  // converged twin

  AuditorOptions options;
  options.digest_objects_per_tick = 4;
  options.sample_every = 0;  // digest lane only
  Auditor auditor(live, mirror, options);

  RuntimeTable* acl = table_with_entries(live, "FW.acl");
  ASSERT_NE(acl, nullptr);
  ASSERT_FALSE(
      acl->corrupt(RuntimeTable::CorruptKind::kKeyFlip, /*salt=*/99).empty());

  const std::size_t objects = live.state_objects().size();
  const std::size_t sweep =
      (objects + options.digest_objects_per_tick - 1) /
      options.digest_objects_per_tick;
  std::size_t ticks = 0;
  while (auditor.findings().empty() && ticks < sweep + 1) {
    auditor.tick();
    ++ticks;
  }
  ASSERT_FALSE(auditor.findings().empty());
  EXPECT_LE(ticks, sweep);  // bounded detection latency
  const control::AuditFinding& f = auditor.findings().front();
  EXPECT_EQ(f.source, control::AuditFinding::Source::kDigest);
  EXPECT_EQ(f.object, acl->def().name);
  EXPECT_FALSE(f.is_register);
  EXPECT_TRUE(auditor.suspicious());
}

/// A mini program whose one pipelet control applies keyless tables
/// named `tables`, each forwarding to port 1.
p4ir::Program program_with_tables(p4ir::TupleIdTable& ids,
                                  const std::vector<std::string>& tables) {
  p4ir::Program program("p");
  nf::add_standard_parser(program, ids);
  p4ir::ControlBlock c(
      merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
  p4ir::Action fwd;
  fwd.name = "fwd";
  fwd.primitives = {p4ir::set_imm("standard_metadata.egress_spec", 1)};
  c.add_action(fwd);
  for (const std::string& name : tables) {
    p4ir::Table t;
    t.name = name;
    t.default_action = "fwd";
    c.add_table(t);
    c.apply_table(name);
  }
  program.add_control(std::move(c));
  return program;
}

TEST(Auditor, CensusCatchesAnObjectStandingInForAnother) {
  // The live plane lacks the mirror's empty table x and holds a table z
  // instead. The object counts agree, and a plane digests an object it
  // lacks as 0, which is also an empty table's digest: only the census
  // can tell.
  const asic::SwitchConfig config(asic::TargetSpec::mini());
  p4ir::TupleIdTable intended_ids;
  p4ir::TupleIdTable live_ids;
  const p4ir::Program intended = program_with_tables(intended_ids, {"x", "y"});
  const p4ir::Program actual = program_with_tables(live_ids, {"y", "z"});
  DataPlane mirror(intended, intended_ids, config);
  DataPlane live(actual, live_ids, config);
  ASSERT_EQ(live.state_objects().size(), mirror.state_objects().size());

  AuditorOptions options;
  options.digest_objects_per_tick = 1;
  options.sample_every = 0;
  Auditor auditor(live, mirror, options);
  EXPECT_EQ(auditor.tick(), 1u);
  ASSERT_EQ(auditor.findings().size(), 1u);
  const control::AuditFinding& f = auditor.findings().front();
  const std::string control =
      merge::pipelet_control_name({0, asic::PipeKind::kIngress});
  EXPECT_EQ(f.object, "(object census)");
  EXPECT_EQ(f.detail, "live holds 2 state objects, intended 2; first "
                      "differs: live " + control + ".y, intended " +
                      control + ".x");
  EXPECT_TRUE(auditor.suspicious());
}

TEST(Auditor, QuarantineHookFiresOnDetection) {
  auto fx = control::make_fig2_deployment();
  DataPlane& live = fx.deployment->dataplane();
  DataPlane mirror = live;

  AuditorOptions options;
  options.sample_every = 0;
  Auditor auditor(live, mirror, options);
  int fired = 0;
  auditor.set_quarantine_hook([&fired] { ++fired; });

  RuntimeTable* vip = table_with_entries(live, "VGW.vip_map");
  ASSERT_NE(vip, nullptr);
  ASSERT_FALSE(
      vip->corrupt(RuntimeTable::CorruptKind::kActionFlip, 7).empty());

  for (int t = 0; t < 16 && fired == 0; ++t) auditor.tick();
  EXPECT_GT(fired, 0);
  EXPECT_EQ(auditor.report().quarantine_signals,
            static_cast<std::uint64_t>(fired));
}

TEST(Auditor, ShadowSampleQuarantinesDivergingPacket) {
  // Warm the flows through the control plane first so LB sessions are
  // learned and the flows actually deliver end to end.
  control::DeploymentTarget target(control::make_fig2_deployment());
  const auto flows = control::fig2_replay_flows(8, 1);
  ASSERT_FALSE(flows.empty());
  for (const auto& rf : flows) {
    (void)target.inject(rf.flow.packet(), rf.in_port);
  }
  DataPlane& live = target.dataplane();
  DataPlane mirror = live;  // converged twin, sessions included

  AuditorOptions options;
  options.sample_every = 1;  // sample everything
  Auditor auditor(live, mirror, options);

  // Erase the router outright on the live plane: warmed flows still
  // deliver on the mirror but lose their route on the live side.
  for (RuntimeTable* t : live.tables_named("Router.ipv4_lpm")) {
    while (t->entry_count() > 0) {
      ASSERT_FALSE(
          t->corrupt(RuntimeTable::CorruptKind::kDelete, 13).empty());
    }
  }

  bool diverged = false;
  for (const auto& rf : flows) {
    const sim::SwitchOutput out =
        auditor.process(rf.flow.packet(), rf.in_port);
    if (out.drop_code == sim::DropCode::kStateQuarantined) {
      diverged = true;
      EXPECT_TRUE(out.dropped);
      EXPECT_TRUE(out.out.empty());
      EXPECT_TRUE(out.to_cpu.empty());
      break;
    }
  }
  ASSERT_TRUE(diverged);
  EXPECT_GT(auditor.report().sample_divergences, 0u);
  EXPECT_GT(auditor.report().packets_quarantined, 0u);
  EXPECT_EQ(auditor.findings().front().source,
            control::AuditFinding::Source::kSample);
}

TEST(Auditor, ScrubRepairsByteIdentical) {
  auto fx = control::make_fig2_deployment();
  DataPlane& live = fx.deployment->dataplane();
  DataPlane mirror = live;

  // A spread of corruption kinds across tables.
  RuntimeTable* acl = table_with_entries(live, "FW.acl");
  RuntimeTable* route = table_with_entries(live, "Router.ipv4_lpm");
  RuntimeTable* vip = table_with_entries(live, "VGW.vip_map");
  ASSERT_NE(acl, nullptr);
  ASSERT_NE(route, nullptr);
  ASSERT_NE(vip, nullptr);
  ASSERT_FALSE(acl->corrupt(RuntimeTable::CorruptKind::kKeyFlip, 1).empty());
  ASSERT_FALSE(
      route->corrupt(RuntimeTable::CorruptKind::kDuplicate, 2).empty());
  ASSERT_FALSE(vip->corrupt(RuntimeTable::CorruptKind::kDelete, 3).empty());
  ASSERT_FALSE(
      vip->corrupt(RuntimeTable::CorruptKind::kWindowFlip, 4).empty());

  AuditorOptions options;
  options.sample_every = 0;
  Auditor auditor(live, mirror, options);
  for (int t = 0; t < 16 && !auditor.suspicious(); ++t) auditor.tick();
  ASSERT_TRUE(auditor.suspicious());

  const control::ScrubReport rep = auditor.scrub();
  EXPECT_TRUE(rep.converged) << rep.to_string();
  EXPECT_TRUE(rep.identical) << rep.to_string();
  EXPECT_GT(rep.ops, 0u);
  EXPECT_EQ(control::take_snapshot(live).to_text(),
            control::take_snapshot(mirror).to_text());
  EXPECT_FALSE(auditor.suspicious());

  // Clean after repair: a full sweep raises nothing new.
  const std::size_t findings = auditor.findings().size();
  for (int t = 0; t < 16; ++t) auditor.tick();
  EXPECT_EQ(auditor.findings().size(), findings);
}

TEST(Auditor, NoFalsePositivesOnCleanState) {
  auto fx = control::make_fig2_deployment();
  DataPlane& live = fx.deployment->dataplane();
  DataPlane mirror = live;

  control::HealthMonitor monitor(live, fx.deployment->policies());

  AuditorOptions options;
  options.sample_every = 2;
  Auditor auditor(live, mirror, options);
  auditor.set_health_monitor(&monitor);

  const auto flows = control::fig2_replay_flows(12, 1);
  for (int t = 0; t < 24; ++t) {
    auditor.tick();
    for (const auto& rf : flows) {
      (void)auditor.process(rf.flow.packet(), rf.in_port);
    }
  }
  EXPECT_TRUE(auditor.findings().empty());
  EXPECT_FALSE(auditor.suspicious());
  EXPECT_GT(auditor.report().packets_sampled, 0u);
  EXPECT_EQ(auditor.report().sample_divergences, 0u);
  EXPECT_FALSE(monitor.state_unhealthy());
}

TEST(Auditor, FeedsHealthMonitorWithHysteresis) {
  auto fx = control::make_fig2_deployment();
  DataPlane& live = fx.deployment->dataplane();
  DataPlane mirror = live;

  control::HealthThresholds thresholds;
  thresholds.state_sustained_mismatches = 1;
  thresholds.state_recovery_streak = 2;
  control::HealthMonitor monitor(live, fx.deployment->policies(), thresholds);

  AuditorOptions options;
  options.sample_every = 0;
  options.digest_objects_per_tick = 64;  // whole sweep per tick
  Auditor auditor(live, mirror, options);
  auditor.set_health_monitor(&monitor);

  RuntimeTable* acl = table_with_entries(live, "FW.acl");
  ASSERT_NE(acl, nullptr);
  ASSERT_FALSE(acl->corrupt(RuntimeTable::CorruptKind::kKeyFlip, 21).empty());

  auditor.tick();
  EXPECT_TRUE(monitor.state_unhealthy());

  ASSERT_TRUE(auditor.scrub().identical);
  auditor.tick();  // first clean tick: recovery streak 1 of 2
  EXPECT_TRUE(monitor.state_unhealthy());
  auditor.tick();  // second clean tick: recovered
  EXPECT_FALSE(monitor.state_unhealthy());
}

// ------------------------------------------ compiled engine under corruption

TEST(CompiledCorruption, NextPacketMatchesInterpreter) {
  // A silent corruption moves no revision, and nothing needs to: the
  // compiled engine probes the very store the corruption landed in.
  auto fx = control::make_fig9_deployment();
  const auto flows = control::fig2_replay_flows(12, 2);
  const RuntimeTable::CorruptKind kinds[] = {
      RuntimeTable::CorruptKind::kKeyFlip,
      RuntimeTable::CorruptKind::kActionFlip,
      RuntimeTable::CorruptKind::kWindowFlip,
      RuntimeTable::CorruptKind::kDelete,
      RuntimeTable::CorruptKind::kDuplicate,
  };
  for (const RuntimeTable::CorruptKind kind : kinds) {
    for (const char* table : {"FW.acl", "VGW.vip_map", "Router.ipv4_lpm"}) {
      DataPlane dp = fx.deployment->dataplane();
      sim::CompiledPipeline fast(dp);
      ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
      RuntimeTable* victim = table_with_entries(dp, table);
      ASSERT_NE(victim, nullptr) << table;
      const std::string what =
          victim->corrupt(kind, 0x5eed + static_cast<std::uint64_t>(kind));
      ASSERT_FALSE(what.empty()) << table;

      DataPlane twin = dp;
      for (const auto& rf : flows) {
        const sim::SwitchOutput got =
            fast.process(rf.flow.packet(), rf.in_port);
        const sim::SwitchOutput want =
            twin.process(rf.flow.packet(), rf.in_port);
        ASSERT_TRUE(sim::semantically_equal(got, want))
            << what << ": " << got.drop_reason << " vs " << want.drop_reason;
      }
      EXPECT_EQ(dp.all_port_counters(), twin.all_port_counters()) << what;
      EXPECT_EQ(fast.stats().full_compiles, 1u);
      EXPECT_EQ(fast.stats().fallback_packets, 0u) << what;
    }
  }
}

// ------------------------------------------------------- chaos state drill

control::ChaosOptions audit_drill(std::uint64_t state_seed,
                                  std::uint32_t workers) {
  control::ChaosOptions o;
  o.seed = 1;
  o.schedule = "none";
  o.repair = "none";
  o.update_drill = false;
  o.workers = workers;
  o.flows = 24;
  o.packets_per_flow = 4;
  o.state_seed = state_seed;
  return o;
}

TEST(ChaosStateDrill, DetectsRepairsAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const control::ChaosResult r = control::run_chaos(audit_drill(seed, 2));
    const auto& d = r.state_drill;
    ASSERT_TRUE(d.run);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ":\n" << r.to_string();
    EXPECT_TRUE(d.error.empty()) << d.error;
    EXPECT_GT(d.corruptions_applied, 0u) << "seed " << seed;
    EXPECT_EQ(d.batches_detected, d.batches_injected);
    EXPECT_EQ(d.false_positives, 0u);
    EXPECT_TRUE(d.repaired_identical);
    EXPECT_TRUE(d.final_sweep_clean);
    EXPECT_GT(d.scrubs, 0u);
  }
}

TEST(ChaosStateDrill, BitIdenticalAcrossWorkerCounts) {
  const control::ChaosResult one = control::run_chaos(audit_drill(2, 1));
  const control::ChaosResult two = control::run_chaos(audit_drill(2, 2));
  const control::ChaosResult eight = control::run_chaos(audit_drill(2, 8));
  ASSERT_TRUE(one.state_drill.error.empty()) << one.state_drill.error;
  ASSERT_TRUE(one.state_drill.counters_agree);
  ASSERT_TRUE(two.state_drill.counters_agree);
  ASSERT_TRUE(eight.state_drill.counters_agree);

  auto sig = [](const control::ChaosResult::StateDrill& d) {
    std::string s;
    for (std::uint64_t v :
         {d.corruptions_scheduled, d.corruptions_applied, d.batches_injected,
          d.batches_detected, d.digest_detections, d.sample_detections,
          d.max_ticks_to_detect, d.packets_sampled, d.sample_divergences,
          d.packets_quarantined, d.scrubs, d.scrub_ops,
          d.false_positives}) {
      s += std::to_string(v) + "/";
    }
    return s;
  };
  EXPECT_EQ(sig(one.state_drill), sig(two.state_drill));
  EXPECT_EQ(sig(one.state_drill), sig(eight.state_drill));
}

}  // namespace
}  // namespace dejavu
