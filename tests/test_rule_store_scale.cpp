// The whole-table readers at the load balancer's scale (§5, Fig. 4):
// LB.lb_session learns one entry per new flow, so it is the switch's
// largest table. The explorer, the cost walker and the state auditor
// read it in place; these tests pin what they report when it is full
// of sessions no explored witness carries, when a witness's own
// session is installed as several generations, and when it is
// corrupted. The snapshot path (take, restore, reconcile, scrub) moves
// it as bound words; its tests run at 32K sessions.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/auditor.hpp"
#include "control/channel.hpp"
#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "cost/cost.hpp"
#include "explore/explorer.hpp"
#include "explore/fixtures.hpp"
#include "explore_test_util.hpp"
#include "net/addr.hpp"

namespace dejavu::test {
/// Heap allocations so far (alloc_counter.cpp).
std::uint64_t allocations();
}  // namespace dejavu::test

namespace dejavu {
namespace {

constexpr const char* kLbTable = "LB.lb_session";

/// The load balancer's only table instance in `t`.
sim::RuntimeTable& lb_table(test::ExploreTarget& t) {
  const auto tables = t.deployment->dataplane().tables_named(kLbTable);
  if (tables.size() != 1) throw std::logic_error("fig9 hosts one LB");
  return *tables.front();
}

/// Learn `n` random sessions (mt19937(7) hashes) the way the control
/// plane does on a punt.
void learn_sessions(test::ExploreTarget& t, std::size_t n) {
  std::mt19937 rng(7);
  const auto& pool = t.deployment->control().lb_pool().backends;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t hash = rng();
    t.deployment->control().install_lb_session(hash,
                                               pool[hash % pool.size()]);
  }
}

explore::ExploreResult explore_at(test::ExploreTarget& t,
                                  std::optional<std::uint32_t> epoch = {}) {
  explore::ExploreOptions options;
  options.epoch = epoch;
  return explore::run(t.deployment->dataplane(), t.policies, options);
}

bool on_lb(const verify::Finding& f) {
  return f.where.ends_with(std::string("/") + kLbTable);
}

TEST(RuleStoreScale, LearnedSessionsFoldIntoOneDeadEntryFinding) {
  test::ExploreTarget empty = test::build_explore_target("fig9");
  ASSERT_EQ(lb_table(empty).entry_count(), 0u);
  const explore::ExploreResult base = explore_at(empty);

  test::ExploreTarget full = test::build_explore_target("fig9");
  learn_sessions(full, 1000);
  ASSERT_EQ(lb_table(full).entry_count(), 1000u);
  const explore::ExploreResult got = explore_at(full);

  std::vector<verify::Finding> others;
  std::vector<verify::Finding> lb;
  for (const verify::Finding& f : got.report.findings()) {
    (on_lb(f) ? lb : others).push_back(f);
  }
  ASSERT_EQ(lb.size(), 1u) << got.report.to_string();
  EXPECT_EQ(lb[0].check, "DV-S6");
  EXPECT_TRUE(lb[0].message.ends_with(
      " never matched on any explored path; 999 more entries of this "
      "table never matched"))
      << lb[0].message;
  EXPECT_EQ(others, base.report.findings());
  EXPECT_EQ(got.paths.size(), base.paths.size());

  // No witness carries a learned session, so the certified costs are
  // those of the empty table.
  const cost::CostResult base_cost =
      cost::run(empty.deployment->dataplane(), empty.policies, base);
  const cost::CostResult got_cost =
      cost::run(full.deployment->dataplane(), full.policies, got);
  EXPECT_EQ(got_cost.to_text(), base_cost.to_text());
}

/// The session a witness's flow learns at the LB: its hash, from the
/// control plane's own punt service on a fresh fig9 (nullopt when the
/// witness never reaches the LB).
std::optional<std::uint32_t> learned_hash(const explore::PathSummary& path) {
  test::ExploreTarget t = test::build_explore_target("fig9");
  t.deployment->control().inject(path.witness, path.in_port);
  std::optional<std::uint32_t> hash;
  lb_table(t).for_each_exact([&](const sim::RuntimeTable::ExactVersion& v) {
    hash = static_cast<std::uint32_t>(v.key[0]);
  });
  return hash;
}

// A witness's own session, installed as three generations of one key
// with a gap between them: a retired version [0,0] and a live one [1,1]
// sending the flow to two different addresses, and a shadow [3,open].
// At each epoch the explorer must take the version the interpreter
// takes (its differential replay, DV-S7, stays clean), the invisible
// versions are neither hit nor dead, and the certified bounds do not
// move.
TEST(RuleStoreScale, WitnessSessionVersionsResolveByEpoch) {
  test::ExploreTarget clean = test::build_explore_target("fig9");
  const explore::ExploreResult base = explore_at(clean);
  const cost::CostResult base_cost =
      cost::run(clean.deployment->dataplane(), clean.policies, base);
  const explore::PathSummary& witness = base.paths[0];
  ASSERT_EQ(witness.outcome.to_cpu, 1u);  // a session miss at the LB
  const auto hash = learned_hash(witness);
  ASSERT_TRUE(hash.has_value());

  test::ExploreTarget t = test::build_explore_target("fig9");
  auto to = [](net::Ipv4Addr dip) {
    return sim::ActionCall{"LB.modify_dstIp", {{"dip", dip.value()}}};
  };
  sim::RuntimeTable& lb = lb_table(t);
  lb.add_exact({*hash}, to(net::Ipv4Addr(10, 1, 2, 1)), {0, 0});
  // Outside every route: the router punts it.
  lb.add_exact({*hash}, to(net::Ipv4Addr(192, 0, 2, 1)), {1, 1});
  lb.add_exact({*hash}, to(net::Ipv4Addr(10, 1, 2, 2)), {3, sim::kEpochOpen});

  struct Want {
    std::size_t paths;  // a hit forks one path more than a miss
    bool delivered;
  };
  const Want want[] = {{base.paths.size() + 1, true},
                       {base.paths.size() + 1, false},
                       {base.paths.size(), false},  // no version visible
                       {base.paths.size() + 1, true}};
  for (std::uint32_t e = 0; e < 4; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const explore::ExploreResult r = explore_at(t, e);
    EXPECT_FALSE(r.report.has("DV-S7")) << r.report.to_string();
    for (const verify::Finding& f : r.report.findings()) {
      EXPECT_FALSE(on_lb(f)) << f.to_string();
    }
    EXPECT_EQ(r.paths.size(), want[e].paths);
    const explore::PathSummary* same = nullptr;
    for (const explore::PathSummary& p : r.paths) {
      if (p.to_string() == witness.to_string()) same = &p;
    }
    ASSERT_NE(same, nullptr);
    EXPECT_EQ(same->outcome.out_ports.size() == 1, want[e].delivered);
    EXPECT_EQ(same->outcome.to_cpu, want[e].delivered ? 0u : 1u);

    const cost::CostResult c = cost::run(t.deployment->dataplane(), t.policies,
                                         r, {.epoch = e});
    EXPECT_EQ(c.deployment_pass_bound, base_cost.deployment_pass_bound);
    EXPECT_EQ(c.report.findings(), base_cost.report.findings());
  }
}

// A symbolic lookup forks only into the versions its epoch sees: a
// VIP mapping installed shadowed for generation 1 (keyed by the
// packet's destination, which the explorer leaves symbolic) adds a
// path at epoch 1 and none at epoch 0, and the interpreter agrees at
// both. At epoch 0 the cost walker does not fork into it either.
TEST(RuleStoreScale, ShadowVersionForksOnlyAtItsEpoch) {
  test::ExploreTarget clean = test::build_explore_target("fig9");
  const explore::ExploreResult base = explore_at(clean, 0);
  const std::string base_cost =
      cost::run(clean.deployment->dataplane(), clean.policies, base).to_text();

  test::ExploreTarget t = test::build_explore_target("fig9");
  for (sim::RuntimeTable* vip :
       t.deployment->dataplane().tables_named("VGW.vip_map")) {
    vip->add_exact(
        {net::Ipv4Addr(10, 2, 0, 99).value()},
        sim::ActionCall{"VGW.translate",
                        {{"phys_dst", net::Ipv4Addr(10, 2, 1, 20).value()},
                         {"tenant", 200}}},
        {1, sim::kEpochOpen});
  }
  const explore::ExploreResult before = explore_at(t, 0);
  EXPECT_FALSE(before.report.has("DV-S7")) << before.report.to_string();
  EXPECT_EQ(before.paths.size(), base.paths.size());
  EXPECT_EQ(
      cost::run(t.deployment->dataplane(), t.policies, before).to_text(),
      base_cost);
  const explore::ExploreResult after = explore_at(t, 1);
  EXPECT_FALSE(after.report.has("DV-S7")) << after.report.to_string();
  EXPECT_GT(after.paths.size(), base.paths.size());
}

// A ghost version of one learned session, overlapping the original's
// window, is the one DV-S8 finding among 1,000 single-version keys:
// the structural audit takes up only keys with more than one version.
TEST(RuleStoreScale, OverlappingSessionVersionsAreOneDvS8Finding) {
  test::ExploreTarget t = test::build_explore_target("fig9");
  learn_sessions(t, 1000);
  sim::RuntimeTable& lb = lb_table(t);
  ASSERT_FALSE(
      lb.corrupt(sim::RuntimeTable::CorruptKind::kDuplicate, /*salt=*/3)
          .empty());
  std::vector<std::uint64_t> twice;
  lb.for_each_exact([&](const sim::RuntimeTable::ExactVersion& v) {
    std::size_t count = 0;
    lb.for_each_version(v.key, [&](const auto&) { ++count; });
    if (count > 1) twice.assign(v.key.begin(), v.key.end());
  });
  ASSERT_EQ(twice.size(), 1u);

  const explore::ExploreResult r = explore_at(t);
  std::vector<std::string> s8;
  for (const verify::Finding& f : r.report.findings()) {
    if (f.check == "DV-S8") s8.push_back(f.message);
  }
  ASSERT_EQ(s8.size(), 1u) << r.report.to_string();
  EXPECT_TRUE(s8[0].starts_with("versions of entry (" +
                                std::to_string(twice[0]) +
                                ") have overlapping epoch windows"))
      << s8[0];
}

// DV-S5 compares the two gates' versions at the explored epoch only:
// the parallel-overlap fixture's shared key, shadowed for generation 1
// in either gate, overlaps at epoch 1 and not at epoch 0.
TEST(RuleStoreScale, ParallelGateOverlapCountsOnlyVisibleVersions) {
  const std::vector<std::uint64_t> key = {1, 1, 0, 0};
  for (const char* gate :
       {"dejavu_check_nextNF_FW", "dejavu_check_nextNF_Police"}) {
    SCOPED_TRACE(gate);
    explore::fixtures::Bundle b = explore::fixtures::make("parallel-overlap");
    sim::RuntimeTable* rt =
        b.deployment->dataplane().table_in("pipelet_ingress0", gate);
    ASSERT_NE(rt, nullptr);
    const auto live = rt->find_exact(key);
    ASSERT_TRUE(live.has_value());
    ASSERT_TRUE(rt->remove_exact_version(key, live->window));
    rt->add_exact(key, live->action, {1, sim::kEpochOpen});

    for (const std::uint32_t epoch : {0u, 1u}) {
      explore::ExploreOptions options;
      options.epoch = epoch;
      const explore::ExploreResult r =
          explore::run(b.deployment->dataplane(), b.policies, options);
      EXPECT_EQ(r.report.has("DV-S5"), epoch == 1)
          << "epoch " << epoch << "\n" << r.report.to_string();
    }
  }
}

// A silent corruption of the 8K-session table is found within the
// same sweep bound as one of a small table: a tick digests only its
// window's objects, each whole.
TEST(RuleStoreScale, CorruptedSessionTableFoundWithinOneSweep) {
  using Kind = sim::RuntimeTable::CorruptKind;
  for (const Kind kind : {Kind::kKeyFlip, Kind::kActionFlip, Kind::kWindowFlip,
                          Kind::kDelete, Kind::kDuplicate}) {
    SCOPED_TRACE(static_cast<int>(kind));
    test::ExploreTarget t = test::build_explore_target("fig9");
    learn_sessions(t, 8192);
    sim::DataPlane& live = t.deployment->dataplane();
    sim::DataPlane mirror = live;

    control::AuditorOptions options;
    options.sample_every = 0;  // the digest lane only
    control::Auditor auditor(live, mirror, options);
    const std::size_t objects = live.state_objects().size();
    const std::size_t sweep =
        (objects + options.digest_objects_per_tick - 1) /
        options.digest_objects_per_tick;
    for (std::size_t i = 0; i < sweep; ++i) auditor.tick();  // clean sweep
    ASSERT_TRUE(auditor.findings().empty());

    ASSERT_FALSE(lb_table(t).corrupt(kind, /*salt=*/5).empty());
    std::size_t ticks = 0;
    while (auditor.findings().empty() && ticks < sweep) {
      auditor.tick();
      ++ticks;
    }
    ASSERT_EQ(auditor.findings().size(), 1u);  // within one sweep
    EXPECT_EQ(auditor.findings()[0].object, kLbTable);

    const control::ScrubReport scrub = auditor.scrub();
    EXPECT_TRUE(scrub.identical) << scrub.to_string();
  }
}

// A snapshot holds bound words: taking one allocates per table, not
// per entry, so 8K sessions cost what 1K do.
TEST(RuleStoreScale, TakingASnapshotAllocatesNothingPerEntry) {
  auto allocations_of_take = [](std::size_t sessions) {
    test::ExploreTarget t = test::build_explore_target("fig9");
    learn_sessions(t, sessions);
    const std::uint64_t before = test::allocations();
    const control::Snapshot snap =
        control::take_snapshot(t.deployment->dataplane());
    const std::uint64_t n = test::allocations() - before;
    EXPECT_GE(snap.entry_count(), sessions);
    return n;
  };
  const std::uint64_t small = allocations_of_take(1024);
  EXPECT_EQ(allocations_of_take(8192), small);
  EXPECT_LT(small, 200u);
}

// The store's size is part of the packet path's speed: one more 8-byte
// member slowed per-packet inject by 7-13%, so the snapshot path adds
// none.
TEST(RuleStoreScale, RuntimeTableKeepsItsSize) {
  EXPECT_EQ(sizeof(sim::RuntimeTable), 176u);
}

TEST(RuleStoreScale, SnapshotRoundTripAt32KIsByteIdentical) {
  test::ExploreTarget t = test::build_explore_target("fig9");
  learn_sessions(t, 32768);
  sim::DataPlane& dp = t.deployment->dataplane();
  ASSERT_GT(lb_table(t).entry_count(), 32000u);
  const control::Snapshot snap = control::take_snapshot(dp);
  const std::string text = snap.to_text();

  sim::DataPlane copy(dp.program(), dp.ids(), dp.config());
  ASSERT_TRUE(control::restore_snapshot(snap, copy).empty());
  EXPECT_EQ(control::take_snapshot(copy).to_text(), text);
  const sim::RuntimeTable& restored = *copy.tables_named(kLbTable).front();
  EXPECT_EQ(restored.state_digest(), lb_table(t).state_digest());
  // Sized once: the index is the one growth would have reached.
  EXPECT_EQ(restored.exact_index_bytes(), lb_table(t).exact_index_bytes());
}

TEST(RuleStoreScale, ConvergedReconcileAt32KMakesNoEdits) {
  test::ExploreTarget t = test::build_explore_target("fig9");
  learn_sessions(t, 32768);
  sim::DataPlane& dp = t.deployment->dataplane();
  control::SwitchAgent agent(dp);
  control::Channel channel(sim::FaultPlan{},
                           [&](const control::SessionMsg& m) {
                             return agent.handle(m);
                           });
  auto mirror =
      std::make_unique<sim::DataPlane>(dp.program(), dp.ids(), dp.config());
  ASSERT_TRUE(
      control::restore_snapshot(control::take_snapshot(dp), *mirror).empty());
  control::Session session(channel, std::move(mirror));
  ASSERT_TRUE(session.hello());
  const control::ReconcileReport report = session.reconcile();
  EXPECT_TRUE(report.converged) << report.to_string();
  EXPECT_EQ(report.ops, 0u);
}

TEST(RuleStoreScale, ScrubAt32KConvergesAfterOneCorruption) {
  using Kind = sim::RuntimeTable::CorruptKind;
  for (const Kind kind : {Kind::kKeyFlip, Kind::kActionFlip, Kind::kWindowFlip,
                          Kind::kDelete, Kind::kDuplicate}) {
    SCOPED_TRACE(static_cast<int>(kind));
    test::ExploreTarget t = test::build_explore_target("fig9");
    learn_sessions(t, 32768);
    sim::DataPlane& live = t.deployment->dataplane();
    sim::DataPlane mirror = live;
    control::AuditorOptions options;
    options.sample_every = 0;
    control::Auditor auditor(live, mirror, options);
    const std::string intended = control::take_snapshot(mirror).to_text();
    ASSERT_FALSE(lb_table(t).corrupt(kind, /*salt=*/11).empty());
    ASSERT_NE(control::take_snapshot(live).to_text(), intended);

    const control::ScrubReport scrub = auditor.scrub();
    EXPECT_TRUE(scrub.identical) << scrub.to_string();
    EXPECT_GT(scrub.ops, 0u);
    EXPECT_EQ(control::take_snapshot(live).to_text(), intended);
  }
}

}  // namespace
}  // namespace dejavu
