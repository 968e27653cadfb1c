// Property: Snapshot::to_text() is a canonical form — independent of
// the order entries were installed in, and stable under
// take/restore/take round-trips. The session layer leans on this hard:
// reconciliation and the chaos drills use to_text() byte-identity as
// their convergence oracle, so any insertion-order leakage would turn
// "diverged" into a false alarm (or worse, mask real divergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "control/deployment.hpp"
#include "control/replay_target.hpp"
#include "control/snapshot.hpp"
#include "control/transaction.hpp"
#include "net/addr.hpp"

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

}  // namespace
}  // namespace dejavu::control
