// Transactional rule updates: all-or-nothing semantics against the
// behavioral data plane. The critical property (ISSUE: acceptance) is
// that a mid-transaction write failure leaves the switch byte-identical
// to its pre-transaction snapshot — registers included.
#include <gtest/gtest.h>

#include <tuple>

#include "control/deployment.hpp"
#include "control/live_update.hpp"
#include "control/replay_target.hpp"
#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "control/transaction.hpp"
#include "merge/compose.hpp"
#include "nf/nfs.hpp"
#include "nf/parser_lib.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/fault.hpp"

namespace dejavu::control {
namespace {

sim::FaultPlan write_fail_plan(std::uint32_t op_index, std::uint32_t count) {
  sim::FaultPlan plan;
  sim::FaultEvent ev;
  ev.kind = sim::FaultKind::kWriteFail;
  ev.op_index = op_index;
  ev.count = count;
  plan.events.push_back(ev);
  return plan;
}

/// Classifier -> Limiter -> Router: the smallest deployment with a
/// register array (the Limiter's flow_count), for register rollback.
std::unique_ptr<Deployment> make_stateful_deployment() {
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  nfs.push_back(nf::make_rate_limiter(ids, 100));
  nfs.push_back(nf::make_router(ids));
  sfc::PolicySet policies;
  policies.add({.path_id = 1,
                .name = "limited",
                .nfs = {sfc::kClassifier, "Limiter", sfc::kRouter},
                .weight = 1.0,
                .in_port = 0,
                .exit_port = 1,
                .terminal_pops_sfc = true});
  asic::SwitchConfig config(asic::TargetSpec::tofino32());
  return Deployment::build(std::move(nfs), policies, std::move(config),
                           std::move(ids));
}

RuleOp exact_install(std::string table, std::vector<std::uint64_t> key,
                     sim::ActionCall action) {
  RuleOp op;
  op.table = std::move(table);
  op.key = std::move(key);
  op.action = std::move(action);
  return op;
}

RuleOp exact_removal(std::string table, std::vector<std::uint64_t> key) {
  RuleOp op = exact_install(std::move(table), std::move(key), {});
  op.install = false;
  return op;
}

RuleOp ternary_install(std::string table, std::vector<net::TernaryField> key,
                       std::int32_t priority, sim::ActionCall action) {
  RuleOp op;
  op.kind = RuleOp::Kind::kTernary;
  op.table = std::move(table);
  op.tkey = std::move(key);
  op.priority = priority;
  op.action = std::move(action);
  return op;
}

/// The ternary install an LPM prefix on `table` expands to.
RuleOp lpm_install(sim::DataPlane& dp, const std::string& table,
                   std::uint64_t value, std::uint8_t prefix_len,
                   sim::ActionCall action) {
  return ternary_install(table,
                         dp.tables_named(table)[0]->lpm_key(value, prefix_len),
                         prefix_len, std::move(action));
}

RuleOp register_write(std::string control, std::string reg,
                      std::uint64_t index, std::uint64_t value) {
  RuleOp op;
  op.kind = RuleOp::Kind::kRegister;
  op.control = std::move(control);
  op.reg = std::move(reg);
  op.index = index;
  op.value = value;
  return op;
}

TEST(RetryPolicy, BackoffIsDeterministicAndBounded) {
  const Backoff p;
  for (std::uint32_t retry = 1; retry <= 8; ++retry) {
    const std::uint32_t ms = p.backoff_ms(retry);
    EXPECT_EQ(ms, p.backoff_ms(retry)) << "retry " << retry;
    // base * mult^(retry-1) clamped to max_ms, then +/- 20% jitter.
    EXPECT_LE(ms, static_cast<std::uint32_t>(p.max_ms * (1.0 + p.jitter)));
    EXPECT_GE(ms, 1u);
  }
  // Exponential until the clamp.
  EXPECT_LT(p.backoff_ms(1), p.backoff_ms(3));

  Backoff reseeded = p;
  reseeded.seed = 0xfeed;
  bool any_differs = false;
  for (std::uint32_t retry = 1; retry <= 8; ++retry) {
    any_differs |= reseeded.backoff_ms(retry) != p.backoff_ms(retry);
  }
  EXPECT_TRUE(any_differs);
}

TEST(Transaction, CommitsBatch) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();

  Transaction txn(dp);
  txn.add(exact_install("LB.lb_session", {0x4242},
                        {"LB.modify_dstIp", {{"dip", 0x0a010201}}}));
  txn.add(lpm_install(dp, "Router.ipv4_lpm",
                      net::Ipv4Addr(10, 77, 0, 0).value(), 16,
                      {"Router.route", {{"port", 1}, {"dmac", 0x42}}}));
  const auto result = txn.commit();
  EXPECT_TRUE(result.committed) << result.to_string();
  EXPECT_EQ(result.applied, 2u);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.retries, 0u);
  ASSERT_EQ(dp.tables_named("LB.lb_session").size(), 1u);
  EXPECT_TRUE(
      dp.tables_named("LB.lb_session")[0]->find_exact({0x4242}).has_value());
}

TEST(Transaction, CommitInvalidatesCompiledTraces) {
  // Trace-invalidation property (DESIGN.md §12): a committed batch
  // bumps table revisions, so a compiled pipeline built before the
  // commit must advance its generation (or fall back) on the next
  // packet — the new rules are visible immediately, exactly as on the
  // interpreter.
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  sim::CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  const std::uint64_t gen = fast.generation();

  // A plain routed path-3 packet; the commit shadows its /16 route
  // with a /24 carrying a different dmac, so the emitted bytes change.
  const auto flows = fig2_replay_flows(6);
  const net::Packet packet = flows.back().flow.packet();
  const std::uint16_t port = flows.back().in_port;
  const sim::SwitchOutput before = fast.process(packet, port);
  EXPECT_TRUE(before.delivered());

  Transaction txn(dp);
  txn.add(lpm_install(dp, "Router.ipv4_lpm",
                      net::Ipv4Addr(10, 3, 0, 0).value(), 24,
                      {"Router.route", {{"port", 1}, {"dmac", 0x4242}}}));
  ASSERT_TRUE(txn.commit().committed);

  sim::DataPlane reference = dp;
  const sim::SwitchOutput expected = reference.process(packet, port);
  const sim::SwitchOutput got = fast.process(packet, port);
  EXPECT_TRUE(sim::semantically_equal(expected, got)) << got.drop_reason;
  EXPECT_FALSE(sim::semantically_equal(before, got));  // the rule took
  EXPECT_TRUE(fast.generation() > gen || !fast.compiled_ok());
}

TEST(Transaction, IsSingleUse) {
  auto fx = make_fig9_deployment();
  Transaction txn(fx.deployment->dataplane());
  txn.commit();
  EXPECT_THROW(txn.commit(), std::logic_error);
}

TEST(Transaction, ValidationRejectsWithoutTouchingTheSwitch) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const std::string before = take_snapshot(dp).to_text();

  {  // unknown table
    Transaction txn(dp);
    txn.add(exact_install("LB.lb_session", {1},
                          {"LB.modify_dstIp", {{"dip", 1}}}));
    txn.add(exact_install("Ghost.table", {1}, {"Ghost.act", {}}));
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed);
    EXPECT_NE(r.error.find("does not exist"), std::string::npos);
    EXPECT_EQ(r.applied, 0u);
  }
  {  // key arity mismatch
    Transaction txn(dp);
    txn.add(exact_install("LB.lb_session", {1, 2},
                          {"LB.modify_dstIp", {{"dip", 1}}}));
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed);
    EXPECT_NE(r.error.find("arity"), std::string::npos);
  }
  {  // removing a phantom entry
    Transaction txn(dp);
    txn.add(exact_removal("LB.lb_session", {0xdead}));
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed);
    EXPECT_NE(r.error.find("not installed"), std::string::npos);
  }
  {  // exact install into a ternary table
    Transaction txn(dp);
    txn.add(exact_install("Classifier.traffic_class", {1, 2, 3},
                          {"Classifier.classify", {}}));
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed);
  }
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(Transaction, RejectsActionsTheTableCannotRun) {
  // An install naming an action the table does not bind, or with
  // arguments other than the action's parameters, used to commit; its
  // first hit then threw inside DataPlane::process and knocked the
  // compiled engine into full fallback. It must fail validation.
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  sim::CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  const std::string before = take_snapshot(dp).to_text();
  const std::uint32_t vip = net::Ipv4Addr(10, 9, 0, 9).value();

  const std::vector<std::pair<sim::ActionCall, std::string>> bad = {
      {{"no_such_action", {}}, "not bound"},
      {{"LB.modify_dstIp", {{"dip", 1}}}, "not bound"},
      {{"VGW.translate", {{"phys_dst", 1}}}, "missing argument 'tenant'"},
      {{"VGW.translate", {{"phys_dst", 1}, {"tenant", 2}, {"ttl", 3}}},
       "does not take"},
      {{"VGW.pass", {{"phys_dst", 1}}}, "does not take"},
  };
  for (const auto& [call, why] : bad) {
    Transaction txn(dp);
    txn.add(exact_install("VGW.vip_map", {vip}, call));
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed) << call.action;
    EXPECT_NE(r.error.find(why), std::string::npos) << r.error;
    EXPECT_EQ(r.applied, 0u);
  }
  {  // ternary and LPM installs are checked the same way
    Transaction txn(dp);
    txn.add(lpm_install(dp, "Router.ipv4_lpm", vip, 24, {"Router.route", {}}));
    EXPECT_FALSE(txn.commit().committed);
  }
  EXPECT_EQ(take_snapshot(dp).to_text(), before);

  // The engine never saw a change, and a packet to the VIP still runs.
  const auto flows = fig2_replay_flows(6);
  const std::uint64_t gen = fast.generation();
  EXPECT_NO_THROW((void)fast.process(flows.front().flow.packet(),
                                     flows.front().in_port));
  EXPECT_TRUE(fast.compiled_ok());
  EXPECT_EQ(fast.generation(), gen);

  // The well-formed install still commits.
  Transaction good(dp);
  good.add(exact_install("VGW.vip_map", {vip},
                         {"VGW.translate", {{"phys_dst", 1}, {"tenant", 2}}}));
  EXPECT_TRUE(good.commit().committed);
}

TEST(Transaction, CapacityCheckCoversTheWholeBatch) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  auto tables = dp.tables_named("LB.lb_session");
  ASSERT_EQ(tables.size(), 1u);
  const auto capacity = tables[0]->def().max_entries;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    tables[0]->add_exact({i}, {"LB.modify_dstIp", {{"dip", 1}}});
  }

  // A brand-new key cannot fit...
  Transaction full(dp);
  full.add(exact_install("LB.lb_session", {capacity + 7},
                         {"LB.modify_dstIp", {{"dip", 2}}}));
  const auto rejected = full.commit();
  EXPECT_FALSE(rejected.committed);
  EXPECT_NE(rejected.error.find("cannot fit"), std::string::npos);

  // ...but overwriting an existing key consumes no new capacity.
  Transaction overwrite(dp);
  overwrite.add(exact_install("LB.lb_session", {0},
                              {"LB.modify_dstIp", {{"dip", 9}}}));
  EXPECT_TRUE(overwrite.commit().committed);
}

TEST(Transaction, RemovalsFreeCapacityForLaterInstalls) {
  // Each op is validated against the state the earlier ops of its batch
  // leave: a legacy batch that swaps one LB session for another on a
  // full table fits, because its removal is queued first.
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  sim::RuntimeTable* lb = dp.tables_named("LB.lb_session")[0];
  const auto capacity = lb->def().max_entries;
  for (std::uint64_t i = 0; lb->entry_count() < capacity; ++i) {
    lb->add_exact({0x70000000 + i}, {"LB.modify_dstIp", {{"dip", 1}}});
  }

  RuleDiff swap;
  swap.ops.push_back(exact_install("LB.lb_session", {0x7fff0000},
                                   {"LB.modify_dstIp", {{"dip", 2}}}));
  swap.ops.push_back(exact_removal("LB.lb_session", {0x70000000}));
  Transaction txn(dp);
  fill_transaction(txn, swap);
  const auto result = txn.commit();
  EXPECT_TRUE(result.committed) << result.to_string();
  EXPECT_EQ(lb->entry_count(), capacity);
  EXPECT_TRUE(lb->find_exact({0x7fff0000}).has_value());
  EXPECT_FALSE(lb->find_exact({0x70000000}).has_value());

  // Queued the other way round, the install would overflow the table
  // before the removal frees a slot.
  const std::string before = take_snapshot(dp).to_text();
  Transaction reversed(dp);
  reversed.add(exact_install("LB.lb_session", {0x7fff0001},
                             {"LB.modify_dstIp", {{"dip", 3}}}));
  reversed.add(exact_removal("LB.lb_session", {0x70000001}));
  const auto rejected = reversed.commit();
  EXPECT_FALSE(rejected.committed);
  EXPECT_NE(rejected.error.find("cannot fit"), std::string::npos);
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(Transaction, NamedRemovalFreesItsWindowForTheBatch) {
  // A reconcile rewrites a ternary version's action by removing the
  // version it names and installing the same window again; the
  // install is checked against the window the removal freed.
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const std::vector<net::TernaryField> key{{0, 0}, {0, 0}, {0, 0}};
  sim::RuntimeTable* cls = dp.tables_named("Classifier.traffic_class")[0];
  cls->add_ternary(key, -7, {"Classifier.classify",
                             {{"path_id", 1}, {"tenant", 1}}});

  RuleOp remove = ternary_install("Classifier.traffic_class", key, -7, {});
  remove.install = false;
  remove.window = sim::EpochWindow{};
  RuleOp add = ternary_install("Classifier.traffic_class", key, -7,
                               {"Classifier.classify",
                                {{"path_id", 2}, {"tenant", 1}}});
  add.window = sim::EpochWindow{};
  {  // without the removal, the same window overlaps
    Transaction txn(dp);
    txn.add(add);
    EXPECT_NE(txn.commit().error.find("overlaps"), std::string::npos);
  }
  Transaction txn(dp);
  txn.add(remove);
  txn.add(add);
  const auto result = txn.commit();
  EXPECT_TRUE(result.committed) << result.to_string();
  const auto versions = cls->ternary_versions(key, -7);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].action.args.at("path_id"), 2u);

  // A named version that is already gone is already reconciled.
  const std::string before = take_snapshot(dp).to_text();
  remove.window = sim::EpochWindow{5, 9};
  Transaction gone(dp);
  gone.add(remove);
  EXPECT_TRUE(gone.commit().committed);
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(Transaction, LegacyRemovalTakesTheOpenVersionExactOrTernary) {
  // Mid shadow phase a key has two versions: the one retired at `from`
  // (first in match order, installed first) and the shadow [to, open].
  // A legacy removal (no window, no retire) takes the open version of
  // an exact key and of a ternary key alike.
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const std::uint32_t from = dp.epoch();
  const std::uint32_t to = from + 1;
  const std::vector<net::TernaryField> tkey{{0, 0}, {0, 0}, {0, 0}};
  auto classify = [](std::uint64_t path) {
    return sim::ActionCall{"Classifier.classify",
                           {{"path_id", path}, {"tenant", 1}}};
  };
  auto session = [](std::uint64_t dip) {
    return sim::ActionCall{"LB.modify_dstIp", {{"dip", dip}}};
  };
  const std::vector<std::uint64_t> xkey{0x7fff0042};
  {
    Transaction live(dp);
    live.add(ternary_install("Classifier.traffic_class", tkey, -7,
                             classify(1)));
    live.add(exact_install("LB.lb_session", xkey, session(1)));
    ASSERT_TRUE(live.commit().committed);
  }
  {
    Transaction shadow(dp);
    RuleOp retire_t = ternary_install("Classifier.traffic_class", tkey, -7, {});
    retire_t.install = false;
    retire_t.retire_at = from;
    RuleOp retire_x = exact_removal("LB.lb_session", xkey);
    retire_x.retire_at = from;
    RuleOp shadow_t =
        ternary_install("Classifier.traffic_class", tkey, -7, classify(2));
    shadow_t.window = sim::EpochWindow{to, sim::kEpochOpen};
    RuleOp shadow_x = exact_install("LB.lb_session", xkey, session(2));
    shadow_x.window = sim::EpochWindow{to, sim::kEpochOpen};
    shadow.add(retire_t);
    shadow.add(retire_x);
    shadow.add(shadow_t);
    shadow.add(shadow_x);
    ASSERT_TRUE(shadow.commit().committed);
  }
  sim::RuntimeTable* cls = dp.tables_named("Classifier.traffic_class")[0];
  sim::RuntimeTable* lb = dp.tables_named("LB.lb_session")[0];
  ASSERT_EQ(cls->ternary_versions(tkey, -7).size(), 2u);
  ASSERT_EQ(lb->exact_versions(xkey).size(), 2u);

  Transaction legacy(dp);
  RuleOp remove_t = ternary_install("Classifier.traffic_class", tkey, -7, {});
  remove_t.install = false;
  legacy.add(remove_t);
  legacy.add(exact_removal("LB.lb_session", xkey));
  const auto result = legacy.commit();
  ASSERT_TRUE(result.committed) << result.to_string();

  const auto ternary_left = cls->ternary_versions(tkey, -7);
  ASSERT_EQ(ternary_left.size(), 1u);
  EXPECT_EQ(ternary_left[0].window, (sim::EpochWindow{0, from}));
  EXPECT_EQ(ternary_left[0].action.args.at("path_id"), 1u);
  const auto exact_left = lb->exact_versions(xkey);
  ASSERT_EQ(exact_left.size(), 1u);
  EXPECT_EQ(exact_left[0].window, (sim::EpochWindow{0, from}));
  EXPECT_EQ(exact_left[0].action.args.at("dip"), 1u);
}

TEST(Transaction, TransientFaultsRetryUnderBackoff) {
  auto fx = make_fig9_deployment();
  const sim::FaultPlan plan = write_fail_plan(/*op_index=*/0, /*count=*/2);
  sim::FaultInjector injector(plan);

  Transaction txn(fx.deployment->dataplane(), Backoff{}, &injector);
  txn.add(exact_install("LB.lb_session", {0x77},
                        {"LB.modify_dstIp", {{"dip", 3}}}));
  const auto result = txn.commit();
  EXPECT_TRUE(result.committed) << result.to_string();
  EXPECT_EQ(result.retries, 2u);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_GT(result.total_backoff_ms, 0u);
}

TEST(Transaction, ExhaustedRetriesRollBackByteIdentical) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  // Pre-existing state the transaction will overwrite and remove: the
  // rollback must restore both.
  fx.deployment->control().install_lb_session(0x42,
                                              net::Ipv4Addr(10, 1, 2, 1));
  fx.deployment->control().install_lb_session(0x43,
                                              net::Ipv4Addr(10, 1, 2, 2));
  const std::string before = take_snapshot(dp).to_text();

  const sim::FaultPlan plan = write_fail_plan(/*op_index=*/3, /*count=*/10);
  sim::FaultInjector injector(plan);
  Transaction txn(dp, Backoff{}, &injector);
  txn.add(exact_install("LB.lb_session", {0x42},  // overwrite
                        {"LB.modify_dstIp", {{"dip", 0xbad}}}));
  txn.add(exact_removal("LB.lb_session", {0x43}));  // removal
  txn.add(lpm_install(dp, "Router.ipv4_lpm",
                      net::Ipv4Addr(10, 99, 0, 0).value(), 16,
                      {"Router.route", {{"port", 1}, {"dmac", 0x99}}}));
  txn.add(exact_install("LB.lb_session", {0x55},  // never applied: op 3 fails
                        {"LB.modify_dstIp", {{"dip", 4}}}));
  const auto result = txn.commit();
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.rolled_back);
  EXPECT_EQ(result.applied, 3u);
  EXPECT_NE(result.error.find("retries exhausted"), std::string::npos);

  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(Transaction, RegisterWritesRollBackToo) {
  auto d = make_stateful_deployment();
  sim::DataPlane& dp = d->dataplane();
  auto loc = d->placement().find("Limiter");
  ASSERT_TRUE(loc.has_value());
  const std::string ctrl = merge::pipelet_control_name(loc->pipelet);
  auto* cells = dp.register_array(ctrl, "Limiter.flow_count");
  ASSERT_NE(cells, nullptr);
  (*cells)[5] = 1111;  // live state the rollback must restore
  const std::string before = take_snapshot(dp).to_text();

  const sim::FaultPlan plan = write_fail_plan(/*op_index=*/2, /*count=*/10);
  sim::FaultInjector injector(plan);
  Transaction txn(dp, Backoff{}, &injector);
  txn.add(register_write(ctrl, "Limiter.flow_count", 5, 2222));
  txn.add(lpm_install(dp, "Router.ipv4_lpm",
                      net::Ipv4Addr(10, 88, 0, 0).value(), 16,
                      {"Router.route", {{"port", 1}, {"dmac", 0x88}}}));
  txn.add(ternary_install("Classifier.traffic_class", {{0, 0}, {0, 0}, {0, 0}},
                          /*priority=*/1,
                          {"Classifier.classify",
                           {{"path_id", 1}, {"tenant", 1}}}));
  const auto result = txn.commit();
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.rolled_back);
  EXPECT_EQ(result.applied, 2u);

  EXPECT_EQ((*cells)[5], 1111u);
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(Transaction, EmptyBatchCommitsAsNoOp) {
  auto fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const std::string before = take_snapshot(dp).to_text();

  Transaction txn(dp);
  const auto result = txn.commit();
  EXPECT_TRUE(result.committed) << result.to_string();
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(Transaction, DoubleCommitThrowsEvenAfterRollback) {
  auto fx = make_fig9_deployment();
  const sim::FaultPlan plan = write_fail_plan(/*op_index=*/0, /*count=*/10);
  sim::FaultInjector injector(plan);
  Transaction txn(fx.deployment->dataplane(), Backoff{}, &injector);
  txn.add(exact_install("LB.lb_session", {0x90},
                        {"LB.modify_dstIp", {{"dip", 5}}}));
  const auto result = txn.commit();
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.rolled_back);
  // A rolled-back transaction is spent: re-committing must not replay
  // the batch against the switch.
  EXPECT_THROW(txn.commit(), std::logic_error);
}

TEST(Transaction, FaultOnFinalRegisterWriteRollsBackEverything) {
  // The failing op is the *last* in the batch, and a register write —
  // every earlier table op was already applied, and the undo log must
  // unwind them all plus leave the register untouched.
  auto d = make_stateful_deployment();
  sim::DataPlane& dp = d->dataplane();
  auto loc = d->placement().find("Limiter");
  ASSERT_TRUE(loc.has_value());
  const std::string ctrl = merge::pipelet_control_name(loc->pipelet);
  auto* cells = dp.register_array(ctrl, "Limiter.flow_count");
  ASSERT_NE(cells, nullptr);
  (*cells)[9] = 777;
  const std::string before = take_snapshot(dp).to_text();

  const sim::FaultPlan plan = write_fail_plan(/*op_index=*/2, /*count=*/10);
  sim::FaultInjector injector(plan);
  Transaction txn(dp, Backoff{}, &injector);
  txn.add(lpm_install(dp, "Router.ipv4_lpm",
                      net::Ipv4Addr(10, 66, 0, 0).value(), 16,
                      {"Router.route", {{"port", 1}, {"dmac", 0x66}}}));
  txn.add(ternary_install("Classifier.traffic_class", {{0, 0}, {0, 0}, {0, 0}},
                          /*priority=*/2,
                          {"Classifier.classify",
                           {{"path_id", 1}, {"tenant", 1}}}));
  txn.add(register_write(ctrl, "Limiter.flow_count", 9, 888));  // op 2: fails
  const auto result = txn.commit();
  EXPECT_FALSE(result.committed);
  EXPECT_TRUE(result.rolled_back);
  EXPECT_EQ(result.applied, 2u);
  EXPECT_EQ((*cells)[9], 777u);
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

TEST(Transaction, RegisterValidation) {
  auto d = make_stateful_deployment();
  auto loc = d->placement().find("Limiter");
  ASSERT_TRUE(loc.has_value());
  const std::string ctrl = merge::pipelet_control_name(loc->pipelet);

  Transaction bad_name(d->dataplane());
  bad_name.add(register_write(ctrl, "Limiter.ghost", 0, 1));
  EXPECT_NE(bad_name.commit().error.find("no such register"),
            std::string::npos);

  Transaction bad_index(d->dataplane());
  bad_index.add(register_write(ctrl, "Limiter.flow_count", 1u << 20, 1));
  EXPECT_NE(bad_index.commit().error.find("out of range"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The store's action check, on every install path

enum class BadAction { kUnbound, kUndefined, kMissingArg, kExtraArg };
enum class InstallPath { kAddExact, kAddTernary, kAddLpm, kTransaction,
                         kReconcile };

/// One control with an exact, a ternary and an LPM table. Each binds
/// "set" (one param) and "ghost", which the control never defines;
/// "other" is defined but bound to no table.
struct CheckRig {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"p"};
  std::unique_ptr<sim::DataPlane> dp;

  CheckRig() {
    nf::add_standard_parser(program, ids);
    p4ir::ControlBlock c("c");
    c.add_action({"set", {{"v", 8}}, {p4ir::set_from_param("ipv4.ttl", "v")}});
    c.add_action({"other", {}, {}});
    c.add_action({"nop", {}, {}});
    for (const auto& [name, kind] :
         {std::pair{"e", p4ir::MatchKind::kExact},
          std::pair{"t", p4ir::MatchKind::kTernary},
          std::pair{"l", p4ir::MatchKind::kLpm}}) {
      p4ir::Table t;
      t.name = name;
      t.keys = {p4ir::TableKey{"ipv4.dst_addr", kind, 32}};
      t.actions = {"set", "ghost"};
      t.default_action = "nop";
      c.add_table(t);
    }
    program.add_control(std::move(c));
    dp = std::make_unique<sim::DataPlane>(
        program, ids, asic::SwitchConfig(asic::TargetSpec::mini()));
  }
};

TEST(SwitchAgent, ReconcileRemovesAMalformedVersion) {
  // A window bit flip can leave a retired version with from > to. The
  // reconcile plan names it by that window and removes it like any
  // other version: only installs must carry a well-formed window.
  CheckRig rig;
  sim::DataPlane& dp = *rig.dp;
  const Snapshot clean = take_snapshot(dp);
  sim::RuntimeTable* e = dp.table_in("c", "e");
  e->add_exact({7}, {"set", {{"v", 1}}}, sim::EpochWindow{0, 0});
  for (std::uint64_t salt = 0; e->exact_versions({7})[0].window.well_formed();
       ++salt) {
    ASSERT_LT(salt, 64u);
    e->corrupt(sim::RuntimeTable::CorruptKind::kWindowFlip, salt);
  }

  SwitchAgent agent(dp);
  const AckMsg ack = agent.apply(snapshot_diff(take_snapshot(dp), clean));
  EXPECT_TRUE(ack.ok) << ack.error;
  EXPECT_EQ(take_snapshot(dp).to_text(), clean.to_text());
}

sim::ActionCall bad_call(BadAction bad) {
  switch (bad) {
    case BadAction::kUnbound:
      return {"other", {}};
    case BadAction::kUndefined:
      return {"ghost", {}};
    case BadAction::kMissingArg:
      return {"set", {}};
    case BadAction::kExtraArg:
      return {"set", {{"v", 1}, {"w", 2}}};
  }
  return {};
}

std::string check_name(BadAction bad, InstallPath path) {
  static const char* const kBad[] = {"Unbound", "Undefined", "MissingArg",
                                     "ExtraArg"};
  static const char* const kPath[] = {"AddExact", "AddTernary", "AddLpm",
                                      "Transaction", "Reconcile"};
  return std::string(kBad[static_cast<int>(bad)]) + "_" +
         kPath[static_cast<int>(path)];
}

class ActionCheck
    : public ::testing::TestWithParam<std::tuple<BadAction, InstallPath>> {};

TEST_P(ActionCheck, RefusedWithTableUnchanged) {
  const auto [bad, path] = GetParam();
  CheckRig rig;
  sim::DataPlane& dp = *rig.dp;
  const sim::ActionCall call = bad_call(bad);
  const std::uint64_t dst = net::Ipv4Addr(10, 0, 0, 7).value();
  // A good entry in every table, so "unchanged" is not vacuous.
  dp.table_in("c", "e")->add_exact({dst}, {"set", {{"v", 9}}});
  dp.table_in("c", "t")->add_ternary({{dst, 0xffffffff}}, 1,
                                     {"set", {{"v", 9}}});
  dp.table_in("c", "l")->add_lpm(dst, 24, {"set", {{"v", 9}}});
  const std::string before = take_snapshot(dp).to_text();
  const std::uint64_t other = net::Ipv4Addr(10, 0, 1, 0).value();

  switch (path) {
    case InstallPath::kAddExact:
      EXPECT_THROW(dp.table_in("c", "e")->add_exact({other}, call),
                   std::invalid_argument);
      break;
    case InstallPath::kAddTernary:
      EXPECT_THROW(
          dp.table_in("c", "t")->add_ternary({{other, 0xffffff00}}, 2, call),
          std::invalid_argument);
      break;
    case InstallPath::kAddLpm:
      EXPECT_THROW(dp.table_in("c", "l")->add_lpm(other, 24, call),
                   std::invalid_argument);
      break;
    case InstallPath::kTransaction: {
      Transaction txn(dp);
      txn.add(exact_install("e", {other}, call));
      const auto r = txn.commit();
      EXPECT_FALSE(r.committed);
      EXPECT_EQ(r.applied, 0u);
      break;
    }
    case InstallPath::kReconcile: {
      SwitchAgent agent(dp);
      WriteCommand cmd;
      cmd.verb = WriteCommand::Verb::kReconcile;
      RuleOp add = exact_install("e", {other}, call);
      add.control = "c";
      add.window = sim::EpochWindow{};
      cmd.diff.ops.push_back(add);
      const AckMsg ack = agent.apply(cmd);
      EXPECT_FALSE(ack.ok);
      EXPECT_EQ(ack.applied, 0u);
      break;
    }
  }
  EXPECT_EQ(take_snapshot(dp).to_text(), before);
}

INSTANTIATE_TEST_SUITE_P(
    BadActionsByPath, ActionCheck,
    ::testing::Combine(::testing::Values(BadAction::kUnbound,
                                         BadAction::kUndefined,
                                         BadAction::kMissingArg,
                                         BadAction::kExtraArg),
                       ::testing::Values(InstallPath::kAddExact,
                                         InstallPath::kAddTernary,
                                         InstallPath::kAddLpm,
                                         InstallPath::kTransaction,
                                         InstallPath::kReconcile)),
    [](const auto& info) {
      return check_name(std::get<0>(info.param), std::get<1>(info.param));
    });

}  // namespace
}  // namespace dejavu::control
