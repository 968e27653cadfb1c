// Transactional rule updates: all-or-nothing semantics against the
// behavioral data plane. The critical property (ISSUE: acceptance) is
// that a mid-transaction write failure leaves the switch byte-identical
// to its pre-transaction snapshot — registers included.
#include <gtest/gtest.h>

#include <tuple>

#include "control/deployment.hpp"
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

TEST(RetryPolicy, BackoffIsDeterministicAndBounded) {
  const RetryPolicy p;
  for (std::uint32_t retry = 1; retry <= 8; ++retry) {
    const std::uint32_t ms = p.backoff_ms(retry);
    EXPECT_EQ(ms, p.backoff_ms(retry)) << "retry " << retry;
    // base * mult^(retry-1) clamped to max_ms, then +/- 20% jitter.
    EXPECT_LE(ms, static_cast<std::uint32_t>(p.max_ms * (1.0 + p.jitter)));
    EXPECT_GE(ms, 1u);
  }
  // Exponential until the clamp.
  EXPECT_LT(p.backoff_ms(1), p.backoff_ms(3));

  RetryPolicy reseeded = p;
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
  txn.install_exact("LB.lb_session", {0x4242},
                    {"LB.modify_dstIp", {{"dip", 0x0a010201}}});
  txn.install_lpm("Router.ipv4_lpm", net::Ipv4Addr(10, 77, 0, 0).value(), 16,
                  {"Router.route", {{"port", 1}, {"dmac", 0x42}}});
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
  txn.install_lpm("Router.ipv4_lpm", net::Ipv4Addr(10, 3, 0, 0).value(), 24,
                  {"Router.route", {{"port", 1}, {"dmac", 0x4242}}});
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
    txn.install_exact("LB.lb_session", {1},
                      {"LB.modify_dstIp", {{"dip", 1}}});
    txn.install_exact("Ghost.table", {1}, {"Ghost.act", {}});
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed);
    EXPECT_NE(r.error.find("does not exist"), std::string::npos);
    EXPECT_EQ(r.applied, 0u);
  }
  {  // key arity mismatch
    Transaction txn(dp);
    txn.install_exact("LB.lb_session", {1, 2},
                      {"LB.modify_dstIp", {{"dip", 1}}});
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed);
    EXPECT_NE(r.error.find("arity"), std::string::npos);
  }
  {  // removing a phantom entry
    Transaction txn(dp);
    txn.remove_exact("LB.lb_session", {0xdead});
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed);
    EXPECT_NE(r.error.find("not installed"), std::string::npos);
  }
  {  // exact install into a ternary table
    Transaction txn(dp);
    txn.install_exact("Classifier.traffic_class", {1, 2, 3},
                      {"Classifier.classify", {}});
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
    txn.install_exact("VGW.vip_map", {vip}, call);
    const auto r = txn.commit();
    EXPECT_FALSE(r.committed) << call.action;
    EXPECT_NE(r.error.find(why), std::string::npos) << r.error;
    EXPECT_EQ(r.applied, 0u);
  }
  {  // ternary and LPM installs are checked the same way
    Transaction txn(dp);
    txn.install_lpm("Router.ipv4_lpm", vip, 24, {"Router.route", {}});
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
  good.install_exact("VGW.vip_map", {vip},
                     {"VGW.translate", {{"phys_dst", 1}, {"tenant", 2}}});
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
  full.install_exact("LB.lb_session", {capacity + 7},
                     {"LB.modify_dstIp", {{"dip", 2}}});
  const auto rejected = full.commit();
  EXPECT_FALSE(rejected.committed);
  EXPECT_NE(rejected.error.find("cannot fit"), std::string::npos);

  // ...but overwriting an existing key consumes no new capacity.
  Transaction overwrite(dp);
  overwrite.install_exact("LB.lb_session", {0},
                          {"LB.modify_dstIp", {{"dip", 9}}});
  EXPECT_TRUE(overwrite.commit().committed);
}

TEST(Transaction, TransientFaultsRetryUnderBackoff) {
  auto fx = make_fig9_deployment();
  const sim::FaultPlan plan = write_fail_plan(/*op_index=*/0, /*count=*/2);
  sim::FaultInjector injector(plan);

  Transaction txn(fx.deployment->dataplane(), RetryPolicy{}, &injector);
  txn.install_exact("LB.lb_session", {0x77},
                    {"LB.modify_dstIp", {{"dip", 3}}});
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
  Transaction txn(dp, RetryPolicy{}, &injector);
  txn.install_exact("LB.lb_session", {0x42},  // overwrite
                    {"LB.modify_dstIp", {{"dip", 0xbad}}});
  txn.remove_exact("LB.lb_session", {0x43});  // removal
  txn.install_lpm("Router.ipv4_lpm", net::Ipv4Addr(10, 99, 0, 0).value(), 16,
                  {"Router.route", {{"port", 1}, {"dmac", 0x99}}});
  txn.install_exact("LB.lb_session", {0x55},  // never applied: op 3 fails
                    {"LB.modify_dstIp", {{"dip", 4}}});
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
  Transaction txn(dp, RetryPolicy{}, &injector);
  txn.write_register(ctrl, "Limiter.flow_count", 5, 2222);
  txn.install_lpm("Router.ipv4_lpm", net::Ipv4Addr(10, 88, 0, 0).value(), 16,
                  {"Router.route", {{"port", 1}, {"dmac", 0x88}}});
  txn.install_ternary("Classifier.traffic_class", {{0, 0}, {0, 0}, {0, 0}},
                      /*priority=*/1, {"Classifier.classify",
                                       {{"path_id", 1}, {"tenant", 1}}});
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
  Transaction txn(fx.deployment->dataplane(), RetryPolicy{}, &injector);
  txn.install_exact("LB.lb_session", {0x90},
                    {"LB.modify_dstIp", {{"dip", 5}}});
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
  Transaction txn(dp, RetryPolicy{}, &injector);
  txn.install_lpm("Router.ipv4_lpm", net::Ipv4Addr(10, 66, 0, 0).value(), 16,
                  {"Router.route", {{"port", 1}, {"dmac", 0x66}}});
  txn.install_ternary("Classifier.traffic_class", {{0, 0}, {0, 0}, {0, 0}},
                      /*priority=*/2, {"Classifier.classify",
                                       {{"path_id", 1}, {"tenant", 1}}});
  txn.write_register(ctrl, "Limiter.flow_count", 9, 888);  // op 2: fails
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
  bad_name.write_register(ctrl, "Limiter.ghost", 0, 1);
  EXPECT_NE(bad_name.commit().error.find("no such register"),
            std::string::npos);

  Transaction bad_index(d->dataplane());
  bad_index.write_register(ctrl, "Limiter.flow_count", 1u << 20, 1);
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
      txn.install_exact("e", {other}, call);
      const auto r = txn.commit();
      EXPECT_FALSE(r.committed);
      EXPECT_EQ(r.applied, 0u);
      break;
    }
    case InstallPath::kReconcile: {
      SwitchAgent agent(dp);
      WriteCommand cmd;
      cmd.verb = WriteCommand::Verb::kReconcile;
      ReconcileOp add;
      add.kind = ReconcileOp::Kind::kAddExact;
      add.control = "c";
      add.table = "e";
      add.key = {other};
      add.action = call;
      cmd.recon.push_back(add);
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
