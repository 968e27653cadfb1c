// Property: names resolve once without changing what a write means.
//
// RuntimeTable::bind() resolves a text ActionCall against shapes the
// table checked at construction. Over generated calls on every table of
// the Fig. 2 and Fig. 9 deployments it must accept exactly the calls the
// text rule below accepts, refuse the rest with the same reason, and a
// text install must throw that reason. And one generated rule set
// written three ways (a Transaction, install_lb_session's bound write,
// a snapshot restore) must leave byte-identical Snapshot::to_text().
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/deployment.hpp"
#include "control/snapshot.hpp"
#include "control/transaction.hpp"
#include "net/addr.hpp"

namespace dejavu::sim {
namespace {

/// The text rule, written out from the definitions alone: the action
/// must be declared by the table, defined in the control, given exactly
/// its parameters, and read no parameter it does not declare.
std::string reference_error(const p4ir::ControlBlock& control,
                            const p4ir::Table& def, const ActionCall& call) {
  if (std::find(def.actions.begin(), def.actions.end(), call.action) ==
      def.actions.end()) {
    return "action '" + call.action + "' is not bound to the table";
  }
  const p4ir::Action* action = control.find_action(call.action);
  if (action == nullptr) {
    return "action '" + call.action + "' is not defined";
  }
  for (const p4ir::Action::Param& param : action->params) {
    if (!call.args.contains(param.name)) {
      return "action '" + call.action + "' is missing argument '" +
             param.name + "'";
    }
  }
  if (call.args.size() != action->params.size()) {
    return "action '" + call.action + "' given arguments it does not take";
  }
  for (const p4ir::Primitive& p : action->primitives) {
    const bool reads_param = p.op == p4ir::PrimitiveOp::kSetFromParam ||
                             p.op == p4ir::PrimitiveOp::kSetContext;
    if (reads_param && !action->param_index(p.param)) {
      return "action '" + call.action + "' reads undeclared parameter '" +
             p.param + "'";
    }
  }
  return "";
}

/// Calls of every kind for one table: for each action the control
/// defines (declared by the table or not) a good call, one missing
/// each argument, one with an extra argument and one with an argument
/// renamed to an undeclared one; plus an action no one defines.
std::vector<ActionCall> generated_calls(const p4ir::ControlBlock& control,
                                        const p4ir::Table& def,
                                        std::mt19937_64& rng) {
  std::vector<std::string> names;
  for (const p4ir::Action& a : control.actions()) names.push_back(a.name);
  for (const std::string& a : def.actions) names.push_back(a);
  names.push_back("no_such_action");
  std::vector<ActionCall> calls;
  for (const std::string& name : names) {
    ActionCall good{name, {}};
    if (const p4ir::Action* a = control.find_action(name)) {
      for (const p4ir::Action::Param& p : a->params) good.args[p.name] = rng();
    }
    calls.push_back(good);
    for (const auto& [param, value] : good.args) {
      ActionCall missing = good;
      missing.args.erase(param);
      calls.push_back(missing);
      ActionCall renamed = missing;
      renamed.args["undeclared_" + param] = value;
      calls.push_back(renamed);
    }
    ActionCall extra = good;
    extra.args["extra"] = rng();
    calls.push_back(extra);
  }
  return calls;
}

/// A key the table accepts, so an install fails on its action alone.
std::vector<std::uint64_t> some_key(const p4ir::Table& def,
                                    std::mt19937_64& rng) {
  std::vector<std::uint64_t> key;
  for (std::size_t i = 0; i < def.keys.size(); ++i) key.push_back(rng() & 0xff);
  return key;
}

void check_table(const RuntimeTable& rt, std::mt19937_64& rng,
                 std::size_t& accepted, std::size_t& refused) {
  const p4ir::ControlBlock& control = rt.control();
  const p4ir::Table& def = rt.def();
  for (const ActionCall& call : generated_calls(control, def, rng)) {
    SCOPED_TRACE(control.name() + "/" + def.name + " " + call.action);
    const std::string want = reference_error(control, def, call);
    BoundAction bound;
    EXPECT_EQ(rt.bind(call, bound), want);
    EXPECT_EQ(rt.action_error(call), want);
    RuntimeTable scratch = rt;
    auto install = [&] {
      if (def.needs_tcam()) {
        std::vector<net::TernaryField> key(def.keys.size());
        scratch.add_ternary(key, 1, call);
      } else {
        scratch.add_exact(some_key(def, rng), call);
      }
    };
    if (!want.empty()) {
      ++refused;
      try {
        install();
        ADD_FAILURE() << "install accepted a refused call";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), "table '" + def.name + "': " + want);
      }
      continue;
    }
    ++accepted;
    // Accepted: the action's id in its control, args in param order.
    const p4ir::Action& action = control.actions()[bound.action];
    EXPECT_EQ(action.name, call.action);
    for (std::size_t i = 0; i < action.params.size(); ++i) {
      EXPECT_EQ(bound.args[i], call.args.at(action.params[i].name));
    }
    if (!def.keyless() && def.max_entries > rt.entry_count()) {
      EXPECT_NO_THROW(install());
    }
  }
}

class BindProperty : public testing::TestWithParam<int> {};

TEST_P(BindProperty, ResolvedBindAcceptsExactlyTheTextRule) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (const bool fig9 : {false, true}) {
    control::Fig2Deployment fx = fig9 ? control::make_fig9_deployment()
                                      : control::make_fig2_deployment();
    DataPlane& dp = fx.deployment->dataplane();
    for (TableId id = 0; id < dp.table_count(); ++id) {
      check_table(dp.table(id), rng, accepted, refused);
    }
  }
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(refused, 100u);
}

TEST_P(BindProperty, ShapeErrorComesAfterTheArgumentChecks) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  // An action reading a parameter it does not declare can never run;
  // the reason is reported only once the arguments check out.
  p4ir::Action broken;
  broken.name = "broken";
  broken.params.push_back({"p", 32});
  p4ir::Primitive read;
  read.op = p4ir::PrimitiveOp::kSetFromParam;
  read.dst = "ipv4.dst";
  read.param = "q";
  broken.primitives.push_back(read);
  p4ir::Action fine;
  fine.name = "fine";
  p4ir::ControlBlock control("c");
  control.add_action(broken);
  control.add_action(fine);
  p4ir::Table def;
  def.name = "t";
  def.keys = {p4ir::TableKey{"ipv4.dst", p4ir::MatchKind::kExact, 32}};
  def.actions = {"broken", "fine", "ghost"};
  def.default_action = "fine";
  def.max_entries = 8;
  control.add_table(def);
  const RuntimeTable rt(control, control.tables().front());
  std::size_t accepted = 0;
  std::size_t refused = 0;
  check_table(rt, rng, accepted, refused);
  EXPECT_EQ(rt.action_error({"broken", {{"p", 1}}}),
            "action 'broken' reads undeclared parameter 'q'");
  EXPECT_EQ(rt.action_error({"ghost", {}}), "action 'ghost' is not defined");
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindProperty, testing::Range(1, 6));

/// A generated LB rule set: session hash -> backend address.
std::vector<std::pair<std::uint32_t, net::Ipv4Addr>> sessions(
    std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<std::uint32_t, net::Ipv4Addr>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<std::uint32_t>(rng()),
                     net::Ipv4Addr(static_cast<std::uint32_t>(rng())));
  }
  return out;
}

class WritePathProperty : public testing::TestWithParam<int> {};

TEST_P(WritePathProperty, ThreeWritePathsGiveIdenticalSnapshots) {
  // Some hashes repeat, so later writes overwrite earlier ones.
  auto rules = sessions(static_cast<std::uint64_t>(GetParam()), 300);
  for (std::size_t i = 0; i < 40; ++i) {
    rules.push_back({rules[i * 7].first, net::Ipv4Addr(0x0a000000u + i)});
  }

  control::Fig2Deployment by_txn = control::make_fig9_deployment();
  control::Transaction txn(by_txn.deployment->dataplane());
  for (const auto& [hash, backend] : rules) {
    control::RuleOp op;
    op.table = "LB.lb_session";
    op.key = {hash};
    op.action = {"LB.modify_dstIp", {{"dip", backend.value()}}};
    txn.add(std::move(op));
  }
  ASSERT_TRUE(txn.commit().committed);

  control::Fig2Deployment by_install = control::make_fig9_deployment();
  for (const auto& [hash, backend] : rules) {
    by_install.deployment->control().install_lb_session(hash, backend);
  }

  control::Fig2Deployment by_restore = control::make_fig9_deployment();
  const control::Snapshot snap =
      control::take_snapshot(by_txn.deployment->dataplane());
  EXPECT_TRUE(
      control::restore_snapshot(snap, by_restore.deployment->dataplane())
          .empty());

  const std::string text = snap.to_text();
  EXPECT_NE(text.find("LB.modify_dstIp"), std::string::npos);
  EXPECT_EQ(
      control::take_snapshot(by_install.deployment->dataplane()).to_text(),
      text);
  EXPECT_EQ(
      control::take_snapshot(by_restore.deployment->dataplane()).to_text(),
      text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WritePathProperty, testing::Range(1, 6));

}  // namespace
}  // namespace dejavu::sim
