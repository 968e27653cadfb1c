#include "sim/runtime_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "net/addr.hpp"

namespace dejavu::sim {
namespace {

using p4ir::MatchKind;
using p4ir::Table;
using p4ir::TableKey;

p4ir::Action action(std::string name, std::vector<std::string> params = {}) {
  p4ir::Action a;
  a.name = std::move(name);
  for (std::string& p : params) a.params.push_back({std::move(p), 32});
  return a;
}

/// A control owning `table` and a definition of every action it runs;
/// a RuntimeTable binds installs against it.
struct Fixture {
  p4ir::ControlBlock control{"c"};

  Fixture(Table table, std::vector<p4ir::Action> actions) {
    for (p4ir::Action& a : actions) control.add_action(std::move(a));
    control.add_table(std::move(table));
  }
  const Table& def() const { return control.tables().front(); }
};

Fixture exact_table() {
  Table t;
  t.name = "exact";
  t.keys = {TableKey{"a.x", MatchKind::kExact, 16},
            TableKey{"a.y", MatchKind::kExact, 8}};
  t.actions = {"hit_act"};
  t.default_action = "miss_act";
  t.max_entries = 4;
  return Fixture(t, {action("hit_act", {"p"}), action("miss_act")});
}

Fixture lpm_table() {
  Table t;
  t.name = "lpm";
  t.keys = {TableKey{"ipv4.dst", MatchKind::kLpm, 32}};
  t.actions = {"route"};
  t.default_action = "miss";
  t.max_entries = 16;
  return Fixture(t, {action("route", {"port"}), action("miss")});
}

TEST(RuntimeTable, ExactHitAndMiss) {
  const Fixture fx = exact_table();
  RuntimeTable rt(fx.control, fx.def());
  rt.add_exact({100, 2}, ActionCall{"hit_act", {{"p", 7}}});

  auto hit = rt.lookup({100, 2});
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.action.action, "hit_act");
  EXPECT_EQ(hit.action.args.at("p"), 7u);

  auto miss = rt.lookup({100, 3});
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.action.action, "miss_act");
}

TEST(RuntimeTable, FailedBindingIsNotInstalled) {
  const Fixture fx = exact_table();
  RuntimeTable rt(fx.control, fx.def());
  BoundAction failed;
  EXPECT_EQ(rt.bind(ActionCall{"hit_act", {}}, failed),
            "action 'hit_act' is missing argument 'p'");
  const std::vector<std::uint64_t> key = {100, 2};
  EXPECT_THROW(rt.add_exact(key, failed), std::invalid_argument);
  EXPECT_EQ(rt.entry_count(), 0u);

  const Fixture lpm = lpm_table();
  RuntimeTable routes(lpm.control, lpm.def());
  EXPECT_THROW(routes.add_ternary(routes.lpm_key(0x0a000000, 8), 8, failed),
               std::invalid_argument);
  EXPECT_EQ(routes.entry_count(), 0u);
}

TEST(RuntimeTable, MissingFieldIsAMiss) {
  const Fixture fx = exact_table();
  RuntimeTable rt(fx.control, fx.def());
  rt.add_exact({100, 2}, ActionCall{"hit_act", {{"p", 0}}});
  auto res = rt.lookup({std::nullopt, 2});
  EXPECT_FALSE(res.hit);
}

TEST(RuntimeTable, ExactReinstallOverwrites) {
  const Fixture fx = exact_table();
  RuntimeTable rt(fx.control, fx.def());
  rt.add_exact({1, 1}, ActionCall{"hit_act", {{"p", 1}}});
  rt.add_exact({1, 1}, ActionCall{"hit_act", {{"p", 2}}});
  EXPECT_EQ(rt.entry_count(), 1u);
  EXPECT_EQ(rt.lookup({1, 1}).action.args.at("p"), 2u);
}

TEST(RuntimeTable, TableFullThrows) {
  const Fixture fx = exact_table();  // max_entries = 4
  RuntimeTable rt(fx.control, fx.def());
  for (std::uint64_t i = 0; i < 4; ++i) {
    rt.add_exact({i, 0}, ActionCall{"hit_act", {{"p", 0}}});
  }
  EXPECT_THROW(rt.add_exact({9, 0}, ActionCall{"hit_act", {{"p", 0}}}),
               std::invalid_argument);
}

TEST(RuntimeTable, ArityMismatchThrows) {
  const Fixture fx = exact_table();
  RuntimeTable rt(fx.control, fx.def());
  EXPECT_THROW(rt.add_exact({1}, ActionCall{"hit_act", {{"p", 0}}}),
               std::invalid_argument);
}

TEST(RuntimeTable, KindMismatchThrows) {
  const Fixture exact = exact_table();
  RuntimeTable rt_exact(exact.control, exact.def());
  EXPECT_THROW(rt_exact.add_lpm(0, 8, ActionCall{}), std::invalid_argument);
  EXPECT_THROW(rt_exact.add_ternary({}, 0, ActionCall{}),
               std::invalid_argument);

  const Fixture lpm = lpm_table();
  RuntimeTable rt_lpm(lpm.control, lpm.def());
  EXPECT_THROW(rt_lpm.add_exact({1}, ActionCall{}), std::invalid_argument);
}

TEST(RuntimeTable, LpmLongestPrefixWins) {
  const Fixture fx = lpm_table();
  RuntimeTable rt(fx.control, fx.def());
  rt.add_lpm(0x0a000000, 8, ActionCall{"route", {{"port", 8}}});
  rt.add_lpm(0x0a010000, 16, ActionCall{"route", {{"port", 16}}});

  EXPECT_EQ(rt.lookup({0x0a010203}).action.args.at("port"), 16u);
  EXPECT_EQ(rt.lookup({0x0a990203}).action.args.at("port"), 8u);
  EXPECT_FALSE(rt.lookup({0x0b000001}).hit);
}

TEST(RuntimeTable, LpmDefaultRoute) {
  const Fixture fx = lpm_table();
  RuntimeTable rt(fx.control, fx.def());
  rt.add_lpm(0, 0, ActionCall{"route", {{"port", 1}}});
  EXPECT_TRUE(rt.lookup({0xffffffff}).hit);
}

TEST(RuntimeTable, LpmPrefixTooLongThrows) {
  const Fixture fx = lpm_table();
  RuntimeTable rt(fx.control, fx.def());
  EXPECT_THROW(rt.add_lpm(0, 33, ActionCall{}), std::invalid_argument);
}

/// Property test: LPM installs, stored as TCAM entries ranked by prefix
/// length, agree with a brute-force longest-matching-prefix scan over
/// random rule sets.
class LpmRandomSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LpmRandomSweep, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> addr_dist;
  std::uniform_int_distribution<int> len_dist(0, 32);

  Table def;
  def.name = "lpm";
  def.keys = {TableKey{"ipv4.dst", MatchKind::kLpm, 32}};
  def.actions = {"route"};
  def.default_action = "miss";
  def.max_entries = 64;
  const Fixture fx(def, {action("route", {"port"}), action("miss")});
  RuntimeTable rt(fx.control, fx.def());

  std::vector<std::pair<net::Ipv4Prefix, std::uint64_t>> rules;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto len = static_cast<std::uint8_t>(len_dist(rng));
    const net::Ipv4Prefix mask_of(net::Ipv4Addr(0), len);
    const net::Ipv4Prefix prefix(
        net::Ipv4Addr(addr_dist(rng) & mask_of.mask()), len);
    // One version per prefix: a repeat would overlap the first.
    if (std::any_of(rules.begin(), rules.end(),
                    [&](const auto& r) { return r.first == prefix; })) {
      continue;
    }
    rules.emplace_back(prefix, i);
    rt.add_lpm(prefix.address().value(), len,
               ActionCall{"route", {{"port", i}}});
  }

  for (int probe = 0; probe < 300; ++probe) {
    const net::Ipv4Addr addr(addr_dist(rng));
    const LookupResult got = rt.lookup({addr.value()});

    const std::pair<net::Ipv4Prefix, std::uint64_t>* best = nullptr;
    for (const auto& rule : rules) {
      if (!rule.first.contains(addr)) continue;
      if (best == nullptr || rule.first.length() > best->first.length()) {
        best = &rule;
      }
    }
    if (best == nullptr) {
      EXPECT_FALSE(got.hit) << addr.to_string();
    } else {
      ASSERT_TRUE(got.hit) << addr.to_string();
      EXPECT_EQ(got.action.args.at("port"), best->second) << addr.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmRandomSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

TEST(RuntimeTable, TernaryPriorityOrder) {
  Table def;
  def.name = "acl";
  def.keys = {TableKey{"ipv4.src", MatchKind::kTernary, 32}};
  def.actions = {"permit", "deny"};
  def.default_action = "deny";
  def.max_entries = 8;
  const Fixture fx(def, {action("permit"), action("deny")});
  RuntimeTable rt(fx.control, fx.def());
  rt.add_ternary({net::TernaryField{0, 0}}, 0, ActionCall{"deny", {}});
  rt.add_ternary({net::TernaryField{0x0a000000, 0xff000000}}, 10,
                 ActionCall{"permit", {}});

  EXPECT_EQ(rt.lookup({0x0a123456}).action.action, "permit");
  EXPECT_EQ(rt.lookup({0x0b000000}).action.action, "deny");
  EXPECT_TRUE(rt.lookup({0x0b000000}).hit);  // wildcard entry hit
}

TEST(RuntimeTable, KeylessAlwaysHitsDefault) {
  Table def;
  def.name = "keyless";
  def.default_action = "always";
  const Fixture fx(def, {action("always")});
  RuntimeTable rt(fx.control, fx.def());
  auto res = rt.lookup({});
  EXPECT_TRUE(res.hit);
  EXPECT_EQ(res.action.action, "always");
}

TEST(RuntimeTable, ClearResets) {
  const Fixture fx = exact_table();
  RuntimeTable rt(fx.control, fx.def());
  rt.add_exact({1, 1}, ActionCall{"hit_act", {{"p", 0}}});
  rt.clear();
  EXPECT_EQ(rt.entry_count(), 0u);
  EXPECT_FALSE(rt.lookup({1, 1}).hit);
  rt.add_exact({1, 1}, ActionCall{"hit_act", {{"p", 0}}});  // usable after clear
  EXPECT_TRUE(rt.lookup({1, 1}).hit);
}

}  // namespace
}  // namespace dejavu::sim
