#include "net/tcam.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "sim/runtime_table.hpp"

namespace dejavu::net {
namespace {

using sim::ActionCall;
using sim::EpochWindow;
using sim::RuntimeTable;

/// A control owning one two-key ternary table: `hit(v)` on a match,
/// `miss` otherwise. Lookups run RuntimeTable::lookup, which is
/// probe()'s ternary branch in text form.
struct TernaryFixture {
  p4ir::ControlBlock control{"c"};

  TernaryFixture() {
    p4ir::Action hit;
    hit.name = "hit";
    hit.params.push_back({"v", 32});
    control.add_action(hit);
    p4ir::Action miss;
    miss.name = "miss";
    control.add_action(miss);
    p4ir::Table t;
    t.name = "acl";
    t.keys = {p4ir::TableKey{"a.x", p4ir::MatchKind::kTernary, 16},
              p4ir::TableKey{"a.y", p4ir::MatchKind::kTernary, 16}};
    t.actions = {"hit"};
    t.default_action = "miss";
    t.max_entries = 64;
    control.add_table(t);
  }
  RuntimeTable table() const {
    return RuntimeTable(control, control.tables().front());
  }
};

ActionCall hit(std::uint64_t v) { return ActionCall{"hit", {{"v", v}}}; }

/// The `v` of the entry a packet stamped `epoch` carrying (x, y) hits,
/// or nullopt on a miss.
std::optional<std::uint64_t> lookup(const RuntimeTable& rt, std::uint64_t x,
                                    std::uint64_t y, std::uint32_t epoch = 0) {
  const sim::LookupResult r = rt.lookup({x, y}, epoch);
  if (!r.hit) return std::nullopt;
  return r.action.args.at("v");
}

TEST(Tcam, HigherPriorityWins) {
  const TernaryFixture fx;
  RuntimeTable rt = fx.table();
  rt.add_ternary({TernaryField{0x10, 0xf0}, TernaryField{}}, 1, hit(100));
  rt.add_ternary({TernaryField{0x12, 0xff}, TernaryField{}}, 10, hit(200));
  EXPECT_EQ(lookup(rt, 0x12, 0), 200u);  // both match; higher priority
  EXPECT_EQ(lookup(rt, 0x13, 0), 100u);  // only the wide rule
  EXPECT_EQ(lookup(rt, 0x22, 0), std::nullopt);
}

TEST(Tcam, InsertionOrderBreaksPriorityTies) {
  const TernaryFixture fx;
  RuntimeTable rt = fx.table();
  rt.add_ternary({TernaryField{0x1, 0xf}, TernaryField{}}, 5, hit(1));
  rt.add_ternary({TernaryField{0x1, 0x1}, TernaryField{}}, 5, hit(2));
  EXPECT_EQ(lookup(rt, 0x1, 0), 1u);  // both match; earlier install wins
  EXPECT_EQ(lookup(rt, 0x3, 0), 2u);  // only the later, wider rule
}

TEST(Tcam, WildcardFieldMatchesAnything) {
  const TernaryFixture fx;
  RuntimeTable rt = fx.table();
  rt.add_ternary({TernaryField{0, 0}, TernaryField{7, 0xff}}, 0, hit(42));
  EXPECT_EQ(lookup(rt, 0xbeef, 7), 42u);
  EXPECT_EQ(lookup(rt, 0xbeef, 8), std::nullopt);
}

TEST(Tcam, EraseByHandle) {
  const TernaryFixture fx;
  RuntimeTable rt = fx.table();
  const std::size_t h =
      rt.add_ternary({TernaryField{1, 0xff}, TernaryField{}}, 0, hit(1));
  EXPECT_EQ(rt.entry_count(), 1u);
  EXPECT_TRUE(rt.erase_ternary(h));
  EXPECT_FALSE(rt.erase_ternary(h));
  EXPECT_EQ(lookup(rt, 1, 0), std::nullopt);
  EXPECT_EQ(rt.entry_count(), 0u);
}

TEST(Tcam, ArityMismatchThrows) {
  Tcam<int> tcam(2);
  EXPECT_THROW(tcam.insert({TernaryField{1, 1}}, 0, 1),
               std::invalid_argument);
}

TEST(TernaryField, MatchSemantics) {
  TernaryField f{0b1010, 0b1110};
  EXPECT_TRUE(f.matches(0b1010));
  EXPECT_TRUE(f.matches(0b1011));  // last bit is a wildcard
  EXPECT_FALSE(f.matches(0b1110));
}

/// Property sweep: ternary lookups agree with a brute-force scan of the
/// rule list ordered by (priority desc, install order asc), over random
/// partial masks, priorities and epoch windows.
class TcamRandomSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TcamRandomSweep, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint64_t> val(0, 0xff);
  std::uniform_int_distribution<int> prio(0, 5);
  std::uniform_int_distribution<std::uint32_t> epoch(0, 4);

  struct Rule {
    std::vector<TernaryField> key;
    int priority;
    EpochWindow window;
    std::uint64_t value;
  };
  const TernaryFixture fx;
  RuntimeTable rt = fx.table();
  std::vector<Rule> rules;  // install order
  for (std::uint64_t i = 0; i < 50; ++i) {
    const std::vector<TernaryField> key = {TernaryField{val(rng), val(rng)},
                                           TernaryField{val(rng), val(rng)}};
    const int p = prio(rng);
    std::uint32_t a = epoch(rng);
    std::uint32_t b = epoch(rng);
    if (a > b) std::swap(a, b);
    const EpochWindow w{a, b == 4 ? sim::kEpochOpen : b};
    try {
      rt.add_ternary(key, p, hit(i), w);
    } catch (const std::invalid_argument&) {
      continue;  // an overlapping version of the same key and priority
    }
    rules.push_back(Rule{key, p, w, i});
  }
  ASSERT_GT(rules.size(), 40u);

  for (int probe = 0; probe < 200; ++probe) {
    const std::uint64_t x = val(rng);
    const std::uint64_t y = val(rng);
    const std::uint32_t e = epoch(rng);

    const Rule* best = nullptr;
    for (const Rule& r : rules) {
      if (!r.window.contains(e)) continue;
      if (!r.key[0].matches(x) || !r.key[1].matches(y)) continue;
      if (best == nullptr || r.priority > best->priority) best = &r;
    }
    if (best == nullptr) {
      EXPECT_EQ(lookup(rt, x, y, e), std::nullopt);
    } else {
      EXPECT_EQ(lookup(rt, x, y, e), best->value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcamRandomSweep,
                         ::testing::Values(7, 21, 42, 1000, 31337));

}  // namespace
}  // namespace dejavu::net
