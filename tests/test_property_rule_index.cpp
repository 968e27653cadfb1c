// Property test for RuntimeTable's flat exact index. Both engines read
// the one rule store, so interpreter == compiled cannot catch a lookup
// bug; this test checks the index against a plain vector of versions
// scanned linearly, after every step of generated install / overwrite /
// remove / retire / unretire / gc / corrupt sequences at key arity 1-8,
// and pins that gc() leaves the index alone when nothing is retired.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <tuple>

#include "sim/runtime_table.hpp"

namespace dejavu::sim {
namespace {

p4ir::Action action(std::string name, std::vector<std::string> params) {
  p4ir::Action a;
  a.name = std::move(name);
  for (std::string& p : params) {
    a.params.push_back({p, 32});
    a.primitives.push_back(p4ir::set_from_param("h.out", p));
  }
  return a;
}

/// One table of `arity` 64-bit key components, exact unless `kind`
/// says otherwise. By default its actions take zero, one and three
/// arguments (so slots carry unused arg room).
struct Fixture {
  p4ir::ControlBlock control{"c"};

  Fixture(std::size_t arity, std::size_t max_entries,
          std::vector<std::string> actions = {"a0", "a1", "a3"},
          p4ir::MatchKind kind = p4ir::MatchKind::kExact) {
    control.add_action(action("a0", {}));
    control.add_action(action("a1", {"p"}));
    control.add_action(action("a3", {"z", "x", "y"}));
    control.add_action(action("miss", {}));
    p4ir::Table t;
    t.name = "t";
    for (std::size_t i = 0; i < arity; ++i) {
      t.keys.push_back(p4ir::TableKey{"h.k" + std::to_string(i), kind, 64});
    }
    t.actions = std::move(actions);
    t.default_action = "miss";
    t.max_entries = max_entries;
    control.add_table(std::move(t));
  }
  const p4ir::Table& def() const { return control.tables().front(); }
};

using Key = std::vector<std::uint64_t>;

struct Version {
  Key key;
  ActionCall action;
  EpochWindow window;
};

// The salt stream RuntimeTable::corrupt documents (splitmix64).
struct Salt {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fdULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t pick(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
};

/// The store's contract as a linear scan over versions in install order.
struct Reference {
  std::size_t arity;
  std::size_t max_entries;
  std::vector<Version> v;

  template <class Pred>
  std::optional<std::size_t> first(const Key& key, Pred pred) const {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i].key == key && pred(v[i])) return i;
    }
    return std::nullopt;
  }
  bool taken(const Key& key, EpochWindow w) const {
    return first(key, [&](const Version& x) { return x.window == w; })
        .has_value();
  }

  bool add(const Key& key, const ActionCall& call, EpochWindow w) {
    if (!w.well_formed()) return false;
    if (auto i = first(key, [&](const Version& x) {
          return x.window.overlaps(w);
        })) {
      if (v[*i].window != w) return false;
      v[*i].action = call;
      return true;
    }
    if (v.size() >= max_entries) return false;
    v.push_back({key, call, w});
    return true;
  }
  bool remove(const Key& key, const EpochWindow* w) {
    auto i = first(key, [&](const Version& x) {
      return w == nullptr ? x.window.open() : x.window == *w;
    });
    if (!i) return false;
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(*i));
    return true;
  }
  bool retire(const Key& key, std::uint32_t last) {
    auto i = first(key, [](const Version& x) { return x.window.open(); });
    if (!i || last < v[*i].window.from) return false;
    v[*i].window.to = last;
    return true;
  }
  bool unretire(const Key& key, std::uint32_t last) {
    auto i = first(key, [&](const Version& x) { return x.window.to == last; });
    if (!i) return false;
    const EpochWindow reopened{v[*i].window.from, kEpochOpen};
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (j != *i && v[j].key == key && v[j].window.overlaps(reopened)) {
        return false;
      }
    }
    v[*i].window = reopened;
    return true;
  }
  std::size_t gc(std::uint32_t min_live) {
    return std::erase_if(
        v, [&](const Version& x) { return x.window.to < min_live; });
  }
  std::size_t retired_count() const {
    return static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [](const Version& x) { return !x.window.open(); }));
  }
  std::optional<Version> visible(const Key& key, std::uint32_t epoch) const {
    auto i = first(key, [&](const Version& x) {
      return x.window.contains(epoch);
    });
    if (!i) return std::nullopt;
    return v[*i];
  }
  std::vector<Version> versions(const Key& key) const {
    std::vector<Version> out;
    for (const Version& x : v) {
      if (x.key == key) out.push_back(x);
    }
    return out;
  }

  /// RuntimeTable::corrupt's documented effect: the victim is picked
  /// over versions sorted by the key's decimal text, then install order.
  bool corrupt(RuntimeTable::CorruptKind kind, std::uint64_t salt) {
    if (v.empty()) return false;
    Salt s{salt};
    auto text = [](const Key& key) {
      std::string out;
      for (std::uint64_t x : key) out += std::to_string(x) + "|";
      return out;
    };
    std::vector<std::size_t> order(v.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return text(v[a].key) < text(v[b].key);
    });
    const std::size_t victim = order[s.pick(order.size())];
    auto flip_window = [&](EpochWindow& w) {
      const std::uint32_t bit = 1u << s.pick(8);
      if (s.pick(2) == 0) {
        w.from ^= bit;
      } else {
        w.to ^= bit;
      }
    };
    using Kind = RuntimeTable::CorruptKind;
    switch (kind) {
      case Kind::kKeyFlip: {
        Version moved = v[victim];
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(victim));
        const std::size_t component = s.pick(arity);
        const std::size_t start = s.pick(64);
        for (std::size_t n = 0; arity > 0 && n < 64; ++n) {
          const std::uint64_t mask = 1ULL << ((start + n) % 64);
          moved.key[component] ^= mask;
          if (!taken(moved.key, moved.window)) break;
          moved.key[component] ^= mask;
        }
        v.push_back(std::move(moved));
        break;
      }
      case Kind::kActionFlip: {
        auto& args = v[victim].action.args;  // name order
        if (args.empty()) {
          flip_window(v[victim].window);
        } else {
          auto it = std::next(args.begin(), static_cast<std::ptrdiff_t>(
                                                s.pick(args.size())));
          it->second ^= 1ULL << s.pick(64);
        }
        break;
      }
      case Kind::kWindowFlip:
        flip_window(v[victim].window);
        break;
      case Kind::kDelete:
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      case Kind::kDuplicate: {
        Version ghost = v[victim];
        std::uint32_t bump = 1 + static_cast<std::uint32_t>(s.pick(3));
        do {
          ghost.window.from = v[victim].window.from + bump;
          ++bump;
        } while (taken(ghost.key, ghost.window));
        v.push_back(std::move(ghost));
        break;
      }
    }
    return true;
  }
};

auto rank(const RuntimeTable::ExactEntry& e) {
  return std::tie(e.key, e.window.from, e.window.to, e.action.action,
                  e.action.args);
}

void expect_same(const RuntimeTable::ExactEntry& got, const Version& want,
                 const std::string& where) {
  EXPECT_EQ(got.key, want.key) << where;
  EXPECT_EQ(got.window, want.window) << where;
  EXPECT_EQ(got.action, want.action) << where;
}

const std::uint32_t kEpochs[] = {0, 1, 2, 3, 4, 5, 6, 7, kEpochOpen};

/// The whole observable exact state of `rt` against `ref`.
void check(const RuntimeTable& rt, const Reference& ref,
           const std::vector<Key>& pool, const std::string& where) {
  ASSERT_EQ(rt.entry_count(), ref.v.size()) << where;
  ASSERT_EQ(rt.retired_count(), ref.retired_count()) << where;

  // exact_entries(): sorted by (key, window); same content as the scan.
  std::vector<RuntimeTable::ExactEntry> got = rt.exact_entries();
  ASSERT_EQ(got.size(), ref.v.size()) << where;
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                             [](const auto& a, const auto& b) {
                               return std::tie(a.key, a.window.from,
                                               a.window.to) <
                                      std::tie(b.key, b.window.from,
                                               b.window.to);
                             }))
      << where;
  std::vector<RuntimeTable::ExactEntry> want;
  for (const Version& x : ref.v) want.push_back({x.key, x.action, x.window});
  auto by_rank = [](const auto& a, const auto& b) { return rank(a) < rank(b); };
  std::sort(got.begin(), got.end(), by_rank);
  std::sort(want.begin(), want.end(), by_rank);
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same(got[i], {want[i].key, want[i].action, want[i].window}, where);
  }

  // Every key the sequence touches (corrupted keys included), plus keys
  // never installed: versions in install order, and the probe at every
  // epoch.
  std::vector<Key> keys = pool;
  for (const Version& x : ref.v) keys.push_back(x.key);
  for (const Key& key : keys) {
    const std::vector<RuntimeTable::ExactEntry> versions =
        rt.exact_versions(key);
    const std::vector<Version> ref_versions = ref.versions(key);
    ASSERT_EQ(versions.size(), ref_versions.size()) << where;
    for (std::size_t i = 0; i < versions.size(); ++i) {
      expect_same(versions[i], ref_versions[i], where + " version order");
    }
    std::vector<std::optional<std::uint64_t>> probe_key(key.begin(),
                                                        key.end());
    for (const std::uint32_t epoch : kEpochs) {
      const LookupResult res = rt.lookup(probe_key, epoch);
      const std::optional<Version> vis = ref.visible(key, epoch);
      ASSERT_EQ(res.hit, vis.has_value()) << where << " epoch " << epoch;
      if (vis) {
        EXPECT_EQ(res.action, vis->action) << where << " epoch " << epoch;
      } else {
        EXPECT_EQ(res.action, (ActionCall{"miss", {}})) << where;
      }
    }
  }
}

/// A pool of keys at `arity`: small values, and keys that differ from
/// one another only in the high 32 bits of one component.
std::vector<Key> key_pool(std::size_t arity, std::mt19937_64& rng) {
  std::vector<Key> pool;
  Key base(arity);
  for (std::uint64_t& x : base) x = rng() % 4;
  for (std::uint64_t hi = 0; hi < 6; ++hi) {
    Key k = base;
    k[rng() % arity] ^= hi << 32;
    pool.push_back(k);
    Key top = base;
    top[0] ^= (hi + 1) << 60;
    pool.push_back(top);
  }
  for (int i = 0; i < 8; ++i) {
    Key k(arity);
    for (std::uint64_t& x : k) x = rng() % 3;
    pool.push_back(k);
  }
  return pool;
}

ActionCall random_call(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return {"a0", {}};
    case 1:
      return {"a1", {{"p", rng() % 5}}};
    default:
      return {"a3", {{"x", rng()}, {"y", rng() % 7}, {"z", rng() >> 40}}};
  }
}

EpochWindow random_window(std::mt19937_64& rng) {
  if (rng() % 5 < 2) return {};
  const auto from = static_cast<std::uint32_t>(rng() % 6);
  if (rng() % 2) return {from, kEpochOpen};
  const auto to = static_cast<std::uint32_t>(from + rng() % 4);
  // Occasionally malformed: the store must refuse it.
  if (rng() % 10 == 0) return {to + 1, to};
  return {from, to};
}

/// One generated sequence; `corrupting` mixes in corrupt() steps.
void run_sequence(std::size_t arity, std::uint64_t seed, bool corrupting) {
  constexpr std::size_t kMaxEntries = 24;
  const Fixture fx(arity, kMaxEntries);
  RuntimeTable rt(fx.control, fx.def());
  Reference ref{arity, kMaxEntries, {}};
  std::mt19937_64 rng(seed * 1000003 + arity);
  const std::vector<Key> pool = key_pool(arity, rng);
  auto pick_key = [&]() -> const Key& {
    if (!ref.v.empty() && rng() % 3 == 0) {
      return ref.v[rng() % ref.v.size()].key;
    }
    return pool[rng() % pool.size()];
  };

  for (int step = 0; step < 300; ++step) {
    const std::string where = "arity " + std::to_string(arity) + " seed " +
                              std::to_string(seed) + " step " +
                              std::to_string(step);
    const std::uint64_t rev = rt.revision();
    const std::uint64_t op = rng() % 100;
    bool changed = false;
    if (op < 40) {
      const Key key = pick_key();
      const ActionCall call = random_call(rng);
      const EpochWindow w = random_window(rng);
      bool ok = true;
      try {
        rt.add_exact(key, call, w);
      } catch (const std::invalid_argument&) {
        ok = false;
      }
      ASSERT_EQ(ok, ref.add(key, call, w)) << where << " add";
      changed = ok;
    } else if (op < 55) {
      const Key key = pick_key();
      changed = rt.remove_exact(key);
      ASSERT_EQ(changed, ref.remove(key, nullptr)) << where << " remove";
    } else if (op < 63) {
      const Key key = pick_key();
      const std::vector<Version> vs = ref.versions(key);
      const EpochWindow w = !vs.empty() && rng() % 4 != 0
                                ? vs[rng() % vs.size()].window
                                : random_window(rng);
      changed = rt.remove_exact_version(key, w);
      ASSERT_EQ(changed, ref.remove(key, &w)) << where << " remove version";
    } else if (op < 73) {
      const Key key = pick_key();
      const auto last = static_cast<std::uint32_t>(rng() % 7);
      changed = rt.retire_exact(key, last);
      ASSERT_EQ(changed, ref.retire(key, last)) << where << " retire";
    } else if (op < 83) {
      const Key key = pick_key();
      const std::vector<Version> vs = ref.versions(key);
      const std::uint32_t last = !vs.empty() && rng() % 2
                                     ? vs[rng() % vs.size()].window.to
                                     : static_cast<std::uint32_t>(rng() % 7);
      changed = rt.unretire_exact(key, last);
      ASSERT_EQ(changed, ref.unretire(key, last)) << where << " unretire";
    } else if (op < 88) {
      const auto min_live = static_cast<std::uint32_t>(rng() % 8);
      const std::size_t removed = rt.gc(min_live);
      ASSERT_EQ(removed, ref.gc(min_live)) << where << " gc";
      changed = removed > 0;
    } else if (op < 89) {
      rt.clear();
      ref.v.clear();
      changed = true;
    } else if (corrupting) {
      const auto kind = static_cast<RuntimeTable::CorruptKind>(rng() % 5);
      const std::uint64_t salt = rng();
      const bool landed = !rt.corrupt(kind, salt).empty();
      ASSERT_EQ(landed, ref.corrupt(kind, salt)) << where << " corrupt";
      ASSERT_EQ(rt.revision(), rev) << where << " corrupt moved revision";
    }
    if (changed) {
      EXPECT_GT(rt.revision(), rev) << where;
    } else {
      EXPECT_EQ(rt.revision(), rev) << where;
    }
    check(rt, ref, pool, where);
    if (::testing::Test::HasFatalFailure()) return;
  }

  if (!corrupting) {
    // state_digest() is order-free: the same versions installed in
    // another order into a fresh table digest equal.
    RuntimeTable copy(fx.control, fx.def());
    for (auto it = ref.v.rbegin(); it != ref.v.rend(); ++it) {
      copy.add_exact(it->key, it->action, it->window);
    }
    EXPECT_EQ(copy.state_digest(), rt.state_digest());
  }
}

class RuleIndexSequences : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RuleIndexSequences, MatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_sequence(GetParam(), seed, false);
    if (HasFatalFailure()) return;
  }
}

TEST_P(RuleIndexSequences, MatchesLinearScanUnderCorruption) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_sequence(GetParam(), seed, true);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, RuleIndexSequences,
                         ::testing::Range<std::size_t>(1, 9));

// A shadow and a retiring version of one key: each epoch sees exactly
// one, and both survive until gc drops the retired one.
TEST(RuleIndex, ShadowAndRetiringVersionsOfOneKey) {
  const Fixture fx(2, 16);
  RuntimeTable rt(fx.control, fx.def());
  Reference ref{2, 16, {}};
  const Key key{7, 7ULL << 32};
  const std::vector<Key> pool{key, {7, 0}, {0, 7ULL << 32}};
  for (const Key& k : pool) {
    rt.add_exact(k, {"a1", {{"p", k[0] + k[1]}}});
    ref.add(k, {"a1", {{"p", k[0] + k[1]}}}, {});
  }
  ASSERT_TRUE(rt.retire_exact(key, 4));
  ref.retire(key, 4);
  rt.add_exact(key, {"a3", {{"x", 1}, {"y", 2}, {"z", 3}}}, {5, kEpochOpen});
  ref.add(key, {"a3", {{"x", 1}, {"y", 2}, {"z", 3}}}, {5, kEpochOpen});
  check(rt, ref, pool, "shadow + retiring");
  EXPECT_EQ(rt.lookup({key[0], key[1]}, 4).action.action, "a1");
  EXPECT_EQ(rt.lookup({key[0], key[1]}, 5).action.action, "a3");
  EXPECT_EQ(rt.exact_versions(key).size(), 2u);

  EXPECT_EQ(rt.gc(5), 1u);
  ref.gc(5);
  check(rt, ref, pool, "after gc");
  EXPECT_FALSE(rt.lookup({key[0], key[1]}, 4).hit);
}

// Filled to max_entries: one more install is refused, an overwrite is
// not, every entry still probes, and emptying the table shrinks it.
TEST(RuleIndex, FilledToMaxEntries) {
  constexpr std::size_t kMax = 1000;
  const Fixture fx(2, kMax);
  RuntimeTable rt(fx.control, fx.def());
  for (std::uint64_t i = 0; i < kMax; ++i) {
    rt.add_exact({i, i << 32}, {"a1", {{"p", i}}});
  }
  EXPECT_THROW(rt.add_exact({kMax, 0}, {"a0", {}}), std::invalid_argument);
  rt.add_exact({3, 3ULL << 32}, {"a0", {}});  // overwrite, not a new entry
  EXPECT_EQ(rt.entry_count(), kMax);
  for (std::uint64_t i = 0; i < kMax; ++i) {
    const LookupResult res = rt.lookup({i, i << 32});
    ASSERT_TRUE(res.hit) << i;
    const ActionCall want =
        i == 3 ? ActionCall{"a0", {}} : ActionCall{"a1", {{"p", i}}};
    EXPECT_EQ(res.action, want);
    EXPECT_FALSE(rt.lookup({i, (i << 32) ^ (1ULL << 63)}).hit);
  }
  const std::size_t full_bytes = rt.exact_index_bytes();
  for (std::uint64_t i = 0; i < kMax; ++i) {
    ASSERT_TRUE(rt.remove_exact({i, i << 32})) << i;
  }
  EXPECT_EQ(rt.entry_count(), 0u);
  EXPECT_LT(rt.exact_index_bytes() * 64, full_bytes);
}

/// LB.lb_session's shape filled with `live` distinct session hashes,
/// key i mapping to argument i.
struct SessionTable {
  // Distinct 32-bit session hashes: an odd multiplier is a bijection.
  static std::uint64_t hash(std::uint64_t i) {
    return (i * 0x9e3779b1ULL) & 0xffffffff;
  }
  explicit SessionTable(std::uint64_t live)
      : fx(1, 65536, {"a1"}), rt(fx.control, fx.def()) {
    for (std::uint64_t i = 0; i < live; ++i) {
      rt.add_exact({hash(i)}, {"a1", {{"p", i}}});
    }
  }
  const std::uint64_t* args(std::uint64_t i) const {
    const ExactKey key{{hash(i)}, 1};
    return rt.probe(&key, 0).args;
  }
  Fixture fx;
  RuntimeTable rt;
};

// Churn at the benchmark's scale: one install and one remove per new
// flow at 8,192 live entries. Removes shift clusters back instead of
// leaving tombstones, so the index never grows past its first size.
TEST(RuleIndex, ChurnAtEightThousandEntriesKeepsCapacity) {
  constexpr std::uint64_t kLive = 8192;
  SessionTable t(kLive);
  RuntimeTable& rt = t.rt;
  const auto hash = SessionTable::hash;
  const std::size_t bytes = rt.exact_index_bytes();
  // 16,384 slots of 32 B (key, window, action, one arg): the LB session
  // table's index at 8K entries stays under 0.6 MB.
  EXPECT_LE(bytes, 600'000u);

  for (std::uint64_t n = kLive; n < kLive + 200'000; ++n) {
    rt.add_exact({hash(n)}, {"a1", {{"p", n}}});
    ASSERT_TRUE(rt.remove_exact({hash(n - kLive)})) << n;
    ASSERT_EQ(rt.exact_index_bytes(), bytes) << n;
    if (n % 997 == 0) {
      ASSERT_EQ(rt.lookup({hash(n)}).action,
                (ActionCall{"a1", {{"p", n}}}));
      ASSERT_FALSE(rt.lookup({hash(n - kLive)}).hit);
    }
  }
  EXPECT_EQ(rt.entry_count(), kLive);
  // The survivors are exactly the last kLive installs.
  std::vector<Key> want;
  for (std::uint64_t n = 200'000; n < 200'000 + kLive; ++n) {
    want.push_back({hash(n)});
  }
  std::sort(want.begin(), want.end());
  const auto entries = rt.exact_entries();
  ASSERT_EQ(entries.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(entries[i].key, want[i]) << i;
  }
}

// A commit that retired nothing costs nothing: gc() at 8K entries
// removes nothing, does not move revision(), and keeps the very slot
// array (the probe's argument pointer is unchanged).
TEST(RuleIndex, GcWithNothingRetiredLeavesTheIndexAlone) {
  SessionTable t(8192);
  ASSERT_EQ(t.rt.retired_count(), 0u);
  const std::uint64_t rev = t.rt.revision();
  const std::size_t bytes = t.rt.exact_index_bytes();
  const std::uint64_t* before = t.args(4321);
  ASSERT_NE(before, nullptr);
  for (const std::uint32_t min_live : {1u, 7u, kEpochOpen}) {
    EXPECT_EQ(t.rt.gc(min_live), 0u) << min_live;
  }
  EXPECT_EQ(t.rt.revision(), rev);
  EXPECT_EQ(t.rt.exact_index_bytes(), bytes);
  EXPECT_EQ(t.args(4321), before);
  EXPECT_EQ(t.rt.entry_count(), 8192u);
}

// A few retired keys among 8K: gc() removes exactly those, in place.
// Every other key probes to the same action, a version retired after
// min_live survives, and the index keeps its capacity.
TEST(RuleIndex, GcErasesOnlyRetiredVersionsInPlace) {
  constexpr std::uint64_t kLive = 8192;
  SessionTable t(kLive);
  const std::vector<std::uint64_t> retired{0, 17, 4096, 5000, 8191};
  for (const std::uint64_t i : retired) {
    ASSERT_TRUE(t.rt.retire_exact({SessionTable::hash(i)}, 3));
  }
  ASSERT_TRUE(t.rt.retire_exact({SessionTable::hash(77)}, 9));  // survives
  EXPECT_EQ(t.rt.retired_count(), retired.size() + 1);
  const std::size_t bytes = t.rt.exact_index_bytes();
  const std::uint64_t rev = t.rt.revision();

  EXPECT_EQ(t.rt.gc(4), retired.size());
  EXPECT_GT(t.rt.revision(), rev);
  EXPECT_EQ(t.rt.retired_count(), 1u);
  EXPECT_EQ(t.rt.entry_count(), kLive - retired.size());
  EXPECT_EQ(t.rt.exact_index_bytes(), bytes);
  for (std::uint64_t i = 0; i < kLive; ++i) {
    const bool gone =
        std::find(retired.begin(), retired.end(), i) != retired.end();
    const LookupResult res = t.rt.lookup({SessionTable::hash(i)}, 4);
    ASSERT_EQ(res.hit, !gone) << i;
    if (!gone) {
      ASSERT_EQ(res.action, (ActionCall{"a1", {{"p", i}}})) << i;
    }
  }
  EXPECT_EQ(t.rt.gc(4), 0u);  // the survivor's window is still live
  EXPECT_EQ(t.rt.gc(10), 1u);
  EXPECT_EQ(t.rt.retired_count(), 0u);
}

// The ternary side of retired_count(): installs, erases, retires,
// unretires, corrupt()'s window flips, gc and clear keep it equal to a
// scan of the closed windows, and gc removes exactly the entries the
// scan says expired.
TEST(RuleIndex, TernaryRetiredCountFollowsEveryWindowChange) {
  const Fixture fx(2, 24, {"a0", "a1", "a3"}, p4ir::MatchKind::kTernary);
  RuntimeTable rt(fx.control, fx.def());
  auto count = [&](auto pred) {
    std::size_t n = 0;
    for (const auto& e : rt.ternary_entries()) {
      n += pred(rt.ternary_window(e.handle)) ? 1 : 0;
    }
    return n;
  };
  std::mt19937_64 rng(23);
  std::size_t gc_removed = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::string where = "step " + std::to_string(step);
    std::vector<std::size_t> handles;
    for (const auto& e : rt.ternary_entries()) handles.push_back(e.handle);
    const std::size_t handle =
        handles.empty() ? 0 : handles[rng() % handles.size()];
    const std::uint64_t op = rng() % 100;
    if (op < 35) {
      const std::uint64_t care = rng() % 2 ? 0xffff : 0;
      const std::vector<net::TernaryField> key{{rng() % 4, 0xff}, {0, care}};
      try {
        rt.add_ternary(key, static_cast<std::int32_t>(rng() % 3),
                       random_call(rng), random_window(rng));
      } catch (const std::invalid_argument&) {
        // an overlapping or malformed window, or a full table
      }
    } else if (op < 45) {
      rt.erase_ternary(handle);
    } else if (op < 60) {
      rt.retire_ternary(handle, static_cast<std::uint32_t>(rng() % 7));
    } else if (op < 72) {
      rt.unretire_ternary(handle, rng() % 2
                                      ? rt.ternary_window(handle).to
                                      : static_cast<std::uint32_t>(rng() % 7));
    } else if (op < 82) {
      const auto min_live = static_cast<std::uint32_t>(rng() % 8);
      const std::size_t expired =
          count([&](EpochWindow w) { return w.to < min_live; });
      ASSERT_EQ(rt.gc(min_live), expired) << where;
      gc_removed += expired;
    } else if (op < 83) {
      rt.clear();
    } else {
      rt.corrupt(static_cast<RuntimeTable::CorruptKind>(rng() % 5), rng());
    }
    ASSERT_EQ(rt.retired_count(), count([](EpochWindow w) { return !w.open(); }))
        << where;
  }
  EXPECT_GT(gc_removed, 0u);
}

}  // namespace
}  // namespace dejavu::sim
