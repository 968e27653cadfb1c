// The symbolic layer and the explorer's check catalog: constraint
// solving (the bit-vector domain must be decisive for the shapes the
// dataplane generates), the lint-vs-explore separation (every seeded
// semantic-bug fixture is structurally clean but explorer-rejected),
// and the DeploymentOptions::explore build gate.
#include <gtest/gtest.h>

#include <stdexcept>

#include "explore/explorer.hpp"
#include "explore/fixtures.hpp"
#include "explore/symbolic.hpp"
#include "merge/compose.hpp"
#include "nf/nfs.hpp"
#include "nf/parser_lib.hpp"

namespace dejavu {
namespace {

using explore::ConstraintSet;
using explore::VarDef;

TEST(ConstraintSet, SolvePrefersTemplateValue) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.ttl", 8, 64});
  EXPECT_EQ(cs.solve(v), 64u);
}

TEST(ConstraintSet, RequireEqForcesValue) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.dst_addr", 32, 7});
  ASSERT_TRUE(cs.require_eq(v, 0x0A000001));
  EXPECT_EQ(cs.solve(v), 0x0A000001u);
  // A second, different equality is a contradiction.
  EXPECT_FALSE(cs.require_eq(v, 0x0A000002));
}

TEST(ConstraintSet, RequireNeAvoidsValue) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.ttl", 8, 64});
  ASSERT_TRUE(cs.require_ne(v, 64));
  auto solved = cs.solve(v);
  ASSERT_TRUE(solved.has_value());
  EXPECT_NE(*solved, 64u);
}

TEST(ConstraintSet, EqThenNeOnSameValueIsUnsat) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.ttl", 8, 64});
  ASSERT_TRUE(cs.require_eq(v, 5));
  EXPECT_FALSE(cs.require_ne(v, 5));
}

TEST(ConstraintSet, MaskedMatchesCompose) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.dst_addr", 32, 0});
  // Two compatible prefixes: 10.0.0.0/8 and 10.1.0.0/16.
  ASSERT_TRUE(cs.require_masked(v, 0x0A000000, 0xFF000000));
  ASSERT_TRUE(cs.require_masked(v, 0x0A010000, 0xFFFF0000));
  auto solved = cs.solve(v);
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(*solved & 0xFFFF0000, 0x0A010000u);
  // An incompatible prefix (11.0.0.0/8) contradicts the forced bits.
  EXPECT_FALSE(cs.require_masked(v, 0x0B000000, 0xFF000000));
}

TEST(ConstraintSet, ForbidMaskedExcludesWholePrefix) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.dst_addr", 32, 0x0A000001});
  ASSERT_TRUE(cs.forbid_masked(v, 0x0A000000, 0xFF000000));
  auto solved = cs.solve(v);
  ASSERT_TRUE(solved.has_value());
  EXPECT_NE(*solved & 0xFF000000, 0x0A000000u);
}

TEST(ConstraintSet, MatchInsidePrefixAfterForbiddenSubprefix) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.dst_addr", 32, 0});
  // Inside 10/8 but outside 10.9/16 — the LPM-shadow shape.
  ASSERT_TRUE(cs.require_masked(v, 0x0A000000, 0xFF000000));
  ASSERT_TRUE(cs.forbid_masked(v, 0x0A090000, 0xFFFF0000));
  auto solved = cs.solve(v);
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(*solved & 0xFF000000, 0x0A000000u);
  EXPECT_NE(*solved & 0xFFFF0000, 0x0A090000u);
}

TEST(ConstraintSet, RangeGuards) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.ttl", 8, 64});
  ASSERT_TRUE(cs.require_gt(v, 1));   // Router's ttl > 1 gate
  ASSERT_TRUE(cs.require_lt(v, 10));  // and an artificial upper gate
  auto solved = cs.solve(v);
  ASSERT_TRUE(solved.has_value());
  EXPECT_GT(*solved, 1u);
  EXPECT_LT(*solved, 10u);
  // lt 0 / gt max are vacuously unsatisfiable on the spot.
  ConstraintSet edge;
  const int w = edge.add_var({"ipv4.ttl", 8, 0});
  EXPECT_FALSE(edge.require_lt(w, 0));
  EXPECT_FALSE(edge.require_gt(w, 255));
}

TEST(ConstraintSet, IntervalCollapseIsUnsat) {
  ConstraintSet cs;
  const int v = cs.add_var({"ipv4.ttl", 8, 64});
  ASSERT_TRUE(cs.require_ge(v, 100));
  EXPECT_FALSE(cs.require_le(v, 99));
}

TEST(ConstraintSet, PinFixesTheSolvedValue) {
  ConstraintSet cs;
  const int v = cs.add_var({"tcp.dst_port", 16, 80});
  ASSERT_TRUE(cs.require_ne(v, 80));
  auto pinned = cs.pin(v);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(cs.solve(v), pinned);
  // Once pinned, any other value is contradictory.
  EXPECT_FALSE(cs.require_eq(v, *pinned + 1));
}

TEST(ConstraintSet, SolveEscapesDenseForbiddenSet) {
  ConstraintSet cs;
  const int v = cs.add_var({"tcp.src_port", 16, 0});
  // Forbid the whole low range the contiguous scan would sweep.
  for (std::uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(cs.require_ne(v, i)) << i;
    ASSERT_TRUE(cs.require_ne(v, 0xFFFF - i)) << i;
  }
  auto solved = cs.solve(v);
  ASSERT_TRUE(solved.has_value());
  EXPECT_GE(*solved, 600u);
  EXPECT_LE(*solved, 0xFFFFu - 600u);
}

// --- the lint/explore separation on the seeded fixtures ---

TEST(ExploreFixtures, EveryFixtureIsLintCleanButExplorerRejected) {
  for (const std::string& name : explore::fixtures::names()) {
    explore::fixtures::Bundle bundle = explore::fixtures::make(name);
    // Lint-clean: the structural verifier accepted the composition at
    // build time (Deployment::build ran with verify on), and its
    // retained report has no errors.
    EXPECT_EQ(bundle.deployment->verification().errors(), 0u) << name;

    const explore::ExploreResult& result = bundle.deployment->run_explorer();
    EXPECT_GT(result.report.errors(), 0u) << name;
    for (const std::string& id : bundle.expect_checks) {
      EXPECT_TRUE(result.report.has(id))
          << name << " must trip " << id << ":\n"
          << result.report.to_string();
    }
    // The differential gate must agree with the concrete dataplane on
    // every fixture: the bugs are real behaviors, not model drift.
    EXPECT_FALSE(result.report.has("DV-S7")) << name;
  }
}

TEST(ExploreFixtures, UnknownNameThrows) {
  EXPECT_THROW(explore::fixtures::make("no-such-fixture"),
               std::invalid_argument);
}

// --- Deployment::build integration ---

TEST(ExploreOption, BuildTimeExploreAcceptsCleanSkeleton) {
  // With only the framework rules installed the quickstart skeleton
  // drops unclassified traffic — warnings at most, so explore-on-build
  // must not throw.
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  nfs.push_back(nf::make_router(ids));
  sfc::PolicySet policies;
  policies.add({.path_id = 1,
                .name = "classify-then-route",
                .nfs = {sfc::kClassifier, sfc::kRouter},
                .weight = 1.0,
                .in_port = 0,
                .exit_port = 1});
  control::DeploymentOptions options;
  options.explore = true;
  auto deployment = control::Deployment::build(
      std::move(nfs), policies, asic::SwitchConfig{asic::TargetSpec::tofino32()},
      std::move(ids), std::move(options));
  EXPECT_EQ(deployment->exploration().report.errors(), 0u);
  EXPECT_GT(deployment->exploration().stats.paths, 0u);
  EXPECT_EQ(deployment->exploration().stats.replays,
            deployment->exploration().stats.paths);
}

// --- standard_metadata reads share the dataplane's field table ---

TEST(ExploreMetadata, ReadsTheEpochLikeTheDataplane) {
  // An ingress action steers by the stamped epoch: at epoch 2 every
  // packet leaves on port 2. The explorer must read the epoch the way
  // sim::FieldView does, or it predicts a no-egress drop (DV-S7).
  p4ir::TupleIdTable ids;
  p4ir::Program program("epoch-steer");
  nf::add_standard_parser(program, ids);
  p4ir::ControlBlock c(
      merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
  p4ir::Action steer;
  steer.name = "steer_by_epoch";
  steer.primitives = {p4ir::copy_field("standard_metadata.egress_spec",
                                       "standard_metadata.epoch")};
  c.add_action(steer);
  p4ir::Table t;
  t.name = "steer";
  t.default_action = "steer_by_epoch";
  c.add_table(t);
  c.apply_table("steer");
  program.add_control(std::move(c));
  sim::DataPlane dp(program, ids, asic::SwitchConfig{asic::TargetSpec::mini()});
  dp.set_epoch(2);

  explore::ExploreOptions options;
  options.in_ports = std::vector<std::uint16_t>{0};
  options.coverage = false;
  const explore::ExploreResult result = explore::run(dp, {}, options);
  EXPECT_FALSE(result.report.has("DV-S7")) << result.report.to_string();
  ASSERT_FALSE(result.paths.empty());
  for (const explore::PathSummary& path : result.paths) {
    EXPECT_FALSE(path.outcome.dropped) << path.outcome.drop_reason;
    EXPECT_EQ(path.outcome.out_ports, std::vector<std::uint16_t>{2});
  }
}

}  // namespace
}  // namespace dejavu
