// Unit tests for the whole-chain dataflow analyzer: footprint
// extraction with provenance, the pairwise order-independence
// criterion, the chain-level passes (dead writes, uninit reads,
// declared-parallel conflicts), the chain-sequenced exemption, and the
// DV-A fixture catalog run through verify::run_all.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/commutativity.hpp"
#include "analysis/fixtures.hpp"
#include "analysis/footprint.hpp"
#include "nf/nfs.hpp"
#include "p4ir/action.hpp"
#include "verify/fixtures.hpp"
#include "verify/verify.hpp"

namespace dejavu::analysis {
namespace {

/// A one-table NF whose single action runs `primitives` (the same
/// shape the analysis fixtures use).
p4ir::Program one_action_nf(const std::string& nf,
                            std::vector<p4ir::Primitive> primitives,
                            std::vector<p4ir::Action::Param> params = {}) {
  p4ir::Program p(nf);
  p.annotate("nf", nf);
  p4ir::ControlBlock block(nf + "_control");
  p4ir::Action a;
  a.name = "act";
  a.params = std::move(params);
  a.primitives = std::move(primitives);
  p4ir::Table t;
  t.name = "tbl";
  t.actions = {a.name};
  t.max_entries = 16;
  block.add_action(std::move(a));
  block.add_table(std::move(t));
  block.apply_table("tbl");
  p.add_control(std::move(block));
  return p;
}

sfc::PolicySet single_chain(std::vector<std::string> nfs) {
  sfc::PolicySet set;
  sfc::ChainPolicy policy;
  policy.path_id = 1;
  policy.name = "chain";
  policy.nfs = std::move(nfs);
  policy.in_port = 0;
  policy.exit_port = 1;
  set.add(policy);
  return set;
}

TEST(Footprint, CollectsAccessesWithProvenance) {
  p4ir::Program p = one_action_nf(
      "X", {p4ir::copy_field("ipv4.ttl", "ipv4.tos"),
            p4ir::hash_fields("local.i", {"ipv4.src_addr"}),
            p4ir::register_add("r", "local.i", 1)});
  p.controls().front().add_register({"r", 32, 64});

  const Footprint fp = compute_footprint(p);
  EXPECT_EQ(fp.nf, "X");
  ASSERT_TRUE(fp.field_reads.count("ipv4.tos"));
  ASSERT_TRUE(fp.field_writes.count("ipv4.ttl"));
  // Register arrays are NF-qualified; the index field counts as a read.
  ASSERT_TRUE(fp.register_writes.count("X.r"));
  EXPECT_TRUE(fp.register_index_fields.at("X.r").count("local.i"));
  EXPECT_TRUE(fp.field_reads.count("local.i"));
  // Provenance names the primitive slot.
  const Provenance& prov = fp.field_writes.at("ipv4.ttl").front();
  EXPECT_EQ(prov.nf, "X");
  EXPECT_EQ(prov.table, "tbl");
  EXPECT_EQ(prov.action, "act");
  EXPECT_NE(prov.detail.find("primitive#0"), std::string::npos);
  EXPECT_FALSE(fp.may_drop());
  EXPECT_FALSE(fp.touches_sfc_header());
}

TEST(Footprint, DropAndSfcPushAreControlEffectsNotFieldWrites) {
  p4ir::Program p = one_action_nf(
      "D", {p4ir::drop_primitive(), p4ir::push_sfc_primitive()});
  const Footprint fp = compute_footprint(p);
  EXPECT_TRUE(fp.may_drop());
  EXPECT_FALSE(fp.sfc_push.empty());
  EXPECT_TRUE(fp.touches_sfc_header());
  EXPECT_FALSE(fp.field_writes.count("sfc.drop_flag"));
}

// The one JSON escaper every renderer shares: a raw control character
// would make the document invalid JSON.
TEST(JsonEscape, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("a\x1f" "b"), "a\\u001fb");
  EXPECT_EQ(json_escape("\"q\"\\\n\t"), "\\\"q\\\"\\\\\\n\\t");
  EXPECT_EQ(json_escape("plain text"), "plain text");
}

TEST(Commutativity, DisjointFootprintsAreIndependent) {
  const Footprint a =
      compute_footprint(one_action_nf("A", {p4ir::set_imm("ipv4.tos", 1)}));
  const Footprint b =
      compute_footprint(one_action_nf("B", {p4ir::set_imm("ipv4.ttl", 9)}));
  const PairResult r = check_pair(a, b);
  EXPECT_TRUE(r.independent);
  EXPECT_TRUE(r.conflicts.empty());
}

TEST(Commutativity, SameSingleConstantWriteWriteIsExempt) {
  const Footprint a =
      compute_footprint(one_action_nf("A", {p4ir::set_imm("ipv4.tos", 5)}));
  const Footprint b =
      compute_footprint(one_action_nf("B", {p4ir::set_imm("ipv4.tos", 5)}));
  EXPECT_TRUE(check_pair(a, b).independent);

  const Footprint c =
      compute_footprint(one_action_nf("C", {p4ir::set_imm("ipv4.tos", 6)}));
  const PairResult r = check_pair(a, c);
  ASSERT_FALSE(r.independent);
  EXPECT_EQ(r.conflicts.front().kind, ConflictKind::kFieldWriteWrite);
  EXPECT_EQ(r.conflicts.front().resource, "ipv4.tos");
}

TEST(Commutativity, ReadWriteOverlapConflictsEitherDirection) {
  const Footprint w = compute_footprint(
      one_action_nf("W", {p4ir::set_from_param("ipv4.ttl", "v")},
                    {{"v", 8}}));
  const Footprint r = compute_footprint(
      one_action_nf("R", {p4ir::copy_field("ipv4.tos", "ipv4.ttl")}));
  const PairResult pr = check_pair(w, r);
  ASSERT_FALSE(pr.independent);
  EXPECT_EQ(pr.conflicts.front().kind, ConflictKind::kFieldReadWrite);
  // Symmetric: the verdict does not depend on argument order.
  EXPECT_FALSE(check_pair(r, w).independent);
}

TEST(Commutativity, DropperConflictsWithStatefulPeer) {
  p4ir::Program dropper = one_action_nf("Drop", {p4ir::drop_primitive()});
  p4ir::Program counter = one_action_nf(
      "Count", {p4ir::hash_fields("local.k", {"ipv4.src_addr"}),
                p4ir::register_add("c", "local.k", 1)});
  counter.controls().front().add_register({"c", 32, 64});
  const PairResult r =
      check_pair(compute_footprint(dropper), compute_footprint(counter));
  ASSERT_FALSE(r.independent);
  EXPECT_EQ(r.conflicts.front().kind, ConflictKind::kControlDrop);
}

TEST(AnalyzeChains, FirewallAndPoliceAreTheOnlyCommutingPair) {
  // The parallel_study chain: FW and Police both only raise the drop
  // flag; every other adjacent pair conflicts (Classifier pushes the
  // SFC header, Router pops it and may punt).
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  nfs.push_back(nf::make_firewall(ids));
  nfs.push_back(nf::make_police(ids));
  nfs.push_back(nf::make_router(ids));
  std::vector<const p4ir::Program*> ptrs;
  for (const auto& p : nfs) ptrs.push_back(&p);
  const sfc::PolicySet policies = single_chain(
      {sfc::kClassifier, sfc::kFirewall, "Police", sfc::kRouter});

  const ChainAnalysis chains = analyze_chains(ptrs, policies);
  EXPECT_TRUE(chains.matrix.independent(sfc::kFirewall, "Police"));
  EXPECT_FALSE(chains.matrix.independent(sfc::kClassifier, sfc::kFirewall));
  EXPECT_FALSE(chains.matrix.independent("Police", sfc::kRouter));
  EXPECT_FALSE(chains.matrix.independent(sfc::kClassifier, sfc::kRouter));
  // The shipped NFs are clean: no dead scratch writes, no uninit reads.
  EXPECT_TRUE(chains.dead_writes.empty());
  EXPECT_TRUE(chains.uninit_reads.empty());
  // Without a placement there is nothing declared parallel.
  EXPECT_TRUE(chains.parallel_conflicts.empty());
  EXPECT_TRUE(chains.register_aliases.empty());
}

TEST(AnalyzeChains, HashIntoLocalIndexInSameActionIsNotUninit) {
  // The Limiter idiom: hash into a scratch index, then use it as a
  // register index later in the *same* action. Legal — the action-local
  // write precedes the read.
  p4ir::Program p = one_action_nf(
      "Meter", {p4ir::hash_fields("local.idx", {"ipv4.src_addr"}),
                p4ir::register_add("m", "local.idx", 1)});
  p.controls().front().add_register({"m", 32, 64});
  const ChainAnalysis chains =
      analyze_chains({&p}, single_chain({"Meter"}));
  EXPECT_TRUE(chains.uninit_reads.empty());
}

TEST(AnalyzeChains, ChainSequencedPairsAreExemptFromParallelChecks) {
  // The parallel-field-clash fixture fires DV-A1 because its two NFs
  // come from unrelated chains. Re-run the same programs + placement
  // with ONE policy sequencing both: the check_nextNF gates now pin
  // the order, so the conflict must be suppressed.
  verify::fixtures::Bundle b =
      fixtures::make("parallel-field-clash");
  std::vector<const p4ir::Program*> ptrs;
  for (const auto& p : b.nf_programs) ptrs.push_back(&p);

  const ChainAnalysis split = analyze_chains(
      ptrs, b.policies, &b.placement.assignments());
  EXPECT_FALSE(split.parallel_conflicts.empty());

  const sfc::PolicySet joined = single_chain({"ttl_setter", "ttl_mirror"});
  const ChainAnalysis sequenced =
      analyze_chains(ptrs, joined, &b.placement.assignments());
  EXPECT_TRUE(sequenced.parallel_conflicts.empty());
  // The matrix itself still records the conflict — only the
  // placement-level finding is exempt.
  EXPECT_FALSE(sequenced.matrix.independent("ttl_setter", "ttl_mirror"));
}

TEST(AnalysisFixtures, EveryFixtureTripsItsExpectedChecks) {
  for (const std::string& name : fixtures::names()) {
    const verify::fixtures::Bundle bundle = fixtures::make(name);
    const verify::Report report = verify::run_all(bundle.input());
    EXPECT_FALSE(bundle.expect_checks.empty()) << name;
    for (const std::string& id : bundle.expect_checks) {
      EXPECT_TRUE(report.has(id))
          << name << " no longer trips " << id << "\n"
          << report.to_string();
    }
  }
}

TEST(AnalysisFixtures, CleanChainsStaySilent) {
  // The DV-A checks must not fire on the shipped quickstart chain.
  p4ir::TupleIdTable ids;
  std::vector<p4ir::Program> nfs;
  nfs.push_back(nf::make_classifier(ids));
  nfs.push_back(nf::make_router(ids));
  std::vector<const p4ir::Program*> ptrs;
  for (const auto& p : nfs) ptrs.push_back(&p);
  const ChainAnalysis chains = analyze_chains(
      ptrs, single_chain({sfc::kClassifier, sfc::kRouter}));
  EXPECT_TRUE(chains.dead_writes.empty());
  EXPECT_TRUE(chains.uninit_reads.empty());
  EXPECT_TRUE(chains.parallel_conflicts.empty());
  EXPECT_TRUE(chains.register_aliases.empty());
}

}  // namespace
}  // namespace dejavu::analysis
