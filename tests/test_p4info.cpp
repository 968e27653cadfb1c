#include "control/p4info.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "control/deployment.hpp"
#include "control/snapshot.hpp"
#include "nf/nfs.hpp"

namespace dejavu::control {
namespace {

TEST(P4Info, DataPlaneIdsAreP4InfoIdsInTextOrder) {
  Fig2Deployment fx = make_fig9_deployment();
  sim::DataPlane& dp = fx.deployment->dataplane();
  const std::string json = p4info_json(dp.program());
  // Table i is p4info's table 0x01000001 + i: declaration order.
  sim::TableId id = 0;
  for (const p4ir::ControlBlock& control : dp.program().controls()) {
    for (const p4ir::Table& t : control.tables()) {
      ASSERT_LT(id, dp.table_count());
      EXPECT_EQ(dp.table(id).control().name(), control.name());
      EXPECT_EQ(dp.table(id).def().name, t.name);
      EXPECT_EQ(dp.table_id(control.name(), t.name), id);
      EXPECT_NE(json.find("{\"id\": " + std::to_string(0x01000001 + id) +
                          ", \"name\": \"" + t.name + "\""),
                std::string::npos)
          << t.name;
      ++id;
    }
  }
  EXPECT_EQ(id, dp.table_count());

  // A snapshot (and so its text) lists tables in id order.
  const Snapshot snap = take_snapshot(dp);
  ASSERT_EQ(snap.tables.size(), dp.table_count());
  for (sim::TableId i = 0; i < dp.table_count(); ++i) {
    EXPECT_EQ(snap.tables[i].control, dp.table(i).control().name());
    EXPECT_EQ(snap.tables[i].table, dp.table(i).def().name);
  }

  // The auditor's census lists them by (control, name), and
  // tables_named() lists a name's instances in control-name order.
  std::vector<std::pair<std::string, std::string>> census;
  for (const sim::DataPlane::StateObject& o : dp.state_objects()) {
    if (!o.is_register) census.emplace_back(o.control, o.name);
  }
  EXPECT_EQ(census.size(), dp.table_count());
  EXPECT_TRUE(std::is_sorted(census.begin(), census.end()));
  const std::vector<sim::TableId> branching =
      dp.table_ids("dejavu_branching");
  ASSERT_GE(branching.size(), 2u);
  const std::vector<sim::RuntimeTable*> named =
      dp.tables_named("dejavu_branching");
  ASSERT_EQ(named.size(), branching.size());
  for (std::size_t i = 0; i < branching.size(); ++i) {
    EXPECT_EQ(named[i], &dp.table(branching[i]));
    if (i > 0) {
      EXPECT_LT(dp.table(branching[i - 1]).control().name(),
                dp.table(branching[i]).control().name());
    }
  }
}

TEST(P4Info, DescribesTablesActionsRegisters) {
  p4ir::TupleIdTable ids;
  auto limiter = nf::make_rate_limiter(ids);
  std::string json = p4info_json(limiter);

  EXPECT_NE(json.find("\"name\": \"meter_tbl\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"flow_count\", \"width\": 32, "
                      "\"size\": 8192"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"over_limit\""), std::string::npos);
}

TEST(P4Info, KeysCarryMatchKindsAndWidths) {
  p4ir::TupleIdTable ids;
  auto router = nf::make_router(ids);
  std::string json = p4info_json(router);
  EXPECT_NE(json.find("{\"field\": \"ipv4.dst_addr\", \"match\": \"lpm\", "
                      "\"bits\": 32}"),
            std::string::npos);
}

TEST(P4Info, ComposedProgramListsEveryPipelet) {
  auto fx = make_fig9_deployment();
  std::string json = p4info_json(fx.deployment->program());
  for (const char* control :
       {"pipelet_ingress0", "pipelet_ingress1", "pipelet_egress0",
        "pipelet_egress1"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + control + "\""),
              std::string::npos)
        << control;
  }
  // Qualified NF tables and framework glue are both addressable.
  EXPECT_NE(json.find("\"name\": \"LB.lb_session\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"dejavu_branching\""), std::string::npos);
}

TEST(P4Info, StableAcrossIdenticalBuilds) {
  auto a = make_fig9_deployment();
  auto b = make_fig9_deployment();
  EXPECT_EQ(p4info_json(a.deployment->program()),
            p4info_json(b.deployment->program()));
}

TEST(P4Info, ActionParametersDescribed) {
  p4ir::TupleIdTable ids;
  auto router = nf::make_router(ids);
  std::string json = p4info_json(router);
  EXPECT_NE(json.find("{\"name\": \"port\", \"bits\": 9}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"dmac\", \"bits\": 48}"),
            std::string::npos);
}

}  // namespace
}  // namespace dejavu::control
