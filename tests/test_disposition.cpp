// The traffic-manager steps every walker shares (sim/disposition.hpp):
// admission, after-ingress and after-egress rule order, the mirror
// copy, the undecided-input report the abstract walkers fork on, and
// the drop_reason text. Tables of cases, one row per rule pair, so a
// reordered rule fails the row that names it.
#include "sim/disposition.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "nf/parser_lib.hpp"
#include "sfc/header.hpp"

namespace dejavu::sim {
namespace {

constexpr Tri A = Tri::kAlways;
constexpr Tri N = Tri::kNever;
constexpr Tri M = Tri::kMaybe;

constexpr std::uint16_t kLoopPort = 3;  // front-panel port in loopback
constexpr std::uint16_t kRecircPort = 4;  // the mini target's recirc port
constexpr std::uint16_t kMirrorPort = 2;

/// One-pipeline mini target, no pipelet programs: port 3 loops back,
/// port 4 is the dedicated recirculation port, mirror copies go to 2.
struct Target {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"tm"};
  asic::SwitchConfig config{asic::TargetSpec::mini()};
  std::optional<DataPlane> dp;

  explicit Target(bool with_mirror = true) {
    nf::add_standard_parser(program, ids);
    config.set_loopback(kLoopPort);
    dp.emplace(program, ids, config);
    if (with_mirror) dp->set_mirror_port(kMirrorPort);
  }
};

struct Want {
  Step::Kind kind;
  DropCode code;
  TmInput need;
};

Want is(Step::Kind kind) { return {kind, DropCode::kNone, TmInput::kToCpu}; }
Want drops(DropCode code) { return {Step::Kind::kDrop, code, TmInput::kToCpu}; }
Want needs(TmInput input) {
  return {Step::Kind::kNeed, DropCode::kNone, input};
}

void expect_step(const Step& got, const Want& want, const std::string& row) {
  EXPECT_EQ(got.kind, want.kind) << row;
  if (want.kind == Step::Kind::kDrop) {
    EXPECT_EQ(got.code, want.code) << row;
  }
  if (want.kind == Step::Kind::kNeed) {
    EXPECT_EQ(got.need, want.need) << row;
  }
}

TEST(Disposition, AdmissionRuleOrder) {
  Target t;
  t.dp->set_port_down(kLoopPort);
  t.dp->set_port_down(1);
  t.dp->set_port_down(kRecircPort);
  struct Row {
    const char* name;
    std::uint16_t in_port;
    bool from_cpu;
    DropCode want;
  };
  const Row rows[] = {
      {"open front-panel port", 0, false, DropCode::kNone},
      {"no such port", 99, false, DropCode::kInvalidIngressPort},
      {"no such port, even from the CPU", 99, true,
       DropCode::kInvalidIngressPort},
      {"recirc port beats port down", kRecircPort, false,
       DropCode::kRecircPortExternal},
      {"loopback port beats port down", kLoopPort, false,
       DropCode::kLoopbackPortExternal},
      {"CPU reinjection may use a loopback port, not a down one",
       kLoopPort, true, DropCode::kPortDown},
      {"down front-panel port", 1, false, DropCode::kPortDown},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(admit_ingress(*t.dp, r.in_port, r.from_cpu), r.want) << r.name;
  }
  t.dp->set_port_down(kLoopPort, false);
  EXPECT_EQ(admit_ingress(*t.dp, kLoopPort, true), DropCode::kNone);
}

TEST(Disposition, AfterIngressRuleOrder) {
  Target t;
  t.dp->set_port_down(1);
  t.dp->set_port_down(99);
  struct Row {
    const char* name;
    TmFlags flags;
    std::optional<std::uint16_t> egress_spec;
    Want want;
  };
  const Row rows[] = {
      {"toCpu beats drop", {A, A, A, N}, 0, is(Step::Kind::kPunt)},
      {"drop beats resubmit", {N, A, A, N}, 0,
       drops(DropCode::kIngressDrop)},
      {"resubmit beats no egress", {N, N, A, N}, sfc::kPortUnset,
       is(Step::Kind::kResubmit)},
      {"no egress", {N, N, N, N}, sfc::kPortUnset,
       drops(DropCode::kNoEgressDecision)},
      {"invalid port beats port down", {N, N, N, N}, 99,
       drops(DropCode::kInvalidEgressSpec)},
      {"port down", {N, N, N, N}, 1, drops(DropCode::kPortDown)},
      {"egress", {N, N, N, N}, 0, is(Step::Kind::kEgress)},
      {"egress to the loopback port", {N, N, N, N}, kLoopPort,
       is(Step::Kind::kEgress)},
  };
  for (const Row& r : rows) {
    expect_step(after_ingress(*t.dp, r.flags, r.egress_spec), r.want, r.name);
  }
  const Step egress = after_ingress(*t.dp, {}, kLoopPort);
  EXPECT_EQ(egress.port, kLoopPort);
  EXPECT_EQ(egress.pipeline, 0u);
}

TEST(Disposition, AfterEgressRuleOrder) {
  Target t;
  struct Row {
    const char* name;
    TmFlags flags;
    std::uint16_t port;
    Want want;
  };
  const Row rows[] = {
      {"toCpu beats drop", {A, A, N, N}, 0, is(Step::Kind::kPunt)},
      {"drop beats recirculate", {N, A, N, N}, kLoopPort,
       drops(DropCode::kEgressDrop)},
      {"loopback port recirculates", {N, N, N, N}, kLoopPort,
       is(Step::Kind::kRecirculate)},
      {"recirc port recirculates", {N, N, N, N}, kRecircPort,
       is(Step::Kind::kRecirculate)},
      {"front-panel port emits", {N, N, N, N}, 1, is(Step::Kind::kEmit)},
      {"resubmit is not an egress input", {N, N, A, N}, 1,
       is(Step::Kind::kEmit)},
  };
  for (const Row& r : rows) {
    expect_step(after_egress(*t.dp, r.flags, r.port), r.want, r.name);
  }
  const Step recirc = after_egress(*t.dp, {}, kRecircPort);
  EXPECT_EQ(recirc.port, kRecircPort);
  EXPECT_EQ(recirc.pipeline, 0u);
}

TEST(Disposition, UndecidedInputsAreReportedInRuleOrder) {
  Target t;
  struct Row {
    const char* name;
    TmFlags flags;
    std::optional<std::uint16_t> egress_spec;
    Want want;
  };
  const std::optional<std::uint16_t> undecided;
  const Row ingress_rows[] = {
      {"toCpu first", {M, M, M, N}, undecided,
       needs(TmInput::kToCpu)},
      {"then drop", {N, M, M, N}, undecided,
       needs(TmInput::kDrop)},
      {"then resubmit", {N, N, M, N}, undecided,
       needs(TmInput::kResubmit)},
      {"then egress_spec", {N, N, N, N}, undecided,
       needs(TmInput::kEgressSpec)},
      {"a raised toCpu needs nothing later", {A, M, M, N}, undecided,
       is(Step::Kind::kPunt)},
      {"a raised drop needs nothing later", {N, A, M, N}, undecided,
       drops(DropCode::kIngressDrop)},
      {"an undecided mirror is never needed", {N, N, N, M}, 0,
       is(Step::Kind::kEgress)},
  };
  for (const Row& r : ingress_rows) {
    expect_step(after_ingress(*t.dp, r.flags, r.egress_spec), r.want, r.name);
  }
  const Row egress_rows[] = {
      {"toCpu first", {M, M, N, N}, 1,
       needs(TmInput::kToCpu)},
      {"then drop", {N, M, N, N}, 1,
       needs(TmInput::kDrop)},
      {"a raised toCpu needs nothing later", {A, M, N, N}, 1,
       is(Step::Kind::kPunt)},
  };
  for (const Row& r : egress_rows) {
    expect_step(after_egress(*t.dp, r.flags, *r.egress_spec), r.want, r.name);
  }
}

TEST(Disposition, MirrorCopyOnlyWhenAMirrorPortIsSet) {
  Target with_port;
  Target without_port(/*with_mirror=*/false);
  EXPECT_EQ(after_ingress(*with_port.dp, {N, N, N, A}, 1).mirror,
            std::optional<std::uint16_t>(kMirrorPort));
  EXPECT_EQ(after_ingress(*without_port.dp, {N, N, N, A}, 1).mirror,
            std::nullopt);
  EXPECT_EQ(after_ingress(*with_port.dp, {N, N, N, N}, 1).mirror,
            std::nullopt);
  EXPECT_EQ(after_ingress(*with_port.dp, {N, N, N, M}, 1).mirror,
            std::nullopt);
  // A packet that never reaches egress makes no copy.
  EXPECT_EQ(after_ingress(*with_port.dp, {N, A, N, A}, 1).mirror,
            std::nullopt);
}

TEST(Disposition, DropDetailNamesTheRightPort) {
  Target t;
  t.dp->set_port_down(1);
  t.dp->set_port_down(kLoopPort);
  auto pass_text = [&t](const Step& step, std::uint32_t pipeline) {
    EXPECT_EQ(step.kind, Step::Kind::kDrop);
    return drop_detail(*t.dp, step, pipeline);
  };
  EXPECT_EQ(pass_text(after_ingress(*t.dp, {}, 1), 0),
            "egress port 1 is down");
  EXPECT_EQ(pass_text(after_ingress(*t.dp, {}, kLoopPort), 0),
            "recirculation port 3 is down");
  EXPECT_EQ(pass_text(after_ingress(*t.dp, {}, 99), 0),
            "egress_spec 99 is not a valid port");
  EXPECT_EQ(pass_text(after_ingress(*t.dp, {N, A, N, N}, 1), 0),
            "dropped in ingress pipe 0");
  EXPECT_EQ(pass_text(after_egress(*t.dp, {N, A, N, N}, 1), 0),
            "dropped in egress pipe 0");
  EXPECT_EQ(drop_detail(DropCode::kPortDown, 1), "ingress port 1 is down");
  EXPECT_EQ(drop_detail(DropCode::kLoopbackPortExternal, kLoopPort),
            "port 3 is in loopback mode and takes no external traffic");
}

TEST(Disposition, PassCapTextListsRecirculationPorts) {
  Target t;
  t.dp->set_max_passes(3);
  EXPECT_EQ(drop_detail(*t.dp, std::vector<std::uint16_t>{}),
            "packet exceeded 3 pipeline passes (routing loop?)");
  EXPECT_EQ(drop_detail(*t.dp, std::vector<std::uint16_t>{kLoopPort,
                                                          kRecircPort,
                                                          kLoopPort}),
            "packet exceeded 3 pipeline passes (routing loop?); recirc "
            "ports: 3 4 3");
}

}  // namespace
}  // namespace dejavu::sim
