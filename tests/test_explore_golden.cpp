// Golden diagnostics for the symbolic explorer: the exact JSON
// `dejavu_cli explore --json` prints for the shipped targets and for
// every seeded semantic-bug fixture, compared byte-for-byte against
// the checked-in expectations in tests/golden/. The CLI prints
// Report::to_json() verbatim for a single selection, so comparing the
// library output here pins the CLI's contract too. Regenerate after an
// intentional change with:
//
//   dejavu_cli explore --json --target fig2 > golden/explore_fig2.json
//   dejavu_cli explore --json --fixture NAME > golden/explore_fixture_NAME.json
//
// explore_fig9_sessions.json has no CLI form: it is fig9 with
// kSeededSessions LB sessions installed (Fig9WithSeededSessionsMatches),
// so the witnesses where forbid lists run long are pinned too.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "explore/explorer.hpp"
#include "explore/fixtures.hpp"
#include "explore_test_util.hpp"

namespace dejavu {
namespace {

std::string read_golden(const std::string& file) {
  const std::string path = std::string(DEJAVU_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ExploreGolden : public testing::TestWithParam<const char*> {};

TEST_P(ExploreGolden, TargetMatches) {
  const std::string name = GetParam();
  test::ExploreTarget target = test::build_explore_target(name);
  const explore::ExploreResult& result = target.deployment->run_explorer();
  EXPECT_EQ(result.report.to_json(), read_golden("explore_" + name + ".json"));
  // The shipped targets must stay error-free — the CI gate
  // (`dejavu_cli explore --all`) relies on exit code 0.
  EXPECT_EQ(result.report.errors(), 0u) << result.report.to_string();
}

INSTANTIATE_TEST_SUITE_P(ShippedTargets, ExploreGolden,
                         testing::Values("fig2", "fig9", "quickstart",
                                         "stateful"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

constexpr int kSeededSessions = 1024;

TEST(ExploreGolden, Fig9WithSeededSessionsMatches) {
  test::ExploreTarget target = test::build_explore_target("fig9");
  control::ControlPlane& cp = target.deployment->control();
  const auto& backends = cp.lb_pool().backends;
  std::uint64_t state = 1;  // splitmix64
  for (int i = 0; i < kSeededSessions; ++i) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fdULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    const auto hash = static_cast<std::uint32_t>(z ^ (z >> 31));
    cp.install_lb_session(hash, backends[hash % backends.size()]);
  }
  const explore::ExploreResult& result = target.deployment->run_explorer();
  EXPECT_EQ(result.report.to_json(), read_golden("explore_fig9_sessions.json"));
  EXPECT_EQ(result.report.errors(), 0u) << result.report.to_string();
}

TEST(ExploreGolden, EveryFixtureMatches) {
  for (const std::string& name : explore::fixtures::names()) {
    explore::fixtures::Bundle bundle = explore::fixtures::make(name);
    const explore::ExploreResult& result = bundle.deployment->run_explorer();
    EXPECT_EQ(result.report.to_json(),
              read_golden("explore_fixture_" + name + ".json"))
        << name;
  }
}

}  // namespace
}  // namespace dejavu
