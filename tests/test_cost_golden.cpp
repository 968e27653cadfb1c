// Golden diagnostics for the cost certifier: the exact JSON
// `dejavu_cli cost --json` prints for the shipped targets and for
// every seeded DV-C fixture, compared byte-for-byte against the
// checked-in expectations in tests/golden/. The CLI prints
// CostResult::to_json() verbatim for a single selection, so comparing
// the library output here pins the CLI's contract too. Regenerate
// after an intentional change with:
//
//   dejavu_cli cost --json --target NAME > golden/cost_NAME.json
//   dejavu_cli cost --json --fixture NAME > golden/cost_fixture_NAME.json
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cost/cost.hpp"
#include "cost/fixtures.hpp"
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

class CostGolden : public testing::TestWithParam<const char*> {};

TEST_P(CostGolden, TargetMatches) {
  const std::string name = GetParam();
  test::ExploreTarget target = test::build_explore_target(name);
  const explore::ExploreResult& exploration =
      target.deployment->run_explorer();
  cost::CostOptions options;
  options.routing = &target.deployment->routing();
  const cost::CostResult result = cost::run(
      target.deployment->dataplane(), target.policies, exploration, options);
  EXPECT_EQ(result.to_json(), read_golden("cost_" + name + ".json"));
  // The shipped targets must stay finding-free — the CI gate
  // (`dejavu_cli cost --all`) relies on exit code 0.
  EXPECT_EQ(result.report.errors(), 0u) << result.report.to_string();
}

INSTANTIATE_TEST_SUITE_P(ShippedTargets, CostGolden,
                         testing::Values("fig2", "fig9", "quickstart",
                                         "stateful", "parallel"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(CostGolden, EveryFixtureMatches) {
  for (const std::string& name : cost::fixtures::names()) {
    cost::fixtures::Bundle bundle = cost::fixtures::make(name);
    const cost::CostResult result = bundle.run();
    EXPECT_EQ(result.to_json(), read_golden("cost_fixture_" + name + ".json"))
        << name;
  }
}

}  // namespace
}  // namespace dejavu
