// The full generated differential matrix: every scenario MakeScenarios
// emits from the default axes, executed against the runner's invariant
// battery. Registered under the `scenario` ctest label (tests/CMakeLists.txt)
// so `ctest -L scenario` runs exactly this sweep.
//
// The matrix is sharded by the program axis — six bundles of 3456 scenarios —
// so a failure names both the offending scenario (in the violation line) and
// a narrow bundle to re-run, and no single test body monopolizes a runner.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/scenario/runner.h"
#include "src/scenario/scenario.h"

namespace secpol {
namespace {

class ScenarioMatrixTest : public ::testing::TestWithParam<int> {};

// Names are built by append: GCC 12's -Wrestrict false-fires on the
// equivalent char* + std::string chains when inlined at -O3 (PR 105651).
std::string BundleName(int program) {
  std::string name = "s";
  name += std::to_string(program);
  return name;
}

TEST_P(ScenarioMatrixTest, BundleHoldsEveryInvariant) {
  std::string prefix = BundleName(GetParam());
  prefix += ".";
  std::vector<Scenario> bundle;
  for (Scenario& scenario : MakeScenarios(DefaultAxes())) {
    if (scenario.name.rfind(prefix, 0) == 0) {
      bundle.push_back(std::move(scenario));
    }
  }
  ASSERT_EQ(bundle.size(), 3456u) << prefix;

  ScenarioRunner runner;
  const ScenarioSummary summary = runner.RunAll(bundle);
  EXPECT_EQ(summary.scenarios, bundle.size());
  EXPECT_TRUE(summary.ok()) << summary.ToString();
}

INSTANTIATE_TEST_SUITE_P(Programs, ScenarioMatrixTest, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return BundleName(param_info.param);
                         });

}  // namespace
}  // namespace secpol
