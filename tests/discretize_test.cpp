#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "solver/discretize.hpp"
#include "testutil.hpp"

namespace mfa::solver {
namespace {

using core::Platform;
using core::Problem;
using test::make_kernel;
using test::tiny_problem;

TEST(Discretizer, IntegralRelaxationPassesThrough) {
  // Relaxation already integral (resource bound hits exactly 4 CUs).
  Problem p;
  p.app.kernels = {make_kernel("k", 10.0, 0.0, 25.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = Discretizer().run(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().totals, std::vector<int>{4});
  EXPECT_NEAR(r.value().ii, 2.5, 1e-9);
  EXPECT_TRUE(r.value().proved_optimal);
}

TEST(Discretizer, RoundsFractionalOptimally) {
  // Two identical kernels, DSP 30%/CU, one FPGA: relaxation gives
  // N̂ = 5/3 each; integral optimum is {2, 1} or {1, 2} with II = wcet.
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 0.0, 30.0, 0.0),
                   make_kernel("b", 10.0, 0.0, 30.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = Discretizer().run(p);
  ASSERT_TRUE(r.is_ok());
  const auto& totals = r.value().totals;
  EXPECT_EQ(totals[0] + totals[1], 3);
  EXPECT_NEAR(r.value().ii, 10.0, 1e-9);
  // Root relaxation is a valid lower bound.
  EXPECT_LE(r.value().relaxed_ii, r.value().ii + 1e-9);
}

TEST(Discretizer, LowerBoundTightness) {
  Problem p = tiny_problem();
  auto r = Discretizer().run(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_GE(r.value().ii, r.value().relaxed_ii - 1e-9);
  for (int n : r.value().totals) EXPECT_GE(n, 1);
}

TEST(Discretizer, InfeasibleRelaxationPropagates) {
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 60.0, 0.0),
                   make_kernel("b", 1.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = Discretizer().run(p);
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

TEST(Discretizer, NodeCapReported) {
  Problem p = tiny_problem();
  DiscretizeOptions opts;
  opts.max_nodes = 1;
  auto r = Discretizer(opts).run(p);
  // Either it finished in one node or it reports the cap.
  if (!r.is_ok()) {
    EXPECT_EQ(r.status().code(), Code::kLimit);
  } else {
    EXPECT_LE(r.value().nodes, 1);
  }
}

/// Property: the branch-and-bound rounding finds the optimal integral
/// totals of the pooled problem (what the paper's §3.2.2 B&B promises).
class RandomDiscretize : public ::testing::TestWithParam<int> {};

TEST_P(RandomDiscretize, MatchesBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 911u);
  test::RandomSpec spec;
  spec.max_kernels = 3;
  spec.max_fpgas = 2;
  Problem p = test::random_problem(rng, spec);
  p.resource_fraction = std::max(p.resource_fraction, 0.6);

  const test::Enumeration oracle = test::enumerate_best_totals(p, 1e8);
  ASSERT_FALSE(oracle.skipped) << "box of " << oracle.box << " totals";
  auto r = Discretizer().run(p);
  if (!oracle.feasible) {
    EXPECT_EQ(r.status().code(), Code::kInfeasible);
    return;
  }
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r.value().proved_optimal);
  EXPECT_NEAR(r.value().ii, oracle.best_ii, 1e-9 * oracle.best_ii);
  EXPECT_TRUE(test::totals_fit_pooled_caps(p, r.value().totals));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDiscretize, ::testing::Range(1, 41));

}  // namespace
}  // namespace mfa::solver
