#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "core/relaxation.hpp"
#include "solver/candidates.hpp"
#include "testutil.hpp"

namespace mfa::solver {
namespace {

using core::Platform;
using core::Problem;
using test::make_kernel;
using test::tiny_problem;

TEST(Discretize, IntegralRelaxationPassesThrough) {
  // Relaxation already integral (resource bound hits exactly 4 CUs).
  Problem p;
  p.app.kernels = {make_kernel("k", 10.0, 0.0, 25.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = discretize(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().totals, std::vector<int>{4});
  EXPECT_NEAR(r.value().ii, 2.5, 1e-9);
  EXPECT_GE(r.value().probes, 1);
}

TEST(Discretize, RoundsFractionalOptimally) {
  // Two identical kernels, DSP 30%/CU, one FPGA: relaxation gives
  // N̂ = 5/3 each. No totals with II < 10 fit (that needs {2, 2}), so
  // the optimum is II = wcet, and the threshold keeps the minimal
  // totals {1, 1} (a spare third CU would not lower II).
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 0.0, 30.0, 0.0),
                   make_kernel("b", 10.0, 0.0, 30.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = discretize(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().totals, (std::vector<int>{1, 1}));
  EXPECT_NEAR(r.value().ii, 10.0, 1e-9);
  // The relaxation is a valid lower bound.
  auto relaxed = core::solve_relaxation(p);
  ASSERT_TRUE(relaxed.is_ok());
  EXPECT_LE(relaxed.value().ii, r.value().ii + 1e-9);
}

TEST(Discretize, LowerBoundTightness) {
  Problem p = tiny_problem();
  auto r = discretize(p);
  ASSERT_TRUE(r.is_ok());
  auto relaxed = core::solve_relaxation(p);
  ASSERT_TRUE(relaxed.is_ok());
  EXPECT_GE(r.value().ii, relaxed.value().ii - 1e-9);
  for (int n : r.value().totals) EXPECT_GE(n, 1);
}

TEST(Discretize, InfeasibleRelaxationPropagates) {
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 60.0, 0.0),
                   make_kernel("b", 1.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = discretize(p);
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

TEST(Discretize, KernelThatFitsNowhereIsInfeasible) {
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 10.0, 0.0),
                   make_kernel("huge", 1.0, 0.0, 120.0, 0.0)};
  p.platform = Platform{"1", 2};
  auto r = discretize(p);
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

/// Property: the threshold finds the optimal integral totals of the
/// pooled problem (what the paper's §3.2.2 B&B rounding searches for).
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
  auto r = discretize(p);
  if (!oracle.feasible) {
    EXPECT_EQ(r.status().code(), Code::kInfeasible);
    return;
  }
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_NEAR(r.value().ii, oracle.best_ii, 1e-9 * oracle.best_ii);
  EXPECT_TRUE(test::totals_fit_pooled_caps(p, r.value().totals));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDiscretize, ::testing::Range(1, 41));

}  // namespace
}  // namespace mfa::solver
