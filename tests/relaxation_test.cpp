#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "core/relaxation.hpp"
#include "hls/paper.hpp"
#include "testutil.hpp"

namespace mfa::core {
namespace {

using test::make_kernel;
using test::tiny_problem;

TEST(RelaxationBisection, SingleKernelResourceBound) {
  // One kernel, one FPGA, DSP 20% per CU, cap 80% → N̂ = 4, ÎI = 10/4.
  Problem p;
  p.app.kernels = {make_kernel("k", 10.0, 0.0, 20.0, 0.0)};
  p.platform = Platform{"1", 1};
  p.resource_fraction = 0.8;
  auto sol = solve_relaxation(p);
  ASSERT_TRUE(sol.is_ok());
  EXPECT_NEAR(sol.value().n_hat[0], 4.0, 1e-9);
  EXPECT_NEAR(sol.value().ii, 2.5, 1e-9);
}

TEST(RelaxationBisection, BandwidthBound) {
  // Bandwidth is the binding constraint: 10% per CU, cap 50% → N̂ = 5.
  Problem p;
  p.app.kernels = {make_kernel("k", 10.0, 1.0, 1.0, 10.0)};
  p.platform = Platform{"1", 1};
  p.bw_fraction = 0.5;
  auto sol = solve_relaxation(p);
  ASSERT_TRUE(sol.is_ok());
  EXPECT_NEAR(sol.value().n_hat[0], 5.0, 1e-9);
  EXPECT_NEAR(sol.value().ii, 2.0, 1e-9);
}

TEST(RelaxationBisection, MinOneCuKeepsNonCriticalKernelAtOne) {
  // Kernel b is so fast that its N̂ stays at the lower bound 1.
  Problem p;
  p.app.kernels = {make_kernel("slow", 100.0, 0.0, 10.0, 0.0),
                   make_kernel("fast", 0.001, 0.0, 10.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto sol = solve_relaxation(p);
  ASSERT_TRUE(sol.is_ok());
  EXPECT_NEAR(sol.value().n_hat[1], 1.0, 1e-9);
  // Slow kernel takes the remaining 90% → 9 CUs.
  EXPECT_NEAR(sol.value().n_hat[0], 9.0, 1e-6);
}

TEST(RelaxationBisection, InfeasibleWhenMinCusExceedPool) {
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 60.0, 0.0),
                   make_kernel("b", 1.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto sol = solve_relaxation(p);
  EXPECT_FALSE(sol.is_ok());
  EXPECT_EQ(sol.status().code(), Code::kInfeasible);
}

TEST(RelaxationBisection, RespectsMaxCuTotal) {
  // Two CUs fit the FPGA (DSP 40% each) while the pooled cap alone would
  // allow 2.5: the box N̂ ≤ max_cu_total binds → N̂ = 2, ÎI = 10/2.
  Problem p;
  p.app.kernels = {make_kernel("k", 10.0, 0.0, 40.0, 0.0)};
  p.platform = Platform{"1", 1};
  ASSERT_EQ(p.max_cu_total(0), 2);
  auto sol = solve_relaxation(p);
  ASSERT_TRUE(sol.is_ok());
  EXPECT_NEAR(sol.value().n_hat[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.value().ii, 5.0, 1e-9);
}

TEST(RelaxationBisection, KernelThatFitsNowhereIsInfeasible) {
  // The pool has room for the CU (DSP 120 of 200) but no single FPGA
  // does: the box [1, max_cu_total = 0] is empty.
  Problem p;
  p.app.kernels = {make_kernel("k", 10.0, 0.0, 120.0, 0.0)};
  p.platform = Platform{"2", 2};
  ASSERT_EQ(p.max_cu_total(0), 0);
  EXPECT_EQ(solve_relaxation(p).status().code(), Code::kInfeasible);
  EXPECT_EQ(solve_relaxation_gp(p).status().code(), Code::kInfeasible);
}

TEST(RelaxationGp, ModelHasExpectedShape) {
  Problem p = tiny_problem();
  gp::GpProblem model = build_relaxation_gp(p);
  // Variables: II + one per kernel.
  EXPECT_EQ(model.num_variables(), 1 + p.num_kernels());
  // Constraints: latency + lower bound + upper bound per kernel, plus
  // two active resource axes (BRAM, DSP) and bandwidth.
  EXPECT_EQ(model.constraints().size(), 3 * p.num_kernels() + 3);
}

TEST(RelaxationGp, AgreesWithBisectionOnTiny) {
  Problem p = tiny_problem();
  auto exact = solve_relaxation(p);
  auto via_gp = solve_relaxation_gp(p);
  ASSERT_TRUE(exact.is_ok());
  ASSERT_TRUE(via_gp.is_ok());
  EXPECT_NEAR(via_gp.value().ii, exact.value().ii,
              1e-4 * exact.value().ii);
}

TEST(RelaxationGp, AgreesWithBisectionOnPaperCases) {
  for (const Problem& base :
       {hls::paper::case_alex16_2fpga(), hls::paper::case_alex32_4fpga(),
        hls::paper::case_vgg_8fpga()}) {
    Problem p = base;
    p.resource_fraction = 0.7;
    auto exact = solve_relaxation(p);
    auto via_gp = solve_relaxation_gp(p);
    ASSERT_TRUE(exact.is_ok()) << p.app.name;
    ASSERT_TRUE(via_gp.is_ok()) << p.app.name;
    EXPECT_NEAR(via_gp.value().ii, exact.value().ii,
                1e-3 * exact.value().ii)
        << p.app.name;
  }
}

/// Property: across random instances the GP interior-point solution
/// matches the exact bisection optimum, and the returned N̂ is feasible.
class RandomRelaxation : public ::testing::TestWithParam<int> {};

TEST_P(RandomRelaxation, GpMatchesBisection) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u);
  Problem p = test::random_problem(rng);
  ASSERT_TRUE(p.validate().is_ok());

  auto exact = solve_relaxation(p);
  auto via_gp = solve_relaxation_gp(p);
  ASSERT_EQ(exact.is_ok(), via_gp.is_ok());
  if (!exact.is_ok()) return;

  EXPECT_NEAR(via_gp.value().ii, exact.value().ii,
              1e-3 * exact.value().ii + 1e-9);

  // Feasibility of the bisection solution: pooled constraints hold and
  // every kernel meets the returned ÎI.
  const RelaxedSolution& sol = exact.value();
  const double f = p.num_fpgas();
  double dsp = 0.0;
  double bram = 0.0;
  double bw = 0.0;
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    EXPECT_GE(sol.n_hat[k], 1.0 - 1e-9);
    EXPECT_LE(p.app.kernels[k].wcet_ms / sol.n_hat[k],
              sol.ii * (1.0 + 1e-9));
    dsp += sol.n_hat[k] * p.app.kernels[k].res[Resource::kDsp];
    bram += sol.n_hat[k] * p.app.kernels[k].res[Resource::kBram];
    bw += sol.n_hat[k] * p.app.kernels[k].bw;
  }
  EXPECT_LE(dsp, f * p.cap()[Resource::kDsp] * (1.0 + 1e-6));
  EXPECT_LE(bram, f * p.cap()[Resource::kBram] * (1.0 + 1e-6));
  EXPECT_LE(bw, f * p.bw_cap() * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRelaxation, ::testing::Range(1, 26));

/// Property: the relaxed ÎI is monotone non-increasing in the resource
/// constraint (more resources can never hurt).
class MonotoneRelaxation : public ::testing::TestWithParam<int> {};

TEST_P(MonotoneRelaxation, IiMonotoneInConstraint) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u);
  Problem p = test::random_problem(rng);
  double previous = std::numeric_limits<double>::infinity();
  for (double rc = 0.5; rc <= 1.0; rc += 0.1) {
    p.resource_fraction = rc;
    auto sol = solve_relaxation(p);
    if (!sol.is_ok()) continue;  // tight fractions may be infeasible
    EXPECT_LE(sol.value().ii, previous * (1.0 + 1e-9));
    previous = sol.value().ii;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotoneRelaxation, ::testing::Range(1, 16));

}  // namespace
}  // namespace mfa::core
