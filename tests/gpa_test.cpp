#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/gpa.hpp"
#include "hls/paper.hpp"
#include "solver/exact.hpp"
#include "testutil.hpp"

namespace mfa::alloc {
namespace {

using core::Problem;
using test::tiny_problem;

TEST(GpaSolver, EndToEndOnTiny) {
  Problem p = tiny_problem();
  auto r = GpaSolver().solve(p);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const GpaResult& g = r.value();
  EXPECT_TRUE(g.allocation.feasible());
  // Stage chain is consistent: relaxation ≤ discretized ≤ realized II
  // (drops can only raise the realized II).
  EXPECT_LE(g.relaxed_ii, g.discrete_ii + 1e-9);
  EXPECT_LE(g.discrete_ii, g.allocation.ii() + 1e-9);
  EXPECT_EQ(g.totals.size(), p.num_kernels());
  EXPECT_GE(g.seconds_total(), 0.0);
}

TEST(GpaSolver, InteriorPointPathAgreesWithBisectionPath) {
  Problem p = tiny_problem();
  GpaOptions ip;
  ip.use_interior_point = true;
  auto a = GpaSolver().solve(p);
  auto b = GpaSolver(ip).solve(p);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NEAR(a.value().relaxed_ii, b.value().relaxed_ii,
              1e-3 * a.value().relaxed_ii);
  EXPECT_EQ(a.value().totals, b.value().totals);
}

TEST(GpaSolver, PropagatesInvalidProblem) {
  Problem p = tiny_problem();
  p.app.kernels.clear();
  auto r = GpaSolver().solve(p);
  EXPECT_EQ(r.status().code(), Code::kInvalid);
}

TEST(GpaSolver, PropagatesInfeasibility) {
  Problem p = tiny_problem();
  p.app.kernels[0].res[core::Resource::kDsp] = 95.0;  // cap 80
  auto r = GpaSolver().solve(p);
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

/// Six one-CU kernels of DSP 50, 40, 35, 30, 25 and 20 on two FPGAs of
/// DSP 100: {50, 30, 20} and {40, 35, 25} fill both exactly, but
/// Algorithm 1's best-fit order (largest WCET first) fills the first FPGA
/// with 50 + 40 and leaves no room for the last kernel.
Problem best_fit_trap() {
  Problem p;
  p.app.name = "trap";
  const double dsp[] = {50.0, 40.0, 35.0, 30.0, 25.0, 20.0};
  for (int k = 0; k < 6; ++k) {
    p.app.kernels.push_back(test::make_kernel(
        "k" + std::to_string(k), 6.0 - k, 0.0, dsp[k], 0.0));
  }
  p.platform = core::Platform{"2fpga", 2};
  p.resource_fraction = 1.0;
  p.alpha = 1.0;
  p.beta = 0.0;
  return p;
}

TEST(GpaSolver, ExactNkOnePackingSeedsAlgorithm1WhereItLeavesAKernelEmpty) {
  const Problem p = best_fit_trap();
  const std::vector<int> ones(p.num_kernels(), 1);
  ASSERT_EQ(GreedyAllocator().allocate(p, ones).status().code(),
            Code::kInfeasible);

  auto r = GpaSolver().solve(p);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const GpaResult& g = r.value();
  EXPECT_EQ(g.totals, ones);
  EXPECT_GT(g.placement_nodes, 0);
  EXPECT_EQ(g.allocation.check(), std::vector<std::string>{});
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    EXPECT_EQ(g.allocation.total_cu(k), 1) << "kernel " << k;
  }
  EXPECT_DOUBLE_EQ(g.allocation.ii(), 6.0);

  // Where Algorithm 1 places on its own, the packing never runs.
  auto tiny = GpaSolver().solve(tiny_problem());
  ASSERT_TRUE(tiny.is_ok());
  EXPECT_EQ(tiny.value().placement_nodes, 0);
}

TEST(GpaSolver, NoPlacementAtNkOneIsAProvedInfeasibility) {
  // Three DSP-60 CUs pool to 180 of 200, so the pooled caps pass, but
  // no FPGA holds two of them: Algorithm 1 fails and the exact N_k = 1
  // packing proves that nothing places.
  Problem p;
  p.app.name = "three-sixties";
  for (int k = 0; k < 3; ++k) {
    p.app.kernels.push_back(
        test::make_kernel("k" + std::to_string(k), 3.0 - k, 0.0, 60.0, 0.0));
  }
  p.platform = core::Platform{"2fpga", 2};
  p.resource_fraction = 1.0;
  p.beta = 0.0;
  auto r = GpaSolver().solve(p);
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

TEST(GpaSolver, NeverBeatsExactOptimum) {
  // The heuristic can only be ≥ the exact β=0 optimum on II.
  for (double rc : {0.6, 0.75, 0.9}) {
    Problem p = hls::paper::case_alex16_2fpga();
    p.resource_fraction = rc;
    p.beta = 0.0;
    auto heuristic = GpaSolver().solve(p);
    auto exact = solver::ExactSolver().solve(p);
    ASSERT_TRUE(heuristic.is_ok());
    ASSERT_TRUE(exact.is_ok());
    ASSERT_TRUE(exact.value().proved_optimal);
    EXPECT_GE(heuristic.value().allocation.ii(),
              exact.value().ii * (1.0 - 1e-9))
        << "rc=" << rc;
  }
}

TEST(GpaSolver, TracksExactWithinPaperMargins) {
  // §4: GP+A "tracks well MINLP and in particular it catches the
  // extremes"; the worst divergence the paper reports is ~25 %.
  Problem p = hls::paper::case_alex16_2fpga();
  p.resource_fraction = 0.85;
  auto heuristic = GpaSolver().solve(p);
  auto exact = solver::ExactSolver().solve(p);
  ASSERT_TRUE(heuristic.is_ok());
  ASSERT_TRUE(exact.is_ok());
  EXPECT_LE(heuristic.value().allocation.ii(),
            exact.value().ii * 1.35);
}

TEST(GpaSolver, PaperCasesSolveFast) {
  // §4: GP+A runs in seconds (0.78–4.4 s on 2011 hardware); even our
  // simulated pipeline must stay well under a second per case.
  for (Problem p : {hls::paper::case_alex16_2fpga(),
                    hls::paper::case_alex32_4fpga(),
                    hls::paper::case_vgg_8fpga()}) {
    p.resource_fraction = 0.7;
    auto r = GpaSolver().solve(p);
    ASSERT_TRUE(r.is_ok()) << p.app.name;
    EXPECT_LT(r.value().seconds_total(), 1.0) << p.app.name;
  }
}

/// Property: GP+A produces a feasible allocation (or a clean status) on
/// random instances, and never reports II below the relaxation bound.
class RandomGpa : public ::testing::TestWithParam<int> {};

TEST_P(RandomGpa, FeasibleAndBounded) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 15101u);
  Problem p = test::random_problem(rng);
  auto r = GpaSolver().solve(p);
  if (!r.is_ok()) {
    EXPECT_NE(r.status().code(), Code::kOk);
    return;
  }
  EXPECT_TRUE(r.value().allocation.feasible());
  EXPECT_GE(r.value().allocation.ii(), r.value().relaxed_ii - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGpa, ::testing::Range(1, 31));

}  // namespace
}  // namespace mfa::alloc
