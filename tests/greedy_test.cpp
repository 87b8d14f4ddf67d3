#include <functional>
#include <random>

#include <gtest/gtest.h>

#include "alloc/greedy.hpp"
#include "core/relaxation.hpp"
#include "solver/candidates.hpp"
#include "testutil.hpp"

namespace mfa::alloc {
namespace {

using core::Platform;
using core::Problem;
using test::make_kernel;
using test::tiny_problem;

TEST(GreedyAllocator, PlacesTrivialInstance) {
  Problem p = tiny_problem();
  auto r = GreedyAllocator().allocate(p, {1, 1, 1});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().dropped_cus, 0);
  EXPECT_TRUE(r.value().allocation.feasible());
  EXPECT_DOUBLE_EQ(r.value().used_fraction, p.resource_fraction);
  EXPECT_EQ(r.value().iterations, 1);
}

TEST(GreedyAllocator, ConsolidatesOntoOneFpga) {
  // Everything fits on one FPGA; the allocator must not spread.
  Problem p = tiny_problem();
  auto r = GreedyAllocator().allocate(p, {2, 1, 1});
  ASSERT_TRUE(r.is_ok());
  const core::Allocation& a = r.value().allocation;
  int used_fpgas = 0;
  for (int f = 0; f < p.num_fpgas(); ++f) {
    bool any = false;
    for (std::size_t k = 0; k < p.num_kernels(); ++k) any |= a.cu(k, f) > 0;
    used_fpgas += any ? 1 : 0;
  }
  EXPECT_EQ(used_fpgas, 1);
}

TEST(GreedyAllocator, SplitsOversizedKernelAcrossFpgas) {
  // 4 CUs of 30% DSP cannot share one 100% FPGA → pre-pass splits 3+1.
  Problem p;
  p.app.kernels = {make_kernel("big", 10.0, 0.0, 30.0, 0.0)};
  p.platform = Platform{"2", 2};
  auto r = GreedyAllocator().allocate(p, {4});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().dropped_cus, 0);
  EXPECT_EQ(r.value().allocation.total_cu(0), 4);
  EXPECT_EQ(r.value().allocation.fpgas_used_by(0), 2);
}

TEST(GreedyAllocator, DropsSurplusWhenSaturated) {
  // Pooled-feasible but unpackable: two 60% kernels, 2 CUs each on two
  // FPGAs (pooled 240 > 200 → the discretizer would not emit this, but
  // the allocator must degrade gracefully, not fail).
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 0.0, 60.0, 0.0),
                   make_kernel("b", 10.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"2", 2};
  auto r = GreedyAllocator().allocate(p, {2, 2});
  ASSERT_TRUE(r.is_ok());
  EXPECT_GT(r.value().dropped_cus, 0);
  // Every kernel keeps at least one CU (eq. 8).
  EXPECT_GE(r.value().allocation.total_cu(0), 1);
  EXPECT_GE(r.value().allocation.total_cu(1), 1);
  EXPECT_TRUE(r.value().allocation.feasible());
}

TEST(GreedyAllocator, InfeasibleOnlyWhenAKernelCannotPlaceOneCu) {
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 0.0, 80.0, 0.0),
                   make_kernel("b", 10.0, 0.0, 80.0, 0.0),
                   make_kernel("c", 10.0, 0.0, 80.0, 0.0)};
  p.platform = Platform{"2", 2};  // only two FPGAs for three 80% kernels
  auto r = GreedyAllocator().allocate(p, {1, 1, 1});
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

TEST(GreedyAllocator, TRelaxationRescuesTightConstraint) {
  // At R = 50% a 60% kernel cannot place; T = 15% lets R_c reach 65%.
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"1", 1};
  p.resource_fraction = 0.5;

  auto strict = GreedyAllocator().allocate(p, {1});
  EXPECT_EQ(strict.status().code(), Code::kInfeasible);

  GreedyOptions opts;
  opts.t_max = 0.15;
  opts.delta = 0.01;
  auto relaxed = GreedyAllocator(opts).allocate(p, {1});
  ASSERT_TRUE(relaxed.is_ok());
  EXPECT_GT(relaxed.value().used_fraction, 0.5);
  EXPECT_LE(relaxed.value().used_fraction, 0.65 + 1e-9);
  EXPECT_GT(relaxed.value().iterations, 1);
}

TEST(GreedyAllocator, DeltaControlsRelaxationGranularity) {
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"1", 1};
  p.resource_fraction = 0.5;
  GreedyOptions coarse;
  coarse.t_max = 0.30;
  coarse.delta = 0.10;
  auto r = GreedyAllocator(coarse).allocate(p, {1});
  ASSERT_TRUE(r.is_ok());
  // Steps 0.5 → 0.6: two iterations.
  EXPECT_EQ(r.value().iterations, 2);
  EXPECT_NEAR(r.value().used_fraction, 0.6, 1e-9);
}

TEST(GreedyAllocator, BandwidthIsARealConstraint) {
  // Resources free, bandwidth binds: 40% BW per CU, 3 CUs on 1 FPGA
  // cannot hold; 2 fit.
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 1.0, 1.0, 40.0)};
  p.platform = Platform{"1", 1};
  auto r = GreedyAllocator().allocate(p, {3});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().allocation.total_cu(0), 2);
  EXPECT_EQ(r.value().dropped_cus, 1);
}

TEST(GreedyAllocator, RespectsConstraintScaling) {
  Problem p = tiny_problem();  // 80%
  auto r = GreedyAllocator().allocate(p, {3, 2, 2});
  ASSERT_TRUE(r.is_ok());
  const core::Allocation& a = r.value().allocation;
  for (int f = 0; f < p.num_fpgas(); ++f) {
    EXPECT_TRUE(a.fpga_resources(f).fits_within(p.cap(), 1e-6));
    EXPECT_LE(a.fpga_bw(f), p.bw_cap() + 1e-6);
  }
}

TEST(GreedyAllocator, EqualSlackTiesBreakLikeAStableSort) {
  // After each placement the FPGAs are ordered by normalized slack; ties
  // go to the tighter device class, then to the earlier position. Two
  // classes, FPGAs 1 and 3 small (40 %), 0 and 2 big (80 %); every kernel
  // has one CU and they place in decreasing WCET:
  //   a (50 % BRAM) fits only a big FPGA → FPGA 0, slack key 0.3 (BW);
  //   c (70 % BW) no longer fits FPGA 0 → FPGA 1, key 0.3 too: the small
  //     FPGA 1 now sorts before the big FPGA 0 at equal key;
  //   d fits both → FPGA 1 (key 0.25);
  //   e (75 % BW) fits only FPGA 3 → key 0.25, after FPGA 1 (same class,
  //     earlier position);
  //   f fits both FPGAs at 0.25 → FPGA 1.
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 50.0, 0.0, 70.0),
                   make_kernel("c", 9.0, 10.0, 0.0, 70.0),
                   make_kernel("d", 8.0, 5.0, 0.0, 5.0),
                   make_kernel("e", 7.0, 10.0, 0.0, 75.0),
                   make_kernel("f", 6.0, 5.0, 0.0, 5.0)};
  const core::DeviceClass small{"small", core::ResourceVec::uniform(40.0),
                                100.0};
  const core::DeviceClass big{"big", core::ResourceVec::uniform(80.0), 100.0};
  p.platform = Platform::heterogeneous("mix", {big, small}, {0, 1, 0, 1});
  auto r = GreedyAllocator().allocate(p, {1, 1, 1, 1, 1});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().dropped_cus, 0);
  const std::vector<int> expected_fpga = {0, 1, 1, 3, 1};
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    EXPECT_EQ(r.value().allocation.cu(k, expected_fpga[k]), 1)
        << p.app.kernels[k].name;
  }
}

/// Property: on random instances with discretizer-produced totals, the
/// allocator always returns a placement that (a) respects caps at the
/// used fraction, (b) keeps one CU per kernel, (c) places no more than
/// requested, and (d) drops nothing when a per-kernel-consolidated
/// placement obviously exists (all kernels fit one FPGA together).
class RandomGreedy : public ::testing::TestWithParam<int> {};

TEST_P(RandomGreedy, InvariantsHold) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 40487u);
  Problem p = test::random_problem(rng);
  auto disc = solver::discretize(p);
  if (!disc.is_ok()) return;  // N_k = 1 does not fit: nothing to place

  auto r = GreedyAllocator().allocate(p, disc.value().totals);
  if (!r.is_ok()) return;  // legitimate: fragmentation can block eq. 8
  const core::Allocation& a = r.value().allocation;
  const core::ResourceVec cap =
      p.platform.capacity * r.value().used_fraction;
  int placed_total = 0;
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    EXPECT_GE(a.total_cu(k), 1);
    EXPECT_LE(a.total_cu(k), disc.value().totals[k]);
    placed_total += a.total_cu(k);
  }
  int requested = 0;
  for (int n : disc.value().totals) requested += n;
  EXPECT_EQ(requested - placed_total, r.value().dropped_cus);
  for (int f = 0; f < p.num_fpgas(); ++f) {
    EXPECT_TRUE(a.fpga_resources(f).fits_within(cap, 1e-6));
    EXPECT_LE(a.fpga_bw(f), p.bw_cap() + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGreedy, ::testing::Range(1, 41));

}  // namespace
}  // namespace mfa::alloc
