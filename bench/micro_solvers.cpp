// Google-benchmark microbenchmarks of the solver components: the GP
// interior-point solve, the exact bisection relaxation, the candidate-
// threshold discretization, Algorithm 1, exact packing, and the end-to-end
// pipelines on the paper's largest case.
#include <benchmark/benchmark.h>

#include "alloc/gpa.hpp"
#include "alloc/greedy.hpp"
#include "core/relaxation.hpp"
#include "hls/paper.hpp"
#include "solver/exact.hpp"
#include "solver/candidates.hpp"
#include "solver/packing.hpp"

namespace {

mfa::core::Problem vgg_problem(double rc) {
  mfa::core::Problem p = mfa::hls::paper::case_vgg_8fpga();
  p.resource_fraction = rc;
  return p;
}

void BM_RelaxationBisection(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  for (auto _ : state) {
    auto r = mfa::core::solve_relaxation(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RelaxationBisection);

void BM_RelaxationInteriorPoint(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  for (auto _ : state) {
    auto r = mfa::core::solve_relaxation_gp(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RelaxationInteriorPoint);

void BM_Discretize(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  for (auto _ : state) {
    auto r = mfa::solver::discretize(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Discretize);

void BM_GreedyAllocate(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  const auto disc = mfa::solver::discretize(p);
  for (auto _ : state) {
    auto r = mfa::alloc::GreedyAllocator().allocate(p, disc.value().totals);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GreedyAllocate);

void BM_GpaEndToEnd(benchmark::State& state) {
  const mfa::core::Problem p =
      vgg_problem(0.55 + 0.05 * static_cast<double>(state.range(0)));
  for (auto _ : state) {
    auto r = mfa::alloc::GpaSolver().solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GpaEndToEnd)->DenseRange(0, 4);

void BM_PackingFeasibility(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  const std::vector<int> totals =
      mfa::solver::minimal_totals(p, /*target_ii=*/14.0);
  for (auto _ : state) {
    mfa::solver::Budget budget(10'000'000, 5.0);
    auto r = mfa::solver::PackingSolver(p).pack(
        totals, mfa::solver::PackingMode::kFeasibility, budget);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PackingFeasibility);

void BM_ExactAlex16(benchmark::State& state) {
  mfa::core::Problem p = mfa::hls::paper::case_alex16_2fpga();
  p.resource_fraction = 0.7;
  for (auto _ : state) {
    auto r = mfa::solver::ExactSolver().solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExactAlex16);

}  // namespace

BENCHMARK_MAIN();
