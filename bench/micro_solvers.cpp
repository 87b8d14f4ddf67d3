// Google-benchmark microbenchmarks of the solver components: the GP
// interior-point solve, the exact bisection relaxation, the candidate-
// threshold discretization, Algorithm 1, exact packing, and the end-to-end
// pipelines on the paper's largest case. Algorithm 1 also runs on the
// composite shape the allocation daemon serves on a dense 12-FPGA pool.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "alloc/gpa.hpp"
#include "alloc/greedy.hpp"
#include "core/relaxation.hpp"
#include "hls/paper.hpp"
#include "scenario/trace.hpp"
#include "service/composite.hpp"
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

/// The live composite of a dense arrival trace (perfbench's dense_pool
/// shape: a 12-FPGA pool, up to 8 live pipelines of 3–6 kernels, up to 6
/// CUs of a kernel per FPGA) at the first event where at least 30
/// kernels share 12 FPGAs and Algorithm 1 drops CUs of the minimal
/// totals. A drop means its first attempt failed, so the eq.-8 fallback
/// and the marginal attempt run too, as on most served events.
mfa::core::Problem dense_pool_composite() {
  using mfa::service::Event;
  mfa::scenario::TraceSpec spec;
  spec.num_events = 2000;
  spec.max_live_pipelines = 8;
  spec.min_kernels = 3;
  spec.max_kernels = 6;
  spec.max_cu_per_kernel = 6;
  spec.num_fpgas = 12;
  spec.reprioritize_fraction = 0.30;
  spec.mean_lifetime_s = 0.4;
  const mfa::scenario::Trace trace = mfa::scenario::generate_trace(spec, 4);
  mfa::service::CompositeBuilder composite(trace.platform, {});
  std::vector<mfa::service::PipelineSpec> live;
  for (const Event& event : trace.events) {
    const auto at = static_cast<std::size_t>(
        std::find_if(live.begin(), live.end(),
                     [&](const auto& pipe) { return pipe.id == event.id; }) -
        live.begin());
    switch (event.type) {
      case Event::Type::kAddPipeline:
        composite.add_pipeline(event.pipeline);
        live.push_back(event.pipeline);
        break;
      case Event::Type::kRemovePipeline:
        composite.remove_pipeline(at);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case Event::Type::kReprioritize:
        live[at].weight = event.weight;
        composite.reprioritize(at, live[at]);
        break;
      case Event::Type::kResizePlatform:
        composite.resize_platform(event.platform);
        break;
    }
    const mfa::core::Problem& p = composite.live();
    if (p.num_kernels() < 30 || p.num_fpgas() != 12) continue;
    const auto disc = mfa::solver::discretize(p);
    if (!disc.is_ok()) continue;
    const auto placed =
        mfa::alloc::GreedyAllocator().allocate(p, disc.value().totals);
    if (placed.is_ok() && placed.value().dropped_cus > 0) return p;
  }
  return {};
}

void BM_GreedyAllocateDensePool(benchmark::State& state) {
  const mfa::core::Problem p = dense_pool_composite();
  if (p.num_kernels() == 0) {
    state.SkipWithError("the trace has no dense composite that drops CUs");
    return;
  }
  const auto disc = mfa::solver::discretize(p);
  for (auto _ : state) {
    auto r = mfa::alloc::GreedyAllocator().allocate(p, disc.value().totals);
    benchmark::DoNotOptimize(r);
  }
  state.counters["kernels"] = static_cast<double>(p.num_kernels());
}
BENCHMARK(BM_GreedyAllocateDensePool);

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
