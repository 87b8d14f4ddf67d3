// Ablation studies of the design choices DESIGN.md calls out:
//
//  A. T/Δ interaction — Fig. 2's knob at two granularities, with the
//     allocator-internal iteration and drop counts exposed.
//  B. Relaxation path — exact bisection vs interior-point GP (same N̂,
//     different cost).
//  D. Simulator cross-check — model II vs measured II for every GP+A
//     point of the three paper cases.
#include <cstdio>

#include "alloc/gpa.hpp"
#include "bench/common.hpp"
#include "hls/paper.hpp"
#include "sim/pipeline_sim.hpp"

namespace {

using mfa::io::TextTable;

void ablation_t_delta() {
  std::printf("--- A. T/Delta interaction (Alex-16 on 2 FPGAs, R=60%%) "
              "---\n");
  TextTable t({"T (%)", "Delta (%)", "II (ms)", "iterations",
               "used R_c (%)", "dropped CUs"});
  for (double t_max : {0.0, 0.05, 0.15, 0.30}) {
    for (double delta : {0.01, 0.05}) {
      mfa::core::Problem p = mfa::hls::paper::case_alex16_2fpga();
      p.resource_fraction = 0.60;
      mfa::alloc::GpaOptions opts;
      opts.greedy.t_max = t_max;
      opts.greedy.delta = delta;
      auto r = mfa::alloc::GpaSolver(opts).solve(p);
      if (!r.is_ok()) continue;
      // Re-run the allocator alone to recover iteration/drop details.
      auto g = mfa::alloc::GreedyAllocator(opts.greedy)
                   .allocate(p, r.value().totals);
      t.add_row({TextTable::fmt(100 * t_max, 0),
                 TextTable::fmt(100 * delta, 0),
                 TextTable::fmt(r.value().allocation.ii(), 3),
                 TextTable::fmt_int(g.is_ok() ? g.value().iterations : -1),
                 TextTable::fmt(100 * r.value().used_fraction, 0),
                 TextTable::fmt_int(
                     g.is_ok() ? g.value().dropped_cus : -1)});
    }
  }
  mfa::bench::emit_table(t, "ablation_t_delta");
  std::printf("\n");
}

void ablation_relaxation_path() {
  std::printf("--- B. Relaxation path: bisection vs interior-point GP "
              "---\n");
  TextTable t({"Case", "bisect II", "IP-GP II", "bisect ms", "IP-GP ms"});
  for (mfa::core::Problem p : {mfa::hls::paper::case_alex16_2fpga(),
                               mfa::hls::paper::case_alex32_4fpga(),
                               mfa::hls::paper::case_vgg_8fpga()}) {
    p.resource_fraction = 0.7;
    mfa::alloc::GpaOptions ip;
    ip.use_interior_point = true;
    auto a = mfa::alloc::GpaSolver().solve(p);
    auto b = mfa::alloc::GpaSolver(ip).solve(p);
    if (!a.is_ok() || !b.is_ok()) continue;
    t.add_row({p.app.name, TextTable::fmt(a.value().relaxed_ii, 4),
               TextTable::fmt(b.value().relaxed_ii, 4),
               TextTable::fmt(1e3 * a.value().seconds_relax, 3),
               TextTable::fmt(1e3 * b.value().seconds_relax, 3)});
  }
  mfa::bench::emit_table(t, "ablation_relaxation_path");
  std::printf("Same relaxed optimum; the problem-specific bisection is "
              "the cheaper step, the general IP solver is the paper's "
              "GPkit role.\n\n");
}

void ablation_simulator() {
  std::printf("--- D. Simulator cross-check (GP+A allocations, R=70%%) "
              "---\n");
  TextTable t({"Case", "model II (ms)", "measured II (ms)",
               "max throttle", "bottleneck busy"});
  for (mfa::core::Problem p : {mfa::hls::paper::case_alex16_2fpga(),
                               mfa::hls::paper::case_alex32_4fpga(),
                               mfa::hls::paper::case_vgg_8fpga()}) {
    p.resource_fraction = 0.7;
    auto r = mfa::alloc::GpaSolver().solve(p);
    if (!r.is_ok()) continue;
    const mfa::sim::SimResult s =
        mfa::sim::PipelineSimulator().run(r.value().allocation);
    double busiest = 0.0;
    for (double b : s.stage_busy) busiest = std::max(busiest, b);
    t.add_row({p.app.name, TextTable::fmt(r.value().allocation.ii(), 3),
               TextTable::fmt(s.measured_ii_ms, 3),
               TextTable::fmt(s.max_throttle, 2),
               TextTable::fmt(busiest, 3)});
  }
  mfa::bench::emit_table(t, "ablation_simulator");
  std::printf("Feasible allocations execute at exactly the analytical II "
              "(no DRAM throttling), validating eqs. 1-2 + 10.\n\n");
}

}  // namespace

int main() {
  std::printf("== Ablations of the heuristic's design choices ==\n\n");
  ablation_t_delta();
  ablation_relaxation_path();
  ablation_simulator();
  return 0;
}
